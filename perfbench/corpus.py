"""Seeded command streams for the three workloads.

Every pair is built with the library's own constructors, carried to a seeded
GL(n,Z) basis, and handed to the CLI only as ``.qtm`` text made by
``fileformat.serialize``. Pairs of dimension 3 and up also get a seeded facet
labelling. Surfaces do not: relabelling reorders the congruence
diagonalization in ``signature``, whose cost then swings up to twofold from
seed to seed. Alongside each text the
generator records what it knows about the pair in closed form (Euler
characteristic, f- and h-vectors, signature, decision), so the outputs can be
checked against values the code under test does not produce.

The size profile of each workload is fixed; the seed picks only the shapes
(which pieces are summed, where, which basis, which labelling). That keeps a
pass's cost nearly the same from seed to seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from quasitoric import charpair, constructions, fileformat
from quasitoric.charpair import Omniorientation


@dataclass
class Item:
    """One pair of the corpus and the facts known about it in closed form.

    ``facts`` maps an output key (``euler``, ``f_vector``, ...) to the set of
    values it may take. ``uniform_signs`` says every fixed-point sign is the
    same under the omniorientation the text carries. ``known_positive`` is a
    positive omniorientation, exactly when ``known_exact``, else up to its
    global sign.
    """

    label: str
    text: str
    pair: object
    facts: dict[str, set[str]]
    uniform_signs: bool = False
    known_positive: Omniorientation | None = None
    known_exact: bool = False


@dataclass
class Command:
    argv: list[str]
    item: Item


def _unimodular(rng: random.Random, n: int, steps: int):
    """Small-entry GL(n,Z) matrix with its determinant, from seeded
    transvections (det 1), row swaps and a row negation (det -1 each)."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    det = 1
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    for i in range(n - 1, 0, -1):  # Fisher-Yates shuffle of the rows
        j = rng.randrange(i + 1)
        if j != i:
            a[i], a[j] = a[j], a[i]
            det = -det
    if rng.random() < 0.5:
        a[0] = [-x for x in a[0]]
        det = -det
    return tuple(tuple(row) for row in a), det


def _basis(rng, pair, omni, steps):
    """Seeded basis change that keeps every fixed-point sign: a det -1 change
    negates every det lambda_v, which the global sign absorbs."""
    a, det = _unimodular(rng, pair.polytope.dim, steps)
    return charpair.basis_change(pair, a), omni if det == 1 else omni.flip_global()


def _disguise(rng, pair, omni, steps):
    """Seeded facet relabelling (relabel_facets compensates its own
    renormalization in the global sign), then a seeded basis change."""
    perm = list(range(pair.polytope.num_facets))
    rng.shuffle(perm)
    return _basis(rng, *charpair.relabel_facets(pair, perm, omni), steps)


def _text(pair, omni) -> str:
    return fileformat.serialize(fileformat.PairDocument.from_pair(pair, omni))


def _polymul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _face_facts(h) -> dict[str, set[str]]:
    """Facts of a simple n-polytope with h-vector h: f_k = sum_i C(i,k) h_i."""
    n = len(h) - 1
    f = [sum(comb(i, k) * h[i] for i in range(k, n + 1)) for k in range(n)]
    return {
        "dim": {str(n)},
        "facets": {str(f[n - 1])},
        "vertices": {str(f[0])},
        "f_vector": {" ".join(map(str, f))},
        "h_vector": {" ".join(map(str, h))},
        "euler": {str(f[0])},
    }


def _surface_facts(m: int, signatures) -> dict[str, set[str]]:
    facts = _face_facts([1, m - 2, 1])
    todds = {Fraction(m + s, 4) for s in signatures}
    facts["signature"] = {str(s) for s in signatures}
    facts["todd"] = {str(t) for t in todds}
    facts["almost_complex_4d"] = {"true" if t.denominator == 1 else "false" for t in todds}
    return facts


# --- surfaces -------------------------------------------------------------

SURFACE_SMALL = 104
# twelve alike commands around the p90 rank keep cmd_p90_s from resting on one
SURFACE_TAIL = [32, 33] * 6 + [48, 49, 56, 57, 64, 65]


def _surface_small(rng: random.Random, i: int) -> Item:
    """A sum of 1-6 pieces, CP^2 and Hirzebruch surfaces alternating, every
    third one blown up at a vertex. Under the all-positive omniorientation a
    sum's signature is the number of CP^2 pieces, and a blow-up moves it by
    one. The seed picks the Hirzebruch parameters, the vertices spliced and
    cut, and the basis; i alone fixes the size."""
    pieces = [(i // 6 + j) % 2 == 0 for j in range(1 + i % 6)]
    pair = None
    for is_cp2 in pieces:
        piece = constructions.cpn(2) if is_cp2 else constructions.hirzebruch(rng.randint(-3, 3))
        if pair is None:
            pair = piece
        else:
            pair = constructions.connected_sum_4d(
                pair, rng.choice(pair.polytope.vertices), piece, rng.choice(piece.polytope.vertices)
            )
    sig = sum(pieces)
    signatures = {sig}
    if i % 3 == 0:
        # a vertex other than the lex-smallest keeps the orientation class's
        # normalization, so the all-positive omniorientation carries over
        v = pair.polytope.vertices[rng.randrange(1, pair.polytope.num_vertices)]
        pair = constructions.vertex_cut(pair, v)
        signatures = {sig - 1, sig + 1}
    m = pair.polytope.num_facets
    pair, omni = _basis(rng, pair, Omniorientation.all_positive(m), 4)
    return Item(f"sum{len(pieces)}" + ("+cut" if i % 3 == 0 else ""), _text(pair, omni), pair,
                _surface_facts(m, signatures))


def _surface_tail(rng: random.Random, k: int) -> Item:
    """cp2_sum(k): euler k+2, signature k, todd (k+1)/2, SAT iff k odd,
    and then exactly two positive omniorientations."""
    pair = constructions.cp2_sum(k)
    pair, omni = _basis(rng, pair, Omniorientation.all_positive(k + 2), 4)
    facts = _surface_facts(k + 2, {k})
    facts["decision"] = {"SAT" if k % 2 else "UNSAT"}
    facts["positive_count"] = {"2" if k % 2 else "0"}
    return Item(f"cp2_sum({k})", _text(pair, omni), pair, facts)


def surfaces(rng: random.Random) -> list[Command]:
    items = [_surface_small(rng, i) for i in range(SURFACE_SMALL)]
    items += [_surface_tail(rng, k) for k in SURFACE_TAIL]
    return [Command(["report", "-"], item) for item in items]


# --- toric families (highdim, faces) ----------------------------------------


def _power(base, k: int):
    pair = base
    for _ in range(k - 1):
        pair = constructions.product(pair, base)
    return pair


def _toric(rng: random.Random, pair, h, steps: int, label: str) -> Item:
    """Toric pairs admit a positive omniorientation, and under the
    all-positive one every fixed-point sign is the same (+1, or -1 when the
    orientation class is normalized against the complex orientation), so
    chern_top is plus or minus euler."""
    pair, omni = _disguise(rng, pair, Omniorientation.all_positive(pair.polytope.num_facets), steps)
    facts = _face_facts(h)
    euler = next(iter(facts["euler"]))
    facts["chern_top"] = {euler, f"-{euler}"}
    facts["decision"] = {"SAT"}
    return Item(label, _text(pair, omni), pair, facts, uniform_signs=True, known_positive=omni)


def _cpn(rng, n, steps):
    return _toric(rng, constructions.cpn(n), [1] * (n + 1), steps, f"cpn({n})")


def _cp_power(rng, d, k, steps):
    return _toric(rng, _power(constructions.cpn(d), k), _hpow([1] * (d + 1), k), steps,
                  f"(CP{d})^{k}")


def _hpow(h, k):
    out = [1]
    for _ in range(k):
        out = _polymul(out, h)
    return out


# four cpn(30) pairs (eight commands) sit around the p90 rank
HIGHDIM_CPN = list(range(4, 28)) + list(range(5, 28, 2)) + [30] * 4 + [38, 46, 54]
HIGHDIM_CP1 = [3, 4, 5, 6, 7, 8, 9]
HIGHDIM_CP2 = [2, 3, 4, 5]


def highdim(rng: random.Random) -> list[Command]:
    """decide and invariants on basis-changed, relabelled cpn(n), (CP1)^k and
    (CP2)^k: validation (one Bareiss determinant per vertex) dominates."""
    items = [_cpn(rng, n, n) for n in HIGHDIM_CPN]
    items += [_cp_power(rng, 1, k, k) for k in HIGHDIM_CP1]
    items += [_cp_power(rng, 2, k, 2 * k) for k in HIGHDIM_CP2]
    return [Command([cmd, "-"], item) for item in items for cmd in ("decide", "invariants")]


def _three_fold(rng: random.Random, choice: int):
    """A 3-dimensional toric pair of the given kind, and its h-vector."""
    if choice == 0:
        return constructions.cpn(3), [1, 1, 1, 1]
    if choice == 1:
        base = constructions.cpn(3)
        return constructions.vertex_cut(base, rng.choice(base.polytope.vertices)), [1, 2, 2, 1]
    return (constructions.product(constructions.cpn(1), constructions.hirzebruch(rng.randint(-2, 2))),
            [1, 3, 3, 1])


FACES_CPN = list(range(3, 15))
FACES_CP1 = [3, 4, 5, 6, 7, 8, 9]
FACES_CP2 = [2, 3, 4, 5]
# (number of 3-d factors, other factor): the products reach n = 6-11
FACES_PRODUCTS = [(1, ("cpn", 3)), (1, ("cpn", 5)), (1, ("cpn", 7)), (1, ("cp1", 3)),
                  (1, ("cp1", 5)), (1, ("cp2", 2)), (1, ("cp2", 3)), (2, ("cpn", 1)),
                  (2, ("cpn", 2)), (2, ("cpn", 4)), (2, ("cp1", 2)), (2, ("cp1", 3)),
                  (2, ("cp2", 2)), (3, ("cpn", 1)), (3, ("cpn", 2))]


def _faces_product(rng, threes, extra, kinds) -> Item:
    kind, size = extra
    if kind == "cpn":
        pair, h = constructions.cpn(size), [1] * (size + 1)
    else:
        d = 1 if kind == "cp1" else 2
        pair, h = _power(constructions.cpn(d), size), _hpow([1] * (d + 1), size)
    for _ in range(threes):
        three, h3 = _three_fold(rng, next(kinds))
        pair, h = constructions.product(three, pair), _polymul(h3, h)
    return _toric(rng, pair, h, 2, f"3d^{threes}x{kind}{size}")


def faces(rng: random.Random) -> list[Command]:
    """validate and report on mid-dimension pairs: f_vector enumerates every
    subset of every vertex, twice per command."""
    items = [_cpn(rng, n, 2) for n in FACES_CPN]
    items += [_cp_power(rng, 1, k, 2) for k in FACES_CP1]
    items += [_cp_power(rng, 2, k, 2) for k in FACES_CP2]
    kinds = itertools.cycle(range(3))
    items += [_faces_product(rng, threes, extra, kinds) for threes, extra in FACES_PRODUCTS]
    # cpn(n) again under fresh seeded disguises: 100 commands, so p90 has 10 above it
    items += [_cpn(rng, n, 2) for n in FACES_CPN]
    return [Command([cmd, "-"], item) for item in items for cmd in ("validate", "report")]


WORKLOADS = {"surfaces": surfaces, "highdim": highdim, "faces": faces}


def build(workload: str, seed: int) -> list[Command]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
