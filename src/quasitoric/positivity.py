"""Deciding existence of a positive omniorientation over GF(2), with certificates.

Making every fixed-point sign +1 is linear mod squares: writing eps0 = (-1)^x0
and eps_j = (-1)^x_j, vertex v demands

    x0 + sum_{j in S(v)} x_j = b_v   over GF(2),

where b_v = 1 iff the base sign orientation(v) * det lambda_v, the sign at
the all-positive omniorientation (``pair.base_signs``), is -1. The row of
vertex v is 1 | mask << 1, its facet bitmask shifted past x0.

``decide_positive`` builds no system for a SAT pair. Across an edge v -> w
of the polytope's spanning tree (``SimplePolytope.bfs_tree``) facet a is
swapped for facet b, so the two rows sum to x_a + x_b = b_v + b_w. Every
row is the root's row plus the edge rows on its tree path, so one vertex's
row and the V - 1 edge rows are row-equivalent to the whole system, in
every dimension: one pass over the tree's edges joins the m facets into
parity classes, O(V + m log m), and the system is SAT iff no exchange
contradicts the parities inside a class. Its kernel is constant on each
class, so the free unknowns of ``solve``'s lowest-unknown pivot rule are
the largest facet of each class, and the kernel dimension is their number;
setting them 0 and reading x0 off one row gives ``solve``'s certificate
(see ``_decide_by_tree``). An UNSAT polygon's rows have one dependency,
their sum, so its witness is every vertex, and no polygon builds a
system. On cp2_sum(199) x cp2_sum(199), 40401 vertices,
``decide_positive`` takes 12-20 ms, where elimination took 1.5 s
(CPython 3.11).

``solve`` is forward elimination over the system. It keeps each row as one
integer that also packs its rhs and its history. The history is kept in
slots, one per pivot, not one bit per vertex, so a row holds about 2m bits
however many vertices there are. Elimination yields either the
lexicographically determined certificate (free variables zeroed, pivots at
the lowest unknown indices), found by back-substitution, or a set of
vertices whose equations sum to 0 = 1, expanded from a zero row's slots.
Both are the ones Gauss-Jordan elimination to RREF finds under the same
pivot rule. ``decide_positive`` runs it only for the witness of an UNSAT
pair of dim other than 2, which has no closed form; the tests run it as
the oracle of the tree pass. Every result is re-verified before being
returned. A brute-force enumeration over all 2^(m+1) omniorientations
serves as the independent oracle.
"""

from __future__ import annotations

from math import prod

from .charpair import CharacteristicPair, Omniorientation, all_signs
from .errors import InternalInconsistencyError, Record, TooLargeError

BRUTE_FORCE_MAX_FACETS = 20


class Gf2System(Record):
    """One bit row per vertex over unknowns x0 (global) and x_{1+j} (facet j).

    Each row is a bitmask below 1 << num_unknowns and each rhs 0 or 1, one
    per row: ``solve`` packs the rhs and its history above a row's bits.
    """

    __slots__ = ("num_unknowns", "rows", "rhs")

    def __init__(self, num_unknowns: int, rows: tuple[int, ...], rhs: tuple[int, ...]):
        if num_unknowns < 0:
            raise ValueError("num_unknowns must be >= 0")
        if len(rows) != len(rhs):
            raise ValueError(f"{len(rows)} rows but {len(rhs)} rhs entries")
        if rows and (min(rows) < 0 or max(rows) >> num_unknowns):
            raise ValueError(f"a row has a bit outside the {num_unknowns} unknowns")
        if not set(rhs) <= {0, 1}:
            raise ValueError("each rhs entry must be 0 or 1")
        object.__setattr__(self, "num_unknowns", num_unknowns)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)


class PositivityResult(Record):
    """SAT with certificate and kernel dimension, or UNSAT with a parity witness.

    ``witness`` holds vertex indices (canonical order) whose sign equations
    are contradictory: the witness set has even size, meets every facet an
    even number of times, and its base signs multiply to -1.
    """

    __slots__ = ("satisfiable", "certificate", "kernel_dim", "witness")

    def __init__(
        self,
        satisfiable: bool,
        certificate: Omniorientation | None = None,
        kernel_dim: int | None = None,
        witness: tuple[int, ...] | None = None,
    ):
        object.__setattr__(self, "satisfiable", satisfiable)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "kernel_dim", kernel_dim)
        object.__setattr__(self, "witness", witness)

    @property
    def solution_count(self) -> int:
        return 0 if not self.satisfiable else 1 << self.kernel_dim


class BruteForceResult(Record):
    __slots__ = ("satisfiable", "count", "certificate")

    def __init__(self, satisfiable: bool, count: int, certificate: Omniorientation | None):
        object.__setattr__(self, "satisfiable", satisfiable)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "certificate", certificate)


def build_system(pair: CharacteristicPair) -> Gf2System:
    """Linearized all-signs-positive condition, one row per vertex in order."""
    rows = tuple(1 | mask << 1 for mask in pair.polytope.masks)
    rhs = tuple(int(s == -1) for s in pair.base_signs)
    return Gf2System(pair.polytope.num_facets + 1, rows, rhs)


def _omni_from_mask(mask: int, num_facets: int) -> Omniorientation:
    global_sign = -1 if mask & 1 else 1
    facet_signs = tuple(-1 if (mask >> (1 + j)) & 1 else 1 for j in range(num_facets))
    return Omniorientation(global_sign, facet_signs)


def solve(system: Gf2System) -> PositivityResult:
    """Forward GF(2) elimination with slot histories, then back-substitution.

    Pivots are chosen at the lowest unknown index: the first row from
    position r in the current order that has the column's bit is swapped to
    position r and XORed into the rows below it that have the bit. With n
    unknowns, each work row is one integer: its coefficients in bits 0..n-1,
    its rhs in bit n, and from bit n + 1 its history in slots. The row that
    becomes the pivot of slot s keeps position s; ``carried[s]`` records the
    slots in its history then, and from then on it stands for slot bit s
    alone, so a row holds at most 2n + 1 bits whatever the number of rows.

    A row left with 0 = 1 is the inconsistency witness: its own original
    index plus the origins of its slots, each slot expanded from the highest
    down into the lower slots it carried. Otherwise back-substitution from
    the last pivot finds the solution with every free unknown 0.

    Both are those of Gauss-Jordan elimination to RREF under the same pivot
    rule. The solution with the free unknowns 0 is unique. The rows at
    positions >= r receive the same XORs as under Gauss-Jordan, which only
    adds clearing the rows above, so the pivots, the zero rows, their order
    and their histories are the same.
    """
    n = system.num_unknowns
    top = n + 1  # slot s of the history is bit top + s
    equation = (1 << top) - 1  # the coefficient and rhs bits
    rows = [c | b << n for c, b in zip(system.rows, system.rhs)]
    n_rows = len(rows)
    order = list(range(n_rows))  # order[i]: the original index of the row at position i
    pivots = []  # pivots[s]: the column of slot s, whose pivot row is at position s
    carried = []  # carried[s]: the slots that row's history held as it became slot s
    for col in range(n):
        bit = 1 << col
        r = len(pivots)
        for piv in range(r, n_rows):
            if rows[piv] & bit:
                break
        else:
            continue
        row = rows[piv]
        rows[piv] = rows[r]
        order[r], order[piv] = order[piv], order[r]
        carried.append(row >> top)
        row = row & equation | 1 << (top + r)
        rows[r] = row
        for i in range(r + 1, n_rows):
            if rows[i] & bit:
                rows[i] ^= row
        pivots.append(col)
        if r + 1 == n_rows:
            break

    rank = len(pivots)
    for i in range(rank, n_rows):  # each such row has no coefficient bit left
        row = rows[i]
        if row >> n & 1:
            witness = [order[i]]
            slots = row >> top
            while slots:  # the highest slot's row carried only lower slots
                s = slots.bit_length() - 1
                witness.append(order[s])
                slots ^= 1 << s ^ carried[s]
            witness.sort()
            return PositivityResult(satisfiable=False, witness=tuple(witness))

    mask = 0  # the pivot unknowns already solved, all of a higher column
    for s in range(rank - 1, -1, -1):
        row = rows[s]
        if ((row & mask).bit_count() ^ row >> n) & 1:
            mask |= 1 << pivots[s]
    return PositivityResult(
        satisfiable=True,
        certificate=_omni_from_mask(mask, n - 1),
        kernel_dim=n - rank,
    )


def _decide_by_tree(pair: CharacteristicPair) -> PositivityResult | None:
    """``solve(build_system(pair))`` for a SAT pair, from the facet exchanges
    of its spanning tree with no system; None when the pair is UNSAT.

    In signs, vertex v's row says eps0 * s_v * prod_{j in v} eps_j = 1, with
    s_v its base sign. Each tree edge v -> w swaps facet a of v for facet b
    of w, so the two rows give the exchange eps_a * eps_b = s_v * s_w. One
    pass over the edges, in list order, joins the facets into classes: the
    facets of a class share one list and know their signs relative to one
    another. An exchange that meets a facet alone adds it to the other
    facet's class, and one between two classes moves the smaller into the
    larger, its relative signs negated if the exchange asks for it, so a
    facet moves at most log2 m times. An exchange inside one class that its
    relative signs break closes a cycle of odd parity: UNSAT. Otherwise the
    kernel of the system is one free bit per class, the same on all of its
    facets, with x0 fixed by the root row. A kernel vector's highest unknown
    is thus a class's largest facet, so those are the unknowns that are no
    pivot of ``solve``, which pivots on the lowest unknown first: the kernel
    dimension is the number of classes, and ``solve`` gives each largest
    facet the sign +1. The global sign then makes vertex 0's sign +1.
    """
    poly = pair.polytope
    verts, signs = poly.vertices, pair.base_signs
    m = poly.num_facets
    classes = [None] * m  # classes[a]: the facets of a's class, None while a is alone
    rel = [1] * m  # rel[a] * rel[b] = eps_a * eps_b for a, b of one class
    for w, v, pos, wpos in poly.bfs_tree:
        a, b = verts[v][pos], verts[w][wpos]
        r = signs[v] * signs[w] * rel[a] * rel[b]  # -1 where the exchange fails
        ca, cb = classes[a], classes[b]
        if cb is None:  # b is alone, and joins a's class
            if ca is None:
                ca = classes[a] = [a]
            ca.append(b)
            classes[b] = ca
            rel[b] = r
        elif ca is None:  # a is alone, and joins b's class
            cb.append(a)
            classes[a] = cb
            rel[a] = r
        elif ca is cb:
            if r < 0:
                return None
        else:  # the smaller class moves into the larger
            if len(ca) < len(cb):
                ca, cb = cb, ca
            for f in cb:
                classes[f] = ca
                rel[f] *= r
            ca += cb
    # every facet is in a class by now: a facet at a vertex is missing from
    # the vertex across the ridge without it, and the tree path between the
    # two swaps it
    eps = [0] * m
    kernel_dim = 0
    for top in reversed(range(m)):  # the first facet met of each class is its largest
        if not eps[top]:
            kernel_dim += 1
            t = rel[top]
            for f in classes[top]:
                eps[f] = rel[f] * t
    global_sign = signs[0] * prod(map(eps.__getitem__, verts[0]))
    return PositivityResult(
        satisfiable=True,
        certificate=Omniorientation(global_sign, eps),
        kernel_dim=kernel_dim,
    )


def _verify(pair: CharacteristicPair, result: PositivityResult) -> None:
    if result.satisfiable:
        if any(s != 1 for s in all_signs(pair, result.certificate)):
            raise InternalInconsistencyError("certificate does not make all signs +1")
        return
    # the XOR of the witness's system rows: bit 0 is its size mod 2 and bit
    # 1 + j the parity of its hits on facet j, so 0 means even in both
    total = 0
    base_product = 1
    for vi in result.witness:
        total ^= 1 | pair.polytope.masks[vi] << 1
        base_product *= pair.base_signs[vi]
    if total:
        raise InternalInconsistencyError(
            "witness has odd size or meets some facet an odd number of times"
        )
    if base_product != -1:
        raise InternalInconsistencyError("witness base signs do not multiply to -1")


def decide_positive(pair: CharacteristicPair) -> PositivityResult:
    """Decide whether the pair admits a positive omniorientation.

    ``_decide_by_tree``'s one pass over the facet exchanges of the spanning
    tree decides every pair, O(V + m log m) with no system, and gives a SAT
    pair's certificate and kernel dimension. An UNSAT polygon's witness is
    every vertex, since its rows' one dependency is their sum; any other
    UNSAT pair runs ``solve(build_system(pair))`` for its witness. Both
    give the result Gauss-Jordan elimination to RREF gives. The returned
    certificate or witness is verified against the pair before being
    handed out; a verification failure is a defect, not an input error.
    """
    result = _decide_by_tree(pair)
    if result is None:
        poly = pair.polytope
        if poly.dim == 2:
            result = PositivityResult(satisfiable=False, witness=tuple(range(poly.num_vertices)))
        else:
            result = solve(build_system(pair))
    _verify(pair, result)
    return result


def admits_invariant_acs(pair: CharacteristicPair) -> bool:
    """True iff the manifold admits an invariant almost complex structure."""
    return decide_positive(pair).satisfiable


def brute_force_decide(pair: CharacteristicPair) -> BruteForceResult:
    """Independent oracle: enumerate all 2^(m+1) omniorientations.

    Refuses m > BRUTE_FORCE_MAX_FACETS. A mask satisfies the system when its
    bit-parity against each vertex row equals that row's rhs bit; the
    reported certificate is the smallest satisfying mask. Needs numpy (the
    ``test`` extra), imported here so the library itself does not load it.
    """
    import numpy as np

    m = pair.polytope.num_facets
    if m > BRUTE_FORCE_MAX_FACETS:
        raise TooLargeError(f"{m} facets means 2^{m + 1} assignments; refusing")
    system = build_system(pair)
    masks = np.arange(1 << system.num_unknowns, dtype=np.uint64)
    ok = np.ones(masks.size, dtype=bool)
    for row, b in zip(system.rows, system.rhs):
        ok &= (np.bitwise_count(masks & np.uint64(row)) & np.uint8(1)) == b
    hits = np.flatnonzero(ok)
    cert = _omni_from_mask(int(hits[0]), m) if hits.size else None
    return BruteForceResult(satisfiable=hits.size > 0, count=int(hits.size), certificate=cert)
