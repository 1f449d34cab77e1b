"""Deciding existence of a positive omniorientation over GF(2), with certificates.

Making every fixed-point sign +1 is linear mod squares: writing eps0 = (-1)^x0
and eps_j = (-1)^x_j, vertex v demands

    x0 + sum_{j in S(v)} x_j = b_v   over GF(2),

where b_v = 1 iff the base sign orientation(v) * det lambda_v, the sign at
the all-positive omniorientation (``pair.base_signs``), is -1. The row of
vertex v is 1 | mask << 1, its facet bitmask shifted past x0.

``decide_positive`` builds no system. Across an edge v -> w of the
polytope's spanning tree (``SimplePolytope.bfs_tree``) facet a is swapped
for facet b, so the two rows sum to x_a + x_b = b_v + b_w. Every row is the
root's row plus the edge rows on its tree path, so one vertex's row and the
V - 1 edge rows are row-equivalent to the whole system, in every dimension.
One pass over the tree's edges joins the facets into parity classes and
gives ``solve``'s certificate and kernel dimension, or stops at the first
odd cycle of exchanges, whose edges give the UNSAT witness
(``_decide_by_tree``, ``_odd_cycle_witness``). On cp2_sum(199) x
cp2_sum(199), 40401 vertices, ``decide_positive`` takes 12-20 ms, where
elimination took 1.5 s (CPython 3.11).

``solve`` is Gauss-Jordan elimination to RREF over the system, the
reference for the tree pass. Every result of ``decide_positive`` is
re-verified before being returned; a brute-force enumeration over all
2^(m+1) omniorientations serves as the independent oracle.
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
    """Gaussian elimination over GF(2) to RREF, with witness extraction.

    Pivots are chosen at the lowest unknown index: the first row from
    position r that has the column's bit is swapped to position r and XORed
    into every other row that has it. With n unknowns, each work row is one
    integer: its coefficients in bits 0..n-1, its rhs in bit n, and in bit
    n + 1 + k the history of original row k having been combined into it. A
    row that reduces to its rhs bit and history, 0 = 1, hands its history
    back as the inconsistency witness; otherwise the certificate is the
    unique solution with every free unknown 0.
    """
    n = system.num_unknowns
    rhs = system.rhs
    rows = [c | rhs[k] << n | 1 << (n + 1 + k) for k, c in enumerate(system.rows)]
    n_rows = len(rows)
    pivots = []  # pivots[r]: the column of row r's pivot
    for col in range(n):
        bit = 1 << col  # tested with &, as a shift would copy the history bits
        r = len(pivots)
        piv = next((i for i in range(r, n_rows) if rows[i] & bit), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(n_rows):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        pivots.append(col)

    equation = (2 << n) - 1  # the coefficient and rhs bits
    for row in rows:
        if row & equation == 1 << n:
            hist = row >> (n + 1)
            witness = tuple(v for v in range(n_rows) if (hist >> v) & 1)
            return PositivityResult(satisfiable=False, witness=witness)

    mask = 0
    for row, col in zip(rows, pivots):
        if row & 1 << n:
            mask |= 1 << col
    return PositivityResult(
        satisfiable=True,
        certificate=_omni_from_mask(mask, n - 1),
        kernel_dim=n - len(pivots),
    )


def _decide_by_tree(pair: CharacteristicPair) -> PositivityResult:
    """The decision from the facet exchanges of the pair's spanning tree,
    with no system: ``solve(build_system(pair))`` for a SAT pair, and for an
    UNSAT pair the witness of the first odd cycle.

    In signs, vertex v's row says eps0 * s_v * prod_{j in v} eps_j = 1, with
    s_v its base sign. Each tree edge v -> w swaps facet a of v for facet b
    of w, so the two rows give the exchange eps_a * eps_b = s_v * s_w. One
    pass over the edges, in list order, joins the facets into classes: the
    facets of a class share one list and know their signs relative to one
    another. An exchange that meets a facet alone adds it to the other
    facet's class, and one between two classes moves the smaller into the
    larger, its relative signs negated if the exchange asks for it, so a
    facet moves at most log2 m times. An exchange inside one class that its
    relative signs break closes a cycle of odd parity: UNSAT, with the
    witness of ``_odd_cycle_witness``. Otherwise the kernel of the system is
    one free bit per class, the same on all of its facets, with x0 fixed by
    the root row. A kernel vector's highest unknown is thus a class's
    largest facet, so those are the unknowns that are no pivot of ``solve``,
    which pivots on the lowest unknown first: the kernel dimension is the
    number of classes, and ``solve`` gives each largest facet the sign +1.
    The global sign then makes vertex 0's sign +1.
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
                witness = _odd_cycle_witness(pair, poly.bfs_tree.index((w, v, pos, wpos)))
                return PositivityResult(satisfiable=False, witness=witness)
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


def _odd_cycle_witness(pair: CharacteristicPair, stop: int) -> tuple[int, ...]:
    """The UNSAT witness of the rule in ``decide_positive``'s docstring,
    for ``bfs_tree[stop]``, the first tree edge that breaks its class. The
    search path and that edge form a cycle of exchanges whose parities
    multiply to -1, and each edge stands for the rows of its two endpoints,
    so the witness meets every facet an even number of times. O(V)."""
    poly = pair.polytope
    verts, tree = poly.vertices, poly.bfs_tree
    exchanges = [[] for _ in range(poly.num_facets)]  # exchanges[a]: (b, edge index)
    for k in range(stop):
        w, v, pos, wpos = tree[k]
        a, b = verts[v][pos], verts[w][wpos]
        exchanges[a].append((b, k))
        exchanges[b].append((a, k))
    w, v, pos, wpos = tree[stop]
    a, b = verts[v][pos], verts[w][wpos]
    came = {a: None}  # came[f]: the facet before f on the path, and the edge between
    queue = [a]
    for f in queue:
        for g, k in exchanges[f]:
            if g not in came:
                came[g] = f, k
                queue.append(g)
    witness = {v, w}
    while b != a:
        b, k = came[b]
        witness ^= set(tree[k][:2])
    return tuple(sorted(witness))


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
    tree decides every pair, O(V + m log m) with no system. A SAT pair's
    certificate and kernel dimension are those Gauss-Jordan elimination to
    RREF gives. An UNSAT pair's witness comes from the first tree edge, in
    list order, whose exchange a <-> b breaks the parities of its class: a
    breadth-first search from a over the exchanges of the edges before it,
    each facet's in list order, reaches b, and the witness is the symmetric
    difference of the endpoint pairs of that edge and of the edges on the
    path, in ascending order. On a polygon, whose rows' one dependency is
    their sum, that is every vertex. The returned certificate or witness is
    verified against the pair before being handed out; a verification
    failure is a defect, not an input error.
    """
    result = _decide_by_tree(pair)
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
