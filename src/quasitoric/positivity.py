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
row and the V - 1 edge rows are row-equivalent to the whole system: the
decision is a parity search over the m facets joined by these facet
exchanges, O(V), and the system is SAT iff no cycle of them has odd
parity. Its kernel is constant on each exchange component, so the free
unknowns of ``solve``'s lowest-unknown pivot rule are the largest facet of
each component, and the kernel dimension is their number; setting them 0
and reading x0 off one row gives ``solve``'s certificate (see
``_decide_by_tree``). A polygon takes a walk round its facet cycle
(``SimplePolytope.cycle``) instead, whose UNSAT witness has a closed form
too (see ``_decide_polygon``), so no polygon builds a system. On
cp2_sum(199) x cp2_sum(199), 40401 vertices, ``decide_positive`` takes
about 17 ms, where elimination took 1.5 s (CPython 3.11).

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
the oracle of the two shortcuts. Every result is re-verified before being
returned. A brute-force enumeration over all 2^(m+1) omniorientations
serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charpair import CharacteristicPair, Omniorientation, all_signs
from .errors import InternalInconsistencyError, TooLargeError

BRUTE_FORCE_MAX_FACETS = 20


@dataclass(frozen=True)
class Gf2System:
    """One bit row per vertex over unknowns x0 (global) and x_{1+j} (facet j).

    Each row is a bitmask below 1 << num_unknowns and each rhs 0 or 1, one
    per row: ``solve`` packs the rhs and its history above a row's bits.
    """

    num_unknowns: int
    rows: tuple[int, ...]
    rhs: tuple[int, ...]

    def __post_init__(self):
        if self.num_unknowns < 0:
            raise ValueError("num_unknowns must be >= 0")
        if len(self.rows) != len(self.rhs):
            raise ValueError(f"{len(self.rows)} rows but {len(self.rhs)} rhs entries")
        if self.rows and (min(self.rows) < 0 or max(self.rows) >> self.num_unknowns):
            raise ValueError(f"a row has a bit outside the {self.num_unknowns} unknowns")
        if not set(self.rhs) <= {0, 1}:
            raise ValueError("each rhs entry must be 0 or 1")


@dataclass(frozen=True)
class PositivityResult:
    """SAT with certificate and kernel dimension, or UNSAT with a parity witness.

    ``witness`` holds vertex indices (canonical order) whose sign equations
    are contradictory: the witness set has even size, meets every facet an
    even number of times, and its base signs multiply to -1.
    """

    satisfiable: bool
    certificate: Omniorientation | None = None
    kernel_dim: int | None = None
    witness: tuple[int, ...] | None = None

    @property
    def solution_count(self) -> int:
        return 0 if not self.satisfiable else 1 << self.kernel_dim


@dataclass(frozen=True)
class BruteForceResult:
    satisfiable: bool
    count: int
    certificate: Omniorientation | None


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


def _decide_polygon(pair: CharacteristicPair) -> PositivityResult:
    """``solve(build_system(pair))`` for a polygon, from a walk round its
    facet cycle, with no system.

    Read the facets as the nodes of a cycle and the vertices as its edges,
    with y_j the unknown of facet j (x_{1+j} in the system) and r_v the rhs
    of vertex v, whose row is x0 + y_a + y_b = r_v. ``solve`` pivots on the lowest unknown
    first, so its pivot columns are the lexicographically first column
    basis; the free unknowns are the rest, and the certificate sets them 0.
    The facet columns sum to 0 (each row has two facets), any m - 1 of them
    are independent, and the all-ones x0 column is their sum over one colour
    class when m is even and outside their span when m is odd:

    - m odd: the rows are independent, the only free unknown is y_{m-1},
      x0 is the sum of every r_v and the kernel dimension is 1;
    - m even: the only dependency among the rows is their sum, so an odd
      sum of r_v is UNSAT with every vertex as the witness. Otherwise the
      free unknowns are y_{m-1} and y_f, for f the largest facet at odd
      distance from m - 1 round the cycle (the first column that closes a
      colour class with x0), and the kernel dimension is 2.

    The walk starts at facet m - 1 with y = 0 and across vertex v sets
    y_next = y + r_v + x0; for m even, x0 is the walk's value at f with
    x0 = 0, so that y_f = 0. It reads the polytope's ``cycle``, rotated to
    start at facet m - 1; the solution does not depend on the direction.
    """
    facets, corners = pair.polytope.cycle
    m = len(facets)
    p = facets.index(m - 1)
    order = facets[p:] + facets[:p]  # the facets in walk order
    # rhs[i]: the rhs of the vertex between order[i] and the facet after it
    rhs = [s < 0 for s in map(pair.base_signs.__getitem__, corners[p:] + corners[:p])]
    total = sum(rhs) & 1
    if m & 1:
        x0 = total
    elif total:
        return PositivityResult(satisfiable=False, witness=tuple(range(m)))
    else:
        f = max(order[1::2])
        x0 = sum(rhs[: order.index(f)]) & 1
    signs = [1] * m
    y = 0
    for j, r in zip(order, rhs):
        if y:
            signs[j] = -1
        y ^= r ^ x0
    return PositivityResult(
        satisfiable=True,
        certificate=Omniorientation(-1 if x0 else 1, tuple(signs)),
        kernel_dim=2 - (m & 1),
    )


def _decide_by_tree(pair: CharacteristicPair) -> PositivityResult | None:
    """``solve(build_system(pair))`` for a SAT pair, from the facet exchanges
    of its spanning tree with no system; None when the pair is UNSAT.

    Each tree edge v -> w swaps facet a of v for facet b of w, a link
    x_a + x_b = r with r = b_v + b_w. The distinct links are searched from
    the largest facet down: a facet not yet reached is the largest of its
    component, and gets x = 0; every facet it reaches gets its parity to
    it. A link that contradicts the parities, which closes a cycle of odd
    parity, is UNSAT. Otherwise the kernel of the system is one free bit
    per component, the same on all of its facets, with x0 fixed by the root
    row. A kernel vector's highest unknown is thus a component's largest
    facet, so those are the unknowns that are no pivot of ``solve``, which
    pivots on the lowest unknown first: the kernel dimension is the number
    of components, and ``solve`` sets each largest facet 0. x0 comes from
    vertex 0's row. A parity union-find gives the same answer, but its
    ``find`` calls took several times the search's time on the simplices
    that make up most decisions.
    """
    poly = pair.polytope
    verts, signs = poly.vertices, pair.base_signs
    m = poly.num_facets
    linked = [[] for _ in range(m)]  # linked[a]: (b, x_a + x_b) for each link at a
    for a, b, r in {
        (verts[v][pos], verts[w][wpos], signs[v] != signs[w])
        for w, v, pos, wpos in poly.bfs_tree
    }:
        linked[a].append((b, r))
        linked[b].append((a, r))
    x = [None] * m
    components = 0
    for top in reversed(range(m)):
        if x[top] is not None:
            continue
        components += 1
        x[top] = 0
        stack = [top]
        while stack:
            a = stack.pop()
            for b, r in linked[a]:
                y = x[a] ^ r
                if x[b] is None:
                    x[b] = y
                    stack.append(b)
                elif x[b] != y:
                    return None
    x0 = (signs[0] == -1) ^ sum(map(x.__getitem__, verts[0])) & 1
    return PositivityResult(
        satisfiable=True,
        certificate=Omniorientation(-1 if x0 else 1, tuple(-1 if y else 1 for y in x)),
        kernel_dim=components,
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

    A polygon takes ``_decide_polygon``'s walk round its facet cycle, O(m)
    with no system. Every other pair takes ``_decide_by_tree``'s parity
    search over the facet exchanges of its spanning tree, O(V) with no
    system, and only an UNSAT one then runs ``solve(build_system(pair))``
    for its witness. All three give the same result, the one Gauss-Jordan
    elimination to RREF gives. The returned certificate or witness is
    verified against the pair before being handed out; a verification
    failure is a defect, not an input error.
    """
    if pair.polytope.dim == 2:
        result = _decide_polygon(pair)
    else:
        result = _decide_by_tree(pair) or solve(build_system(pair))
    _verify(pair, result)
    return result


def admits_invariant_acs(pair: CharacteristicPair) -> bool:
    """True iff the manifold admits an invariant almost complex structure."""
    return decide_positive(pair).satisfiable


def count_positive_omniorientations(pair: CharacteristicPair) -> int:
    result = decide_positive(pair)
    return result.solution_count


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
