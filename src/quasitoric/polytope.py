"""Combinatorial simple polytopes and coherent orientations of their dual spheres.

A polytope is stored purely combinatorially: dimension n, facet count m, and
the vertex list, each vertex being the ascending tuple of the n facets meeting
there. Validation admits exactly the connected orientable simplicial
pseudomanifold duals; genuine polytopality is not decided (it is infeasible in
general, and nothing downstream needs more than the checked invariants). The
orientation class it finds is a plain tuple of +1/-1, one per vertex.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, reduce
from itertools import chain
from math import comb
from operator import index, or_

from .errors import (
    DisconnectedError,
    DuplicateVertexError,
    NonOrientableError,
    Record,
    RidgeViolationError,
    TooLargeError,
    UnusedFacetError,
    ValidationError,
    WrongVertexSizeError,
)

# f_vector counts the faces level by level from facet vertex-bitsets, each
# face once. V*(2^n - 1), the number of (vertex, nonempty facet subset) pairs,
# bounds the face count and is kept as the worst-case estimate: f_vector
# refuses a polytope over this count. The largest pair of the benchmark's
# faces workload (three 3-dimensional factors times CP^2: dim 11, 576
# vertices) has 1,179,072.
F_VECTOR_MAX_SUBSETS = 1 << 24

# Every constructor in constructions refuses, before building anything, a pair
# whose vertex lists, matrix and vertex facet masks hold more than this many
# entries and 64-bit words, V*n + n*m + V*ceil(m/64). The masks grow as k^2 in
# cp2_sum(k), which stops at k = 11454; cpn stops at n = 1019 (0.8 s to build).
# The benchmark's largest pair (dim 11, 576 vertices) holds 7,110.
CONSTRUCTION_MAX_ENTRIES = 1 << 21


class SimplePolytope(Record, compare=("dim", "num_facets", "vertices")):
    """Validated combinatorial simple polytope.

    ``vertices`` is canonical: every vertex tuple ascending, the list sorted
    lexicographically. ``orientation`` is the coherent orientation class that
    validation found: ``orientation[i]`` is the sign (+1 or -1) of
    ``vertices[i]`` read as an ascending simplex of the dual sphere, +1 at the
    lex-smallest vertex; on a connected dual sphere the class is unique up to
    one global sign. ``bfs_tree`` is a spanning tree of the vertex graph:
    one ``(vertex, parent, pos, wpos)`` per vertex but its root, each parent
    listed before its children, so the first edge leaves the root, where the
    parent's facet at ascending position ``pos`` is swapped for the vertex's
    facet at position ``wpos`` across their shared ridge. Nothing downstream
    needs more: the determinant walk starts at the first edge's parent,
    ``charpair.relabel_facets`` propagates the orientation down the list,
    and the join split and ``positivity.decide_positive`` read only the
    facet exchanges of its edges.
    ``validate_polytope`` gives the tree of its breadth-first search from
    vertex 0 (a simplex the same tree in closed form, a polygon the same
    tree from a walk round its cycle),
    ``constructions.product`` the product of its factors' trees, and
    ``charpair.relabel_facets`` its input's tree renamed, neither with a
    ridge map. ``masks[i]`` is the facet bitmask of ``vertices[i]``, bit j
    set for each facet j there. All three are derived from the vertices, so
    equality and hashing ignore them. The f-vector is derived on first use
    and kept.
    Construct through :func:`validate_polytope`, ``constructions.product``
    for the product of two validated pairs or ``charpair.relabel_facets``
    for a validated pair relabelled; the constructor itself stores what it
    is given and checks nothing.
    """

    # __dict__ holds the cached f-vector
    __slots__ = ("dim", "num_facets", "vertices", "orientation", "bfs_tree", "masks", "__dict__")

    def __init__(
        self,
        dim: int,
        num_facets: int,
        vertices: tuple[tuple[int, ...], ...],
        orientation: tuple[int, ...],
        bfs_tree: tuple[tuple[int, int, int, int], ...],
        masks: tuple[int, ...],
    ):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "num_facets", num_facets)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "bfs_tree", bfs_tree)
        object.__setattr__(self, "masks", masks)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def vertex_index(self, vertex) -> int:
        """Position of a vertex (given as any iterable of facet indices).

        ValueError, naming the ascending tuple, when it is not a vertex;
        TypeError for an entry that is not an integer (anything
        ``operator.index`` accepts)."""
        v = tuple(sorted(map(index, vertex)))
        try:
            return self.vertices.index(v)
        except ValueError:
            raise ValueError(f"{v} is not a vertex of the polytope") from None

    @cached_property
    def _f_vector(self) -> tuple[int, ...]:
        n, m, verts = self.dim, self.num_facets, self.vertices
        factors = None
        if n >= 5 and m > n + 1:  # a level loop to split, and no closed form
            factors = _join_factors(m, verts, self.masks, self.bfs_tree)
        g = [1]
        for factor in factors or [(n, m, verts)]:
            g = _polymul(g, _face_counts(*factor))
        return tuple(reversed(g[1:]))


def _incidence(m: int, verts) -> list[list[int]]:
    """on[j]: the indices of the vertices on facet j, ascending."""
    on = [[] for _ in range(m)]
    for vi, v in enumerate(verts):
        for j in v:
            on[j].append(vi)
    return on


def _polymul(a: list[int], b: list[int]) -> list[int]:
    """The product of two polynomials given by their coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _join_factors(m, verts, masks, tree):
    """The join factors of a dual complex, as (dim, num_facets, vertices)
    triples with each factor's facets renumbered in order, when its vertex
    set is the full product of at least two of them; None otherwise.

    The facets are grouped by a union-find that is never coarser than any
    join split, so the true factors are unions of groups. It is seeded with
    the facet exchanges of ``tree``, the polytope's spanning tree
    (``SimplePolytope.bfs_tree``): each edge crosses a ridge, and in a join
    K1 * K2 the two simplices on a ridge of K1's part share all of K2's
    part, so the facet swapped out and the one swapped in lie in the same
    factor. An empty tree leaves every facet in a group of its own. Then:

    1. One group left: no split, at once (a vertex cut of a product ends
       here).
    2. The groups are checked exactly, whatever they are: a vertex is the
       union of its projections onto the groups, so the vertex set is their
       full product exactly when the product of the groups' distinct
       projection counts is V. Then every choice of one projection per
       group is a vertex of n facets, so the projections onto a group all
       have one size, the factor's dimension. Before the projections are
       built, the check refuses groups that cannot pass: the m_C facets of a
       group with d_C facets at vertex 0 need at least ceil(m_C / d_C)
       projections, all of size d_C, to cover them, and the product of these
       bounds may not exceed V. The exchanges of an m-gon join only facets
       of one parity when m is even, which this refuses from m = 6 on.
    3. Otherwise the groups are joined further by the meet test and checked
       again: facets i and j of different factors are independent over the
       vertices, |N(i) & N(j)| * V == |N(i)| * |N(j)|, where N(i) is the set
       of vertices on facet i. Every factor has a facet at vertex 0, so only
       the pairs with i there are tested: O(n^2 V + n m) work, and no V-bit
       facet bitsets.
    """
    num = len(verts)
    root = list(range(m))
    left = m  # the number of groups

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    def join(i, j):
        nonlocal left
        a, b = find(i), find(j)
        if a != b:
            root[b] = a
            left -= 1

    def split():
        groups = {}
        for j in range(m):
            groups.setdefault(find(j), []).append(j)
        at_first = Counter(map(find, verts[0]))
        bound = 1
        for r, facets in groups.items():
            if r not in at_first:  # every projection would be empty, as vertex 0's is
                return None
            bound *= -(-len(facets) // at_first[r])
        if bound > num:
            return None
        projections = []
        total = 1
        for facets in groups.values():
            group = 0
            for j in facets:
                group |= 1 << j
            proj = {mask & group for mask in masks}
            total *= len(proj)
            projections.append((facets, proj))
        if total != num:
            return None
        factors = []
        for facets, proj in projections:
            vertices = sorted(tuple(x for x, j in enumerate(facets) if p >> j & 1) for p in proj)
            factors.append((len(vertices[0]), len(facets), vertices))
        return factors

    for i, j in {(verts[vi][pos], verts[wi][wpos]) for wi, vi, pos, wpos in tree}:
        join(i, j)
        if left == 1:
            return None
    factors = split()
    if factors is not None:
        return factors
    on = _incidence(m, verts)
    for i in verts[0]:
        # meet[j] = |N(i) & N(j)|
        meet = Counter(chain.from_iterable(map(verts.__getitem__, on[i])))
        ni = len(on[i])
        for j, nj in enumerate(map(len, on)):
            if meet[j] * num != ni * nj:
                join(i, j)
        if left == 1:  # no split: stop before the other facets of vertex 0
            return None
    return split()


def _face_counts(n: int, m: int, verts) -> list[int]:
    """[g_0, ..., g_n]: g_k is the number of faces of codimension k, the
    k-subsets of facets contained in some vertex. ``verts`` are n-subsets of
    range(m), ascending tuples in any order, with every facet on a vertex and
    every ridge on exactly two vertices."""
    if m == n + 1:  # validation admits only the simplex boundary: all subsets
        return [comb(m, k) for k in range(n + 1)]
    counts = [0] * (n + 1)  # counts[k]: faces of codimension k
    counts[0] = 1
    counts[n] = len(verts)  # the codimension-n faces are the vertices
    counts[1] = m
    if n > 2:  # each ridge lies on exactly two vertices, each vertex on n ridges
        counts[n - 1] = len(verts) * n // 2
    if n > 3:
        on = _incidence(m, verts)
        # A face is counted once, at its first facet in this order (fewest
        # vertices first), and grows only by facets later in the order.
        # Its vertex bitset indexes the vertices of that first facet, and
        # each later facet has at least as many, so the bitsets one facet
        # keeps for its neighbours take at most n*V bits together; bitsets
        # over all V vertices took 1.8 GB on polygon(300)^2 (V = 90000).
        order = sorted(range(m), key=lambda j: len(on[j]))
        rank = [0] * m
        for r, j in enumerate(order):
            rank[j] = r
        above = [()] * m  # above[j]: the facets later than j that meet it
        for a in reversed(order):  # so above[t] is known for every t later than a
            ra = rank[a]
            nb = {}  # j -> bitset of the vertices on[a][x] that lie on j
            for x, vi in enumerate(on[a]):
                bit = 1 << x
                for j in verts[vi]:
                    if rank[j] > ra:
                        nb[j] = nb.get(j, 0) | bit
            counts[2] += len(nb)
            above[a] = tuple(nb)
            if n < 5:  # no level of codimension 3 to n - 2
                continue
            # The faces with first facet a are grouped by their last facet t:
            # every face in a group extends by the same facets, cand[t], the
            # later facets j that meet both a and t, each with its bitset.
            cand = {t: [(j, nb[j]) for j in above[t] if j in nb] for t in nb}
            # last facet -> vertex bitsets of the faces of codimension k - 1
            level = {t: [w] for t, w in nb.items()}
            for k in range(3, n - 1):
                grown = {}
                for t, ws in level.items():
                    for j, b in cand[t]:
                        xs = [x for w in ws if (x := w & b)]
                        if xs:
                            if j in grown:
                                grown[j] += xs
                            else:
                                grown[j] = xs
                level = grown
                counts[k] += sum(map(len, grown.values()))
    return counts


class _FacetCodes:
    """Code j is bit j + 64 over fixed pseudo-random low 64 bits. The XOR of
    the codes of a facet set is that set's bitmask shifted up by 64 over the
    XOR of their low bits: distinct sets keep distinct values, and the low
    bits spread the hashes. Each code is computed on use, as a table of them
    would take O(m^2) bits."""

    def __getitem__(self, j: int) -> int:
        return 1 << j + 64 | (j + 1) * 0x9E3779B97F4A7C15 & (1 << 64) - 1


def _ridge_partners(n: int, m: int, verts) -> tuple[list[int], list[int]]:
    """The facet bitmasks of ``verts`` (canonical n-subsets of range(m)) and
    their ridge partners: slot s = vi*n + pos stands for vertex vi with its
    facet at position pos deleted, and ``partner[s]`` is the other slot on
    that ridge.

    One dict entry per ridge: ``first`` maps the ridge key (the XOR of the
    codes of the vertex's facets but the deleted one) to the ridge's first
    slot in scan order, which ``setdefault`` returns to every later slot.
    The second slot writes both partner entries. A third or later slot only
    adds one to ``over[first slot]``, and its own entry stays -1, the mark
    of an unpaired slot. So every ridge lies on exactly two vertices when
    nothing is over and there are half as many ridges as slots.

    Errors, in this order. UnusedFacetError, from the union of the masks
    before any ridge is looked at, when a facet lies on no vertex. Then
    RidgeViolationError, when a ridge does not lie on exactly two vertices:
    one pass over ``first``, whose values are in scan order, finds the bad
    ridge met first, and names its first slot's vertex and deleted facet
    and its number of other slots (a lone slot's 0 or a ridge's over count
    plus 1). A lone slot is named before a crowded ridge met after it.

    Facet j's code is the bit 1 << j, so a key is a plain bitmask, up to
    m = 61. CPython hashes an int as its value mod 2**61 - 1, so past that
    bitmasks share hashes in bulk, and the codes are _FacetCodes instead.
    A valid polygon never comes here (see ``_polygon_by_cycle``), so they
    serve m > 61 in dim >= 3, and an invalid polygon on its way to its error.
    """
    code = [1 << j for j in range(m)] if m <= 61 else _FacetCodes()
    masks = []
    first: dict[int, int] = {}
    setdefault = first.setdefault
    over: dict[int, int] = {}
    partner = [-1] * (len(verts) * n)
    s = 0
    for v in verts:
        mask = 0
        for j in v:
            mask ^= code[j]
        masks.append(mask)
        for j in v:
            f = setdefault(mask ^ code[j], s)
            if f != s:
                if partner[f] == -1:
                    partner[f] = s
                    partner[s] = f
                else:
                    over[f] = over.get(f, 0) + 1
            s += 1
    if m > 61:  # drop the low bits from the coded masks
        for vi, mask in enumerate(masks):
            masks[vi] = mask >> 64
    unused = ((1 << m) - 1) ^ reduce(or_, masks)
    if unused:
        # the first ten unused facets by lowest-set-bit steps, each O(m/64)
        shown = []
        while unused and len(shown) < 10:
            low = unused & -unused
            shown.append(low.bit_length() - 1)
            unused ^= low
        raise UnusedFacetError(tuple(shown), unused.bit_count())
    if over or 2 * len(first) != s:
        for f in first.values():
            partners = (partner[f] != -1) + over.get(f, 0)
            if partners != 1:
                vi, pos = divmod(f, n)
                raise RidgeViolationError(verts[vi], verts[vi][pos], partners)
    return masks, partner


def validate_polytope(dim, num_facets, vertices) -> SimplePolytope:
    """Check raw combinatorial data and return a canonical SimplePolytope.

    Raises, in scan order: ValidationError for malformed scalars or facet
    indices, WrongVertexSizeError, DuplicateVertexError, UnusedFacetError,
    RidgeViolationError (naming the first vertex/facet pair with 0 or >=2
    partners), DisconnectedError, NonOrientableError. ``dim``, ``num_facets``
    and the facet indices must be integers (anything ``operator.index``
    accepts); a float or a str raises TypeError rather than being truncated
    or parsed.

    The simplex (m = n + 1 facets and as many distinct vertices after the
    duplicate check, so every n-subset of the facets) always validates: it
    skips the ridge check and the BFS, and its orientation, tree and masks
    are written down in closed form, equal to what the BFS would find. A
    polygon (n = 2, m vertices on m facets) skips them too when it is
    valid: each facet on two vertices and one walk round the cycle give
    the same orientation, tree and masks. An invalid one goes on to the
    ridge check and raises there.
    """
    n = index(dim)
    m = index(num_facets)
    if n < 1:
        raise ValidationError(f"dim must be >= 1, got {n}")
    if m < n + 1:
        raise ValidationError(f"need at least dim+1 = {n + 1} facets, got {m}")

    canon = []
    for raw in vertices:
        v = tuple(sorted(map(index, raw)))
        if len(set(v)) != n or len(v) != n:
            raise WrongVertexSizeError(tuple(raw), n)
        if v[0] < 0 or v[-1] >= m:
            raise ValidationError(f"vertex {v} has a facet index outside [0, {m})")
        canon.append(v)
    canon.sort()
    if not canon:
        raise ValidationError("polytope has no vertices")

    for a, b in zip(canon, canon[1:]):
        if a == b:
            raise DuplicateVertexError(a)
    return _validate_canonical(n, m, canon)


def _validate_canonical(n: int, m: int, canon) -> SimplePolytope:
    """The rest of ``validate_polytope``, from the simplex and polygon
    shortcuts on:
    UnusedFacetError, RidgeViolationError, DisconnectedError and
    NonOrientableError, in that order. ``canon`` must pass every check
    before it: m > n >= 1, at least one vertex, each an ascending tuple of
    n distinct ints in range(m), the list sorted with no two alike.
    """
    if m == n + 1 and len(canon) == m:
        # m distinct n-subsets of range(n + 1) are all of them: the simplex,
        # whose check always passes and whose BFS result has a closed form.
        # Vertex i omits facet n - i. Vertex 0 reaches vertex n - p across the
        # ridge without its facet at position p, which vertex n - p swaps for
        # its last facet, n, at position n - 1; so the BFS finds them in that
        # order, vertex i with the sign (-1)^i.
        full = (1 << m) - 1
        return SimplePolytope(
            n,
            m,
            tuple(canon),
            tuple((-1) ** i for i in range(m)),
            tuple((n - p, 0, p, n - 1) for p in range(n)),
            tuple(full ^ (1 << n - i) for i in range(m)),
        )
    if n == 2 and len(canon) == m:
        poly = _polygon_by_cycle(m, canon)
        if poly is not None:
            return poly

    masks, partner = _ridge_partners(n, m, canon)

    # One BFS from vertex 0 checks connectivity and propagates the orientation.
    # A vertex with sign s induces (-1)^p * s on the ridge obtained by deleting
    # its facet at ascending position p; coherence demands the two vertices of
    # a ridge induce opposite signs. The first clash is only recorded, because
    # a disconnected input reports DisconnectedError first.
    signs = [0] * len(canon)  # 0 until reached, then +1 or -1
    signs[0] = 1
    tree = []
    order = [0]  # the BFS queue: the loop reads it while it grows
    clash = None
    for vi in order:
        sign = signs[vi]
        base = vi * n
        for pos in range(n):
            other = partner[base + pos]
            wi = other // n
            wpos = other - wi * n
            expected = sign if (pos + wpos) & 1 else -sign
            seen = signs[wi]
            if not seen:
                signs[wi] = expected
                tree.append((wi, vi, pos, wpos))
                order.append(wi)
            elif seen != expected and clash is None:
                clash = canon[wi]
    if len(order) != len(canon):
        raise DisconnectedError(len(order), len(canon))
    if clash is not None:
        raise NonOrientableError(clash)

    return SimplePolytope(n, m, tuple(canon), tuple(signs), tuple(tree), tuple(masks))


def _polygon_by_cycle(m: int, canon) -> SimplePolytope | None:
    """The polygon on ``canon``, m vertices of dim 2 on m facets, as the
    ridge map and the BFS of ``_validate_canonical`` find it, with neither;
    None when it is no polygon, and the general path then raises.

    In dim 2 a ridge is one facet. Two flat lists count the vertices on
    each facet and sum their indices: 2m facet entries, none on a third
    vertex, put every facet on exactly two, so the vertex graph is a union
    of cycles, the sum less one vertex on a facet is the other, and the
    walk from vertex 0, leaving it across its ridge at position 0, must go
    round all m vertices. A circle is always orientable, so the walk's
    signs need no clash check. The BFS from vertex 0 alternates between the
    two arms of the cycle, the walk's first, so its tree takes the walk's
    edges from the front and, turned round, from the back, in turn.
    """
    count = [0] * m
    ends = [0] * m  # ends[j]: the sum of the indices of the vertices on facet j
    for vi, (a, b) in enumerate(canon):
        count[a] += 1
        count[b] += 1
        ends[a] += vi
        ends[b] += vi
    if max(count) > 2:
        return None
    signs = [1] * m
    sign = 1
    walk = []  # (vertex, parent, pos, wpos) round the cycle, back to vertex 0
    vi = pos = 0
    while True:
        j = canon[vi][1 - pos]  # the ridge kept, shared with the next vertex
        wi = ends[j] - vi
        wpos = 1 if canon[wi][0] == j else 0
        walk.append((wi, vi, pos, wpos))
        if not wi:
            break
        if pos == wpos:
            sign = -sign
        signs[wi] = sign
        vi, pos = wi, 1 - wpos
    if len(walk) != m:
        return None
    tree = []
    for k in range(m // 2):
        tree.append(walk[k])
        if k < (m - 1) // 2:
            wi, vi, pos, wpos = walk[m - 1 - k]
            tree.append((vi, wi, wpos, pos))
    masks = tuple((1 << a) + (1 << b) for a, b in canon)
    return SimplePolytope(2, m, tuple(canon), tuple(signs), tuple(tree), masks)


def orient_dual_sphere(polytope: SimplePolytope) -> tuple[int, ...]:
    """Deterministic coherent orientation, +1 at the lex-smallest vertex.

    For dim 1, whose only valid polytope is the interval, a simplex, the
    closed form gives the (+1, -1) interval convention.
    """
    return polytope.orientation


def f_vector(polytope: SimplePolytope) -> tuple[int, ...]:
    """(f_0, ..., f_{n-1}): faces of codimension k are the k-subsets of facets
    contained in at least one vertex. Counted once per polytope, as the face
    polynomial g(t) = sum_k (codim-k faces) t^k:

    - With m = n + 1 facets validation admits only the simplex, and
      g_k = C(n + 1, k).
    - From dim 5 on, the polytope is first split into join factors: the dual
      of P x Q is the join of the duals, so g is the product of the factors'
      polynomials. The facets are grouped by the facet exchanges of the
      polytope's spanning tree (``bfs_tree``), which never cross from one
      factor of a join to another, so the groups are never coarser than any
      join split; only groups that fail the check below are joined further
      by the meet test (see _join_factors). The split is accepted only when
      the vertex set is exactly the product of the groups' vertex sets, so
      it holds however the facets are numbered, and each factor is counted
      on its own.
    - Otherwise, and within each factor, the faces are counted level by
      level: a set of facets is a face when the AND of their vertex bitsets
      is nonzero, and each face of codimension k >= 3 extends one of
      codimension k - 1 by a later facet that meets it. Each level groups its
      faces by their last facet, so one pass over a group's bitsets extends
      them all by one candidate facet. The edges (codimension n - 1) are not
      enumerated: validation puts each ridge on exactly two vertices, so
      there are V*n/2 of them.

    Raises TooLargeError, before counting anything, when the V*(2^n - 1)
    vertex subsets, a worst-case estimate of the level-by-level work, exceed
    F_VECTOR_MAX_SUBSETS. The refusal does not look at the shortcuts above:
    it accepts and refuses the same polytopes, with the same message, as
    when every polytope was counted level by level.
    """
    v, n = polytope.num_vertices, polytope.dim
    if v * ((1 << n) - 1) > F_VECTOR_MAX_SUBSETS:
        raise TooLargeError(
            f"{v} vertices in dim {n} mean {v}*(2^{n} - 1) vertex subsets for the"
            f" f-vector, over the limit of {F_VECTOR_MAX_SUBSETS}; refusing"
        )
    return polytope._f_vector


def h_vector(polytope: SimplePolytope) -> tuple[int, ...]:
    """h-vector via the substitution sum_i g_i (t-1)^(n-i), exact integers.

    g_i is the number of codimension-i faces (the count of (i-1)-simplices of
    the dual sphere), with g_0 = 1; h_k is the coefficient of t^(n-k), that
    is h_k = sum_{i<=k} (-1)^(k-i) C(n-i, k-i) g_i.
    Indexing by codimension, not face dimension, is what makes the result
    palindromic; the n = 2 cases agree either way and hide the distinction.
    """
    n = polytope.dim
    g = (1,) + tuple(reversed(f_vector(polytope)))  # g[i] = codim-i face count
    return tuple(
        sum((-1) ** (k - i) * comb(n - i, k - i) * g[i] for i in range(k + 1))
        for k in range(n + 1)
    )
