"""Combinatorial simple polytopes and coherent orientations of their dual spheres.

A polytope is stored purely combinatorially: dimension n, facet count m, and
the vertex list, each vertex being the ascending tuple of the n facets meeting
there. Validation admits exactly the connected orientable simplicial
pseudomanifold duals; genuine polytopality is not decided (it is infeasible in
general, and nothing downstream needs more than the checked invariants).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

from .errors import (
    DisconnectedError,
    DuplicateVertexError,
    NonOrientableError,
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


@dataclass(frozen=True)
class SimplePolytope:
    """Validated combinatorial simple polytope.

    ``vertices`` is canonical: every vertex tuple ascending, the list sorted
    lexicographically. ``orientation`` is the coherent orientation class that
    validation found. ``bfs_tree`` is the spanning tree of validation's
    breadth-first search from vertex 0: one ``(vertex, parent, pos, wpos)``
    per other vertex, in discovery order, where the parent's facet at
    ascending position ``pos`` is swapped for the vertex's facet at position
    ``wpos`` across their shared ridge. Both are derived from the vertices,
    so equality and hashing ignore them. Construct through
    :func:`validate_polytope`; the dataclass itself performs no checks.
    """

    dim: int
    num_facets: int
    vertices: tuple[tuple[int, ...], ...]
    orientation: OrientationClass = field(compare=False)
    bfs_tree: tuple[tuple[int, int, int, int], ...] = field(compare=False)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def vertex_index(self, vertex) -> int:
        """Position of a vertex (given as any iterable of facet indices)."""
        return self.vertices.index(tuple(sorted(vertex)))

    @cached_property
    def _f_vector(self) -> tuple[int, ...]:
        n, m, verts = self.dim, self.num_facets, self.vertices
        counts = [0] * (n + 1)  # counts[k]: faces of codimension k
        counts[n] = len(verts)  # the codimension-n faces are the vertices
        counts[1] = m
        if n > 2:
            on = [[] for _ in range(m)]  # on[j]: the vertices on facet j, ascending
            for vi, v in enumerate(verts):
                for j in v:
                    on[j].append(vi)
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
                # (last facet, vertex bitset) per face of codimension k - 1 whose first facet is a
                level = nb.items()
                for k in range(3, n):
                    level = [
                        (j, x) for t, w in level for j in above[t] if j in nb and (x := w & nb[j])
                    ]
                    counts[k] += len(level)
        return tuple(reversed(counts[1:]))


@dataclass(frozen=True)
class OrientationClass:
    """Coherent signs for the top simplices of the dual sphere.

    ``signs[i]`` belongs to ``polytope.vertices[i]`` read as an ordered
    (ascending) simplex. Normalized so the lexicographically smallest vertex
    gets +1; on a connected dual sphere the class is unique up to one global
    sign.
    """

    signs: tuple[int, ...]

    def flipped(self) -> "OrientationClass":
        return OrientationClass(tuple(-s for s in self.signs))


def validate_polytope(dim, num_facets, vertices) -> SimplePolytope:
    """Check raw combinatorial data and return a canonical SimplePolytope.

    Raises, in scan order: ValidationError for malformed scalars or facet
    indices, WrongVertexSizeError, DuplicateVertexError, UnusedFacetError,
    RidgeViolationError (naming the first vertex/facet pair with 0 or >=2
    partners), DisconnectedError, NonOrientableError.
    """
    n = int(dim)
    m = int(num_facets)
    if n < 1:
        raise ValidationError(f"dim must be >= 1, got {n}")
    if m < n + 1:
        raise ValidationError(f"need at least dim+1 = {n + 1} facets, got {m}")

    canon = []
    for raw in vertices:
        v = tuple(sorted(map(int, raw)))
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

    used = {j for v in canon for j in v}
    missing = sorted(set(range(m)) - used)
    if missing:
        raise UnusedFacetError(missing)

    # ridge key (the vertex's facet bitmask without the deleted facet's bit)
    # -> [(vertex index, deleted position), ...]; a ridge enters the dict at
    # its first (vertex, position) in scan order, so the first bad ridge in
    # dict order names the first bad vertex/facet pair
    masks = []
    ridges: dict[int, list[tuple[int, int]]] = {}
    for vi, v in enumerate(canon):
        mask = 0
        for j in v:
            mask |= 1 << j
        masks.append(mask)
        for pos, j in enumerate(v):
            ridges.setdefault(mask ^ (1 << j), []).append((vi, pos))
    for entries in ridges.values():
        if len(entries) != 2:
            vi, pos = entries[0]
            raise RidgeViolationError(canon[vi], canon[vi][pos], len(entries) - 1)

    # One BFS from vertex 0 checks connectivity and propagates the orientation.
    # A vertex with sign s induces (-1)^p * s on the ridge obtained by deleting
    # its facet at ascending position p; coherence demands the two vertices of
    # a ridge induce opposite signs. The first clash is only recorded, because
    # a disconnected input reports DisconnectedError first.
    signs: list[int | None] = [None] * len(canon)
    signs[0] = 1
    tree = []
    queue = deque([0])
    clash = None
    while queue:
        vi = queue.popleft()
        mask = masks[vi]
        for pos, j in enumerate(canon[vi]):
            a, b = ridges[mask ^ (1 << j)]
            wi, wpos = b if a[0] == vi else a
            expected = -((-1) ** (pos + wpos)) * signs[vi]
            if signs[wi] is None:
                signs[wi] = expected
                tree.append((wi, vi, pos, wpos))
                queue.append(wi)
            elif signs[wi] != expected and clash is None:
                clash = canon[wi]
    reached = len(canon) - signs.count(None)
    if reached != len(canon):
        raise DisconnectedError(reached, len(canon))
    if clash is not None:
        raise NonOrientableError(clash)

    return SimplePolytope(n, m, tuple(canon), OrientationClass(tuple(signs)), tuple(tree))


def adjacent_vertex(polytope: SimplePolytope, vertex, facet: int) -> tuple[int, ...]:
    """The unique vertex sharing the ridge S(v) minus {facet} with v (n >= 2)."""
    if polytope.dim < 2:
        raise ValueError("edges of the polytope exist only for dim >= 2")
    v = tuple(sorted(vertex))
    vi = polytope.vertices.index(v)
    if facet not in v:
        raise ValueError(f"facet {facet} is not incident to vertex {v}")
    ridge = tuple(j for j in v if j != facet)
    for wi, w in enumerate(polytope.vertices):
        if wi != vi and set(ridge) <= set(w):
            return w
    raise ValueError("no ridge partner; polytope was not validated")  # pragma: no cover


def orient_dual_sphere(polytope: SimplePolytope) -> OrientationClass:
    """Deterministic coherent orientation, +1 at the lex-smallest vertex.

    For dim 1 the generic propagation yields the (+1, -1) interval convention.
    """
    return polytope.orientation


def f_vector(polytope: SimplePolytope) -> tuple[int, ...]:
    """(f_0, ..., f_{n-1}): faces of codimension k are the k-subsets of facets
    contained in at least one vertex. Counted once per polytope, level by
    level: a set of facets is a face when the AND of their vertex bitsets is
    nonzero, and each face of codimension k >= 3 extends one of codimension
    k - 1 by a later facet that meets it.

    Raises TooLargeError, before counting anything, when the V*(2^n - 1)
    vertex subsets, a worst-case estimate of the work, exceed
    F_VECTOR_MAX_SUBSETS.
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
    the dual sphere), with g_0 = 1; h_k is the coefficient of t^(n-k).
    Indexing by codimension, not face dimension, is what makes the result
    palindromic; the n = 2 cases agree either way and hide the distinction.
    """
    n = polytope.dim
    g = (1,) + tuple(reversed(f_vector(polytope)))  # g[i] = codim-i face count
    h = []
    for k in range(n + 1):
        j = n - k  # coefficient of t^j
        total = 0
        for i in range(n + 1):
            if j <= n - i:
                total += g[i] * comb(n - i, j) * (-1) ** ((n - i) - j)
        h.append(total)
    return tuple(h)
