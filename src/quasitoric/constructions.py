"""Standard example families and closure operations.

Projective spaces, polygons, Hirzebruch surfaces, products, vertex cuts
(combinatorial blow-ups) and 4-dimensional equivariant connected sums,
including the k-fold sum of CP^2 with itself. Every constructor returns a
fully validated pair.
"""

from __future__ import annotations

from itertools import combinations

from . import linalg
from .charpair import CharacteristicPair, basis_change, validate_char
from .errors import (
    InternalInconsistencyError,
    InvalidResultError,
    NotDimension2Error,
    ValidationError,
)
from .polytope import SimplePolytope, validate_polytope


def cpn(n: int) -> CharacteristicPair:
    """Complex projective space: simplex boundary with lambda = [I | -1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vertices = list(combinations(range(n + 1), n))
    poly = validate_polytope(n, n + 1, vertices)
    rows = [[1 if j == i else 0 for j in range(n)] + [-1] for i in range(n)]
    return validate_char(poly, rows)


def polygon(m: int) -> SimplePolytope:
    """m-gon: facets 0..m-1 in a cycle."""
    if m < 3:
        raise ValueError("a polygon needs at least 3 facets")
    vertices = [(i, i + 1) for i in range(m - 1)] + [(0, m - 1)]
    return validate_polytope(2, m, vertices)


def hirzebruch(a: int) -> CharacteristicPair:
    """Hirzebruch surface over the square: columns (1,0),(0,1),(-1,a),(0,-1)."""
    return validate_char(polygon(4), [[1, 0, -1, 0], [0, 1, int(a), -1]])


def product(p1: CharacteristicPair, p2: CharacteristicPair) -> CharacteristicPair:
    """Product pair: combinatorial product polytope, block-diagonal lambda."""
    n1, m1 = p1.polytope.dim, p1.polytope.num_facets
    n2, m2 = p2.polytope.dim, p2.polytope.num_facets
    vertices = [
        v + tuple(j + m1 for j in w)
        for v in p1.polytope.vertices
        for w in p2.polytope.vertices
    ]
    poly = validate_polytope(n1 + n2, m1 + m2, vertices)
    rows = [tuple(row) + (0,) * m2 for row in p1.matrix.entries]
    rows += [(0,) * m1 + tuple(row) for row in p2.matrix.entries]
    return validate_char(poly, rows)


def vertex_cut(pair: CharacteristicPair, vertex) -> CharacteristicPair:
    """Blow up the fixed point over a vertex.

    The cut vertex is replaced by n new vertices on a new facet whose lambda
    column is the sum of the cut vertex's columns.
    """
    v = tuple(sorted(vertex))
    poly = pair.polytope
    vi = poly.vertices.index(v)
    m = poly.num_facets
    new_vertices = [w for i, w in enumerate(poly.vertices) if i != vi]
    for f in v:
        new_vertices.append(tuple(j for j in v if j != f) + (m,))
    new_col = [sum(pair.matrix.entries[i][j] for j in v) for i in range(poly.dim)]
    rows = [tuple(row) + (new_col[i],) for i, row in enumerate(pair.matrix.entries)]
    try:
        new_poly = validate_polytope(poly.dim, m + 1, new_vertices)
        return validate_char(new_poly, rows)
    except ValidationError as exc:
        raise InvalidResultError(f"vertex cut produced invalid data: {exc}") from exc


def facet_cycle(pair: CharacteristicPair) -> tuple[int, ...]:
    """Facets of a dim-2 pair in the cycle direction picked by the orientation
    class: vertex {a, b} with a < b points a -> b when its sign is +1.

    Starts at facet 0. Coherence of the orientation class makes this a single
    directed cycle for any valid dim-2 pair.
    """
    if pair.polytope.dim != 2:
        raise NotDimension2Error(pair.polytope.dim)
    succ: dict[int, int] = {}
    for (a, b), sign in zip(pair.polytope.vertices, pair.orientation.signs):
        if sign == 1:
            succ[a] = b
        else:
            succ[b] = a
    cycle = [0]
    while True:
        nxt = succ[cycle[-1]]
        if nxt == 0:
            break
        cycle.append(nxt)
    if len(cycle) != pair.polytope.num_facets:  # pragma: no cover - defect guard
        raise InvalidResultError("facet successor map is not a single cycle")
    return tuple(cycle)


def _directed_corner(pair: CharacteristicPair, vertex):
    """Successor map of the class-directed cycle and the corner (f, f') of
    ``vertex`` in that direction. Walking the class direction, every corner's
    base sign orient * det equals its cycle determinant det(col_f, col_f')."""
    a, b = tuple(sorted(vertex))
    if (a, b) not in pair.polytope.vertices:
        raise ValueError(f"{(a, b)} is not a vertex of the polygon")
    cycle = facet_cycle(pair)
    m = len(cycle)
    succ = {cycle[i]: cycle[(i + 1) % m] for i in range(m)}
    f, f_next = (a, b) if succ[a] == b else (b, a)
    return succ, (f, f_next)


def connected_sum_4d(
    p1: CharacteristicPair, v1, p2: CharacteristicPair, v2
) -> CharacteristicPair:
    """Equivariant connected sum of two dim-2 pairs at fixed points.

    The polygons are spliced at the removed corners: with (f, f') the facets
    at v1 and (g, g') at v2 in cycle order, f merges with g' and f' with g.
    The second pair's columns are transformed by the unique A in GL(2,Z) with
    det A = +1 carrying col(g) to col(f') and col(g') to +-col(f); the sign is
    forced by the determinant condition and equals minus the product of the
    two corners' base signs. A twist on one merged edge is the equivariant
    form of the orientation-reversing chart gluing (conjugating one complex
    coordinate of the removed ball); det A = +1 is what embeds the second
    summand's corner data orientation-true, so signatures add. Any other sign
    convention inserts the second summand reversed and breaks the behaviour
    of the k-fold sums.
    """
    for p in (p1, p2):
        if p.polytope.dim != 2:
            raise NotDimension2Error(p.polytope.dim)
    succ1, (f, f_next) = _directed_corner(p1, v1)
    succ2, (g, g_next) = _directed_corner(p2, v2)

    m1 = p1.polytope.num_facets
    m2 = p2.polytope.num_facets
    col = p1.matrix.column
    col2 = p2.matrix.column
    base1 = col(f)[0] * col(f_next)[1] - col(f)[1] * col(f_next)[0]
    base2 = col2(g)[0] * col2(g_next)[1] - col2(g)[1] * col2(g_next)[0]
    twist = -base1 * base2

    target = (
        (col(f_next)[0], twist * col(f)[0]),
        (col(f_next)[1], twist * col(f)[1]),
    )
    source = ((col2(g)[0], col2(g_next)[0]), (col2(g)[1], col2(g_next)[1]))
    align = linalg.mat_mul(target, linalg.inv_unimodular(source))
    if linalg.det_bareiss(align) != 1:  # pragma: no cover - defect guard
        raise InternalInconsistencyError(f"no det +1 alignment at {v1} / {v2}")

    walk = [("p1", f_next)]
    while walk[-1][1] != f:
        walk.append(("p1", succ1[walk[-1][1]]))
    x = succ2[g_next]
    while x != g:
        walk.append(("p2", x))
        x = succ2[x]

    survivors = sorted(h for h in range(m2) if h not in (g, g_next))
    relabel = {h: m1 + i for i, h in enumerate(survivors)}
    labels = [fac if side == "p1" else relabel[fac] for side, fac in walk]

    n_new = m1 + m2 - 2
    vertices = [(labels[i], labels[(i + 1) % n_new]) for i in range(n_new)]
    lam = [[0] * n_new for _ in range(2)]
    for j in range(m1):
        c = col(j)
        lam[0][j], lam[1][j] = c[0], c[1]
    for h in survivors:
        c = linalg.mat_mul(align, ((col2(h)[0],), (col2(h)[1],)))
        lam[0][relabel[h]], lam[1][relabel[h]] = c[0][0], c[1][0]

    try:
        poly = validate_polytope(2, n_new, vertices)
        glued = validate_char(poly, lam)
    except ValidationError as exc:
        raise InvalidResultError(f"connected sum produced invalid data: {exc}") from exc

    # The rebuilt orientation class is normalized at the glued polygon's
    # lex-smallest vertex, which need not extend p1's orientation. Anchor the
    # global gauge at a surviving p1 corner (base signs orient*det must agree);
    # a det -1 basis change flips every base sign, same data as flipping eps0.
    anchor = next(v for v in p1.polytope.vertices if v != tuple(sorted(v1)))
    i1 = p1.polytope.vertices.index(anchor)
    ig = glued.polytope.vertices.index(anchor)
    base_p1 = p1.orientation.signs[i1] * p1.vertex_dets[i1]
    base_glued = glued.orientation.signs[ig] * glued.vertex_dets[ig]
    if base_p1 != base_glued:
        glued = basis_change(glued, ((1, 0), (0, -1)))
    return glued


def cp2_sum(k: int) -> CharacteristicPair:
    """k-fold equivariant connected sum of CP^2, a (k+2)-gon pair."""
    if k < 1:
        raise ValueError("k must be >= 1")
    acc = cpn(2)
    for _ in range(k - 1):
        fresh = cpn(2)
        acc = connected_sum_4d(
            acc, acc.polytope.vertices[0], fresh, fresh.polytope.vertices[0]
        )
    return acc
