"""Standard example families and closure operations.

Projective spaces, polygons, Hirzebruch surfaces, products, vertex cuts
(combinatorial blow-ups) and 4-dimensional equivariant connected sums,
including the k-fold sum of CP^2 with itself. Every constructor returns a
valid pair: most run full validation on what they build; ``cpn`` takes its
base signs in closed form, and ``product``, which takes validated pairs,
builds its pair in closed form from what the factors already proved, with
the product of their spanning trees for its own; the tests check both field
by field against full validation. Every constructor raises TooLargeError,
before building anything, for a pair whose entries and vertex masks are over
``polytope.CONSTRUCTION_MAX_ENTRIES``.
"""

from __future__ import annotations

from itertools import combinations
from operator import index

from . import linalg
from .charpair import CharacteristicPair, validate_char
from .errors import (
    InternalInconsistencyError,
    NotDimension2Error,
    TooLargeError,
    ValidationError,
    _int_text,
)
from .polytope import (
    CONSTRUCTION_MAX_ENTRIES,
    SimplePolytope,
    validate_polytope,
)


def _check_size(v: int, n: int, m: int) -> None:
    """TooLargeError when a pair with v vertices and m facets in dim n holds
    more than CONSTRUCTION_MAX_ENTRIES entries and mask words, V*n + n*m +
    V*ceil(m/64)."""
    entries = v * n + n * m
    words = v * -(-m // 64)
    if entries + words > CONSTRUCTION_MAX_ENTRIES:
        raise TooLargeError(
            f"{_int_text(v)} vertices and {_int_text(m)} facets in dim {_int_text(n)} mean"
            f" {_int_text(entries)} entries and {_int_text(words)} mask words,"
            f" {_int_text(entries + words)} in all, over the limit of"
            f" {CONSTRUCTION_MAX_ENTRIES}; refusing"
        )


def cpn(n: int) -> CharacteristicPair:
    """Complex projective space: simplex boundary with lambda = [I | -1].

    Built in closed form, with no determinant walk: vertex i omits facet
    n - i, its orientation is (-1)^i and so is det lambda_v (the identity
    with column n - i replaced by the all -1 column), so every base sign is
    +1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_size(n + 1, n, n + 1)
    vertices = list(combinations(range(n + 1), n))
    poly = validate_polytope(n, n + 1, vertices)
    rows = tuple(tuple(1 if j == i else 0 for j in range(n)) + (-1,) for i in range(n))
    return CharacteristicPair(poly, rows, (1,) * (n + 1))


def polygon(m: int) -> SimplePolytope:
    """m-gon: facets 0..m-1 in a cycle."""
    if m < 3:
        raise ValueError("a polygon needs at least 3 facets")
    _check_size(m, 2, m)
    vertices = [(i, i + 1) for i in range(m - 1)] + [(0, m - 1)]
    return validate_polytope(2, m, vertices)


def hirzebruch(a: int) -> CharacteristicPair:
    """Hirzebruch surface over the square: columns (1,0),(0,1),(-1,a),(0,-1).

    TypeError when a is not an integer (anything ``operator.index`` accepts).
    """
    return validate_char(polygon(4), [[1, 0, -1, 0], [0, 1, index(a), -1]])


def product(p1: CharacteristicPair, p2: CharacteristicPair) -> CharacteristicPair:
    """Product pair: combinatorial product polytope, block-diagonal lambda.

    ``p1`` and ``p2`` must be validated, as every constructor returns them:
    the product is built in closed form from what they proved, with no
    validation of its own. The dual sphere of P x Q is the join of the
    duals, so vertex (a, b), index a*V2 + b, is P's vertex a followed by Q's
    vertex b shifted by m1: canonical in a-major order. Its orientation is o1[a] * o2[b],
    coherent on both kinds of ridge and +1 at vertex (0, 0); its base sign is
    s1[a] * s2[b], as det lambda_(a,b) is the product of the blocks' dets.
    The vertex graph of P x Q is the product of the factors' graphs, so the
    product of their trees spans it: P's tree at b = r2, the root of Q's
    tree, at the same positions, then Q's tree at each a in turn, its
    positions shifted by n1. It is rooted at (P's root, r2), each parent
    comes before its children and each edge crosses the ridge it names,
    which is all the spanning-tree contract of ``SimplePolytope.bfs_tree``
    asks; it is not the tree validation's breadth-first search would find.
    O(V) tree edges.
    """
    poly1, poly2 = p1.polytope, p2.polytope
    n1, m1, verts1 = poly1.dim, poly1.num_facets, poly1.vertices
    n2, m2, verts2 = poly2.dim, poly2.num_facets, poly2.vertices
    v1, v2 = len(verts1), len(verts2)
    _check_size(v1 * v2, n1 + n2, m1 + m2)
    shifted = [tuple(j + m1 for j in w) for w in verts2]
    vertices = tuple(v + w for v in verts1 for w in shifted)
    masks = tuple(a | b << m1 for a in poly1.masks for b in poly2.masks)
    orientation = tuple(x * y for x in poly1.orientation for y in poly2.orientation)
    base_signs = tuple(x * y for x in p1.base_signs for y in p2.base_signs)

    r2 = poly2.bfs_tree[0][1]
    tree = tuple((wa * v2 + r2, va * v2 + r2, p, q) for wa, va, p, q in poly1.bfs_tree)
    tree += tuple(
        (row + w, row + v, n1 + p, n1 + q)
        for row in range(0, v1 * v2, v2)
        for w, v, p, q in poly2.bfs_tree
    )

    poly = SimplePolytope(n1 + n2, m1 + m2, vertices, orientation, tree, masks)
    rows = tuple(row + (0,) * m2 for row in p1.matrix)
    rows += tuple((0,) * m1 + row for row in p2.matrix)
    return CharacteristicPair(poly, rows, base_signs)


def vertex_cut(pair: CharacteristicPair, vertex) -> CharacteristicPair:
    """Blow up the fixed point over a vertex.

    The cut vertex is replaced by n new vertices on a new facet whose lambda
    column is the sum of the cut vertex's columns. Needs dim >= 2.
    """
    poly = pair.polytope
    if poly.dim < 2:
        raise ValueError(f"a vertex cut needs dim >= 2, got dim {poly.dim}")
    vi = poly.vertex_index(vertex)
    v = poly.vertices[vi]
    m = poly.num_facets
    _check_size(poly.num_vertices - 1 + poly.dim, poly.dim, m + 1)
    new_vertices = [w for i, w in enumerate(poly.vertices) if i != vi]
    for f in v:
        new_vertices.append(tuple(j for j in v if j != f) + (m,))
    rows = [row + (sum(row[j] for j in v),) for row in pair.matrix]
    try:
        new_poly = validate_polytope(poly.dim, m + 1, new_vertices)
        return validate_char(new_poly, rows)
    except ValidationError as exc:  # pragma: no cover - defect guard
        raise InternalInconsistencyError(f"vertex cut produced invalid data: {exc}") from exc


def connected_sum_4d(
    p1: CharacteristicPair, v1, p2: CharacteristicPair, v2
) -> CharacteristicPair:
    """Equivariant connected sum of two dim-2 pairs at fixed points.

    The polygons are spliced at the removed corners. Corner (a, b), a < b,
    runs a -> b when its orientation sign is +1; read so, v1 is f -> f' and
    v2 is g -> g', and f merges with g', f' with g. The glued corners are
    p1's others and p2's others, g' renamed f, g renamed f' and each
    surviving facet h renamed m1 + its rank among p2's survivors.

    The second pair's columns are transformed by the unique A in GL(2,Z) with
    det A = +1 carrying col(g) to col(f') and col(g') to +-col(f); the sign is
    forced by the determinant condition and equals minus the product of the
    two corners' base signs. A twist on one merged edge is the equivariant
    form of the orientation-reversing chart gluing (conjugating one complex
    coordinate of the removed ball); det A = +1 is what embeds the second
    summand's corner data orientation-true, so signatures add. Any other sign
    convention inserts the second summand reversed and breaks the behaviour
    of the k-fold sums.

    A = T S^-1, S = (col g, col g') and T = (col f', +-col f). d = det S = +-1
    (v2 is a vertex of a validated pair) gives S^-1 = d adj S, and det T = d,
    so det A = d^2 = +1 by construction; the gauge is fixed before validation.
    """
    poly1, poly2 = p1.polytope, p2.polytope
    for poly in (poly1, poly2):
        if poly.dim != 2:
            raise NotDimension2Error(poly.dim)
    i, j = poly1.vertex_index(v1), poly2.vertex_index(v2)
    m1, m2 = poly1.num_facets, poly2.num_facets
    m = m1 + m2 - 2  # the glued polygon's facets and vertices
    _check_size(m, 2, m)
    # a step of -1 reverses a corner whose sign is -1
    f, f_next = poly1.vertices[i][:: poly1.orientation[i]]
    g, g_next = poly2.vertices[j][:: poly2.orientation[j]]

    (xf, xn), (yf, yn) = linalg.columns(p1.matrix, (f, f_next))
    (xg, xh), (yg, yh) = linalg.columns(p2.matrix, (g, g_next))
    d = xg * yh - yg * xh
    twist = -(xf * yn - yf * xn) * d
    target = ((xn, twist * xf), (yn, twist * yf))
    align = linalg.mat_mul(target, ((d * yh, -d * xh), (-d * yg, d * xg)))

    # p1 keeps its labels and p2's survivors take m1, m1 + 1, ... in ascending
    # order, so the glued matrix is p1's columns followed by the moved ones.
    survivors = [h for h in range(m2) if h != g and h != g_next]
    rename = dict(zip(survivors, range(m1, m)))
    rename[g_next], rename[g] = f, f_next
    vertices = [v for vi, v in enumerate(poly1.vertices) if vi != i]
    vertices += [(rename[a], rename[b]) for vi, (a, b) in enumerate(poly2.vertices) if vi != j]
    moved = linalg.mat_mul(align, linalg.columns(p2.matrix, survivors))
    lam = [row + new for row, new in zip(p1.matrix, moved)]

    # The rebuilt orientation class is normalized at the glued polygon's
    # lex-smallest vertex, which need not extend p1's. p1's surviving corners
    # keep their ridges, so there the two classes differ by one global sign,
    # read at any of them. Base signs must agree there, as the columns are
    # p1's: where the orientations differ, negating row 1 (det -1, same as
    # flipping eps0) fixes that.
    kept = 1 if i == 0 else 0  # a surviving p1 corner
    try:
        poly = validate_polytope(2, m, vertices)
        glued = poly.vertices.index(poly1.vertices[kept])
        if poly.orientation[glued] != poly1.orientation[kept]:
            lam[1] = [-x for x in lam[1]]
        return validate_char(poly, lam)
    except ValidationError as exc:  # pragma: no cover - defect guard
        raise InternalInconsistencyError(f"connected sum produced invalid data: {exc}") from exc


def cp2_sum(k: int) -> CharacteristicPair:
    """k-fold equivariant connected sum of CP^2, a (k+2)-gon pair, in closed form.

    With m = k + 2 and eps = +1 for odd k, -1 for even k, the vertices are
    (0, k), (0, k+1), (1, 2) and (j, j+2) for j = 1..k-1, and the rows of
    lambda are

        x_0 = 1, x_1 = 0, x_j = -(-1)^floor((j-1)/2) * floor(j/2)  (j >= 2),
        y_0 = 0,          y_j = eps * (-1)^floor(j/2)              (j >= 1).

    This is the pair that folding ``connected_sum_4d`` k - 1 times into CP^2,
    each time at vertex 0 of the running sum and of a fresh CP^2, returns; the
    tests compare the two. The polygon and the matrix are validated like every
    other constructor's.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = k + 2
    _check_size(m, 2, m)
    eps = 1 if k % 2 else -1
    vertices = [(0, k), (0, k + 1), (1, 2)] + [(j, j + 2) for j in range(1, k)]
    x = [1, 0] + [-((-1) ** ((j - 1) // 2)) * (j // 2) for j in range(2, m)]
    y = [0] + [eps * (-1) ** (j // 2) for j in range(1, m)]
    return validate_char(validate_polytope(2, m, vertices), [x, y])
