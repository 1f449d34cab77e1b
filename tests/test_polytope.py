"""Polytope validation, orientation, face counting."""

import random
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasitoric import (
    adjacent_vertex,
    cpn,
    f_vector,
    h_vector,
    orient_dual_sphere,
    polygon,
    polytope,
    product,
    validate_polytope,
    vertex_cut,
)
from quasitoric.errors import (
    DisconnectedError,
    DuplicateVertexError,
    NonOrientableError,
    RidgeViolationError,
    TooLargeError,
    UnusedFacetError,
    ValidationError,
    WrongVertexSizeError,
)
from support import assert_coherent, f_vector_by_subsets, random_valid_pair, random_vertex

TRIANGLE = [(0, 1), (0, 2), (1, 2)]

# hemi-icosahedron: the 6-vertex triangulation of the real projective plane;
# a valid pseudomanifold (every edge in exactly two faces) that cannot be
# coherently oriented
HEMI_ICOSAHEDRON = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
]

# the 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7; a
# connected orientable pseudomanifold dual that is not a sphere
TORUS_7 = [
    tuple(sorted((i + d) % 7 for d in ds)) for i in range(7) for ds in ((0, 1, 3), (0, 2, 3))
]


def test_triangle_valid():
    poly = validate_polytope(2, 3, TRIANGLE)
    assert poly.vertices == ((0, 1), (0, 2), (1, 2))
    assert poly.num_vertices == 3


def test_interval_valid():
    poly = validate_polytope(1, 2, [(0,), (1,)])
    assert poly.vertices == ((0,), (1,))


def test_vertices_canonicalized():
    poly = validate_polytope(2, 3, [(2, 1), (2, 0), (1, 0)])
    assert poly.vertices == ((0, 1), (0, 2), (1, 2))


def test_ridge_violation():
    with pytest.raises(RidgeViolationError) as exc:
        validate_polytope(2, 4, [(0, 1), (1, 2), (2, 3)])
    assert exc.value.vertex == (0, 1)
    assert exc.value.partners == 0
    # the ridge (0,) lies in three vertices: the first of them is named
    with pytest.raises(RidgeViolationError) as exc:
        validate_polytope(2, 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert exc.value.vertex == (0, 1)
    assert exc.value.facet == 0
    assert exc.value.partners == 2


def test_duplicate_vertex():
    with pytest.raises(DuplicateVertexError):
        validate_polytope(2, 3, [(0, 1), (1, 0), (0, 2), (1, 2)])


def test_wrong_vertex_size():
    with pytest.raises(WrongVertexSizeError):
        validate_polytope(2, 3, [(0, 0), (0, 2), (1, 2)])
    with pytest.raises(WrongVertexSizeError):
        validate_polytope(2, 3, [(0,), (0, 2), (1, 2)])


def test_unused_facet():
    with pytest.raises(UnusedFacetError) as exc:
        validate_polytope(1, 3, [(0,), (1,)])
    assert exc.value.facets == (2,)


def test_disconnected():
    two_triangles = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    with pytest.raises(DisconnectedError):
        validate_polytope(2, 6, two_triangles)
    # disconnected and non-orientable: disconnection is reported first
    hemi_plus_tetrahedron = HEMI_ICOSAHEDRON + list(combinations(range(6, 10), 3))
    with pytest.raises(DisconnectedError, match="10 of 14 reachable"):
        validate_polytope(3, 10, hemi_plus_tetrahedron)


def test_non_orientable():
    with pytest.raises(NonOrientableError) as exc:
        validate_polytope(3, 6, HEMI_ICOSAHEDRON)
    assert exc.value.vertex == (0, 4, 5)


def test_scalar_errors():
    with pytest.raises(ValidationError):
        validate_polytope(0, 2, [(0,), (1,)])
    with pytest.raises(ValidationError):
        validate_polytope(2, 2, [(0, 1)])
    with pytest.raises(ValidationError):
        validate_polytope(1, 2, [(0,), (5,)])


def test_adjacent_vertex_triangle():
    poly = validate_polytope(2, 3, TRIANGLE)
    assert adjacent_vertex(poly, (0, 1), 0) == (1, 2)
    assert adjacent_vertex(poly, (0, 1), 1) == (0, 2)


def test_adjacent_vertex_square():
    poly = polygon(4)
    assert adjacent_vertex(poly, (0, 1), 1) == (0, 3)
    assert adjacent_vertex(poly, (0, 1), 0) == (1, 2)


def test_adjacent_vertex_rejects_interval():
    poly = validate_polytope(1, 2, [(0,), (1,)])
    with pytest.raises(ValueError):
        adjacent_vertex(poly, (0,), 0)


def test_adjacent_vertex_involution():
    rng = random.Random(11)
    for _ in range(25):
        poly = random_valid_pair(rng).polytope
        for v in poly.vertices:
            for f in v:
                w = adjacent_vertex(poly, v, f)
                ridge = set(v) - {f}
                (f2,) = set(w) - ridge
                assert adjacent_vertex(poly, w, f2) == v


def test_orientation_interval():
    poly = validate_polytope(1, 2, [(0,), (1,)])
    assert orient_dual_sphere(poly).signs == (1, -1)


def test_orientation_triangle():
    poly = validate_polytope(2, 3, TRIANGLE)
    assert orient_dual_sphere(poly).signs == (1, -1, 1)


def test_orientation_coherent_and_normalized():
    rng = random.Random(23)
    for _ in range(30):
        poly = random_valid_pair(rng).polytope
        oc = orient_dual_sphere(poly)
        assert oc.signs[0] == 1
        assert_coherent(poly.vertices, oc.signs)
        # the flipped class is the only other coherent one
        assert_coherent(poly.vertices, oc.flipped().signs)


def test_bfs_tree_reaches_every_other_vertex_once():
    rng = random.Random(37)
    polys = [random_valid_pair(rng).polytope for _ in range(40)]
    polys += [cpn(n).polytope for n in (1, 2, 5)]
    cube = [(a, b, c) for a in (0, 3) for b in (1, 4) for c in (2, 5)]
    polys.append(validate_polytope(3, 6, cube))
    for poly in polys:
        tree = poly.bfs_tree
        assert sorted(w for w, _, _, _ in tree) == list(range(1, poly.num_vertices))
        reached = {0}
        for w, v, pos, wpos in tree:
            assert v in reached  # each parent is reached before its children
            reached.add(w)
            vv, ww = poly.vertices[v], poly.vertices[w]
            assert vv[:pos] + vv[pos + 1 :] == ww[:wpos] + ww[wpos + 1 :]
            assert vv[pos] != ww[wpos]


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_mutated_vertices_raise_or_orient_coherently(seed, data):
    """Drop, swap or re-index vertex entries of a valid polytope: validation
    either raises a ValidationError or its orientation passes the oracle."""
    poly = random_valid_pair(random.Random(seed)).polytope
    n, m = poly.dim, poly.num_facets
    verts = [list(v) for v in poly.vertices]
    edits = data.draw(st.lists(st.sampled_from(["drop", "swap", "reindex"]), max_size=3))
    for edit in edits:
        i = data.draw(st.integers(0, len(verts) - 1))
        p = data.draw(st.integers(0, n - 1))
        if edit == "drop" and len(verts) > 1:
            del verts[i]
        elif edit == "swap":
            j = data.draw(st.integers(0, len(verts) - 1))
            q = data.draw(st.integers(0, n - 1))
            verts[i][p], verts[j][q] = verts[j][q], verts[i][p]
        else:
            verts[i][p] = data.draw(st.integers(0, m))  # m itself is out of range
    try:
        result = validate_polytope(n, m, verts)
    except ValidationError:
        assert edits
        return
    assert result.orientation.signs[0] == 1
    assert_coherent(result.vertices, result.orientation.signs)


def test_f_h_triangle_square():
    tri = validate_polytope(2, 3, TRIANGLE)
    assert f_vector(tri) == (3, 3)
    assert h_vector(tri) == (1, 1, 1)
    sq = polygon(4)
    assert f_vector(sq) == (4, 4)
    assert h_vector(sq) == (1, 2, 1)


def test_f_h_simplex():
    from math import comb

    for n in range(1, 6):
        poly = cpn(n).polytope
        assert f_vector(poly) == tuple(comb(n + 1, i + 1) for i in range(n))
        assert h_vector(poly) == (1,) * (n + 1)


def test_f_vector_matches_the_subset_oracle():
    rng = random.Random(11)
    pairs = [random_valid_pair(rng) for _ in range(200)]
    polys = [pair.polytope for pair in pairs]
    polys += [product(pairs[i], pairs[i + 1]).polytope for i in range(0, 60, 2)]
    polys += [vertex_cut(pair, random_vertex(rng, pair)).polytope for pair in pairs[:40]]
    polys += [cpn(n).polytope for n in range(1, 11)]
    polys += [reduce(product, [cpn(1)] * k).polytope for k in range(1, 9)]
    polys += [reduce(product, [cpn(2)] * k).polytope for k in range(1, 5)]
    polys.append(validate_polytope(1, 2, [(0,), (1,)]))
    for poly in polys:
        assert f_vector(poly) == f_vector_by_subsets(poly), poly


def test_torus_dual_keeps_its_non_palindromic_h_vector():
    """Validation accepts this non-sphere; nothing may assume Dehn-Sommerville."""
    poly = validate_polytope(3, 7, TORUS_7)
    assert (poly.num_vertices, f_vector(poly)) == (14, (14, 21, 7))
    h = h_vector(poly)
    assert h == (1, 4, 10, -1)
    assert h != h[::-1]


def test_f_vector_refuses_over_the_subset_limit(monkeypatch):
    """The refusal counts V*(2^n - 1) subsets, is exact at the limit, and
    comes before any enumeration (cpn(40) has about 4.5e13 subsets) and
    before the cached f-vector is returned."""
    assert polytope.F_VECTOR_MAX_SUBSETS >= 1_179_072  # the largest faces pair
    with pytest.raises(TooLargeError, match=r"41 vertices in dim 40 mean 41\*\(2\^40 - 1\)"):
        f_vector(cpn(40).polytope)
    with pytest.raises(TooLargeError):
        h_vector(cpn(40).polytope)
    poly = cpn(2).polytope  # 3 * (2^2 - 1) = 9 subsets
    monkeypatch.setattr(polytope, "F_VECTOR_MAX_SUBSETS", 9)
    assert f_vector(poly) == (3, 3)
    monkeypatch.setattr(polytope, "F_VECTOR_MAX_SUBSETS", 8)
    with pytest.raises(TooLargeError, match="over the limit of 8"):
        f_vector(poly)


def test_h_palindromic_and_relabel_invariant():
    rng = random.Random(5)
    for _ in range(25):
        poly = random_valid_pair(rng).polytope
        h = h_vector(poly)
        assert h == h[::-1]
        assert h[0] == 1
        perm = list(range(poly.num_facets))
        rng.shuffle(perm)
        relabeled = validate_polytope(
            poly.dim, poly.num_facets, [tuple(perm[j] for j in v) for v in poly.vertices]
        )
        assert f_vector(relabeled) == f_vector(poly)
        assert h_vector(relabeled) == h_vector(poly)
