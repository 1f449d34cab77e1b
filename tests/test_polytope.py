"""Polytope validation, orientation, face counting."""

import random
import tracemalloc
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasitoric import (
    basis_change,
    cp2_sum,
    cpn,
    f_vector,
    h_vector,
    hirzebruch,
    orient_dual_sphere,
    polygon,
    polytope,
    product,
    relabel_facets,
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
from support import (
    assert_bfs_tree,
    assert_coherent,
    cycle_by_successors,
    f_vector_by_subsets,
    random_polygon_pair,
    random_relabelling,
    random_unimodular,
    random_valid_pair,
    random_vertex,
    ridge_entries,
    validate_by_ridge_map,
)

TRIANGLE = [(0, 1), (0, 2), (1, 2)]
SQUARE = [(0, 1), (1, 2), (2, 3), (0, 3)]

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
    # the lone ridge (1,) of vertex (0, 1) is named before the ridge (0,),
    # although the scan meets the third vertex on (0,) first
    with pytest.raises(RidgeViolationError) as exc:
        validate_polytope(2, 4, [(0, 1), (0, 2), (0, 3), (2, 3)])
    assert (exc.value.vertex, exc.value.facet, exc.value.partners) == ((0, 1), 0, 0)
    # the ridge (0,) lies in four vertices
    with pytest.raises(RidgeViolationError) as exc:
        validate_polytope(2, 5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
    assert (exc.value.vertex, exc.value.facet, exc.value.partners) == ((0, 1), 1, 3)
    # two vertices on no common ridge: every ridge is lone, none crowded
    with pytest.raises(RidgeViolationError) as exc:
        validate_polytope(2, 4, [(0, 1), (2, 3)])
    assert (exc.value.vertex, exc.value.facet, exc.value.partners) == ((0, 1), 0, 0)


@pytest.mark.parametrize("m", [61, 62, 70, 200])
def test_ridge_violation_past_61_facets(m):
    """Ridge keys past m = 61 are built from other facet codes; the first bad
    ridge in scan order is still the one named."""
    cycle = [(i, (i + 1) % m) for i in range(m)]
    # (0, m - 1) missing: the ridge (0,) of vertex (0, 1) has no partner
    with pytest.raises(RidgeViolationError) as exc:
        validate_polytope(2, m, cycle[:-1])
    assert (exc.value.vertex, exc.value.facet, exc.value.partners) == ((0, 1), 1, 0)
    # (0, m // 2) added: the ridge (0,) lies in three vertices
    with pytest.raises(RidgeViolationError) as exc:
        validate_polytope(2, m, cycle + [(0, m // 2)])
    assert (exc.value.vertex, exc.value.facet, exc.value.partners) == ((0, 1), 1, 2)
    # (5, 6) missing: the ridges met before the ridge (5,) of vertex (4, 5) are sound
    with pytest.raises(RidgeViolationError) as exc:
        validate_polytope(2, m, cycle[:5] + cycle[6:])
    assert (exc.value.vertex, exc.value.facet, exc.value.partners) == ((4, 5), 4, 0)
    # a lone ridge before a crowded one, the other facets on a sound cycle
    rest = [(i, i + 1) for i in range(4, m - 1)] + [(4, m - 1)]
    with pytest.raises(RidgeViolationError) as exc:
        validate_polytope(2, m, [(0, 1), (0, 2), (0, 3), (2, 3)] + rest)
    assert (exc.value.vertex, exc.value.facet, exc.value.partners) == ((0, 1), 0, 0)


def test_validation_memory_stays_near_one_dict_entry_per_ridge():
    """(CP1)^10 has 1024 vertices of 10 slots each, one slot per vertex and
    ridge through it. With one dict entry per ridge the tracemalloc peak of
    validate_polytope reads 75-87 bytes a slot on CPython 3.11; a list of
    the slots on each ridge makes it 118-130."""
    pair = cpn(1)
    for _ in range(9):
        pair = product(pair, cpn(1))
    p = pair.polytope
    slots = p.num_vertices * p.dim
    tracemalloc.start()
    try:
        validated = validate_polytope(p.dim, p.num_facets, p.vertices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert validated.masks == p.masks
    assert peak < 110 * slots


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
    assert str(exc.value) == "facets (2,) appear in no vertex"
    # past ten unused facets only the first ten are listed, and the scan stops
    # there: a triangle's vertices with a million facets
    with pytest.raises(UnusedFacetError) as exc:
        validate_polytope(2, 10**6, [(0, 1), (1, 2), (0, 2)])
    assert exc.value.facets == tuple(range(3, 13))
    assert str(exc.value) == f"facets {tuple(range(3, 13))} and 999987 more appear in no vertex"
    assert len(str(exc.value)) < 200


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
    with pytest.raises(ValidationError, match=r"^dim must be >= 1, got 0$"):
        validate_polytope(0, 2, [(0,), (1,)])
    with pytest.raises(ValidationError, match=r"^need at least dim\+1 = 3 facets, got 2$"):
        validate_polytope(2, 2, [(0, 1)])
    with pytest.raises(ValidationError):
        validate_polytope(1, 2, [(0,), (5,)])
    # a negative index is refused also where the vertex's last index is in range
    with pytest.raises(ValidationError, match=r"facet index outside \[0, 3\)$"):
        validate_polytope(2, 3, [(-1, 1), (0, 1), (0, 2)])
    with pytest.raises(ValidationError, match="polytope has no vertices"):
        validate_polytope(2, 3, [])


def test_a_tuple_that_is_not_a_vertex_is_named():
    pair = cpn(2)
    poly = pair.polytope
    for call in (
        lambda: poly.vertex_index((6, 5)),
        lambda: vertex_cut(pair, (5, 6)),
    ):
        with pytest.raises(ValueError, match=r"^\(5, 6\) is not a vertex of the polytope$"):
            call()


def test_masks_are_the_vertex_facet_bitmasks():
    rng = random.Random(38)
    for _ in range(40):
        poly = random_valid_pair(rng).polytope
        assert len(poly.masks) == poly.num_vertices
        for i, v in enumerate(poly.vertices):
            assert poly.masks[i] == sum(1 << j for j in v)
    # past m = 61 the ridge map's keys use other facet codes and the polygon
    # walk builds none; the masks are plain bitmasks either way
    prod = product(cpn(2), cp2_sum(63)).polytope
    for poly in (cp2_sum(70).polytope, validate_polytope(4, prod.num_facets, prod.vertices)):
        assert poly.masks == tuple(sum(1 << j for j in v) for v in poly.vertices)


def test_orientation_interval():
    poly = validate_polytope(1, 2, [(0,), (1,)])
    assert orient_dual_sphere(poly) == (1, -1)


def test_orientation_triangle():
    poly = validate_polytope(2, 3, TRIANGLE)
    assert orient_dual_sphere(poly) == (1, -1, 1)


def test_orientation_coherent_and_normalized():
    rng = random.Random(23)
    for _ in range(30):
        poly = random_valid_pair(rng).polytope
        oc = orient_dual_sphere(poly)
        assert oc[0] == 1
        assert_coherent(poly.vertices, oc)
        # the flipped class is the only other coherent one
        assert_coherent(poly.vertices, tuple(-s for s in oc))


def _result(poly):
    return poly.vertices, poly.orientation, poly.bfs_tree, poly.masks


def test_simplex_matches_the_ridge_map_oracle():
    """Validation's closed form for the simplex gives the vertices,
    orientation, BFS tree and masks of the tuple-keyed ridge map and deque
    BFS, below and past m = 61, from shuffled vertex lists with each
    vertex's entries permuted."""
    rng = random.Random(23)
    for n in range(1, 71):
        verts = [list(v) for v in combinations(range(n + 1), n)]
        for v in verts:
            rng.shuffle(v)
        rng.shuffle(verts)
        assert _result(validate_polytope(n, n + 1, verts)) == validate_by_ridge_map(verts)


def test_other_polytopes_match_the_ridge_map_oracle():
    """The oracle also agrees with the generic path, with bitmask ridge
    keys and, on the product past m = 61, the coded keys, and with the
    polygon walk, on cp2_sum(70) past m = 61 too. Each vertex list goes
    through validation, as a product's own tree is not validation's."""
    rng = random.Random(29)
    polys = [random_valid_pair(rng).polytope for _ in range(30)]
    polys += [cp2_sum(70).polytope, product(cpn(60), cpn(1)).polytope]
    for poly in polys:
        poly = validate_polytope(poly.dim, poly.num_facets, poly.vertices)
        assert _result(poly) == validate_by_ridge_map(poly.vertices)


def _validated(m, verts):
    """Every field of validate_polytope's polygon, or its error's type and
    message."""
    try:
        poly = validate_polytope(2, m, verts)
    except ValidationError as exc:
        return type(exc), str(exc)
    return (poly.dim, poly.num_facets) + _result(poly)


def _by_general_path(monkeypatch, inputs):
    """_validated on each (m, vertices), the polygon's cycle walk patched away."""
    with monkeypatch.context() as patch:
        patch.setattr(polytope, "_polygon_by_cycle", lambda m, canon: None)
        return [_validated(m, verts) for m, verts in inputs]


def _shuffled_polygon(rng, m):
    """The m-gon's vertices, its facets renamed and listed at random."""
    perm = rng.sample(range(m), m)
    verts = [(perm[i - 1], perm[i]) for i in range(m)]
    rng.shuffle(verts)
    return verts


def test_the_cycle_walk_matches_the_general_path(monkeypatch):
    """On 1009 polygons, built by the constructors, relabelled, long sums
    and m-gons with shuffled facets up to m = 400, the cycle walk gives
    every field of the general path's polytope, bfs_tree included, with no
    ridge map."""
    rng = random.Random(46)
    pairs = [random_polygon_pair(rng, max_m=rng.choice([6, 12, 20])) for _ in range(300)]
    pairs += [random_relabelling(rng, pair) for pair in pairs]
    pairs += [cp2_sum(k) for k in (1, 2, 3, 58, 59, 60, 61, 62, 63, 99, 100, 200)]
    polys = [pair.polytope for pair in pairs]
    inputs = [(p.num_facets, p.vertices) for p in polys]
    inputs += [(m, _shuffled_polygon(rng, m)) for m in range(4, 401)]

    def no_ridge_map(n, m, verts):
        raise AssertionError("a valid polygon reached the ridge map")

    with monkeypatch.context() as patch:
        patch.setattr(polytope, "_ridge_partners", no_ridge_map)
        walked = [_validated(m, verts) for m, verts in inputs]
    assert len(inputs) == 1009
    assert walked == _by_general_path(monkeypatch, inputs)
    assert all(len(result) == 6 for result in walked)  # every one valid


def _mutated_polygons(rng, m):
    """A shuffled m-gon's vertex list with one fault each. All but a vertex
    dropped or added keep m vertices, so they reach the cycle walk unless
    an earlier check refuses them."""
    verts = _shuffled_polygon(rng, m)
    i = rng.randrange(m)
    a, b = rng.sample(range(m), 2)
    renamed = [tuple(b if j == a else j for j in v) for v in verts]  # facet a is b
    entry = list(verts)
    entry[i] = (verts[i][0], rng.choice([j for j in range(m) if j not in verts[i]]))
    faults = [
        verts[:i] + verts[i + 1 :],  # a vertex dropped
        verts + [(a, b)],  # a vertex added
        verts[:i] + [(a, b)] + verts[i + 1 :],  # a vertex replaced
        renamed,
        entry,  # one vertex's facet renamed
    ]
    if m >= 6:  # two disjoint cycles, of 3 facets or more each
        perm = rng.sample(range(m), m)
        cut = rng.randint(3, m - 3)
        faults.append([(c[k - 1], c[k]) for c in (perm[:cut], perm[cut:]) for k in range(len(c))])
    return faults


def test_an_invalid_polygon_raises_as_the_general_path(monkeypatch):
    """A fault the cycle walk finds sends the polygon on to the general
    path, so the error type and message are its own: a vertex dropped,
    added or replaced, a facet renamed on every vertex or on one, and two
    disjoint cycles, on m-gons below and past m = 61. Of the inputs that
    reach it, m distinct vertices on m facets, the walk refuses exactly the
    invalid ones."""
    rng = random.Random(47)
    inputs = []
    for m in list(range(4, 40)) * 4 + [61, 62, 63, 70, 100, 130]:
        inputs += [(m, verts) for verts in _mutated_polygons(rng, m)]
    walked = [_validated(m, verts) for m, verts in inputs]
    general = _by_general_path(monkeypatch, inputs)
    assert walked == general
    errors = {result[0] for result in walked if len(result) == 2}
    assert {DuplicateVertexError, WrongVertexSizeError, RidgeViolationError} <= errors
    refused = set()
    for (m, verts), result in zip(inputs, general):
        canon = sorted(tuple(sorted(v)) for v in verts)
        if len(set(canon)) == len(canon) == m and all(a != b for a, b in canon):
            poly = polytope._polygon_by_cycle(m, canon)
            assert (poly is None) == (len(result) == 2)
            if poly is None:
                refused.add(result[0])
    assert refused == {UnusedFacetError, RidgeViolationError, DisconnectedError}


@pytest.mark.parametrize("n", [1, 2, 3, 60, 61, 70])
def test_simplex_inputs_that_are_not_the_simplex_raise(n):
    """m = n + 1 facets but not the whole simplex: the checks before the
    closed form, or the generic ones, name the fault."""
    m = n + 1
    verts = list(combinations(range(m), n))  # canonical: vertex i omits facet n - i
    # the last vertex, which omits facet 0, dropped
    err = UnusedFacetError if n == 1 else RidgeViolationError
    with pytest.raises(err) as exc:
        validate_polytope(n, m, verts[:-1])
    if n == 1:
        assert exc.value.facets == (1,)
    else:  # vertex 0's ridge without facet 0 has lost its partner
        assert (exc.value.vertex, exc.value.facet, exc.value.partners) == (verts[0], 0, 0)
    # the first vertex, which omits facet n, dropped: the ridge without
    # facet n of the new vertex 0 has lost its partner
    with pytest.raises(err) as exc:
        validate_polytope(n, m, verts[1:])
    if n == 1:
        assert exc.value.facets == (0,)
    else:
        assert (exc.value.vertex, exc.value.facet, exc.value.partners) == (verts[1], n, 0)
    # one vertex duplicated, with the others all there or one of them dropped
    for dup in (verts + [verts[-1]], verts[:-1] + [verts[0]]):
        with pytest.raises(DuplicateVertexError) as exc:
            validate_polytope(n, m, dup)
        assert exc.value.vertex == dup[-1]
    # an index equal to m
    bad = verts[:-1] + [verts[-1][:-1] + (m,)]
    with pytest.raises(ValidationError) as exc:
        validate_polytope(n, m, bad)
    assert type(exc.value) is ValidationError
    assert str(exc.value) == f"vertex {bad[-1]} has a facet index outside [0, {m})"
    # a vertex of size n - 1
    bad = verts[:-1] + [verts[-1][1:]]
    with pytest.raises(WrongVertexSizeError) as exc:
        validate_polytope(n, m, bad)
    assert (exc.value.vertex, exc.value.expected) == (bad[-1], n)


def test_bfs_tree_reaches_every_other_vertex_once():
    """Validation's trees and the product's own trees, of products of
    products, of a product past m = 61, of a product relabelled, cut or
    basis-changed, and of products of relabelled factors, rooted off vertex
    0, all keep the spanning-tree contract."""
    rng = random.Random(37)
    polys = [random_valid_pair(rng).polytope for _ in range(40)]
    polys += [cpn(n).polytope for n in (1, 2, 5)]
    cube = [(a, b, c) for a in (0, 3) for b in (1, 4) for c in (2, 5)]
    polys.append(validate_polytope(3, 6, cube))
    prism = product(cpn(1), hirzebruch(1))
    pentagon = vertex_cut(vertex_cut(cpn(2), (0, 1)), (0, 3))
    pairs = [product(prism, product(cpn(2), cpn(1))), product(product(pentagon, cpn(1)), prism)]
    pairs += [product(random_valid_pair(rng), random_valid_pair(rng)) for _ in range(10)]
    pairs.append(product(cp2_sum(60), cpn(1)))
    pair = pairs[0]
    perm = list(range(pair.polytope.num_facets))
    rng.shuffle(perm)
    pairs += [
        relabel_facets(pair, perm)[0],
        vertex_cut(pair, random_vertex(rng, pair)),
        basis_change(pair, random_unimodular(rng, pair.polytope.dim)),
    ]
    polys += [pair.polytope for pair in pairs]
    relabelled = []
    for pair in (prism, pentagon, cpn(1), cpn(3), pairs[1]):
        perm = list(range(pair.polytope.num_facets))
        perm = perm[1:] + perm[:1]  # facet j becomes j + 1 mod m, so vertex 0 moves
        relabelled.append(relabel_facets(pair, perm)[0])
    products = [product(p, q) for p, q in zip(relabelled, relabelled[1:])]
    products.append(product(products[0], products[2]))
    for poly in polys + [pair.polytope for pair in relabelled + products]:
        assert_bfs_tree(poly)
    assert all(pair.polytope.bfs_tree[0][1] != 0 for pair in relabelled + products)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_mutated_vertices_raise_or_orient_coherently(seed, data):
    """Drop, swap or re-index vertex entries of a valid polytope: validation
    either raises a ValidationError or its orientation and BFS tree pass the
    oracles. A RidgeViolationError names the first ridge without exactly two
    vertices in the plain tuple-keyed ridge map over the canonical vertices."""
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
    except RidgeViolationError as exc:
        canon = sorted(tuple(sorted(v)) for v in verts)
        entries = next(e for e in ridge_entries(canon).values() if len(e) != 2)
        vi, pos = entries[0]
        assert exc.vertex == canon[vi]
        assert exc.facet == canon[vi][pos]
        assert exc.partners == len(entries) - 1
        return
    except ValidationError:
        assert edits
        return
    assert result.orientation[0] == 1
    assert_coherent(result.vertices, result.orientation)
    assert_bfs_tree(result)


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


def _join(*factors):
    """The dual of the product of the given polytopes, each factor a
    (dim, num_facets, vertices) triple: the join of their dual complexes,
    a pseudomanifold dual exactly when every factor is one."""
    n, m, verts = 0, 0, [()]
    for dim, num_facets, vertices in factors:
        verts = [v + tuple(w + m for w in u) for v in verts for u in vertices]
        n += dim
        m += num_facets
    return validate_polytope(n, m, verts)


@pytest.mark.parametrize(
    "factors, expected",
    [
        # dim 4: one level of codimension 2 and none after it
        ([(3, 7, TORUS_7), (1, 2, [(0,), (1,)])], (28, 56, 35, 9)),
        ([(3, 7, TORUS_7), (2, 3, TRIANGLE)], (42, 105, 98, 45, 10)),
        ([(3, 7, TORUS_7), (3, 7, TORUS_7)], (196, 588, 637, 322, 91, 14)),
        ([(3, 7, TORUS_7), (2, 4, SQUARE), (2, 4, SQUARE)], (224, 784, 1120, 856, 382, 101, 15)),
    ],
)
def test_f_vector_of_non_sphere_joins_matches_the_subset_oracle(factors, expected):
    """Joins with the torus dual are pseudomanifolds but not spheres, and
    from dim 5 on their faces pass through the grouped level loop."""
    poly = _join(*factors)
    assert f_vector(poly) == f_vector_by_subsets(poly) == expected
    h = h_vector(poly)
    assert h != h[::-1]


def _triple(piece):
    """(dim, num_facets, vertices) of a polytope or a pair; a triple as is."""
    if isinstance(piece, tuple):
        return piece
    poly = getattr(piece, "polytope", piece)
    return poly.dim, poly.num_facets, poly.vertices


def _relabelled(poly, rng):
    """The polytope with its facets renumbered at random, so that the facets
    of the factors of a product interleave."""
    perm = list(range(poly.num_facets))
    rng.shuffle(perm)
    return validate_polytope(
        poly.dim, poly.num_facets, [tuple(perm[j] for j in v) for v in poly.vertices]
    )


def _split(poly):
    return polytope._join_factors(poly.num_facets, poly.vertices, poly.masks, poly.bfs_tree)


def _no_incidence(m, verts):
    raise AssertionError("the split built the incidence lists for the meet test")


def _count_incidence(monkeypatch):
    """Count the calls of polytope._incidence: the returned list gets each
    call's m."""
    calls = []
    incidence = polytope._incidence

    def counted(m, verts):
        calls.append(m)
        return incidence(m, verts)

    monkeypatch.setattr(polytope, "_incidence", counted)
    return calls


HEXAGON = polygon(6)


@pytest.mark.parametrize(
    "pieces",
    [
        [cpn(2), cpn(3)],
        [cpn(1)] * 5,
        [cpn(2), cpn(1), cpn(2)],
        [vertex_cut(cpn(3), (0, 1, 2)), cpn(2)],
        [hirzebruch(1), cpn(1), cpn(2)],
        [HEXAGON, cpn(3)],
        [cp2_sum(4), cpn(1), cpn(1), cpn(1)],
        [cp2_sum(3), HEXAGON, cpn(1)],
        [(3, 7, TORUS_7), cpn(1), cpn(1)],
        [(3, 7, TORUS_7), cpn(2)],
        [(3, 7, TORUS_7), (2, 4, SQUARE), cpn(1)],
        [(3, 7, TORUS_7), HEXAGON, cpn(1)],
        [(3, 7, TORUS_7), (3, 7, TORUS_7)],
    ],
)
def test_f_vector_of_interleaved_products_matches_the_subset_oracle(pieces):
    """Products whose facets are renumbered at random are still split into
    join factors, and counted by them, from dim 5 on; the torus dual, a
    polygon and the simplex pass through the factor counts."""
    poly = _join(*map(_triple, pieces))
    assert poly.dim >= 5
    rng = random.Random(poly.num_vertices)
    for shuffled in (poly, _relabelled(poly, rng), _relabelled(poly, rng)):
        assert len(_split(shuffled)) >= len(pieces)
        assert f_vector(shuffled) == f_vector_by_subsets(shuffled)


@pytest.mark.parametrize(
    "pair",
    [
        reduce(product, [cpn(1)] * 5),
        product(cp2_sum(4), cpn(3)),
        product(product(cp2_sum(3), cpn(1)), cpn(2)),
        product(cpn(2), cpn(3)),
    ],
)
def test_f_vector_of_a_cut_product_falls_back_to_the_whole_count(pair, monkeypatch):
    """A vertex cut of a product is no product: the split is refused, from
    the tree's facet exchanges alone, and the whole polytope is counted."""
    for vertex in (pair.polytope.vertices[0], pair.polytope.vertices[-1]):
        poly = vertex_cut(pair, vertex).polytope
        assert poly.dim >= 5
        with monkeypatch.context() as patch:
            patch.setattr(polytope, "_incidence", _no_incidence)
            assert _split(poly) is None
        assert f_vector(poly) == f_vector_by_subsets(poly)


@pytest.mark.parametrize(
    "pair",
    [
        reduce(product, [cpn(1)] * 5),
        reduce(product, [cpn(2)] * 3),
        product(cp2_sum(4), cpn(3)),
        product(product(cp2_sum(3), cpn(1)), cpn(2)),
        product(cpn(2), cpn(3)),
        product(cp2_sum(60), cpn(3)),
    ],
)
def test_f_vector_of_relabelled_products_matches_the_subset_oracle(pair):
    """relabel_facets carries a product's tree over, renamed, in its order,
    with no validation, and the join split is seeded from that tree's facet
    exchanges: the relabelled products still split into at least two
    factors and count the faces the subset oracle counts."""
    rng = random.Random(pair.polytope.num_vertices)
    perm = list(range(pair.polytope.num_facets))
    for _ in range(2):
        rng.shuffle(perm)
        poly = relabel_facets(pair, perm)[0].polytope
        assert poly.dim >= 5
        assert len(_split(poly)) >= 2
        assert f_vector(poly) == f_vector_by_subsets(poly)


def test_f_vector_counts_the_whole_polytope_after_a_failed_meet_test(monkeypatch):
    """Hexagon x CP^1 x CP^2 cut twice is no product, but its tree's
    exchanges leave groups that fail the check: the meet test runs, finds no
    split either, and the whole polytope is counted, its incidence lists
    built once for the meet test and once for the level loop."""
    pair = product(cp2_sum(4), product(cpn(1), cpn(2)))
    pair = vertex_cut(vertex_cut(pair, (0, 4, 6, 8, 9)), (0, 4, 8, 9, 11))
    poly = pair.polytope
    assert (poly.dim, poly.num_vertices, poly.num_facets) == (5, 44, 13)
    calls = _count_incidence(monkeypatch)
    assert f_vector(poly) == f_vector_by_subsets(poly) == (44, 110, 110, 55, 13)
    assert calls == [13, 13]


def test_bfs_tree_exchanges_stay_in_one_factor():
    """Each tree edge of a join crosses a ridge of one factor's part, so the
    two facets it swaps lie in one factor, however the facets are numbered:
    the groups that seed the split are never coarser than the factors."""
    rng = random.Random(43)
    for _ in range(30):
        pieces = [_triple(random_valid_pair(rng)) for _ in range(rng.choice((2, 3)))]
        poly = _join(*pieces)
        perm = list(range(poly.num_facets))
        rng.shuffle(perm)
        factor_of = [0] * poly.num_facets
        start = 0
        for k, (_, m, _) in enumerate(pieces):
            for j in range(start, start + m):
                factor_of[perm[j]] = k
            start += m
        poly = validate_polytope(
            poly.dim, poly.num_facets, [tuple(perm[j] for j in v) for v in poly.vertices]
        )
        verts = poly.vertices
        for w, v, pos, wpos in poly.bfs_tree:
            assert factor_of[verts[v][pos]] == factor_of[verts[w][wpos]]


@pytest.mark.parametrize(
    "pieces",
    [
        [HEXAGON, cpn(3)],
        [cp2_sum(4), cpn(1), cpn(1), cpn(1)],
        [cp2_sum(8), cp2_sum(8), cpn(1)],
        [cp2_sum(98), cp2_sum(98), cpn(1)],
    ],
)
def test_even_polygon_factors_split_through_the_meet_test(pieces, monkeypatch):
    """The tree's exchanges split an even polygon of 6 or more sides into
    its even and its odd facets, groups finer than the factor that fail the
    check: the meet test joins them, and the split is still found."""
    poly = _join(*map(_triple, pieces))
    poly = _relabelled(poly, random.Random(poly.num_vertices))
    calls = _count_incidence(monkeypatch)
    factors = _split(poly)
    assert calls == [poly.num_facets]  # the meet test ran
    assert sorted(m for _, m, _ in factors) == sorted(_triple(p)[1] for p in pieces)


def test_the_projection_check_refuses_pairwise_independent_vertices():
    """In these four vertices every facet of a pair {0,1}, {2,3}, {4,5} is
    independent of the other pairs' facets, but the vertex set is half of
    the product: only the projection count tells them apart. They are no
    pseudomanifold; no validated polytope was found that passes the pair
    test without being a product, so the helper is called directly."""
    verts = [(0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4)]
    masks = [sum(1 << j for j in v) for v in verts]
    assert polytope._join_factors(6, verts, masks, ()) is None
    full = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    masks = [sum(1 << j for j in v) for v in full]
    factors = polytope._join_factors(6, full, masks, ())
    assert sorted(factors) == [(1, 2, [(0,), (1,)])] * 3


@pytest.mark.parametrize(
    "pair",
    [reduce(product, [cpn(1)] * k) for k in (5, 7, 9)]
    + [reduce(product, [cpn(2)] * k) for k in (3, 4, 5)]
    + [
        product(three, other)
        for three in (cpn(3), vertex_cut(cpn(3), (0, 1, 2)), product(cpn(1), hirzebruch(-2)))
        for other in (cpn(3), reduce(product, [cpn(1)] * 3), product(cpn(2), cpn(2)))
    ]
    + [product(product(cpn(3), product(cpn(1), hirzebruch(2))), cpn(2))],
)
def test_the_split_finds_the_factors_of_the_benchmark_shapes(pair, monkeypatch):
    """(CP1)^k, (CP2)^k and the 3-fold products take the factor path, from
    the tree's facet exchanges alone: a refused split would fall back
    silently to the slower whole count, and a split by the meet test would
    build the incidence lists that these shapes do without."""
    poly = _relabelled(pair.polytope, random.Random(pair.polytope.num_vertices))
    monkeypatch.setattr(polytope, "_incidence", _no_incidence)
    factors = _split(poly)
    assert factors is not None and len(factors) >= 2
    assert sum(d for d, _, _ in factors) == poly.dim
    assert sum(m for _, m, _ in factors) == poly.num_facets
    assert reduce(lambda a, f: a * len(f[2]), factors, 1) == poly.num_vertices
    assert f_vector(poly) == f_vector_by_subsets(poly)


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


def test_the_successor_walk_is_one_cycle():
    """A polygon's orientation class makes its facet successor map a single
    cycle through every facet (``cycle_by_successors`` asserts it): on
    cp2_sum(1..40), cp2_sum(2000) and random polygon pairs, each also
    relabelled at random and basis-changed."""
    rng = random.Random(31)
    pairs = [cp2_sum(k) for k in range(1, 41)] + [cp2_sum(2000)]
    pairs += [random_polygon_pair(rng, max_m=16) for _ in range(60)]
    for pair in pairs:
        m = pair.polytope.num_facets
        relabelled = relabel_facets(pair, rng.sample(range(m), m))[0]
        for other in (pair, relabelled, basis_change(relabelled, random_unimodular(rng, 2))):
            assert len(cycle_by_successors(other.polytope)[0]) == m
