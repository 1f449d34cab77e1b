"""Example families and closure operations."""

import hashlib
import random
import time

import pytest

from quasitoric import (
    Omniorientation,
    basis_change,
    connected_sum_4d,
    cp2_sum,
    cpn,
    decide_positive,
    PairDocument,
    euler_characteristic,
    f_vector,
    hirzebruch,
    polygon,
    product,
    serialize,
    validate_char,
    validate_polytope,
    vertex_cut,
)
from quasitoric import constructions
from quasitoric.errors import NotDimension2Error, TooLargeError
from support import (
    bareiss_dets,
    cp2_sum_by_folding,
    cycle_by_successors,
    random_product_factor,
    random_relabelling,
    random_unimodular,
    random_valid_pair,
    random_vertex,
)


def test_cpn_small():
    one = cpn(1)
    assert one.polytope.vertices == ((0,), (1,))
    assert one.matrix == ((1, -1),)
    two = cpn(2)
    assert two.polytope.vertices == ((0, 1), (0, 2), (1, 2))
    assert two.matrix == ((1, 0, -1), (0, 1, -1))


def test_cpn_positive():
    for n in range(1, 5):
        assert decide_positive(cpn(n)).satisfiable


def test_cpn_rejects_zero():
    with pytest.raises(ValueError):
        cpn(0)


def test_cpn_equals_full_validation_without_a_walk(monkeypatch):
    """cpn's closed-form base signs, all +1, and every other field are what
    validate_char finds on its polytope and matrix, and cpn walks no
    determinants itself."""
    built = []

    def refuse(*args):
        raise AssertionError("cpn called validate_char")

    with monkeypatch.context() as patch:
        patch.setattr(constructions, "validate_char", refuse)
        built = [cpn(n) for n in range(1, 61)]
    for n, pair in enumerate(built, 1):
        full = validate_char(pair.polytope, pair.matrix)
        assert _built(pair) == _built(full), n
        assert pair.base_signs == (1,) * (n + 1)


def test_polygon():
    assert polygon(3).vertices == cpn(2).polytope.vertices
    for m in (3, 5, 8):
        assert f_vector(polygon(m)) == (m, m)
    with pytest.raises(ValueError):
        polygon(2)


def test_hirzebruch_valid_all_a():
    for a in range(-3, 4):
        pair = hirzebruch(a)
        assert set(bareiss_dets(pair.polytope, pair.matrix)) <= {1, -1}
        assert decide_positive(pair).satisfiable


def test_product_square():
    pair = product(cpn(1), cpn(1))
    assert pair.polytope.vertices == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert pair.matrix == ((1, -1, 0, 0), (0, 0, 1, -1))


def test_product_euler_multiplies():
    rng = random.Random(51)
    for _ in range(10):
        p = random_valid_pair(rng, max_m=8)
        q = cpn(rng.randint(1, 2))
        assert euler_characteristic(product(p, q)) == euler_characteristic(
            p
        ) * euler_characteristic(q)


def test_product_dets_multiply():
    rng = random.Random(52)
    for _ in range(10):
        p = random_valid_pair(rng, max_m=8)
        q = cpn(rng.randint(1, 2))
        pq = product(p, q)
        p_dets, q_dets = bareiss_dets(p.polytope, p.matrix), bareiss_dets(q.polytope, q.matrix)
        pq_dets = bareiss_dets(pq.polytope, pq.matrix)
        m1 = p.polytope.num_facets
        for vi, v in enumerate(p.polytope.vertices):
            for wi, w in enumerate(q.polytope.vertices):
                combined = v + tuple(j + m1 for j in w)
                ci = pq.polytope.vertex_index(combined)
                assert pq_dets[ci] == p_dets[vi] * q_dets[wi]


def test_product_orientation_single_global_constant():
    rng = random.Random(53)
    for _ in range(12):
        p = random_valid_pair(rng, max_m=8)
        q = cpn(rng.randint(1, 2))
        pq = product(p, q)
        m1 = p.polytope.num_facets
        constants = set()
        for vi, v in enumerate(p.polytope.vertices):
            for wi, w in enumerate(q.polytope.vertices):
                ci = pq.polytope.vertex_index(v + tuple(j + m1 for j in w))
                constants.add(
                    pq.polytope.orientation[ci]
                    * p.polytope.orientation[vi]
                    * q.polytope.orientation[wi]
                )
        assert len(constants) == 1


def test_product_positivity_factorization():
    sat = [cpn(1), cpn(2), hirzebruch(1)]
    unsat = [cp2_sum(2), cp2_sum(4)]
    for p in sat:
        for q in sat:
            assert decide_positive(product(p, q)).satisfiable
        for q in unsat:
            assert not decide_positive(product(p, q)).satisfiable
            assert not decide_positive(product(q, p)).satisfiable
    assert not decide_positive(product(unsat[0], unsat[0])).satisfiable


def test_product_commutative_up_to_relabeling():
    rng = random.Random(54)
    for _ in range(8):
        p = random_valid_pair(rng, max_m=7)
        q = cpn(rng.randint(1, 2))
        ab, ba = product(p, q), product(q, p)
        da, db = decide_positive(ab), decide_positive(ba)
        assert da.satisfiable == db.satisfiable
        assert da.solution_count == db.solution_count
        assert f_vector(ab.polytope) == f_vector(ba.polytope)


def test_vertex_cut_cp2():
    pair = vertex_cut(cpn(2), (0, 1))
    assert pair.polytope.num_facets == 4
    assert pair.polytope.vertices == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert tuple(row[3] for row in pair.matrix) == (1, 1)


def test_vertex_cut_needs_dim_2():
    with pytest.raises(ValueError, match="a vertex cut needs dim >= 2, got dim 1"):
        vertex_cut(cpn(1), (0,))


def test_vertex_cut_euler_increment():
    rng = random.Random(55)
    for _ in range(12):
        pair = random_valid_pair(rng, max_m=10)
        n = pair.polytope.dim
        cut = vertex_cut(pair, random_vertex(rng, pair))
        assert euler_characteristic(cut) == euler_characteristic(pair) + n - 1


def test_cp2_sum_one_is_cp2():
    assert cp2_sum(1) == cpn(2)


def test_cp2_sum_structure():
    for k in range(1, 8):
        pair = cp2_sum(k)
        assert pair.polytope.num_facets == k + 2
        assert euler_characteristic(pair) == k + 2
        assert set(bareiss_dets(pair.polytope, pair.matrix)) <= {1, -1}
        assert decide_positive(pair).satisfiable == (k % 2 == 1)


def test_cp2_sum_matches_the_fold():
    for k in range(1, 61):
        pair, folded = cp2_sum(k), cp2_sum_by_folding(k)
        assert pair == folded, k
        assert pair.polytope.orientation == folded.polytope.orientation, k
        assert pair.base_signs == folded.base_signs, k
        assert pair.polytope.bfs_tree == folded.polytope.bfs_tree, k
        assert pair.polytope.masks == folded.polytope.masks, k
        omni = Omniorientation.all_positive(k + 2)
        text = serialize(PairDocument.from_pair(pair, omni))
        assert text == serialize(PairDocument.from_pair(folded, omni)), k


def test_one_more_sum_of_cp2_matches_the_closed_form_at_scale():
    """CP^2 summed into cp2_sum(k), at vertex 0 of each, is cp2_sum(k + 1) in
    value, orientation, base signs, tree and masks, far past the fold test's
    62 facets and the switch to coded ridge keys past 61."""
    for k in (300, 2000):
        acc = cp2_sum(k)
        summed = connected_sum_4d(acc, acc.polytope.vertices[0], cpn(2), (0, 1))
        pair = cp2_sum(k + 1)
        assert summed == pair, k
        assert summed.polytope.orientation == pair.polytope.orientation, k
        assert summed.base_signs == pair.base_signs, k
        assert summed.polytope.bfs_tree == pair.polytope.bfs_tree, k
        assert summed.polytope.masks == pair.polytope.masks, k


def test_cp2_sum_is_built_in_linear_time():
    """The fold would take minutes at k = 5000; the closed form takes about
    0.1 s, so the bound only catches a return to quadratic cost."""
    start = time.perf_counter()
    pair = cp2_sum(5000)
    assert time.perf_counter() - start < 5.0
    assert pair.polytope.num_facets == 5002
    assert len(cycle_by_successors(pair.polytope)[0]) == 5002
    assert set(bareiss_dets(pair.polytope, pair.matrix)) <= {1, -1}


def test_connected_sum_signature_additive_at_random_corners():
    from quasitoric import compute_invariants

    rng = random.Random(56)
    for _ in range(20):
        ka, kb = rng.randint(1, 4), rng.randint(1, 3)
        a, b = cp2_sum(ka), cp2_sum(kb)
        s = connected_sum_4d(a, random_vertex(rng, a), b, random_vertex(rng, b))
        rep = compute_invariants(
            s, Omniorientation.all_positive(s.polytope.num_facets)
        )
        assert rep.euler == ka + kb + 2
        assert rep.signature == ka + kb


def test_connected_sum_requires_dim2():
    with pytest.raises(NotDimension2Error):
        connected_sum_4d(cpn(3), (0, 1, 2), cpn(2), (0, 1))
    with pytest.raises(ValueError):
        cp2_sum(0)


def test_connected_sum_requires_a_second_summand_of_dim2():
    """A second summand of any other dim raises NotDimension2Error, before
    either vertex is looked up."""
    for other in (cpn(1), cpn(3), product(cpn(2), cpn(1))):
        for v1 in ((0, 1), (5, 6)):
            with pytest.raises(NotDimension2Error):
                connected_sum_4d(cpn(2), v1, other, other.polytope.vertices[0])


def test_connected_sum_rejects_a_non_vertex():
    with pytest.raises(ValueError, match="not a vertex"):
        connected_sum_4d(hirzebruch(1), (0, 2), cpn(2), (0, 1))
    # a vertex with too many or too few facets, on either side
    for vertex in ((0, 1, 2), (0,)):
        for args in ((cpn(2), vertex, cpn(2), (0, 1)), (cpn(2), (0, 1), cpn(2), vertex)):
            with pytest.raises(ValueError) as exc:
                connected_sum_4d(*args)
            assert str(exc.value) == f"{vertex} is not a vertex of the polytope"


def test_facet_cycle():
    """Each polygon's facets round its cycle from facet 0, in the direction of
    its orientation class."""
    assert cycle_by_successors(cpn(2).polytope)[0] == (0, 1, 2)
    assert cycle_by_successors(hirzebruch(1).polytope)[0] == (0, 1, 2, 3)
    assert cycle_by_successors(cp2_sum(3).polytope)[0] == (0, 3, 1, 2, 4)


def _random_summand(rng):
    r = rng.random()
    if r < 0.25:
        return cpn(2)
    if r < 0.6:
        return hirzebruch(rng.randint(-4, 4))
    base = cpn(2) if rng.random() < 0.5 else hirzebruch(rng.randint(-4, 4))
    return vertex_cut(base, random_vertex(rng, base))


def test_connected_sums_pinned():
    """Serialized text, orientation and vertex determinants of 60 seeded sums
    at random corners, some folded into the next sum. 18 of them re-anchor the
    global gauge with the det -1 basis change, so both branches are pinned."""
    rng = random.Random(59)
    digest = hashlib.sha256()
    acc = None
    for _ in range(60):
        a = acc if acc is not None and rng.random() < 0.3 else _random_summand(rng)
        b = _random_summand(rng)
        acc = connected_sum_4d(a, random_vertex(rng, a), b, random_vertex(rng, b))
        digest.update(serialize(PairDocument.from_pair(acc)).encode())
        dets = tuple(bareiss_dets(acc.polytope, acc.matrix))
        digest.update(repr((acc.polytope.orientation, dets)).encode())
    assert digest.hexdigest() == (
        "2252cac7f1439ec48f8b54d4dc4a8c86b09910a2af34be3b2d69b02b2e38055e"
    )


def test_connected_sums_pinned_at_every_corner_pair():
    """The glued pair's text at every corner pair (v1, v2) of every ordered
    pair of small summands: CP^2, H_1, H_-1, CP^2 cut at a vertex and
    cp2_sum(3), whose facet cycle is not in label order, each in both
    orientations (the second through the det -1 basis change, which flips
    every base sign)."""
    summands = [cpn(2), hirzebruch(1), hirzebruch(-1), vertex_cut(cpn(2), (0, 1)), cp2_sum(3)]
    summands += [basis_change(pair, ((1, 0), (0, -1))) for pair in summands]
    digest = hashlib.sha256()
    sums = 0
    for a in summands:
        for b in summands:
            for v1 in a.polytope.vertices:
                for v2 in b.polytope.vertices:
                    glued = connected_sum_4d(a, v1, b, v2)
                    digest.update(serialize(PairDocument.from_pair(glued)).encode())
                    sums += 1
    assert sums == 1600
    assert digest.hexdigest() == (
        "0b00bb552ac4b8776c1518bee8471c461f04bde61cbf95d41a18131344adab7b"
    )


def test_connected_sum_takes_each_vertex_as_any_iterable():
    """A vertex may be a one-shot iterator on either side: the sum reads each
    vertex once, so every corner pair glues as the tuples do."""
    a, b = hirzebruch(1), cp2_sum(3)
    for v1 in a.polytope.vertices:
        for v2 in b.polytope.vertices:
            assert connected_sum_4d(a, iter(v1), b, iter(v2)) == connected_sum_4d(a, v1, b, v2)


def _any_summand(rng):
    """CP^2, a Hirzebruch surface or cp2_sum(k), cut at a vertex or changed
    by a random basis change some of the time."""
    r = rng.random()
    if r < 0.2:
        pair = cpn(2)
    elif r < 0.55:
        pair = hirzebruch(rng.randint(-4, 4))
    else:
        pair = cp2_sum(rng.randint(1, 5))
    if rng.random() < 0.4:
        pair = vertex_cut(pair, random_vertex(rng, pair))
    if rng.random() < 0.5:
        pair = basis_change(pair, random_unimodular(rng, 2))
    return pair


def test_connected_sum_keeps_every_surviving_fixed_point_sign():
    """Every vertex of p1 other than v1, and every vertex of p2 that avoids
    both facets of v2 (its facets relabelled to m1 + rank among p2's
    survivors), keeps its base sign in the sum, running sums included."""
    rng = random.Random(61)
    acc = None
    for _ in range(240):
        a = acc if acc is not None and rng.random() < 0.3 else _any_summand(rng)
        b = _any_summand(rng)
        v1, v2 = random_vertex(rng, a), random_vertex(rng, b)
        acc = connected_sum_4d(a, v1, b, v2)
        m1 = a.polytope.num_facets
        survivors = [h for h in range(b.polytope.num_facets) if h not in v2]
        rank = {h: m1 + i for i, h in enumerate(survivors)}
        kept = [(v, s) for v, s in zip(a.polytope.vertices, a.base_signs) if v != v1]
        kept += [
            (tuple(rank[h] for h in w), s)
            for w, s in zip(b.polytope.vertices, b.base_signs)
            if not set(w) & set(v2)
        ]
        signs = dict(zip(acc.polytope.vertices, acc.base_signs))
        assert len(kept) == acc.polytope.num_vertices - 2
        assert [signs[v] for v, _ in kept] == [s for _, s in kept]


def test_constructions_refuse_a_pair_over_the_entry_budget(monkeypatch):
    """cpn, polygon, cp2_sum, product, vertex_cut and connected_sum_4d
    refuse a pair with more than CONSTRUCTION_MAX_ENTRIES entries and mask
    words, V*n + n*m + V*ceil(m/64), and build one with exactly that many:
    cpn(4) has 5*4 + 4*5 + 5 = 45, polygon(9) and cp2_sum(7)
    9*2 + 2*9 + 9 = 45 and CP^2 x CP^2 9*4 + 4*6 + 9 = 69. The cut of cpn(3)
    has 6*3 + 3*5 + 6 = 39 and that of cpn(4) 8*4 + 4*6 + 8 = 64; the sum of
    CP^2 with cp2_sum(6) is a 9-gon (45) and with cp2_sum(7) a 10-gon (50),
    from base pairs that all fit at 45."""

    def summed(k):
        return connected_sum_4d(cpn(2), (0, 1), cp2_sum(k), (1, 2))

    for fits, over, limit in (
        (lambda: cpn(4), lambda: cpn(5), 45),
        (lambda: polygon(9), lambda: polygon(10), 45),
        (lambda: cp2_sum(7), lambda: cp2_sum(8), 45),
        (lambda: product(cpn(2), cpn(2)), lambda: product(cpn(2), cp2_sum(2)), 69),
        (lambda: vertex_cut(cpn(3), (0, 1, 2)), lambda: vertex_cut(cpn(4), (0, 1, 2, 3)), 45),
        (lambda: summed(6), lambda: summed(7), 45),
    ):
        monkeypatch.setattr(constructions, "CONSTRUCTION_MAX_ENTRIES", limit)
        fits()
        with pytest.raises(TooLargeError, match=f"over the limit of {limit}; refusing"):
            over()
    monkeypatch.undo()
    # the real budget: the mask words stop cp2_sum at k = 11454, polygon at
    # m = 11456 and cpn at n = 1019; over it, refused at once, before any
    # vertex list is built
    assert cp2_sum(11454).polytope.num_vertices == 11456
    s = cp2_sum(1000)
    start = time.perf_counter()
    for build in (lambda: cpn(1020), lambda: cpn(1024), lambda: cp2_sum(11455),
                  lambda: polygon(11457),
                  lambda: cp2_sum(524286), lambda: cp2_sum(10**20), lambda: product(s, s)):
        with pytest.raises(TooLargeError, match="over the limit of 2097152; refusing"):
            build()
    assert time.perf_counter() - start < 1.0


def _product_by_validation(p1, p2):
    """The product the textbook way: the joined vertex list and the
    block-diagonal matrix through full validation."""
    m1, m2 = p1.polytope.num_facets, p2.polytope.num_facets
    vertices = [
        v + tuple(j + m1 for j in w) for v in p1.polytope.vertices for w in p2.polytope.vertices
    ]
    poly = validate_polytope(p1.polytope.dim + p2.polytope.dim, m1 + m2, vertices)
    rows = [row + (0,) * m2 for row in p1.matrix] + [(0,) * m1 + row for row in p2.matrix]
    return validate_char(poly, rows)


def _fields(pair):
    """Every field of a pair but the spanning tree, the ones equality ignores
    included."""
    poly = pair.polytope
    return (poly.dim, poly.num_facets, poly.vertices, poly.orientation, poly.masks,
            pair.matrix, pair.base_signs)


def _product_tree(p1, p2):
    """The product's documented tree, written in (a, b) coordinates: P's tree
    at b = r2, the root of Q's tree, then Q's tree at each vertex a of P in
    turn; Q's positions come after P's n1."""
    n1, v2 = p1.polytope.dim, p2.polytope.num_vertices
    q_tree = p2.polytope.bfs_tree
    r2 = q_tree[0][1]
    edges = [((w, r2), (v, r2), pos, wpos) for w, v, pos, wpos in p1.polytope.bfs_tree]
    for a in range(p1.polytope.num_vertices):
        edges += [((a, w), (a, v), n1 + pos, n1 + wpos) for w, v, pos, wpos in q_tree]
    return tuple((a * v2 + b, c * v2 + d, pos, wpos) for (a, b), (c, d), pos, wpos in edges)


def _product_fields(p1, p2):
    """Full validation's fields of the product, and its documented tree."""
    return _fields(_product_by_validation(p1, p2)), _product_tree(p1, p2)


def _built(pair):
    return _fields(pair), pair.polytope.bfs_tree


def test_product_equals_full_validation():
    """The closed-form product equals the validated one in every field but
    the spanning tree, orientation, masks and base signs included, and its
    tree is the documented product of the factors' trees: on 320 seeded
    products of dim-1, simplex, polygon, vertex-cut, basis-changed and
    product factors, on factors past m = 61 facets, where validation's
    ridge keys are coded, and on 80 products of relabelled factors, whose
    trees, and so the product's, are rooted off vertex 0."""
    rng = random.Random(81)
    for _ in range(320):
        p, q = random_product_factor(rng), random_product_factor(rng)
        assert _built(product(p, q)) == _product_fields(p, q)
    off_root = 0
    for _ in range(80):
        p, q = (random_relabelling(rng, random_product_factor(rng)) for _ in range(2))
        assert _built(product(p, q)) == _product_fields(p, q)
        off_root += p.polytope.bfs_tree[0][1] != 0 and q.polytope.bfs_tree[0][1] != 0
    assert off_root > 40
    long = cp2_sum(60)
    for p, q in ((long, cpn(1)), (cpn(1), long), (product(long, cpn(1)), hirzebruch(1))):
        assert _built(product(p, q)) == _product_fields(p, q)


def test_product_runs_no_validation(monkeypatch):
    """product builds its pair from its factors' data alone: with the
    validators replaced by ones that raise, it still returns the validated
    product with the documented tree, so a silent fallback to validation
    fails here."""
    rng = random.Random(82)
    cases = [(random_product_factor(rng), random_product_factor(rng)) for _ in range(20)]
    cases.append((cp2_sum(60), cpn(1)))
    expected = [_product_fields(p, q) for p, q in cases]

    def refuse(*args):
        raise AssertionError("product ran validation")

    monkeypatch.setattr(constructions, "validate_polytope", refuse)
    monkeypatch.setattr(constructions, "validate_char", refuse)
    assert [_built(product(p, q)) for p, q in cases] == expected
