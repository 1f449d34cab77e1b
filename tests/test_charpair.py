"""Characteristic matrices, omniorientations, sign calculus."""

import math
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasitoric import (
    Omniorientation,
    PairDocument,
    adjacent_vertex,
    all_signs,
    basis_change,
    connected_sum_4d,
    cp2_sum,
    cpn,
    hirzebruch,
    polygon,
    product,
    relabel_facets,
    validate_char,
    validate_polytope,
    vertex_cut,
    vertex_sign,
)
from quasitoric.errors import (
    NotUnimodularError,
    ShapeMismatchError,
    SingularVertexError,
    _int_text,
)
from quasitoric import charpair, linalg, polytope
from quasitoric.linalg import det_bareiss
from support import (
    assert_bfs_tree,
    bareiss_dets,
    depth_first,
    mat_mul_by_loops,
    random_polygon_pair,
    random_product_factor,
    random_relabelling,
    random_unimodular,
    random_unimodular_det1,
    random_valid_pair,
    random_vertex,
    replace,
)

TRIANGLE = validate_polytope(2, 3, [(0, 1), (0, 2), (1, 2)])
INTERVAL = validate_polytope(1, 2, [(0,), (1,)])


def test_triangle_dets():
    pair = validate_char(TRIANGLE, [[1, 0, -1], [0, 1, -1]])
    assert bareiss_dets(TRIANGLE, pair.matrix) == [1, -1, 1]
    assert pair.polytope.orientation == (1, -1, 1)
    assert pair.base_signs == (1, 1, 1)


def test_singular_vertex_listed():
    with pytest.raises(SingularVertexError) as exc:
        validate_char(TRIANGLE, [[1, 0, -2], [0, 1, -1]])
    assert exc.value.offenders == (((1, 2), 2),)


def test_interval_pair():
    pair = validate_char(INTERVAL, [[1, -1]])
    assert bareiss_dets(INTERVAL, pair.matrix) == [1, -1]
    assert pair.polytope.orientation == (1, -1)
    assert pair.base_signs == (1, 1)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        validate_char(TRIANGLE, [[1, 0], [0, 1]])
    with pytest.raises(ShapeMismatchError):
        validate_char(TRIANGLE, [[1, 0, -1]])


def test_ragged_matrix_names_its_first_row_of_wrong_length():
    with pytest.raises(ShapeMismatchError) as exc:
        validate_char(TRIANGLE, [[1, 0, -1], [0, 1]])
    assert str(exc.value) == "characteristic matrix must be 2x3, got row 1 of length 2"
    with pytest.raises(ShapeMismatchError) as exc:
        validate_char(TRIANGLE, [[1, 0, -1], [0, 1, -1, 0], [1]])
    assert str(exc.value) == "characteristic matrix must be 2x3, got row 1 of length 4"
    with pytest.raises(ShapeMismatchError) as exc:
        validate_char(TRIANGLE, [[1, 0], [0, 1]])
    assert str(exc.value) == "characteristic matrix must be 2x3, got 2x2"


def test_interval_signs_formula():
    pair = validate_char(INTERVAL, [[1, -1]])
    omni = Omniorientation.all_positive(2)
    assert vertex_sign(pair, omni, (0,)) == 1
    assert vertex_sign(pair, omni, (1,)) == 1
    assert all_signs(pair, omni) == (1, 1)


def test_global_flip_negates_everywhere():
    rng = random.Random(3)
    for _ in range(20):
        pair = random_valid_pair(rng)
        m = pair.polytope.num_facets
        omni = Omniorientation.all_positive(m)
        signs = all_signs(pair, omni)
        assert all_signs(pair, omni.flip_global()) == tuple(-s for s in signs)


def test_facet_flip_negates_incident_vertices():
    rng = random.Random(4)
    for _ in range(20):
        pair = random_valid_pair(rng)
        m = pair.polytope.num_facets
        omni = Omniorientation.all_positive(m)
        signs = all_signs(pair, omni)
        j = rng.randrange(m)
        flipped = all_signs(pair, omni.flip_facet(j))
        for v, old, new in zip(pair.polytope.vertices, signs, flipped):
            assert new == (-old if j in v else old)


def test_disjoint_facet_flips_affect_disjoint_vertices():
    rng = random.Random(6)
    found = 0
    while found < 10:
        pair = random_valid_pair(rng)
        m = pair.polytope.num_facets
        verts = pair.polytope.vertices
        disjoint = [
            (a, b)
            for a in range(m)
            for b in range(a + 1, m)
            if not any(a in v and b in v for v in verts)
        ]
        if not disjoint:
            continue
        a, b = disjoint[rng.randrange(len(disjoint))]
        omni = Omniorientation.all_positive(m)
        base = all_signs(pair, omni)
        fa = all_signs(pair, omni.flip_facet(a))
        fb = all_signs(pair, omni.flip_facet(b))
        fab = all_signs(pair, omni.flip_facet(a).flip_facet(b))
        changed_a = {i for i, s in enumerate(fa) if s != base[i]}
        changed_b = {i for i, s in enumerate(fb) if s != base[i]}
        assert changed_a.isdisjoint(changed_b)
        assert {i for i, s in enumerate(fab) if s != base[i]} == changed_a | changed_b
        found += 1


def test_basis_change_identity_and_det_signs():
    pair = validate_char(TRIANGLE, [[1, 0, -1], [0, 1, -1]])
    same = basis_change(pair, ((1, 0), (0, 1)))
    assert same.matrix == pair.matrix
    assert same.base_signs == pair.base_signs

    swapped = basis_change(pair, ((0, 1), (1, 0)))  # det -1
    assert bareiss_dets(TRIANGLE, swapped.matrix) == [-1, 1, -1]
    assert swapped.base_signs == tuple(-s for s in pair.base_signs)
    omni = Omniorientation.all_positive(3)
    # det -1 is the same data as flipping eps0
    assert all_signs(swapped, omni) == all_signs(pair, omni.flip_global())


def test_basis_change_det_plus_one_preserves_signs():
    rng = random.Random(9)
    for _ in range(20):
        pair = random_valid_pair(rng)
        n = pair.polytope.dim
        omni = Omniorientation.all_positive(pair.polytope.num_facets)
        a = random_unimodular_det1(rng, n)
        assert all_signs(basis_change(pair, a), omni) == all_signs(pair, omni)


def test_vertex_sign_matches_all_signs():
    rng = random.Random(23)
    for _ in range(40):
        pair = random_valid_pair(rng)
        m = pair.polytope.num_facets
        omni = Omniorientation(
            rng.choice((1, -1)), tuple(rng.choice((1, -1)) for _ in range(m))
        )
        signs = all_signs(pair, omni)
        for v, sign in zip(pair.polytope.vertices, signs):
            assert vertex_sign(pair, omni, reversed(v)) == sign


def test_all_signs_past_61_facets():
    """all_signs multiplies a dim-2 vertex's two facet signs and reads any
    other vertex's through its mask, which past m = 61 is still the plain
    bitmask: cp2_sum(70) (m = 72) and its product with CP^1 (dim 3) agree
    with vertex_sign's product over the vertex's facets."""
    rng = random.Random(24)
    for pair in (cp2_sum(70), product(cp2_sum(70), cpn(1))):
        m = pair.polytope.num_facets
        omni = Omniorientation(-1, tuple(rng.choice((1, -1)) for _ in range(m)))
        signs = all_signs(pair, omni)
        assert signs == tuple(vertex_sign(pair, omni, v) for v in pair.polytope.vertices)


def test_omniorientation_of_wrong_length_is_rejected():
    pair = cpn(2)
    for signs in ((1, 1), (1, 1, 1, 1, 1)):
        omni = Omniorientation(1, signs)
        msg = f"omniorientation has {len(signs)} facet signs, the pair has 3 facets"
        with pytest.raises(ValueError, match=msg):
            all_signs(pair, omni)
        with pytest.raises(ValueError, match=msg):
            vertex_sign(pair, omni, (0, 1))
        with pytest.raises(ValueError, match=msg):
            relabel_facets(pair, (2, 0, 1), omni)
        # its text would not parse back: the omniorientation line has m + 1 signs
        with pytest.raises(ValueError, match=msg):
            PairDocument.from_pair(pair, omni)


def test_flip_facet_refuses_an_index_out_of_range():
    """A list index would wrap, so flip_facet(-1) would flip the last facet."""
    omni = Omniorientation(1, (1, -1, 1))
    assert omni.flip_facet(0) == Omniorientation(1, (-1, -1, 1))
    assert omni.flip_facet(2) == Omniorientation(1, (1, -1, -1))
    for j in (-1, -3, 3, 10**30):
        with pytest.raises(ValueError, match=rf"facet index {j} out of range \[0, 3\)"):
            omni.flip_facet(j)


def test_omniorientation_rejects_a_sign_other_than_pm1():
    with pytest.raises(ValueError, match="global sign must be"):
        Omniorientation(0, (1, 1, 1))
    with pytest.raises(ValueError, match="facet signs must be"):
        Omniorientation(1, (1, 2, 1))


def test_omniorientation_stores_its_facet_signs_as_a_tuple():
    omni = Omniorientation(1, [1, -1, 1])
    assert omni.facet_signs == (1, -1, 1)
    assert omni == Omniorientation(1, (1, -1, 1))
    assert hash(omni) == hash(Omniorientation(1, (1, -1, 1)))


def test_basis_change_rejects_non_unimodular():
    pair = validate_char(TRIANGLE, [[1, 0, -1], [0, 1, -1]])
    with pytest.raises(NotUnimodularError):
        basis_change(pair, ((2, 0), (0, 1)))


def test_relabel_preserves_signs_as_map():
    """On random pairs, and on disguised cpn(3..6) and (CP1)^3, whose random
    permutations move a vertex's n >= 3 facets by odd and even permutations."""
    rng = random.Random(17)
    extra = [cpn(n) for n in range(3, 7)] + [product(cpn(1), product(cpn(1), cpn(1)))]
    for i in range(25 + 4 * len(extra)):
        if i < 25:
            pair = random_valid_pair(rng)
        else:
            pair = _disguised(rng, extra[i % len(extra)], 6)
        m = pair.polytope.num_facets
        omni = Omniorientation(
            rng.choice([1, -1]), tuple(rng.choice([1, -1]) for _ in range(m))
        )
        perm = list(range(m))
        rng.shuffle(perm)
        new_pair, new_omni = relabel_facets(pair, perm, omni)
        old = all_signs(pair, omni)
        new = all_signs(new_pair, new_omni)
        for vi, v in enumerate(pair.polytope.vertices):
            wi = new_pair.polytope.vertex_index(perm[j] for j in v)
            assert new[wi] == old[vi]


def test_basis_change_needs_an_n_by_n_matrix():
    pair = cpn(2)
    with pytest.raises(ValueError, match="^basis change must be 2x2, got 0x0$"):
        basis_change(pair, ())
    with pytest.raises(ValueError, match="^basis change must be 2x2, got 3x3$"):
        basis_change(pair, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="^basis change must be 2x2, got 2x3$"):
        basis_change(pair, ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="^basis change must be 2x2, got a ragged matrix$"):
        basis_change(pair, ((1, 0), (0, 1, 0)))


def test_non_integral_entries_are_refused_not_truncated():
    for bad in (1.9, 1.0, "1"):
        with pytest.raises(TypeError):
            validate_char(TRIANGLE, [[bad, 0, -1], [0, 1, -1]])
        with pytest.raises(TypeError):
            basis_change(cpn(2), ((bad, 0), (0, 1)))
        with pytest.raises(TypeError):
            validate_polytope(2, 3, [(0, bad), (0, 2), (1, 2)])
        with pytest.raises(TypeError):
            relabel_facets(cpn(2), (0, bad, 2))
        with pytest.raises(TypeError):
            hirzebruch(bad)
        with pytest.raises(TypeError):
            vertex_sign(cpn(2), Omniorientation.all_positive(3), (0, bad))
        with pytest.raises(TypeError):
            vertex_cut(cpn(2), (0, bad))
        with pytest.raises(TypeError):
            adjacent_vertex(cpn(2).polytope, (0, bad), 0)
        with pytest.raises(TypeError):
            connected_sum_4d(cpn(2), (0, bad), cpn(2), (0, 1))
    with pytest.raises(TypeError):
        validate_polytope(2.7, 3.2, [(0, 1), (0, 2), (1, 2)])


def test_relabel_rejects_non_permutation():
    pair = validate_char(TRIANGLE, [[1, 0, -1], [0, 1, -1]])
    with pytest.raises(ValueError):
        relabel_facets(pair, (0, 0, 2))


def test_random_unimodular_helper_is_unimodular():
    rng = random.Random(2)
    for n in (2, 3, 4):
        for _ in range(10):
            assert det_bareiss(random_unimodular(rng, n)) in (1, -1)


def test_singular_vertex_error_over_the_digit_limit():
    big = 10**3000
    with pytest.raises(SingularVertexError) as exc:
        validate_char(polygon(3), [[big, 0, 1], [0, big, 1]])
    assert exc.value.offenders == (((0, 1), big * big), ((0, 2), big), ((1, 2), -big))
    assert "(0, 1): det=<6001-digit integer>" in str(exc.value)


def test_not_unimodular_error_over_the_digit_limit():
    pair = validate_char(TRIANGLE, [[1, 0, -1], [0, 1, -1]])
    with pytest.raises(NotUnimodularError) as exc:
        basis_change(pair, ((10**5000, 0), (0, 1)))
    assert exc.value.det == 10**5000
    assert "det <5001-digit integer>" in str(exc.value)


def test_int_text_counts_digits_at_the_boundaries():
    """Up to the int/str digit limit an integer is its decimal text; past it,
    "<N-digit integer>" with N exact at 10^k - 1, 10^k and 2^b, where the
    bit-length estimate overshoots by one or not at all."""
    limit = sys.get_int_max_str_digits()
    assert _int_text(-(10**limit - 1)) == "-" + "9" * limit
    for k in (limit, limit + 1, 2 * limit):
        assert _int_text(10**k - 1) == ("9" * k if k == limit else f"<{k}-digit integer>")
        assert _int_text(-(10**k)) == f"<{k + 1}-digit integer>"
    for b in range(int(limit / math.log10(2)) + 1, int(limit / math.log10(2)) + 200):
        digits = int(b * math.log10(2)) + 1
        assert 10 ** (digits - 1) <= 2**b < 10**digits
        assert _int_text(2**b) == f"<{digits}-digit integer>"


def _oracle_pair(rng: random.Random):
    """A random_valid_pair, or a relabelled, basis-changed cpn(n), (CP1)^k,
    vertex cut of cpn(n) or vertex cut of a product."""
    kind = rng.randrange(5)
    if kind == 0:
        return random_valid_pair(rng)
    if kind == 1:
        pair = cpn(rng.randint(1, 12))
    elif kind == 2:
        pair = cpn(1)
        for _ in range(rng.randint(0, 5)):
            pair = product(pair, cpn(1))
    elif kind == 3:  # each child of the root but one has one leaf below it
        pair = cpn(rng.randint(2, 12))
        pair = vertex_cut(pair, random_vertex(rng, pair))
    else:  # (CP1)^k cut has m = 2n + 1, on the inverse form
        pair = product(random_product_factor(rng), cpn(rng.randint(1, 2)))
        for _ in range(rng.randint(1, 2)):
            pair = vertex_cut(pair, random_vertex(rng, pair))
    perm = list(range(pair.polytope.num_facets))
    rng.shuffle(perm)
    pair, _ = relabel_facets(pair, perm)
    return basis_change(pair, random_unimodular(rng, pair.polytope.dim, steps=20))


def _walk_dets(pair):
    """det lambda_v as the walk found it: the base sign over the orientation."""
    return [s * o for s, o in zip(pair.base_signs, pair.polytope.orientation)]


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_exchange_walk_dets_match_bareiss(seed):
    pair = _oracle_pair(random.Random(seed))
    assert _walk_dets(pair) == bareiss_dets(pair.polytope, pair.matrix)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_perturbed_matrix_matches_bareiss(seed, data):
    """One perturbed entry of lambda: the walk agrees with Bareiss on the
    dets of a still-valid pair, or on every offender, in vertex order."""
    pair = _oracle_pair(random.Random(seed))
    rows = [list(row) for row in pair.matrix]
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[0]) - 1))
    rows[i][j] += data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3, 10**40]))
    dets = bareiss_dets(pair.polytope, rows)
    try:
        perturbed = validate_char(pair.polytope, rows)
    except SingularVertexError as exc:
        expected = [(v, d) for v, d in zip(pair.polytope.vertices, dets) if d not in (1, -1)]
        assert list(exc.offenders) == expected
    else:
        assert _walk_dets(perturbed) == dets


def _disguised(rng: random.Random, pair, steps: int):
    perm = list(range(pair.polytope.num_facets))
    rng.shuffle(perm)
    pair, _ = relabel_facets(pair, perm)
    return basis_change(pair, random_unimodular(rng, pair.polytope.dim, steps=steps))


@pytest.mark.parametrize("name", ["cpn(30)", "cpn(46)", "(CP2)^4"])
def test_large_exchange_walks_match_bareiss(name):
    """Pairs well past the oracle's cpn(12), where the root elimination is
    large and sparse: the walk agrees with Bareiss on every determinant, and
    on every offender once one entry is perturbed."""
    rng = random.Random(name)
    if name == "(CP2)^4":
        pair = product(product(cpn(2), cpn(2)), product(cpn(2), cpn(2)))
    else:
        pair = cpn(int(name[4:-1]))
    pair = _disguised(rng, pair, pair.polytope.dim)
    assert _walk_dets(pair) == bareiss_dets(pair.polytope, pair.matrix)

    singular = 0
    for _ in range(2):
        rows = [list(row) for row in pair.matrix]
        # det + 3 * cofactor is +-1 only where the cofactor is 0
        rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] += 3
        dets = bareiss_dets(pair.polytope, rows)
        expected = [(v, d) for v, d in zip(pair.polytope.vertices, dets) if d not in (1, -1)]
        try:
            perturbed = validate_char(pair.polytope, rows)
        except SingularVertexError as exc:
            assert list(exc.offenders) == expected
            singular += 1
        else:
            assert _walk_dets(perturbed) == dets
    assert singular


def test_basis_change_matches_the_product_and_bareiss():
    """On random_valid_pair draws and disguised cpn(n <= 20), with unimodular
    A and with A of another determinant: the matrix is the triple-loop
    product, the base signs are det A times the old ones and agree with
    revalidating that product, and a refusal carries Bareiss's det A."""
    rng = random.Random(53)
    refused = 0
    for i in range(150):
        if i % 3:
            pair = random_valid_pair(rng)
        else:
            pair = _disguised(rng, cpn(rng.randint(1, 20)), rng.randint(1, 30))
        n = pair.polytope.dim
        a = [list(row) for row in random_unimodular(rng, n, steps=rng.randint(0, 3 * n))]
        kind = rng.random()
        if kind < 0.2:  # one row scaled: det A = +-d
            r = rng.randrange(n)
            a[r] = [rng.choice([0, 2, -3, 10**40]) * x for x in a[r]]
        elif kind < 0.4:  # small random entries: mostly singular or |det| > 1
            a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        det = det_bareiss(a)
        if det not in (1, -1):
            with pytest.raises(NotUnimodularError) as exc:
                basis_change(pair, a)
            assert exc.value.det == det
            refused += 1
            continue
        changed = basis_change(pair, a)
        assert changed.polytope is pair.polytope
        assert changed.matrix == mat_mul_by_loops(a, pair.matrix)
        assert changed.base_signs == tuple(det * s for s in pair.base_signs)
        assert changed.base_signs == validate_char(pair.polytope, changed.matrix).base_signs
    assert 20 < refused < 100


def test_basis_change_and_connected_sum_take_no_bareiss(monkeypatch):
    """With linalg.det_bareiss made to raise, both still give the results
    they give without it. A connected sum runs no elimination at all, at
    each of 40 pairs of corners (11 of them flip the gauge): its corner
    determinant is in closed form, and the glued pair is a polygon, whose
    validation takes each vertex determinant as a 2 x 2 minor."""
    a = random_unimodular(random.Random(59), 5, steps=15)
    h = hirzebruch(1)
    expected = basis_change(cpn(5), a), connected_sum_4d(cpn(2), (0, 1), h, h.polytope.vertices[2])

    def refuse(matrix):
        raise AssertionError("det_bareiss called")

    monkeypatch.setattr(linalg, "det_bareiss", refuse)
    assert basis_change(cpn(5), a) == expected[0]
    with pytest.raises(NotUnimodularError):
        basis_change(cpn(2), ((2, 0), (0, 1)))
    assert connected_sum_4d(cpn(2), (0, 1), h, h.polytope.vertices[2]) == expected[1]

    calls = []
    det_and_inverse, det_and_reduce = linalg.det_and_inverse, linalg.det_and_reduce
    monkeypatch.setattr(linalg, "det_and_inverse", lambda m: calls.append(m) or det_and_inverse(m))
    monkeypatch.setattr(
        linalg, "det_and_reduce", lambda m, basis: calls.append(m) or det_and_reduce(m, basis)
    )
    corners = 0
    for p1, p2 in ((cpn(2), h), (h, cpn(2)), (hirzebruch(-2), hirzebruch(3))):
        for v1 in p1.polytope.vertices:
            for v2 in p2.polytope.vertices:
                connected_sum_4d(p1, v1, p2, v2)
                assert not calls, (v1, v2)
                corners += 1
    assert corners == 40


def _offenders_or_dets(polytope, rows):
    """What validate_char returns for rows, next to Bareiss's answer."""
    dets = bareiss_dets(polytope, rows)
    expected = [(v, d) for v, d in zip(polytope.vertices, dets) if d not in (1, -1)]
    try:
        got = _walk_dets(validate_char(polytope, rows))
    except SingularVertexError as exc:
        return list(exc.offenders), expected
    return got, dets


def test_both_walk_forms_match_bareiss_at_the_boundary(monkeypatch):
    """(CP1)^k has m = 2n facets, the widest pairs the walk carries as the
    tableau lambda_v^-1 lambda; one vertex cut makes m = 2n + 1, where it
    carries lambda_v^-1 instead. From k = 3 on (a polygon, k = 2, takes its
    minors in closed form and walks nowhere), both forms, disguised and with
    one entry perturbed, agree with Bareiss on every determinant or
    offender, and each pair takes the form its shape names: det_and_inverse
    runs only for m > 2n."""
    rng = random.Random(61)
    inverses = []
    det_and_inverse = linalg.det_and_inverse
    monkeypatch.setattr(
        linalg, "det_and_inverse", lambda a: inverses.append(a) or det_and_inverse(a)
    )
    pair = product(cpn(1), cpn(1))
    for k in range(3, 8):
        pair = product(pair, cpn(1))
        cut = vertex_cut(pair, random_vertex(rng, pair))
        for base in (pair, cut):
            n, m = base.polytope.dim, base.polytope.num_facets
            assert m == 2 * n + (base is cut)
            disguised = _disguised(rng, base, 2 * n)
            for trial in range(4):
                rows = [list(row) for row in disguised.matrix]
                if trial:
                    rows[rng.randrange(n)][rng.randrange(m)] += rng.choice([-2, -1, 1, 3])
                inverses.clear()
                got, expected = _offenders_or_dets(disguised.polytope, rows)
                assert got == expected, (k, m, trial)
                assert bool(inverses) == (base is cut), (k, m, trial)


def test_tableau_walk_restarts_below_a_singular_internal_vertex(monkeypatch):
    """A perturbed entry that makes a vertex with tree children singular: the
    tableau walk cannot pivot there, so it starts afresh at each child, with
    one det_and_reduce per child after the one at the tree's root, and its
    offenders are Bareiss's, in vertex order."""
    rng = random.Random(67)
    calls = []
    det_and_reduce = linalg.det_and_reduce
    monkeypatch.setattr(
        linalg, "det_and_reduce", lambda a, basis: calls.append(basis) or det_and_reduce(a, basis)
    )
    restarted = 0
    cp1_squared, cp2_squared = product(cpn(1), cpn(1)), product(cpn(2), cpn(2))
    for base in (
        product(cp1_squared, cp1_squared), product(cp2_squared, cpn(1)), product(cpn(2), cpn(3))
    ):
        pair = _disguised(rng, base, 12)
        poly = pair.polytope
        assert poly.num_facets <= 2 * poly.dim
        root = poly.bfs_tree[0][1]
        parents = {vi for _, vi, _, _ in poly.bfs_tree} - {root}
        for i in range(poly.dim):
            for j in range(poly.num_facets):
                rows = [list(row) for row in pair.matrix]
                rows[i][j] += 2
                dets = bareiss_dets(poly, rows)
                singular = {vi for vi in parents if dets[vi] not in (1, -1)}
                if not singular:
                    continue
                calls.clear()
                with pytest.raises(SingularVertexError) as exc:
                    validate_char(poly, rows)
                expected = [(v, d) for v, d in zip(poly.vertices, dets) if d not in (1, -1)]
                assert list(exc.value.offenders) == expected
                below = [wi for wi, vi, _, _ in poly.bfs_tree if dets[vi] not in (1, -1)]
                assert calls[0] == poly.vertices[root]
                assert sorted(calls[1:]) == [poly.vertices[wi] for wi in sorted(below)]
                restarted += 1
    assert restarted > 10


def test_walk_over_a_products_own_tree_matches_bareiss():
    """validate_char walks whatever spanning tree the polytope carries: over
    a product's own tree, with one matrix entry perturbed, it gives Bareiss's
    base signs or Bareiss's offenders in vertex order, on 200 seeded
    products, products of products among them. Many perturbations make a
    vertex with tree children singular, so the walk restarts below it."""
    rng = random.Random(73)
    singular = restarted = 0
    for _ in range(200):
        pair = product(random_product_factor(rng), random_product_factor(rng))
        if rng.random() < 0.5:  # lambda no longer block diagonal
            pair = basis_change(pair, random_unimodular(rng, pair.polytope.dim))
        poly = pair.polytope
        rows = [list(row) for row in pair.matrix]
        rows[rng.randrange(poly.dim)][rng.randrange(poly.num_facets)] += rng.choice((-2, -1, 1, 2))
        dets = bareiss_dets(poly, rows)
        offenders = [(v, d) for v, d in zip(poly.vertices, dets) if d not in (1, -1)]
        if not offenders:
            signs = validate_char(poly, rows).base_signs
            assert signs == tuple(o * d for o, d in zip(poly.orientation, dets))
            continue
        with pytest.raises(SingularVertexError) as exc:
            validate_char(poly, rows)
        assert list(exc.value.offenders) == offenders
        singular += 1
        restarted += any(dets[vi] not in (1, -1) for _, vi, _, _ in poly.bfs_tree)
    assert singular > 60 and restarted > 40


def _polygon_cases(rng: random.Random):
    """Polygon pairs of every kind the library builds: random_polygon_pair
    draws, cp2_sum(k) up to k = 70 (past 61 facets), Hirzebruch surfaces,
    connected sums and vertex cuts, half of them basis-changed."""
    cases = [random_polygon_pair(rng, max_m=14) for _ in range(150)]
    cases += [cp2_sum(k) for k in range(1, 71)]
    cases += [hirzebruch(a) for a in range(-5, 6)]
    for _ in range(60):
        p1, p2 = random_polygon_pair(rng), random_polygon_pair(rng)
        cases.append(connected_sum_4d(p1, random_vertex(rng, p1), p2, random_vertex(rng, p2)))
    for _ in range(60):
        pair = random_polygon_pair(rng)
        cases.append(vertex_cut(pair, random_vertex(rng, pair)))
    return [
        basis_change(pair, random_unimodular(rng, 2, steps=8)) if i % 2 else pair
        for i, pair in enumerate(cases)
    ]


def test_polygon_minors_match_bareiss_with_no_elimination(monkeypatch):
    """On a polygon validate_char takes det lambda_v as a 2 x 2 minor: with
    det_and_reduce and det_and_inverse made to raise, so that a fallback to
    the walk fails, each of 351 polygon pairs with one entry perturbed gives
    Bareiss's base signs or Bareiss's offenders in vertex order, with the
    message they name. The errors raised before any determinant keep their
    order: TypeError for an entry that is not an integer, then
    ShapeMismatchError."""
    rng = random.Random(79)
    cases = _polygon_cases(rng)

    def refuse(*args):
        raise AssertionError("a polygon ran an elimination")

    monkeypatch.setattr(linalg, "det_and_reduce", refuse)
    monkeypatch.setattr(linalg, "det_and_inverse", refuse)
    singular = 0
    for pair in cases:
        poly = pair.polytope
        assert poly.dim == 2
        assert validate_char(poly, pair.matrix) == pair
        rows = [list(row) for row in pair.matrix]
        rows[rng.randrange(2)][rng.randrange(poly.num_facets)] += rng.choice(
            (-3, -2, -1, 1, 2, 3, 10**40)
        )
        dets = bareiss_dets(poly, rows)
        offenders = [(v, d) for v, d in zip(poly.vertices, dets) if d not in (1, -1)]
        if not offenders:
            signs = validate_char(poly, rows).base_signs
            assert signs == tuple(o * d for o, d in zip(poly.orientation, dets))
            continue
        with pytest.raises(SingularVertexError) as exc:
            validate_char(poly, rows)
        assert list(exc.value.offenders) == offenders
        assert str(exc.value) == str(SingularVertexError(offenders))
        singular += 1
    assert len(cases) == 351 and 250 < singular < 340

    poly, m = cases[-1].polytope, cases[-1].polytope.num_facets
    with pytest.raises(TypeError):
        validate_char(poly, [[1.0] * m, [0] * m])
    with pytest.raises(TypeError):  # the entries are read before the shape
        validate_char(poly, [[1, 0], ["1", 0, 0]])
    with pytest.raises(ShapeMismatchError):
        validate_char(poly, [[1] * m, [0] * (m + 1)])
    with pytest.raises(ShapeMismatchError):
        validate_char(poly, [[1] * m, [0] * m, [0] * m])


def test_a_polygon_reads_no_tree():
    """The closed form on a polygon never reads bfs_tree: with the tree
    reversed, so that children come before their parents, or emptied, the
    pair is the same."""
    for pair in (cp2_sum(9), hirzebruch(2), vertex_cut(cpn(2), (0, 1))):
        for tree in (pair.polytope.bfs_tree[::-1], ()):
            poly = replace(pair.polytope, bfs_tree=tree)
            assert validate_char(poly, pair.matrix).base_signs == pair.base_signs


def _parent_after_child(pair, q):
    """pair, a product CP^1 x Q, with P's one tree edge, which comes first,
    moved behind the copy of Q's tree at the vertex that edge reaches: each
    edge of that copy now comes before the edge that reaches its root."""
    edge, *tree = pair.polytope.bfs_tree
    k = len(q.polytope.bfs_tree)  # then Q's tree at P's vertices 0 and 1
    assert len(tree) == 2 * k and tree[k][1] == edge[0]
    return replace(pair.polytope, bfs_tree=(*tree, edge))


def test_a_tree_listing_a_child_before_its_parent_walks_the_same():
    """The walk reads the tree in any edge order: one Q copy of a dim-3
    product moved before its P edge gives the product's own base signs on
    both walk forms (m <= 2n, m > 2n). With the tree as product built it, a
    perturbed entry that makes a vertex with tree children singular raises
    SingularVertexError with Bareiss's offenders."""
    rng = random.Random(83)
    forms = set()
    for q in (cpn(2), hirzebruch(1), cp2_sum(3)):
        pair = product(cpn(1), q)
        moved = _parent_after_child(pair, q)
        assert validate_char(moved, pair.matrix).base_signs == pair.base_signs
        forms.add(moved.num_facets > 2 * moved.dim)

        poly = pair.polytope
        parents = {vi for _, vi, _, _ in poly.bfs_tree} - {0}
        restarted = 0
        for i in range(poly.dim):
            for j in range(poly.num_facets):
                rows = [list(row) for row in pair.matrix]
                rows[i][j] += rng.choice((2, 3))
                dets = bareiss_dets(poly, rows)
                if all(dets[vi] in (1, -1) for vi in parents):
                    continue
                with pytest.raises(SingularVertexError) as exc:
                    validate_char(poly, rows)
                expected = [(v, d) for v, d in zip(poly.vertices, dets) if d not in (1, -1)]
                assert list(exc.value.offenders) == expected
                restarted += 1
        assert restarted, q
    assert forms == {False, True}


def test_a_depth_first_tree_walks_relabels_and_multiplies_the_same():
    """A tree listed depth first still lists each parent first, so its first
    edge leaves its root, but its second edge does not. On relabelled
    products and a relabelled cut, rooted off vertex 0, on both walk forms
    (m <= 2n, m > 2n), the walk over it finds the pair's own base signs, a
    relabelling gives the pair it gives over the tree as built, and so does
    a product with CP^1 on either side, whose tree walks the same."""
    rng = random.Random(89)
    pairs = [
        product(cpn(2), cpn(2)),
        product(hirzebruch(1), cp2_sum(3)),
        vertex_cut(product(cpn(1), cpn(3)), (0, 2, 3, 4)),
    ]
    forms = set()
    for base in pairs:
        perm = list(range(base.polytope.num_facets))
        pair = base
        while pair.polytope.bfs_tree[0][1] == 0:  # a permutation that moves the root
            rng.shuffle(perm)
            pair = relabel_facets(base, perm)[0]
        moved = depth_first(pair)
        tree = moved.polytope.bfs_tree
        assert tree[1][1] != tree[0][1]
        assert_bfs_tree(moved.polytope)
        assert validate_char(moved.polytope, pair.matrix).base_signs == pair.base_signs
        forms.add(pair.polytope.num_facets > 2 * pair.polytope.dim)

        rng.shuffle(perm)
        omni = Omniorientation(-1, tuple(rng.choice((1, -1)) for _ in perm))
        assert _relabelled_fields(*relabel_facets(moved, perm, omni)) == _relabelled_fields(
            *relabel_facets(pair, perm, omni)
        )
        for p, q in ((moved, cpn(1)), (cpn(1), moved)):
            built = product(p, q)
            assert built == product(*(pair if f is moved else f for f in (p, q)))
            assert_bfs_tree(built.polytope)
            assert validate_char(built.polytope, built.matrix).base_signs == built.base_signs
    assert forms == {False, True}


def test_a_tree_that_reaches_a_vertex_twice_is_refused():
    """One extra edge to a vertex already walked: the first or the last tree
    edge turned round, which makes a cycle through the root or the last
    edge's parent, or the last edge listed twice, which reaches its leaf
    twice. On both walk forms the walk raises ValueError naming the edge's
    target instead of going round the cycle or reading the leaf again."""
    for pair in (product(cpn(1), cpn(2)), product(cpn(1), cp2_sum(3))):
        tree = pair.polytope.bfs_tree
        leaf = tree[-1]
        assert all(vi != leaf[0] for _, vi, _, _ in tree)
        turned = [(vi, wi, wpos, pos) for wi, vi, pos, wpos in (tree[0], leaf)]
        for extra in (*turned, leaf):
            poly = replace(pair.polytope, bfs_tree=(*tree, extra))
            wi = extra[0]
            twice = f"bfs_tree reaches vertex {wi}, {re.escape(str(poly.vertices[wi]))}, twice"
            with pytest.raises(ValueError, match=twice):
                validate_char(poly, pair.matrix)


def test_walk_memory_follows_the_tree_depth(monkeypatch):
    """The cut of cpn(100) at a vertex has 200 vertices over 102 facets, and
    its validation tree is two levels deep: 99 of the root's 100 children
    have one child each. The walk keeps the rows of the vertices on its
    current path only, about 0.3 MiB of peak; a breadth-first walk, holding
    a tableau for each of those 99 children at once, peaks at about 9 MiB.
    Only those 99 children take a rank-one pivot: a leaf is read from its
    parent's rows."""
    pair = vertex_cut(cpn(100), tuple(range(100)))
    tracemalloc.start()
    try:
        signs = validate_char(pair.polytope, pair.matrix).base_signs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert signs == pair.base_signs
    assert peak < 2 * 2**20


def _exchanges(monkeypatch, pair):
    """How many rank-one pivots validating pair takes."""
    pivots = []
    exchange = charpair._exchange
    monkeypatch.setattr(
        charpair, "_exchange", lambda t, u, pos, wpos: pivots.append(pos) or exchange(t, u, pos, wpos)
    )
    assert validate_char(pair.polytope, pair.matrix).base_signs == pair.base_signs
    monkeypatch.setattr(charpair, "_exchange", exchange)
    return len(pivots)


def test_a_vertex_with_only_leaves_below_keeps_no_rows(monkeypatch):
    """Only a vertex with a child that has children of its own takes a
    rank-one pivot; its leaves are read from its parent's rows. The cut of
    cpn(n) at a vertex, whose root has n children and n - 1 of them one leaf
    each, takes none. On valid pairs of both walk forms, relabelled and
    basis-changed, the count is the number of such vertices below the root."""
    for n in (3, 10, 100):
        assert _exchanges(monkeypatch, vertex_cut(cpn(n), tuple(range(n)))) == 0
    rng = random.Random(61)
    forms, taken = set(), 0
    for _ in range(60):
        pair = _oracle_pair(rng)
        poly = pair.polytope
        if poly.dim == 2:  # a polygon's determinants are minors, with no walk
            continue
        below = {}
        for ci, vi, _, _ in poly.bfs_tree:
            below.setdefault(vi, []).append(ci)
        root = poly.bfs_tree[0][1]
        inner = sum(
            1 for wi, kids in below.items() if wi != root and any(c in below for c in kids)
        )
        assert _exchanges(monkeypatch, pair) == inner
        forms.add(poly.num_facets <= 2 * poly.dim)
        taken += inner
    assert forms == {False, True} and taken


def test_an_offender_below_a_vertex_with_no_rows_matches_bareiss():
    """The new facet of a cut of cpn(n) or (CP1)^k lies in every leaf below
    the vertices that keep no rows: one perturbed entry in its column makes
    some of those leaves singular, on both walk forms, and the offenders
    are Bareiss's."""
    rng = random.Random(67)
    for base in (cpn(6), cpn(11), product(product(cpn(1), cpn(1)), product(cpn(1), cpn(1)))):
        pair = vertex_cut(base, base.polytope.vertices[0])
        pair = basis_change(pair, random_unimodular(rng, pair.polytope.dim, steps=10))
        poly = pair.polytope
        below = {}
        for ci, vi, _, _ in poly.bfs_tree:
            below.setdefault(vi, []).append(ci)
        root = poly.bfs_tree[0][1]
        skipped = [w for w, kids in below.items() if w != root and not any(c in below for c in kids)]
        under = {c for w in skipped for c in below[w]}
        for i in range(poly.dim):
            rows = [list(row) for row in pair.matrix]
            rows[i][-1] += 3
            got, expected = _offenders_or_dets(poly, rows)
            assert got == expected
            assert {poly.vertex_index(v) for v, _ in expected} & under


def test_a_tree_that_misses_a_vertex_is_refused():
    """A tree cut short by its last edge never reaches that edge's vertex: on
    a product and on relabelled pairs, on both walk forms (m <= 2n and
    m > 2n), the walk raises ValueError naming it instead of reporting it
    as a singular vertex with no determinant. An empty tree starts the walk
    at vertex 0 and never reaches vertex 1."""
    cube = product(product(cpn(1), cpn(1)), cpn(1))
    pairs = [
        product(cpn(1), cpn(2)),
        relabel_facets(product(cpn(1), cpn(2)), (3, 0, 4, 2, 1))[0],
        relabel_facets(vertex_cut(cube, (0, 2, 4)), (6, 2, 0, 5, 1, 3, 4))[0],
    ]
    assert {p.polytope.num_facets > 2 * p.polytope.dim for p in pairs} == {False, True}
    for pair in pairs:
        tree = pair.polytope.bfs_tree
        poly = replace(pair.polytope, bfs_tree=tree[:-1])
        wi = tree[-1][0]
        missed = f"bfs_tree never reaches vertex {wi}, {re.escape(str(poly.vertices[wi]))}"
        with pytest.raises(ValueError, match=missed):
            validate_char(poly, pair.matrix)
        poly = replace(pair.polytope, bfs_tree=())
        missed = f"bfs_tree never reaches vertex 1, {re.escape(str(poly.vertices[1]))}"
        with pytest.raises(ValueError, match=missed):
            validate_char(poly, pair.matrix)


def _relabel_case(rng: random.Random):
    """A random_valid_pair, a basis-changed cpn(n), a product of CP^1s and
    CP^2s, a product of two random_product_factor draws or a vertex cut of
    one, with a random permutation and, most of the time, omniorientation."""
    kind = rng.randrange(5)
    if kind == 0:
        pair = random_valid_pair(rng)
    elif kind == 1:
        pair = cpn(rng.randint(1, 9))
    elif kind == 2:
        pair = cpn(1)
        for _ in range(rng.randint(0, 3)):
            pair = product(pair, cpn(rng.randint(1, 2)))
    else:
        pair = product(random_product_factor(rng), random_product_factor(rng))
        if kind == 4:
            pair = vertex_cut(pair, random_vertex(rng, pair))
    pair = basis_change(pair, random_unimodular(rng, pair.polytope.dim))
    m = pair.polytope.num_facets
    perm = list(range(m))
    rng.shuffle(perm)
    omni = None
    if rng.random() < 0.7:
        omni = Omniorientation(rng.choice([1, -1]), tuple(rng.choice([1, -1]) for _ in range(m)))
    return pair, perm, omni


def _long_relabel_cases(rng: random.Random):
    """Relabellings past m = 61 facets, where validation codes its ridge keys:
    cp2_sum(60) x CP^1 both ways round and a vertex cut of it."""
    long = product(cp2_sum(60), cpn(1))
    cases = []
    for pair in (long, product(cpn(1), cp2_sum(60)), vertex_cut(long, long.polytope.vertices[-1])):
        perm = list(range(pair.polytope.num_facets))
        rng.shuffle(perm)
        cases.append((pair, perm, Omniorientation.all_positive(len(perm))))
    return cases


def _validated_relabelling(pair, perm, new_omni):
    """What full validation finds for pair relabelled by perm: the vertices,
    orientation class and masks of the renamed polytope, and the base signs
    of the permuted matrix, with the omniorientation relabel_facets gave."""
    old = pair.polytope
    poly = validate_polytope(old.dim, old.num_facets, [[perm[j] for j in v] for v in old.vertices])
    back = sorted(range(len(perm)), key=perm.__getitem__)
    signs = validate_char(poly, linalg.columns(pair.matrix, back)).base_signs
    return poly.vertices, poly.orientation, poly.masks, signs, new_omni


def _relabelled_fields(new_pair, new_omni):
    poly = new_pair.polytope
    return poly.vertices, poly.orientation, poly.masks, new_pair.base_signs, new_omni


def test_relabel_base_signs_match_validate_char():
    """relabel_facets builds its pair without validation: on 400 seeded
    relabellings and 3 past m = 61, its vertices, orientation class, masks
    and base signs are what full validation finds on the renamed vertices
    and permuted matrix, validate_char over its own tree finds the same base
    signs, its tree keeps the bfs_tree contract, and the omniorientation
    carries the global sign that keeps the fixed point over old vertex 0."""
    rng = random.Random(91)
    cases = [_relabel_case(rng) for _ in range(400)] + _long_relabel_cases(rng)
    wide = moved = 0
    for pair, perm, omni in cases:
        new_pair, new_omni = relabel_facets(pair, perm, omni)
        poly = new_pair.polytope
        assert _relabelled_fields(new_pair, new_omni) == _validated_relabelling(
            pair, perm, new_omni
        )
        assert validate_char(poly, new_pair.matrix).base_signs == new_pair.base_signs
        assert_bfs_tree(poly)
        wide += poly.num_facets > 2 * poly.dim
        wi = poly.vertex_index(perm[j] for j in pair.polytope.vertices[0])
        moved += wi != 0
        if omni is None:
            assert new_omni is None
            continue
        g = new_pair.base_signs[wi] * pair.base_signs[0]
        back = sorted(range(len(perm)), key=perm.__getitem__)
        assert new_omni == Omniorientation(
            g * omni.global_sign, tuple(omni.facet_signs[j] for j in back)
        )
    assert wide > 80 and moved > 300


def test_relabel_runs_no_validation(monkeypatch):
    """relabel_facets builds its pair from its input's data alone: with the
    validators, the ridge map and the determinant walk replaced by ones that
    raise, it still returns the pair that validation finds, and the same
    tree, so a silent fallback to validation fails here."""
    rng = random.Random(92)
    cases = [_relabel_case(rng) for _ in range(20)] + _long_relabel_cases(rng)
    expected = []
    for pair, perm, omni in cases:
        new_pair, new_omni = relabel_facets(pair, perm, omni)
        expected.append(
            (_validated_relabelling(pair, perm, new_omni), new_pair.polytope.bfs_tree)
        )

    def refuse(*args):
        raise AssertionError("relabel_facets ran validation")

    monkeypatch.setattr(polytope, "validate_polytope", refuse)
    monkeypatch.setattr(polytope, "_ridge_partners", refuse)
    monkeypatch.setattr(charpair, "validate_polytope", refuse)
    monkeypatch.setattr(charpair, "validate_char", refuse)
    monkeypatch.setattr(charpair, "_walk_dets", refuse)
    got = []
    for pair, perm, omni in cases:
        new_pair, new_omni = relabel_facets(pair, perm, omni)
        got.append((_relabelled_fields(new_pair, new_omni), new_pair.polytope.bfs_tree))
    assert got == expected


def test_walk_over_a_relabelled_tree_matches_bareiss():
    """validate_char walks the tree a relabelled pair carries, its input's
    renamed, from that tree's root, most often not vertex 0: on 200 seeded
    relabelled products and vertex cuts of products, and products of
    relabelled factors over the product's own tree, rooted at its factors'
    roots, with one matrix entry perturbed, it gives Bareiss's base signs or
    Bareiss's offenders in vertex order, on both walk forms (the tableau
    for m <= 2n, the inverse past it)."""
    rng = random.Random(97)
    forms = {False: 0, True: 0}
    singular = off_root = 0
    for i in range(200):
        factors = random_product_factor(rng), random_product_factor(rng)
        if i % 4 == 2:  # relabelled factors, and no relabelling after
            factors = [random_relabelling(rng, f) for f in factors]
        pair = product(*factors)
        if pair.polytope.dim == 2:  # a polygon takes its minors and walks nowhere
            pair = product(pair, cpn(1))
        if i % 2:
            pair = vertex_cut(pair, random_vertex(rng, pair))
        if i % 4 != 2:
            pair = random_relabelling(rng, pair)
        if rng.random() < 0.5:
            pair = basis_change(pair, random_unimodular(rng, pair.polytope.dim))
        poly = pair.polytope
        off_root += poly.bfs_tree[0][1] != 0
        forms[poly.num_facets > 2 * poly.dim] += 1
        rows = [list(row) for row in pair.matrix]
        rows[rng.randrange(poly.dim)][rng.randrange(poly.num_facets)] += rng.choice((-2, -1, 1, 2))
        dets = bareiss_dets(poly, rows)
        offenders = [(v, d) for v, d in zip(poly.vertices, dets) if d not in (1, -1)]
        if not offenders:
            signs = validate_char(poly, rows).base_signs
            assert signs == tuple(o * d for o, d in zip(poly.orientation, dets))
            continue
        with pytest.raises(SingularVertexError) as exc:
            validate_char(poly, rows)
        assert list(exc.value.offenders) == offenders
        singular += 1
    assert min(forms.values()) > 80 and off_root > 150 and singular > 80
