"""Euler characteristic, Chern number, intersection forms, signature, Todd genus."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasitoric import (
    Omniorientation,
    almost_complex_exists_4d,
    basis_change,
    chern_top_number,
    compute_invariants,
    cp2_sum,
    cpn,
    decide_positive,
    euler_characteristic,
    hirzebruch,
    intersection_form,
    relabel_facets,
    signature,
    todd_genus_4d,
    vertex_cut,
)
from quasitoric.charpair import all_signs
from quasitoric.errors import NotDimension2Error
from quasitoric.invariants import _self_intersections
from quasitoric.linalg import det_bareiss
from support import (
    random_polygon_pair,
    random_unimodular,
    random_unimodular_det1,
    random_valid_pair,
    self_intersections_round_the_cycle,
)


def all_pos(pair):
    return Omniorientation.all_positive(pair.polytope.num_facets)


def test_euler_examples():
    for n in range(1, 6):
        assert euler_characteristic(cpn(n)) == n + 1
    for k in range(1, 6):
        assert euler_characteristic(cp2_sum(k)) == k + 2


def test_chern_top_interval():
    assert chern_top_number(cpn(1), all_pos(cpn(1))) == 2


def test_chern_top_equals_euler_on_certificates():
    rng = random.Random(61)
    checked = 0
    for _ in range(40):
        pair = random_valid_pair(rng)
        result = decide_positive(pair)
        if result.satisfiable:
            assert chern_top_number(pair, result.certificate) == euler_characteristic(pair)
            checked += 1
    assert checked >= 10


def test_chern_top_negates_with_global_flip():
    rng = random.Random(62)
    for _ in range(15):
        pair = random_valid_pair(rng)
        omni = all_pos(pair)
        assert chern_top_number(pair, omni.flip_global()) == -chern_top_number(pair, omni)


def test_intersection_form_cp2():
    pair = cpn(2)
    form = intersection_form(pair, all_pos(pair))
    assert form.basis == (2,)
    assert form.matrix == ((1,),)
    assert signature(form) == 1


def test_intersection_form_hirzebruch0():
    pair = hirzebruch(0)
    form = intersection_form(pair, all_pos(pair))
    assert form.matrix == ((0, 1), (1, 0))
    assert signature(form) == 0


def test_intersection_form_blowup():
    pair = vertex_cut(cpn(2), (0, 1))
    form = intersection_form(pair, all_pos(pair))
    assert signature(form) == 0
    assert sorted(form.matrix[i][i] for i in range(2)) == [-1, 1]


def test_intersection_form_unimodular():
    rng = random.Random(63)
    for _ in range(25):
        pair = random_polygon_pair(rng)
        form = intersection_form(pair, all_pos(pair))
        assert det_bareiss(form.matrix) in (1, -1)


def test_intersection_form_rejects_other_dims():
    with pytest.raises(NotDimension2Error):
        intersection_form(cpn(1), all_pos(cpn(1)))
    with pytest.raises(NotDimension2Error):
        todd_genus_4d(cpn(3), all_pos(cpn(3)))


def test_signature_small_matrices():
    assert signature(((1,),)) == 1
    assert signature(((1, 0), (0, -1))) == 0
    assert signature(((0, 1), (1, 0))) == 0
    assert signature(((2, 1), (1, 2))) == 2
    assert signature(((0, 0), (0, 0))) == 0


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        signature(((0, 1), (2, 0)))


def test_signature_refuses_a_matrix_that_is_not_square_or_not_integer():
    """A 2x3, a ragged and a column matrix raise ValueError instead of
    counting the first rows' pivots or indexing past a short row; a float or
    a str entry raises TypeError instead of being taken as a Fraction."""
    for matrix in ([[1, 0, 5], [0, 1, 7]], [[1, 2], [2]], [[1], [0]]):
        with pytest.raises(ValueError, match="^signature needs a square matrix$"):
            signature(matrix)
    for matrix in ([[1.5]], [[1, 0], [0, 1.0]], [["1"]]):
        with pytest.raises(TypeError):
            signature(matrix)


def test_omniorientation_signs_are_integers():
    """A float or str sign raises TypeError, where it used to reach the
    invariants (Chern number 3.0, a TypeError from Fraction); True is 1."""
    for args in ((1.0, (1, 1, 1)), ("1", (1, 1, 1)), (1, (1.0, 1, 1)), (1, (1, "-1", 1))):
        with pytest.raises(TypeError):
            Omniorientation(*args)
    omni = Omniorientation(True, (1, True, 1))
    assert omni == Omniorientation.all_positive(3)
    assert type(omni.global_sign) is int
    assert all(type(s) is int for s in omni.facet_signs)
    c = chern_top_number(cpn(2), omni)
    assert (c, type(c)) == (3, int)


def test_signature_invariant_under_basis_permutation():
    rng = random.Random(64)
    for _ in range(15):
        pair = random_polygon_pair(rng)
        form = intersection_form(pair, all_pos(pair))
        k = len(form.matrix)
        perm = list(range(k))
        rng.shuffle(perm)
        permuted = tuple(
            tuple(form.matrix[perm[i]][perm[j]] for j in range(k)) for i in range(k)
        )
        assert signature(permuted) == signature(form)


def test_signature_invariant_under_pair_transformations():
    rng = random.Random(65)
    for _ in range(12):
        pair = random_polygon_pair(rng)
        omni = all_pos(pair)
        sig = signature(intersection_form(pair, omni))
        changed = basis_change(pair, random_unimodular_det1(rng, 2))
        assert signature(intersection_form(changed, omni)) == sig
        perm = list(range(pair.polytope.num_facets))
        rng.shuffle(perm)
        new_pair, new_omni = relabel_facets(pair, perm, omni)
        assert signature(intersection_form(new_pair, new_omni)) == sig


def test_signature_negates_with_global_flip():
    rng = random.Random(66)
    for _ in range(12):
        pair = random_polygon_pair(rng)
        omni = all_pos(pair)
        assert signature(intersection_form(pair, omni.flip_global())) == -signature(
            intersection_form(pair, omni)
        )


def test_signature_invariant_under_facet_flips():
    rng = random.Random(67)
    for _ in range(12):
        pair = random_polygon_pair(rng)
        omni = all_pos(pair)
        j = rng.randrange(pair.polytope.num_facets)
        assert signature(intersection_form(pair, omni.flip_facet(j))) == signature(
            intersection_form(pair, omni)
        )


def test_todd_cp2_family():
    assert todd_genus_4d(cpn(2), all_pos(cpn(2))) == 1
    for k in range(1, 8):
        pair = cp2_sum(k)
        assert todd_genus_4d(pair, all_pos(pair)) == Fraction(k + 1, 2)
    pair = cp2_sum(2)
    assert todd_genus_4d(pair, all_pos(pair)) == Fraction(3, 2)
    assert not almost_complex_exists_4d(pair, all_pos(pair))


def test_todd_identity_4x():
    rng = random.Random(68)
    for _ in range(20):
        pair = random_polygon_pair(rng)
        omni = Omniorientation(
            rng.choice([1, -1]),
            tuple(rng.choice([1, -1]) for _ in range(pair.polytope.num_facets)),
        )
        rep = compute_invariants(pair, omni)
        assert 4 * rep.todd == rep.euler + rep.signature


def test_sat_implies_integral_todd_with_certificate():
    rng = random.Random(69)
    checked = 0
    for _ in range(40):
        pair = random_polygon_pair(rng, max_m=10)
        result = decide_positive(pair)
        if result.satisfiable:
            assert almost_complex_exists_4d(pair, result.certificate)
            checked += 1
    assert checked >= 10


def test_report_shape_other_dims():
    rep = compute_invariants(cpn(3), all_pos(cpn(3)))
    assert rep.signature is None and rep.todd is None and rep.almost_complex_4d is None
    assert rep.euler == 4


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_local_signature_matches_congruence_diagonalization(seed, data):
    """The O(m) signature, a third of the facets' self-intersections, agrees
    with diagonalizing the whole pairing, under relabelling and global and
    facet flips; the Todd genus and the almost-complex test follow it."""
    rng = random.Random(seed)
    pair = random_polygon_pair(rng)  # m <= 12; cp2_sum below reaches m = 32
    m = pair.polytope.num_facets
    perm = list(range(m))
    rng.shuffle(perm)
    signs = st.sampled_from([1, -1])
    facet_signs = data.draw(st.lists(signs, min_size=m, max_size=m))
    omni = Omniorientation(data.draw(signs), tuple(facet_signs))
    pair, omni = relabel_facets(pair, perm, omni)
    j = data.draw(st.integers(0, m - 1))
    for o in (omni, omni.flip_global(), omni.flip_facet(j)):
        rep = compute_invariants(pair, o)
        assert rep.signature == signature(intersection_form(pair, o))
        assert 4 * rep.todd == rep.euler + rep.signature
        assert todd_genus_4d(pair, o) == rep.todd
        assert almost_complex_exists_4d(pair, o) == rep.almost_complex_4d


def test_self_intersections_match_the_walk_round_the_cycle():
    """Each facet's D_j . D_j, summed over its two corners in vertex order,
    is the walk round the cycle's, facet by facet: on random polygon pairs
    and cp2_sum(1..40), each relabelled at random and basis-changed, under
    a random omniorientation, its global flip and every facet flip."""
    rng = random.Random(39)
    pairs = [random_polygon_pair(rng, max_m=16) for _ in range(150)]
    pairs += [cp2_sum(k) for k in range(1, 41)]
    for pair in pairs:
        m = pair.polytope.num_facets
        signs = [rng.choice((1, -1)) for _ in range(m + 1)]
        pair, omni = relabel_facets(
            pair, rng.sample(range(m), m), Omniorientation(signs[0], tuple(signs[1:]))
        )
        for other in (pair, basis_change(pair, random_unimodular(rng, 2))):
            for o in (omni, omni.flip_global(), *map(omni.flip_facet, range(m))):
                diag = _self_intersections(other, o, all_signs(other, o))
                assert diag == self_intersections_round_the_cycle(other, o)


def test_cp2_sum_signature_counts_summands():
    for k in range(1, 31):
        pair = cp2_sum(k)
        omni = all_pos(pair)
        for o in (omni, omni.flip_global(), omni.flip_facet(k)):
            sig = compute_invariants(pair, o).signature
            assert sig == signature(intersection_form(pair, o))
        assert compute_invariants(pair, omni).signature == k
