"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
tolerances are exact (integer / rational arithmetic) except the stated wall
clock budgets.
"""

import random
import time
from fractions import Fraction

from quasitoric import (
    Omniorientation,
    all_signs,
    basis_change,
    brute_force_decide,
    compute_invariants,
    cp2_sum,
    cpn,
    decide_positive,
    euler_characteristic,
    h_vector,
    hirzebruch,
    intersection_form,
    product,
    relabel_facets,
    signature,
    vertex_cut,
)
from quasitoric.linalg import det_bareiss
from support import (
    assert_coherent,
    bareiss_dets,
    random_unimodular_det1,
    random_valid_pair,
)


def _verdict(number, label, ok):
    print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


def fixtures():
    return [
        cpn(1),
        cpn(2),
        cpn(3),
        hirzebruch(-1),
        hirzebruch(0),
        hirzebruch(2),
        vertex_cut(cpn(2), (0, 1)),
        cp2_sum(2),
        cp2_sum(3),
        product(cpn(1), cpn(1)),
        product(cpn(1), cpn(2)),
    ]


def test_criterion_1_cp2k_parity_law():
    start = time.perf_counter()
    ok = True
    for k in range(1, 8):
        pair = cp2_sum(k)
        result = decide_positive(pair)
        ok &= result.satisfiable == (k % 2 == 1)
        if result.satisfiable:
            ok &= all(s == 1 for s in all_signs(pair, result.certificate))
        else:
            w = result.witness
            ok &= len(w) % 2 == 0
            hits = [0] * pair.polytope.num_facets
            dets = bareiss_dets(pair.polytope, pair.matrix)
            prod = 1
            for vi in w:
                for j in pair.polytope.vertices[vi]:
                    hits[j] += 1
                prod *= pair.polytope.orientation[vi] * dets[vi]
            ok &= all(h % 2 == 0 for h in hits) and prod == -1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _verdict(1, f"CP2_k parity law k=1..7 with verified certificates ({elapsed:.3f}s)", ok)


def test_criterion_2_todd_genus_reproduction():
    ok = True
    for k in range(1, 8):
        pair = cp2_sum(k)
        omni = Omniorientation.all_positive(pair.polytope.num_facets)
        rep = compute_invariants(pair, omni)
        ok &= rep.todd == Fraction(k + 1, 2)
        ok &= rep.euler == k + 2
        ok &= rep.signature == k
        ok &= rep.almost_complex_4d == (k % 2 == 1)
    _verdict(2, "td(CP2_k) = (k+1)/2 exactly, chi = k+2, sigma = k, ACS iff k odd", ok)


def test_criterion_3_toric_positivity():
    start = time.perf_counter()
    bases = [cpn(n) for n in range(1, 7)]
    bases += [hirzebruch(a) for a in range(-3, 4)]
    ok = all(decide_positive(b).satisfiable for b in bases)

    # all products of the bases with total dimension <= 6 (any number of factors)
    def extend(current, start_idx, dim):
        for i in range(start_idx, len(bases)):
            d = dim + bases[i].polytope.dim
            if d > 6:
                continue
            combo = product(current, bases[i]) if current is not None else bases[i]
            if current is not None:
                yield combo
            yield from extend(combo, i, d)

    count = 0
    for pair in extend(None, 0, 0):
        ok &= decide_positive(pair).satisfiable
        count += 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _verdict(3, f"toric positivity: bases + {count} products up to dim 6 ({elapsed:.2f}s)", ok)


def test_criterion_4_oracle_equivalence():
    rng = random.Random(20260808)
    mismatches = 0
    cases = 0
    while cases < 200:
        pair = random_valid_pair(rng, max_m=12)
        fast = decide_positive(pair)
        brute = brute_force_decide(pair)
        if fast.satisfiable != brute.satisfiable or fast.solution_count != brute.count:
            mismatches += 1
        cases += 1
    _verdict(4, f"GF(2) solver vs brute force on {cases} random pairs, 0 mismatches", mismatches == 0)


def test_criterion_5_invariance_suite():
    rng = random.Random(99)
    ok = True
    for pair in fixtures():
        m = pair.polytope.num_facets
        n = pair.polytope.dim
        omni = Omniorientation.all_positive(m)
        base = decide_positive(pair)
        base_sigs = all_signs(pair, omni)
        if n == 2:
            base_sigma = signature(intersection_form(pair, omni))
            base_todd = compute_invariants(pair, omni).todd

        perm = list(range(m))
        rng.shuffle(perm)
        relabeled, omni_r = relabel_facets(pair, perm, omni)
        changed = basis_change(pair, random_unimodular_det1(rng, n))

        for other, other_omni in ((relabeled, omni_r), (changed, omni)):
            result = decide_positive(other)
            ok &= result.satisfiable == base.satisfiable
            ok &= result.solution_count == base.solution_count
            if n == 2:
                ok &= signature(intersection_form(other, other_omni)) == base_sigma
                ok &= compute_invariants(other, other_omni).todd == base_todd

        flipped = omni.flip_global()
        ok &= all_signs(pair, flipped) == tuple(-s for s in base_sigs)
        if n == 2:
            ok &= signature(intersection_form(pair, flipped)) == -base_sigma
    _verdict(5, "decide/sigma/td invariant under relabeling and det+1 basis change; eps0 flip negates", ok)


def test_criterion_6_structural_invariants():
    rng = random.Random(77)
    ok = True
    pairs = fixtures() + [random_valid_pair(rng, max_m=10) for _ in range(15)]
    for pair in pairs:
        poly = pair.polytope
        assert_coherent(poly.vertices, poly.orientation)
        h = h_vector(poly)
        ok &= h == h[::-1]
        omni = Omniorientation.all_positive(poly.num_facets)
        rep = compute_invariants(pair, omni)
        if poly.dim == 2:
            ok &= det_bareiss(intersection_form(pair, omni).matrix) in (1, -1)
            ok &= 4 * rep.todd == rep.euler + rep.signature
            ok &= rep.euler == euler_characteristic(pair)

    sat_factors = [cpn(1), cpn(2), hirzebruch(1)]
    unsat_factors = [cp2_sum(2), cp2_sum(4)]
    for p in sat_factors + unsat_factors:
        for q in sat_factors + unsat_factors:
            expected = decide_positive(p).satisfiable and decide_positive(q).satisfiable
            ok &= decide_positive(product(p, q)).satisfiable == expected
    _verdict(6, "coherence, Dehn-Sommerville, product factorization, unimodularity, 4td = chi + sigma", ok)
