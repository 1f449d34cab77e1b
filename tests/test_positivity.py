"""GF(2) decision procedure, certificates, witnesses, brute-force oracle."""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasitoric import (
    Gf2System,
    Omniorientation,
    all_signs,
    admits_invariant_acs,
    basis_change,
    brute_force_decide,
    build_system,
    count_positive_omniorientations,
    cp2_sum,
    cpn,
    decide_positive,
    hirzebruch,
    product,
    relabel_facets,
    solve,
    vertex_cut,
)
from quasitoric.charpair import CharacteristicPair
from quasitoric import positivity
from quasitoric.errors import InternalInconsistencyError, TooLargeError
from quasitoric.positivity import PositivityResult, _omni_from_mask, _verify
from support import (
    bareiss_dets,
    cycle_by_successors,
    depth_first,
    gauss_jordan_solve,
    random_3d_pair,
    random_polygon_pair,
    random_product_factor,
    random_relabelling,
    random_unimodular,
    random_valid_pair,
    random_vertex,
    ridge_entries,
)


def test_build_system_interval():
    system = build_system(cpn(1))
    assert system.num_unknowns == 3
    assert system.rows == (0b011, 0b101)
    assert system.rhs == (0, 0)


def test_build_system_triangle():
    system = build_system(cpn(2))
    assert system.num_unknowns == 4
    assert system.rows == (0b0111, 0b1011, 0b1101)
    assert system.rhs == (0, 0, 0)


def test_orientation_renormalization_shifts_rhs_only():
    pair = cpn(2)
    # the other orientation class negates every base sign
    flipped = CharacteristicPair(
        polytope=pair.polytope,
        matrix=pair.matrix,
        base_signs=tuple(-s for s in pair.base_signs),
    )
    s0, s1 = build_system(pair), build_system(flipped)
    assert s1.rows == s0.rows
    assert s1.rhs == tuple(1 - b for b in s0.rhs)
    # the x0 -> x0 + 1 shift bijects solutions, so the decision agrees
    r0, r1 = solve(s0), solve(s1)
    assert r0.satisfiable == r1.satisfiable
    assert r0.solution_count == r1.solution_count


def test_solve_empty_system():
    result = solve(Gf2System(num_unknowns=5, rows=(), rhs=()))
    assert result.satisfiable
    assert result.kernel_dim == 5
    assert result.certificate == Omniorientation.all_positive(4)


def test_solve_contradiction_witness():
    result = solve(Gf2System(num_unknowns=1, rows=(1, 1), rhs=(0, 1)))
    assert not result.satisfiable
    assert result.witness == (0, 1)


def test_system_refuses_rows_and_rhs_of_different_lengths():
    # zip would drop the second row and answer SAT
    with pytest.raises(ValueError, match="2 rows but 1 rhs"):
        Gf2System(1, rows=(1, 1), rhs=(0,))


def test_system_refuses_a_bit_outside_the_unknowns():
    # bit 1 of a one-unknown row would be read as its rhs; a negative row
    # has every bit above its unknowns set
    for rows in ((2,), (-1,)):
        with pytest.raises(ValueError, match="outside the"):
            Gf2System(1, rows=rows, rhs=(0,))


def test_system_refuses_an_rhs_other_than_0_or_1():
    # -1 << n sets the rhs bit and every history bit above it
    for rhs in ((-1,), (2,)):
        with pytest.raises(ValueError, match="rhs entry must be 0 or 1"):
            Gf2System(2, rows=(1,), rhs=rhs)


def test_system_refuses_a_negative_number_of_unknowns():
    with pytest.raises(ValueError, match="num_unknowns"):
        Gf2System(-1, rows=(), rhs=())


def test_solve_interval():
    result = solve(build_system(cpn(1)))
    assert result.satisfiable
    assert result.certificate == Omniorientation(1, (1, 1))
    assert result.kernel_dim == 1
    assert result.solution_count == 2


def test_interval_count_matches_oracle():
    assert count_positive_omniorientations(cpn(1)) == 2
    assert brute_force_decide(cpn(1)).count == 2


def test_cp2_family_parity():
    assert decide_positive(cpn(2)).satisfiable
    assert not decide_positive(cp2_sum(2)).satisfiable
    assert decide_positive(cp2_sum(3)).satisfiable
    assert admits_invariant_acs(cpn(2))
    assert not admits_invariant_acs(cp2_sum(2))
    assert count_positive_omniorientations(cp2_sum(2)) == 0


def test_certificate_verifies():
    rng = random.Random(31)
    for _ in range(30):
        pair = random_valid_pair(rng)
        result = decide_positive(pair)
        if result.satisfiable:
            assert all(s == 1 for s in all_signs(pair, result.certificate))


def test_witness_conditions():
    rng = random.Random(32)
    seen_unsat = 0
    for _ in range(60):
        pair = random_valid_pair(rng)
        result = decide_positive(pair)
        if result.satisfiable:
            continue
        seen_unsat += 1
        w = result.witness
        assert len(w) % 2 == 0
        hits = [0] * pair.polytope.num_facets
        dets = bareiss_dets(pair.polytope, pair.matrix)
        prod = 1
        for vi in w:
            for j in pair.polytope.vertices[vi]:
                hits[j] += 1
            prod *= pair.polytope.orientation[vi] * dets[vi]
        assert all(h % 2 == 0 for h in hits)
        assert prod == -1
    assert seen_unsat >= 5


def test_oracle_equivalence_sample():
    rng = random.Random(33)
    for _ in range(60):
        pair = random_valid_pair(rng)
        fast = decide_positive(pair)
        brute = brute_force_decide(pair)
        assert fast.satisfiable == brute.satisfiable
        assert fast.solution_count == brute.count


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_decide_agrees_with_brute_force(seed, data):
    """Hypothesis-drawn pairs with m <= 12, facets relabelled at random."""
    pair = random_valid_pair(random.Random(seed), max_m=12)
    m = pair.polytope.num_facets
    assert m <= 12
    pair, _ = relabel_facets(pair, data.draw(st.permutations(range(m))))
    fast = decide_positive(pair)
    brute = brute_force_decide(pair)
    assert fast.satisfiable == brute.satisfiable
    assert fast.solution_count == brute.count


def test_brute_force_certificate_positive():
    rng = random.Random(34)
    for _ in range(20):
        pair = random_valid_pair(rng)
        brute = brute_force_decide(pair)
        if brute.satisfiable:
            assert all(s == 1 for s in all_signs(pair, brute.certificate))


def test_brute_force_matches_mask_enumeration():
    # pure-Python sweep over the same GF(2) system: count and smallest mask
    rng = random.Random(41)
    pairs = [cpn(1), cpn(2), hirzebruch(2), cp2_sum(2), cp2_sum(4)]
    pairs += [random_valid_pair(rng, max_m=10) for _ in range(10)]
    for pair in pairs:
        system = build_system(pair)
        expected = [
            mask
            for mask in range(1 << system.num_unknowns)
            if all(
                bin(mask & row).count("1") % 2 == b
                for row, b in zip(system.rows, system.rhs)
            )
        ]
        brute = brute_force_decide(pair)
        assert brute.count == len(expected)
        assert brute.satisfiable == bool(expected)
        m = pair.polytope.num_facets
        assert brute.certificate == (_omni_from_mask(expected[0], m) if expected else None)


def test_brute_force_too_large():
    with pytest.raises(TooLargeError):
        brute_force_decide(cp2_sum(19))  # 21 facets


def test_decide_invariant_under_relabel_and_basis_change():
    rng = random.Random(35)
    for _ in range(20):
        pair = random_valid_pair(rng)
        base = decide_positive(pair)
        perm = list(range(pair.polytope.num_facets))
        rng.shuffle(perm)
        relabeled, _ = relabel_facets(pair, perm)
        changed = basis_change(pair, random_unimodular(rng, pair.polytope.dim))
        for other in (relabeled, changed):
            result = decide_positive(other)
            assert result.satisfiable == base.satisfiable
            assert result.solution_count == base.solution_count


def test_literal_omniorientation_enumeration():
    # independent of the GF(2) linearization: walk actual Omniorientations
    # and call the sign formula directly
    rng = random.Random(36)
    pairs = [cpn(1), cpn(2), cp2_sum(2)] + [random_valid_pair(rng, max_m=6) for _ in range(6)]
    for pair in pairs:
        m = pair.polytope.num_facets
        count = 0
        first = None
        for bits in range(1 << (m + 1)):
            omni = Omniorientation(
                -1 if bits & 1 else 1,
                tuple(-1 if (bits >> (1 + j)) & 1 else 1 for j in range(m)),
            )
            if all(s == 1 for s in all_signs(pair, omni)):
                count += 1
                if first is None:
                    first = omni
        brute = brute_force_decide(pair)
        assert brute.count == count
        assert brute.certificate == first
        assert decide_positive(pair).solution_count == count


def test_kernel_dim_counts_all_solutions():
    # enumerate solutions directly for a couple of small fixed systems
    for pair in (cpn(1), cpn(2), cp2_sum(2), cp2_sum(3)):
        system = build_system(pair)
        expected = 0
        for mask in range(1 << system.num_unknowns):
            ok = all(
                bin(mask & row).count("1") % 2 == b
                for row, b in zip(system.rows, system.rhs)
            )
            expected += ok
        assert solve(system).solution_count == expected


def _decision(result):
    cert = result.certificate
    signs = None if cert is None else (cert.global_sign, cert.facet_signs)
    return (result.satisfiable, signs, result.kernel_dim, result.witness)


def test_decide_positive_pinned():
    """Decision, certificate signs, kernel dimension and witness of 300 seeded
    random pairs, cp2_sum(1..40) (the even k give UNSAT witnesses of k + 2
    vertices), (CP1)^1..8, (CP2)^1..4 and cp2_sum(1..6) x CP1, CP2, each also
    relabelled and basis-changed, in one digest. The UNSAT products have many
    witnesses, so the digest also pins the order in which solve scans rows
    and picks pivots."""
    rng = random.Random(37)
    pairs = [random_valid_pair(rng) for _ in range(300)]
    pairs += [cp2_sum(k) for k in range(1, 41)]
    for factor, top in ((cpn(1), 8), (cpn(2), 4)):
        pair = factor
        pairs.append(pair)
        for _ in range(top - 1):
            pair = product(pair, factor)
            pairs.append(pair)
    pairs += [product(cp2_sum(k), factor) for k in range(1, 7) for factor in (cpn(1), cpn(2))]
    digest = hashlib.sha256()
    unsat = 0
    for pair in pairs:
        perm = list(range(pair.polytope.num_facets))
        rng.shuffle(perm)
        relabelled, _ = relabel_facets(pair, perm)
        changed = basis_change(pair, random_unimodular(rng, pair.polytope.dim))
        for other in (pair, relabelled, changed):
            key = _decision(decide_positive(other))
            unsat += not key[0]
            digest.update(repr(key).encode())
    assert unsat == 225
    assert digest.hexdigest() == (
        "55ca2279d8d062c942942af12ee3b462ada2210be1f5f0c81b392b96b8373a50"
    )


def test_verify_rejects_each_bad_result():
    """Each condition _verify checks, broken on its own."""
    unsat = cp2_sum(2)  # witness (0, 1, 2, 3): the whole square
    sat = hirzebruch(1)  # the whole square again, but its base signs multiply to +1
    cert = decide_positive(cpn(2)).certificate
    for pair, bad, message in (
        # the whole triangle meets each facet twice, but has odd size
        (cpn(2), PositivityResult(False, witness=(0, 1, 2)), "odd size"),
        (unsat, PositivityResult(False, witness=(0, 1)), "odd number of times"),
        (sat, PositivityResult(False, witness=(0, 1, 2, 3)), "multiply to -1"),
        (cpn(2), PositivityResult(True, cert.flip_facet(0), 0), r"all signs \+1"),
    ):
        with pytest.raises(InternalInconsistencyError, match=message):
            _verify(pair, bad)
    _verify(unsat, decide_positive(unsat))


def test_solve_matches_gauss_jordan_on_pairs():
    """The whole result, certificate and witness included, against the
    Gauss-Jordan oracle: seeded random pairs, each also relabelled and
    basis-changed, and UNSAT products, which have many witnesses."""
    rng = random.Random(38)
    pairs = [random_valid_pair(rng) for _ in range(120)]
    pairs += [product(cp2_sum(2 * a), cp2_sum(b)) for a in range(1, 4) for b in range(1, 5)]
    pairs += [product(cp2_sum(2 * a), cpn(d)) for a in range(1, 8) for d in (1, 2)]
    unsat = 0
    for pair in pairs:
        perm = list(range(pair.polytope.num_facets))
        rng.shuffle(perm)
        relabelled, _ = relabel_facets(pair, perm)
        changed = basis_change(pair, random_unimodular(rng, pair.polytope.dim))
        for other in (pair, relabelled, changed):
            system = build_system(other)
            result = solve(system)
            assert result == gauss_jordan_solve(system)
            unsat += not result.satisfiable
    assert unsat >= 3 * (12 + 14)


@st.composite
def gf2_systems(draw):
    """Raw systems over up to 70 unknowns, with any number of rows. Each row
    is the XOR of a drawn subset of a drawn basis, so the rank is at most
    the basis size; a small basis gives zero and duplicate rows."""
    n = draw(st.integers(0, 70))
    basis = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))
    picks = draw(st.lists(st.integers(0, (1 << len(basis)) - 1), max_size=2 * n + 4))
    rows = []
    for pick in picks:
        row = 0
        for k, vec in enumerate(basis):
            if pick >> k & 1:
                row ^= vec
        rows.append(row)
    rhs = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    return Gf2System(n, tuple(rows), tuple(rhs))


@settings(deadline=None, max_examples=300)
@given(system=gf2_systems())
@example(system=Gf2System(0, (), ()))
@example(system=Gf2System(3, (), ()))
@example(system=Gf2System(0, (0, 0), (0, 1)))  # no unknowns: row 1 reads 0 = 1
@example(system=Gf2System(3, (0, 0, 0), (0, 0, 0)))  # zero rows only
@example(system=Gf2System(3, (5, 0, 5, 5), (1, 1, 1, 0)))  # a zero row, duplicates
@example(system=Gf2System(2, (1, 2, 3, 3, 1), (1, 0, 1, 1, 1)))  # more rows than unknowns
@example(system=Gf2System(6, (6, 12), (1, 0)))  # fewer rows than unknowns
def test_solve_matches_gauss_jordan_on_raw_systems(system):
    assert solve(system) == gauss_jordan_solve(system)


def test_solve_memory_stays_linear_in_the_vertices():
    """(CP1)^14 has 16384 vertices over 29 unknowns. Slot histories keep
    each work row near 2m bits; a history bit per vertex would make the
    rows V^2 bits together, about 18 MiB of peak here."""
    pair = cpn(1)
    for _ in range(13):
        pair = product(pair, cpn(1))
    tracemalloc.start()
    try:
        result = solve(build_system(pair))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.kernel_dim == 14
    assert peak < 6 * 2**20


def _polygon_relabellings(rng, pair):
    """The pair, a random relabelling of it and, up to 8 facets, for each
    facet j other than 0 a relabelling that keeps facet 0 and names j m - 1,
    the others drawn at random."""
    m = pair.polytope.num_facets
    perm = list(range(m))
    rng.shuffle(perm)
    yield pair
    yield relabel_facets(pair, perm)[0]
    if m > 8:
        return
    cycle = cycle_by_successors(pair.polytope)[0]
    for p in range(1, m):
        rest = list(range(1, m - 1))
        rng.shuffle(rest)
        perm = [0] * m
        perm[cycle[p]] = m - 1
        for j in cycle[1:p] + cycle[p + 1 :]:
            perm[j] = rest.pop()
        yield relabel_facets(pair, perm)[0]


def test_polygon_walk_matches_solve_and_gauss_jordan():
    """On a polygon decide_positive decides from the facet exchanges of the
    spanning tree, like every pair, and takes every vertex as an UNSAT
    polygon's witness, with no system. Its whole result, certificate and
    witness included, must be solve's and the Gauss-Jordan oracle's. The
    draws: cp2_sum(1..40) and two long sums, and random polygon pairs
    (sums, cuts, Hirzebruch surfaces, basis changes), each relabelled so
    that facet m - 1 sits anywhere on the cycle, and each with its own base
    signs and with three random sign vectors in their place."""
    rng = random.Random(40)
    pairs = [cp2_sum(k) for k in range(1, 41)] + [cp2_sum(254), cp2_sum(255)]
    pairs += [random_polygon_pair(rng, max_m=24) for _ in range(150)]
    seen = set()
    spots = {}  # m -> the distances round the cycle from facet 0 to facet m - 1
    for pair in pairs:
        m = pair.polytope.num_facets
        for other in _polygon_relabellings(rng, pair):
            p = cycle_by_successors(other.polytope)[0].index(m - 1)
            spots.setdefault(m, set()).add(min(p, m - p))
            signs = [other.base_signs]
            signs += [tuple(rng.choice((1, -1)) for _ in range(m)) for _ in range(3)]
            for base_signs in signs:
                drawn = CharacteristicPair(other.polytope, other.matrix, base_signs)
                system = build_system(drawn)
                result = decide_positive(drawn)
                assert result == solve(system) == gauss_jordan_solve(system)
                seen.add((m % 2, result.satisfiable))
    assert seen == {(0, False), (0, True), (1, True)}  # an odd polygon is always SAT
    assert all(spots[m] == set(range(1, m // 2 + 1)) for m in range(3, 9))


def test_decide_positive_builds_no_system_on_a_polygon(monkeypatch):
    """decide_positive, count_positive_omniorientations and
    admits_invariant_acs decide every pair from the tree's facet exchanges.
    An UNSAT polygon's witness is every vertex, so no polygon, SAT or
    UNSAT, builds a system: only an UNSAT pair of dim 3 or more builds and
    solves one, for its witness."""
    pairs = [cpn(2), hirzebruch(1), hirzebruch(-2), cp2_sum(2), cp2_sum(3), cp2_sum(1000)]
    cube = product(product(cpn(1), cpn(1)), cpn(1))
    trees = [cpn(1), cpn(3), cube, vertex_cut(cube, cube.polytope.vertices[0])]
    assert all(solve(build_system(pair)).satisfiable for pair in trees)
    pairs += trees
    expected = [solve(build_system(pair)) for pair in pairs]
    unsat = product(cp2_sum(2), cpn(1))
    unsat_expected = solve(build_system(unsat))
    assert not unsat_expected.satisfiable

    def refuse(*args):
        raise AssertionError("a GF(2) system was built or solved")

    monkeypatch.setattr(positivity, "build_system", refuse)
    monkeypatch.setattr(positivity, "solve", refuse)
    for pair, result in zip(pairs, expected):
        assert decide_positive(pair) == result
        assert count_positive_omniorientations(pair) == result.solution_count
        assert admits_invariant_acs(pair) == result.satisfiable
    with pytest.raises(AssertionError, match="GF.2. system"):
        decide_positive(unsat)
    monkeypatch.undo()
    assert decide_positive(unsat) == unsat_expected


def _exchange_components(poly):
    """The number of classes of facets joined by the exchange across every
    edge of the vertex graph, found from the ridges, not the spanning tree."""
    label = list(range(poly.num_facets))
    for (vi, pos), (wi, wpos) in ridge_entries(poly.vertices).values():
        a, b = label[poly.vertices[vi][pos]], label[poly.vertices[wi][wpos]]
        if a != b:
            label = [a if c == b else c for c in label]
    return len(set(label))


def _tree_pairs(rng):
    """Pairs of dim 3 or more: products of relabelled random factors, each
    also relabelled, basis-changed, cut at a vertex and with its tree listed
    depth first, and random 3-dimensional pairs."""
    for _ in range(60):
        p, q = random_product_factor(rng), random_product_factor(rng)
        pair = product(random_relabelling(rng, p), random_relabelling(rng, q))
        if pair.polytope.dim < 3 or pair.polytope.num_vertices > 200:
            continue
        yield pair
        yield random_relabelling(rng, pair)
        yield basis_change(pair, random_unimodular(rng, pair.polytope.dim))
        yield vertex_cut(pair, random_vertex(rng, pair))
        yield depth_first(pair)
    for _ in range(60):
        pair = random_3d_pair(rng)
        yield pair
        yield depth_first(pair)


def test_tree_decision_matches_solve_and_gauss_jordan(monkeypatch):
    """On a pair of dim 3 or more decide_positive takes one pass over the
    facet exchanges of the spanning tree. Its whole result must be solve's
    and the Gauss-Jordan oracle's, each pair also with its first base sign
    negated, which makes many UNSAT. decide_positive runs solve exactly for
    the UNSAT pairs, for their witness. A SAT kernel dimension is the number
    of facet-exchange components, which _verify does not check."""
    solved = []

    def counted(system):
        solved.append(system)
        return solve(system)

    monkeypatch.setattr(positivity, "solve", counted)
    rng = random.Random(42)
    seen = {True: 0, False: 0}
    for pair in _tree_pairs(rng):
        assert pair.polytope.dim >= 3
        negated = (-pair.base_signs[0],) + pair.base_signs[1:]
        for base_signs in (pair.base_signs, negated):
            drawn = CharacteristicPair(pair.polytope, pair.matrix, base_signs)
            system = build_system(drawn)
            result = decide_positive(drawn)
            assert result == solve(system) == gauss_jordan_solve(system)
            if result.satisfiable:
                assert result.kernel_dim == _exchange_components(drawn.polytope)
            seen[result.satisfiable] += 1
            assert len(solved) == seen[False]
    assert seen[True] >= 300 and seen[False] >= 300, seen


def test_decide_positive_memory_on_a_tree(monkeypatch):
    """(CP1)^14, 16384 vertices, is decided from its tree's 14 distinct
    facet exchanges, with no system, where solve peaks at about 1.25 MiB."""
    pair = cpn(1)
    for _ in range(13):
        pair = product(pair, cpn(1))

    def refuse(*args):
        raise AssertionError("a GF(2) system was built or solved")

    monkeypatch.setattr(positivity, "solve", refuse)
    tracemalloc.start()
    try:
        result = decide_positive(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.kernel_dim == 14
    assert peak < 2**20
