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
from quasitoric.positivity import PositivityResult, _odd_cycle_witness, _omni_from_mask, _verify
from support import (
    bareiss_dets,
    cycle_by_successors,
    depth_first,
    odd_cycle_by_labels,
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
    assert decide_positive(cpn(1)).solution_count == 2
    assert brute_force_decide(cpn(1)).count == 2


def test_cp2_family_parity():
    assert decide_positive(cpn(2)).satisfiable
    assert not decide_positive(cp2_sum(2)).satisfiable
    assert decide_positive(cp2_sum(3)).satisfiable
    assert admits_invariant_acs(cpn(2))
    assert not admits_invariant_acs(cp2_sum(2))
    assert decide_positive(cp2_sum(2)).solution_count == 0


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
    relabelled and basis-changed, in two digests. Digest A holds the SAT
    results and the polygons' results, those Gauss-Jordan elimination to RREF
    gives. Digest B holds the UNSAT results of dim 3 or more, whose products
    have many witnesses, so it pins the witness rule: the first breaking tree
    edge and the breadth-first path of exchanges before it."""
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
    digest_a, digest_b = hashlib.sha256(), hashlib.sha256()
    unsat = 0
    for pair in pairs:
        perm = list(range(pair.polytope.num_facets))
        rng.shuffle(perm)
        relabelled, _ = relabel_facets(pair, perm)
        changed = basis_change(pair, random_unimodular(rng, pair.polytope.dim))
        for other in (pair, relabelled, changed):
            key = _decision(decide_positive(other))
            unsat += not key[0]
            digest = digest_a if key[0] or other.polytope.dim == 2 else digest_b
            digest.update(repr(key).encode())
    assert unsat == 225
    assert digest_a.hexdigest() == (
        "d518c5108bfad249a5fe48b62e1118086745eb17299640bb6d28b9d5f5dae5ba"
    )
    assert digest_b.hexdigest() == (
        "0d3ef1a96c9f604591f907914e7bee681ab46ad39b9987de887da430a28dcdca"
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


def _assert_rref_result(system, result):
    """A SAT result's certificate and kernel dimension are the ones
    elimination to RREF under the lowest-unknown pivot rule gives, checked
    against an echelon basis keyed by each vector's lowest bit, whose keys
    are the RREF's pivot columns: the certificate solves every row, is 0 on
    every free unknown, which makes it unique, and leaves n - rank of them.
    An UNSAT result's witness is a sorted set of rows that sum to 0 = 1;
    which of the many such sets solve gives is pinned by digest in the
    callers."""
    basis = {}
    for row in system.rows:
        while row:
            low = row & -row
            if low not in basis:
                basis[low] = row
                break
            row ^= basis[low]
    if result.satisfiable:
        cert = result.certificate
        mask = (cert.global_sign == -1) | sum(
            2 << j for j, e in enumerate(cert.facet_signs) if e == -1
        )
        assert all((mask & row).bit_count() % 2 == b for row, b in zip(system.rows, system.rhs))
        assert mask & ~sum(basis) == 0
        assert result.kernel_dim == system.num_unknowns - len(basis)
        return
    witness = result.witness
    assert witness and list(witness) == sorted(set(witness))
    total = rhs = 0
    for k in witness:
        total ^= system.rows[k]
        rhs ^= system.rhs[k]
    assert (total, rhs) == (0, 1)


def test_solve_matches_gauss_jordan_on_pairs():
    """Seeded random pairs, each also relabelled and basis-changed, and UNSAT
    products, which have many witnesses. Each result is an RREF one, and the
    digest of the whole results, witnesses included, is the value that the
    slot-history elimination and Gauss-Jordan elimination to RREF, its
    reference, both gave before solve became the latter."""
    rng = random.Random(38)
    pairs = [random_valid_pair(rng) for _ in range(120)]
    pairs += [product(cp2_sum(2 * a), cp2_sum(b)) for a in range(1, 4) for b in range(1, 5)]
    pairs += [product(cp2_sum(2 * a), cpn(d)) for a in range(1, 8) for d in (1, 2)]
    digest = hashlib.sha256()
    unsat = 0
    for pair in pairs:
        perm = list(range(pair.polytope.num_facets))
        rng.shuffle(perm)
        relabelled, _ = relabel_facets(pair, perm)
        changed = basis_change(pair, random_unimodular(rng, pair.polytope.dim))
        for other in (pair, relabelled, changed):
            system = build_system(other)
            result = solve(system)
            _assert_rref_result(system, result)
            digest.update(repr(_decision(result)).encode())
            unsat += not result.satisfiable
    assert unsat == 126
    assert digest.hexdigest() == (
        "88307d07b8c5958187b9d664f2c190f689ca08f7330bff906367daf8e8fe58e6"
    )


def _raw_system(rng):
    """A raw system over up to 70 unknowns, with any number of rows. Each
    row is the XOR of a drawn subset of a drawn basis, so the rank is at
    most the basis size; a small basis gives zero and duplicate rows."""
    n = rng.randrange(71)
    basis = [rng.getrandbits(n) for _ in range(rng.randrange(n + 3))]
    rows = []
    for _ in range(rng.randrange(2 * n + 5)):
        pick = rng.getrandbits(len(basis))
        row = 0
        for k, vec in enumerate(basis):
            if pick >> k & 1:
                row ^= vec
        rows.append(row)
    return Gf2System(n, tuple(rows), tuple(rng.randrange(2) for _ in rows))


@settings(deadline=None, max_examples=300)
@given(system=st.randoms(use_true_random=False).map(_raw_system))
@example(system=Gf2System(0, (), ()))
@example(system=Gf2System(3, (), ()))
@example(system=Gf2System(0, (0, 0), (0, 1)))  # no unknowns: row 1 reads 0 = 1
@example(system=Gf2System(3, (0, 0, 0), (0, 0, 0)))  # zero rows only
@example(system=Gf2System(3, (5, 0, 5, 5), (1, 1, 1, 0)))  # a zero row, duplicates
@example(system=Gf2System(2, (1, 2, 3, 3, 1), (1, 0, 1, 1, 1)))  # more rows than unknowns
@example(system=Gf2System(6, (6, 12), (1, 0)))  # fewer rows than unknowns
def test_solve_matches_gauss_jordan_on_raw_systems(system):
    """Each result is an RREF one; test_solve_pinned_on_raw_systems pins the
    witnesses."""
    _assert_rref_result(system, solve(system))


def test_solve_pinned_on_raw_systems():
    """The digest of 400 seeded raw systems' whole results, witnesses
    included, is the value that the slot-history elimination and Gauss-Jordan
    elimination to RREF, its reference, both gave before solve became the
    latter."""
    digest = hashlib.sha256()
    unsat = 0
    rng = random.Random(44)
    for _ in range(400):
        result = solve(_raw_system(rng))
        digest.update(repr(_decision(result)).encode())
        unsat += not result.satisfiable
    assert unsat == 289
    assert digest.hexdigest() == (
        "945b974cfe95b2a97cd3764df960c67c1cfddee495f1546792e1a01b98a2b59e"
    )


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
    spanning tree, like every pair, with no system. Its whole result,
    certificate and witness included, must be solve's, Gauss-Jordan
    elimination to RREF. An UNSAT polygon's rows have one dependency, their
    sum, so the odd-cycle walk's witness, the rule's, is every vertex. The
    draws: cp2_sum(1..40) and two long sums, and random polygon pairs
    (sums, cuts, Hirzebruch surfaces, basis changes), each relabelled so
    that facet m - 1 sits anywhere on the cycle, and each with its own base
    signs and with three random sign vectors in their place."""
    rng = random.Random(40)
    pairs = [cp2_sum(k) for k in range(1, 41)] + [cp2_sum(254), cp2_sum(255)]
    pairs += [random_polygon_pair(rng, max_m=24) for _ in range(150)]
    seen = set()
    unsat = 0
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
                assert result == solve(system)
                if not result.satisfiable:
                    every_vertex = tuple(range(m))
                    assert result.witness == odd_cycle_by_labels(drawn)[1] == every_vertex
                    unsat += 1
                seen.add((m % 2, result.satisfiable))
    assert seen == {(0, False), (0, True), (1, True)}  # an odd polygon is always SAT
    assert unsat >= 300, unsat
    assert all(spots[m] == set(range(1, m // 2 + 1)) for m in range(3, 9))


def test_witness_of_the_smallest_unsat_product():
    """cp2_sum(2) x CP^1, worked by hand. Its vertices are (0, 2, 4),
    (0, 2, 5), (0, 3, 4), (0, 3, 5), (1, 2, 4), ..., (1, 3, 5), with base
    signs 1, 1, -1, -1, 1, 1, 1, 1, and its tree starts 4 <- 0 (exchange
    0 <-> 1), 2 <- 0 (2 <-> 3, signs 1 * -1) and 6 <- 4 (2 <-> 3 again,
    signs 1 * 1). The third edge is the first to break its class's parity.
    The search from facet 2 over the first two reaches facet 3 across the
    second, so the witness is {4, 6} xor {0, 2}."""
    pair = product(cp2_sum(2), cpn(1))
    assert pair.base_signs == (1, 1, -1, -1, 1, 1, 1, 1)
    assert pair.polytope.bfs_tree[:3] == ((4, 0, 0, 0), (2, 0, 1, 1), (6, 4, 1, 1))
    assert _odd_cycle_witness(pair, 2) == (0, 2, 4, 6)
    assert decide_positive(pair) == PositivityResult(False, witness=(0, 2, 4, 6))


def _refuse(*args):
    raise AssertionError("a GF(2) system was built or solved")


def test_decide_positive_builds_no_system(monkeypatch):
    """decide_positive and admits_invariant_acs decide every pair from the
    tree's facet exchanges, so no pair builds or solves a GF(2) system:
    polygons, products and cuts, SAT and UNSAT. A SAT result and an UNSAT
    polygon's are solve's; an UNSAT witness of dim 3 or more comes from the
    tree's odd cycle."""
    cube = product(product(cpn(1), cpn(1)), cpn(1))
    square_line = product(cp2_sum(2), cpn(1))
    pairs = [cpn(2), hirzebruch(1), hirzebruch(-2), cp2_sum(2), cp2_sum(3), cp2_sum(1000)]
    pairs += [cpn(1), cpn(3), cube, vertex_cut(cube, cube.polytope.vertices[0])]
    pairs += [square_line, product(cp2_sum(4), cpn(2)), product(cp2_sum(2), cp2_sum(3))]
    pairs += [vertex_cut(square_line, v) for v in square_line.polytope.vertices[:2]]
    expected = [solve(build_system(pair)) for pair in pairs]
    seen = {(pair.polytope.dim == 2, r.satisfiable) for pair, r in zip(pairs, expected)}
    assert seen == {(True, True), (True, False), (False, True), (False, False)}

    monkeypatch.setattr(positivity, "build_system", _refuse)
    monkeypatch.setattr(positivity, "solve", _refuse)
    for pair, want in zip(pairs, expected):
        result = decide_positive(pair)
        if want.satisfiable or pair.polytope.dim == 2:
            assert result == want
        else:
            assert not result.satisfiable and result.witness == odd_cycle_by_labels(pair)[1]
        assert admits_invariant_acs(pair) == want.satisfiable


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
    facet exchanges of the spanning tree, each pair also with its first base
    sign negated, which makes many UNSAT. A SAT result must be solve's,
    Gauss-Jordan elimination to RREF. An UNSAT one must be UNSAT for solve
    too, pass _verify, and hold the witness of the rule, redone by
    relabelling. decide_positive never builds a system or runs solve. A SAT
    kernel dimension is the number of facet-exchange components, which
    _verify does not check."""
    monkeypatch.setattr(positivity, "build_system", _refuse)
    monkeypatch.setattr(positivity, "solve", _refuse)
    rng = random.Random(42)
    seen = {True: 0, False: 0}
    for pair in _tree_pairs(rng):
        assert pair.polytope.dim >= 3
        negated = (-pair.base_signs[0],) + pair.base_signs[1:]
        for base_signs in (pair.base_signs, negated):
            drawn = CharacteristicPair(pair.polytope, pair.matrix, base_signs)
            expected = solve(build_system(drawn))
            result = decide_positive(drawn)
            if result.satisfiable:
                assert result == expected
                assert result.kernel_dim == _exchange_components(drawn.polytope)
            else:
                assert not expected.satisfiable
                _verify(drawn, result)
                assert result.witness == odd_cycle_by_labels(drawn)[1]
            seen[result.satisfiable] += 1
    assert seen[True] >= 300 and seen[False] >= 300, seen


def test_decide_positive_memory_on_a_tree(monkeypatch):
    """(CP1)^14, 16384 vertices, is decided from its tree's 14 distinct
    facet exchanges, with no system, where solve, with one history bit per
    vertex, peaks at about 18 MiB."""
    pair = cpn(1)
    for _ in range(13):
        pair = product(pair, cpn(1))
    monkeypatch.setattr(positivity, "solve", _refuse)
    tracemalloc.start()
    try:
        result = decide_positive(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.kernel_dim == 14
    assert peak < 2**20
