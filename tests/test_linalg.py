"""Exact integer matrix helpers, against independent products and Bareiss."""

import random

import pytest

from quasitoric.linalg import columns, det_and_inverse, det_and_reduce, det_bareiss, mat_mul
from support import mat_mul_by_loops, random_unimodular


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_det_and_inverse_inverts_random_unimodular():
    rng = random.Random(29)
    for n in range(1, 15):
        for _ in range(12):
            a = [list(row) for row in random_unimodular(rng, n, steps=rng.randrange(3 * n + 1))]
            before = [row[:] for row in a]
            det, inv = det_and_inverse(a)
            assert a == before
            assert det in (1, -1)
            assert mat_mul(a, inv) == _identity(n)
            assert mat_mul(inv, a) == _identity(n)


def test_det_and_inverse_gives_no_inverse_for_other_determinants():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        det, inv = det_and_inverse(a)
        assert det == det_bareiss(a)
        if det in (1, -1):
            assert mat_mul(a, inv) == _identity(n)
        else:
            assert inv is None
    with pytest.raises(ValueError, match="square"):
        det_and_inverse(((1, 0),))


def _random_matrix(rng, rows, cols, entries):
    return tuple(tuple(rng.choice(entries) for _ in range(cols)) for _ in range(rows))


def test_mat_mul_matches_the_triple_loop():
    """1x1, inner dimension 0, sparse unimodular, dense, negative and huge
    entries: the zero-skipping product equals the textbook one, as tuples of
    tuples even from lists."""
    rng = random.Random(47)
    cases = [(((0,),), ((5,),)), (((-3,),), ((10**40,),)), (((), ()), ()), ((), ((1, 2),))]
    cases.append(([[1, 0], [2, 1]], [[1, 2], [3, 4]]))
    for n in range(1, 25):
        cases.append((random_unimodular(rng, n, steps=2 * n), random_unimodular(rng, n, steps=n)))
    for _ in range(200):
        r, k, c = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 9)
        entries = rng.choice([(-1, 0, 1), range(-9, 10), (0, 0, 0, 2, -10**40, 10**40)])
        cases.append((_random_matrix(rng, r, k, entries), _random_matrix(rng, k, c, entries)))
    for a, b in cases:
        assert mat_mul(a, b) == mat_mul_by_loops(a, b)


def test_mat_mul_refuses_incompatible_shapes():
    """A row of the left factor that is not as long as the right factor is
    high, or a ragged right factor (which the row sums would otherwise
    silently cut to its shortest row)."""
    for a, b in [
        (((1, 2),), ((1, 0),)),
        (((1,), (1, 2)), ((1, 0),)),
        (((1, 1),), ((1, 0), (0,))),
        (((1, 1),), ((1,), (0, 1))),
    ]:
        with pytest.raises(ValueError, match="^incompatible shapes$"):
            mat_mul(a, b)


def test_det_and_inverse_matches_bareiss():
    """Random, singular and huge-entry matrices, then ones whose pivots are led
    by minus the previous pivot: -I, negated permutation matrices and
    unimodular matrices with rows negated."""
    rng = random.Random(37)
    for _ in range(400):
        n = rng.randint(0, 7)
        kind = rng.random()
        if kind < 0.3:
            a = [list(row) for row in random_unimodular(rng, n, steps=3 * n)]
        else:
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if n > 1 and kind < 0.6:
                a[0] = list(a[-1])  # singular
            elif n and kind < 0.8:
                a[rng.randrange(n)][rng.randrange(n)] = 10**40
        _check_against_bareiss(a)
    for n in range(1, 8):
        _check_against_bareiss([[-x for x in row] for row in _identity(n)])
        for _ in range(10):
            perm = rng.sample(range(n), n)
            _check_against_bareiss([[-int(j == perm[i]) for j in range(n)] for i in range(n)])
            a = [list(row) for row in random_unimodular(rng, n, steps=3 * n)]
            _check_against_bareiss([[-x for x in row] if rng.random() < 0.5 else row for row in a])


def _check_against_bareiss(a):
    before = [row[:] for row in a]
    det, inv = det_and_inverse(a)
    assert a == before
    assert det == det_bareiss(a)
    if det in (1, -1):
        assert mat_mul(a, inv) == _identity(len(a))
    else:
        assert inv is None
    return det


def test_det_and_inverse_on_large_sparse_unimodular():
    """The shape of a basis-changed cpn(n) root: large, sparse, small entries,
    so most pivots equal the previous one and rows update in place."""
    rng = random.Random(41)
    for n in range(20, 61, 4):
        for _ in range(3):
            a = [list(row) for row in random_unimodular(rng, n, steps=rng.randint(n, 2 * n))]
            assert _check_against_bareiss(a) in (1, -1)


def test_det_and_inverse_with_a_repeated_pivot_beyond_one():
    """One row (or column) scaled by d: once it is a pivot, the pivots are
    +-d, so a pivot equals the previous one with |p| > 1 and the in-place
    update divides by p. Some draws are made singular."""
    rng = random.Random(43)
    singular = 0
    for _ in range(60):
        n = rng.randint(3, 24)
        a = [list(row) for row in random_unimodular(rng, n, steps=rng.randint(n, 2 * n))]
        d = rng.choice([2, 3, -2, 6, 10**20])
        i = rng.randrange(n)
        if rng.random() < 0.5:
            a[i] = [d * x for x in a[i]]
        else:
            for row in a:
                row[i] *= d
        if rng.random() < 0.3:
            j = rng.choice([r for r in range(n) if r != i])
            a[j] = [rng.choice([-2, 1, 3]) * x for x in a[i]]  # singular
        det = _check_against_bareiss(a)
        singular += det == 0
    assert singular


def test_det_and_reduce_matches_bareiss_on_any_basis():
    """Random k x m matrices and random bases (distinct columns in random
    order, or a repeated column): det is Bareiss's det of those columns, and
    when it is +-1 the reduced rows times those columns give the matrix back
    and hold the identity in the basis columns. Half the draws are U times
    a matrix with the identity in the basis columns, so unimodular; some have
    a row negated, a row scaled or a 10**40 entry."""
    rng = random.Random(71)
    unimodular = 0
    for _ in range(600):
        k = rng.randint(0, 7)
        m = rng.randint(k, 2 * k + 3)
        basis = rng.sample(range(m), k)
        if k > 1 and rng.random() < 0.1:
            basis[0] = basis[-1]  # a repeated column: det 0
        entries = rng.choice([(-1, 0, 1), range(-3, 4), (0, 0, 0, 1, -1, 2)])
        a = [[rng.choice(entries) for _ in range(m)] for _ in range(k)]
        kind = rng.random()
        if kind < 0.5:
            for i, j in enumerate(basis):
                for r in range(k):
                    a[r][j] = int(r == i)
            if k:
                a = [list(row) for row in mat_mul(random_unimodular(rng, k, steps=3 * k), a)]
            if k and kind < 0.2:
                r = rng.randrange(k)
                a[r] = [-x for x in a[r]]
        elif k and kind < 0.6:
            r = rng.randrange(k)
            a[r] = [rng.choice([2, -3]) * x for x in a[r]]
        elif k and kind < 0.7:
            a[rng.randrange(k)][rng.randrange(m)] = 10**40
        before = [row[:] for row in a]
        det, reduced = det_and_reduce(a, basis)
        assert a == before
        assert det == det_bareiss(columns(a, basis))
        if det in (1, -1):
            unimodular += 1
            assert mat_mul_by_loops(columns(a, basis), reduced) == tuple(map(tuple, a))
            assert columns(reduced, basis) == _identity(k)
        else:
            assert reduced is None
    assert 200 < unimodular < 500
    with pytest.raises(ValueError, match="one column per row"):
        det_and_reduce(((1, 0),), (0, 1))
