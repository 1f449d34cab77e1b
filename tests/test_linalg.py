"""Exact integer matrix helpers, against independent products and Bareiss."""

import random

import pytest

from quasitoric.linalg import det_bareiss, inv_unimodular, mat_mul
from support import random_unimodular


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_inv_unimodular_inverts_random_unimodular():
    rng = random.Random(29)
    for n in range(1, 15):
        for _ in range(12):
            a = [list(row) for row in random_unimodular(rng, n, steps=rng.randrange(3 * n + 1))]
            before = [row[:] for row in a]
            inv = inv_unimodular(a)
            assert a == before
            assert mat_mul(a, inv) == _identity(n)
            assert mat_mul(inv, a) == _identity(n)


def test_inv_unimodular_rejects_other_determinants():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        det = det_bareiss(a)
        if det in (1, -1):
            assert mat_mul(a, inv_unimodular(a)) == _identity(n)
        else:
            with pytest.raises(ValueError, match=f"matrix has det {det}, expected"):
                inv_unimodular(a)
    with pytest.raises(ValueError, match="square"):
        inv_unimodular(((1, 0),))
