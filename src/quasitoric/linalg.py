"""Small exact integer matrix helpers.

All matrices are tuples of row tuples of Python ints, so every result is exact
regardless of entry size. Sizes here are tiny (n is the polytope dimension),
correctness and exactness matter, speed does not.
"""

from __future__ import annotations


def det_bareiss(matrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination."""
    a = [list(row) for row in matrix]
    k = len(a)
    if k == 0:
        return 1
    if any(len(row) != k for row in a):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for c in range(k - 1):
        if a[c][c] == 0:
            for r in range(c + 1, k):
                if a[r][c] != 0:
                    a[c], a[r] = a[r], a[c]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(c + 1, k):
            for cc in range(c + 1, k):
                # stays integral: classic Bareiss identity
                a[r][cc] = (a[r][cc] * a[c][c] - a[r][c] * a[c][cc]) // prev
            a[r][c] = 0
        prev = a[c][c]
    return sign * a[k - 1][k - 1]


def mat_mul(a, b):
    """Product of two integer matrices as nested tuples."""
    rows_a = len(a)
    inner = len(b)
    cols_b = len(b[0]) if inner else 0
    if any(len(row) != inner for row in a):
        raise ValueError("incompatible shapes")
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols_b))
        for i in range(rows_a)
    )


def inv_unimodular_2x2(a):
    """Inverse of an integer 2x2 matrix with det +-1 (stays integral)."""
    (p, q), (r, s) = a
    det = p * s - q * r
    if det not in (1, -1):
        raise ValueError(f"matrix has det {det}, expected +-1")
    return ((s * det, -q * det), (-r * det, p * det))


def perm_parity(seq) -> int:
    """Sign (+1/-1) of the permutation that sorts seq ascending."""
    items = list(seq)
    sign = 1
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[j] < items[i]:
                sign = -sign
    return sign


def columns(matrix, indices):
    """Square submatrix formed from the given columns, in the given order."""
    return tuple(tuple(row[j] for j in indices) for row in matrix)
