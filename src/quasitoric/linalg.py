"""Small exact integer matrix helpers.

All matrices are tuples of row tuples of Python ints, so every result is exact
regardless of entry size; nothing here uses fractions or floats. The sizes
are small (n is the polytope dimension), but validation runs these
eliminations at the root of its basis-exchange walk and wherever the walk
restarts, on every input, so their inner loops are kept lean.
``det_and_reduce`` is fraction-free Gauss-Jordan on the rows of a k x m
matrix, pivoting in k given columns (those of a square submatrix A), that
skips the work that is provably zero: those matrices are sparse (a
basis-changed cpn(54) root has 170 nonzeros of 2916), and with a pivot equal
to the previous one a row is touched only where it meets the pivot row's
nonzeros. ``mat_mul`` skips zero entries too, and adds whole scaled rows at
a time.

Every elimination the library runs (a vertex's lambda_v at the root of
validation's walk and where it restarts, a basis change) is one
``det_and_reduce`` call, which also leaves A^-1 times the matrix;
``det_and_inverse`` is that call on [A | I]. The other determinants need
no elimination: a polygon's vertex determinants are its 2 x 2 minors,
which validation writes down without a walk, the walk's exchange steps read
one pivot entry, ``connected_sum_4d`` takes its 2 x 2 corner determinant in
closed form, and ``product`` and ``relabel_facets`` derive their base signs
from their inputs'. ``det_bareiss`` is the independent oracle the tests
check them against.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul, neg


def det_bareiss(matrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination.

    The library runs its eliminations through ``det_and_reduce``; this dense
    O(k^3) elimination is the tests' independent oracle for them.
    """
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
    """Product of two integer matrices as nested tuples.

    Row i of the product is the sum of the rows of b scaled by the nonzero
    entries of row i of a: zero entries are skipped, and each row is scaled
    and added in C-level ``map`` calls, not entry by entry. ValueError
    ("incompatible shapes") when a row of a is not as long as b or b is
    ragged.
    """
    inner = len(b)
    cols = len(b[0]) if inner else 0
    if any(len(row) != inner for row in a) or any(len(row) != cols for row in b):
        raise ValueError("incompatible shapes")
    zero = (0,) * cols
    out = []
    for row in a:
        acc = zero
        for x, brow in zip(row, b):
            if x:
                term = tuple(brow) if x == 1 else tuple(map(mul, repeat(x), brow))
                acc = term if acc is zero else tuple(map(add, acc, term))
        out.append(acc)
    return tuple(out)


def det_and_reduce(matrix, basis):
    """Determinant of A, the square submatrix of a k x m integer matrix formed
    by the columns in ``basis`` (in that order), and, when it is +-1, the
    reduced rows A^-1 * matrix (None otherwise), from one elimination.

    Fraction-free Gauss-Jordan on the k rows, pivoting in column basis[c] at
    step c: every division is exact, and the elimination ends at
    d * A^-1 * matrix, where d, the last pivot, is det A up to the sign of the
    row swaps. The reduced rows, a new list of k row lists, are that times d
    when d = +-1; their columns in ``basis`` form the identity.

    Each row r becomes (p*y - x*z) / prev entry by entry, where p is the
    pivot, x the row's entry in the pivot column and z the pivot row's entry.
    When p == prev that division is by p, and p divides x*z because the
    quotient is an integer, so the entry is y - x*z // p exactly: a row with
    x = 0 is left as it is, and any other row changes only where the pivot
    row is nonzero, so it is updated there in place. The next pivot is
    therefore a row led by prev, else a row led by -prev, else any nonzero
    lead. A row led by -prev is negated and the sign flips: that is
    elimination on DA and D * matrix, for D the diagonal matrix negating the
    row, and it still ends at A^-1 * matrix because (DA)^-1 D = A^-1. Any
    nonzero pivot gives the same determinant and reduced rows, which are
    unique.
    """
    k = len(matrix)
    if len(basis) != k:
        raise ValueError("the basis needs one column per row")
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for c, col in enumerate(basis):
        if a[c][col] != prev:  # prefer a row led by prev, then by -prev, then any nonzero lead
            for r in range(c + 1, k):
                if a[r][col] == prev:
                    break
            else:
                for r in range(c, k):
                    if a[r][col] == -prev:  # negated, it is led by prev
                        a[r] = [-x for x in a[r]]
                        sign = -sign
                        break
                else:
                    r = c
                    if a[c][col] == 0:
                        for r in range(c + 1, k):
                            if a[r][col] != 0:
                                break
                        else:
                            return 0, None
            if r != c:
                a[c], a[r] = a[r], a[c]
                sign = -sign
        pivot = a[c]
        p = pivot[col]
        support = [(i, z) for i, z in enumerate(pivot) if z] if p == prev else None
        for r in range(k):
            if r == c:
                continue
            row = a[r]
            x = row[col]
            if support is not None:  # y - x * z // p, only where z != 0
                if x:
                    for i, z in support:
                        row[i] -= x * z // p
            else:
                # stays integral: Sylvester's identity, as in Bareiss
                a[r] = [(p * y - x * z) // prev for y, z in zip(row, pivot)]
        prev = p
    if prev not in (1, -1):
        return sign * prev, None
    if prev == -1:
        return -sign, [list(map(neg, row)) for row in a]
    return sign, a


def det_and_inverse(matrix):
    """Determinant of a square integer matrix and, when it is +-1, its integer
    inverse (None otherwise): ``det_and_reduce`` on [A | I], pivoting in the
    columns of A, whose reduced rows are [I | A^-1].
    """
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        raise ValueError("inverse needs a square matrix")
    unit = (0,) * k
    det, reduced = det_and_reduce(
        [(*row, *unit[:i], 1, *unit[i + 1:]) for i, row in enumerate(matrix)], range(k)
    )
    return det, None if reduced is None else tuple(tuple(row[k:]) for row in reduced)


def columns(matrix, indices):
    """Square submatrix formed from the given columns, in the given order."""
    return tuple(tuple(row[j] for j in indices) for row in matrix)
