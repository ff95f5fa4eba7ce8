"""Dense exact linear algebra over Fraction.  Matrices are lists of rows.

Only meant for the tiny systems that show up here (n <= 10 or so).
"""

from fractions import Fraction


def identity_matrix(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_vec(a, v):
    return tuple(sum((aij * vj for aij, vj in zip(row, v)), Fraction(0)) for row in a)


def mat_inv(a):
    """Exact inverse by Gauss-Jordan elimination on [a | I]; each row
    update runs over the nonzero entries of the pivot row only."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inversion needs a square matrix")
    work = [[Fraction(x) for x in row] + unit
            for row, unit in zip(a, identity_matrix(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        if pv != 1:
            work[col] = [x / pv for x in work[col]]
        nonzero = [(i, y) for i, y in enumerate(work[col]) if y]
        for r, row in enumerate(work):
            f = row[col]
            if r != col and f:
                for i, y in nonzero:
                    row[i] -= f * y
    return [row[n:] for row in work]
