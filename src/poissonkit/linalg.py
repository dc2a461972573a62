"""Exact dense linear algebra over the Gaussian rationals.

Matrices are lists of rows of ``Scalar``.  Everything here is plain Gaussian
elimination with exact division; sizes in this package stay small (at most a
few dozen rows), so no pivoting strategy beyond "first nonzero" is needed.
Row operations touch only the nonzero entries of the pivot row.  ``solve``
takes a vector or, like ``numpy.linalg.solve``, a matrix of right-hand-side
columns, which it solves with a single elimination.
"""

from __future__ import annotations

from typing import Sequence

from .exactalg import SCALAR_ONE, SCALAR_ZERO, Scalar

Matrix = list[list[Scalar]]


def identity(n: int) -> Matrix:
    return [[SCALAR_ONE if i == j else SCALAR_ZERO for j in range(n)] for i in range(n)]


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[SCALAR_ZERO] * ncols for _ in range(nrows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    out = zeros(len(a), len(b[0]))
    for i, row in enumerate(a):
        for k, aik in enumerate(row):
            if aik.is_zero():
                continue
            brow = b[k]
            orow = out[i]
            for j, bkj in enumerate(brow):
                orow[j] = orow[j] + aik * bkj
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c) -> Matrix:
    c = Scalar.coerce(c)
    return [[c * x for x in row] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    r = [row[:] for row in a]
    nrows = len(r)
    ncols = len(r[0]) if nrows else 0
    pivots: list[int] = []
    lead = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(lead, nrows) if not r[i][col].is_zero()), None)
        if pivot_row is None:
            continue
        r[lead], r[pivot_row] = r[pivot_row], r[lead]
        inv = SCALAR_ONE / r[lead][col]
        r[lead] = [x * inv for x in r[lead]]
        # eliminate along the nonzero entries of the pivot row only
        support = [(j, y) for j, y in enumerate(r[lead]) if not y.is_zero()]
        for i in range(nrows):
            if i != lead and not r[i][col].is_zero():
                factor = r[i][col]
                row = r[i][:]
                for j, y in support:
                    row[j] = row[j] - factor * y
                r[i] = row
        pivots.append(col)
        lead += 1
        if lead == nrows:
            break
    return r, pivots


def solve(a: Matrix, b: Sequence) -> list | None:
    """One exact solution of A X = B, or None if inconsistent.

    As in ``numpy.linalg.solve``, B is either a vector or a matrix (list of
    rows) whose columns are right-hand sides, and X is a vector or a matrix
    to match; one elimination of [A | B] serves every column.  With a matrix
    B the result is None as soon as any one column is inconsistent.  Free
    variables are set to zero, so the result is deterministic.
    """
    if len(a) != len(b):
        raise ValueError("right-hand side has wrong length")
    ncols = len(a[0]) if a else 0
    columns = bool(b) and isinstance(b[0], (list, tuple))
    rhs = [[Scalar.coerce(v) for v in row] for row in b] if columns else [[Scalar.coerce(v)] for v in b]
    aug = [row[:] + extra for row, extra in zip(a, rhs)]
    r, pivots = rref(aug)
    if pivots and pivots[-1] >= ncols:  # a zero row of A with a nonzero right-hand side
        return None
    nrhs = len(rhs[0]) if rhs else 1
    x = [[SCALAR_ZERO] * nrhs for _ in range(ncols)]
    for i, col in enumerate(pivots):
        x[col] = r[i][ncols:]
    return x if columns else [row[0] for row in x]


def nullspace(a: Matrix) -> list[list[Scalar]]:
    """Basis of the kernel of A, one vector per free column."""
    if not a:
        return []
    ncols = len(a[0])
    r, pivots = rref(a)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [SCALAR_ZERO] * ncols
        v[j] = SCALAR_ONE
        for i, col in enumerate(pivots):
            v[col] = -r[i][j]
        basis.append(v)
    return basis


def inverse(a: Matrix) -> Matrix | None:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    aug = [row[:] + ident_row[:] for row, ident_row in zip(a, identity(n))]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in r]
