"""Exact linear algebra over the Gaussian rationals.

``rref`` is the one elimination.  It runs over sparse rows, ``{column: nonzero
Scalar}`` dicts, along their nonzeros: each row in turn is cleared of the
pivots found so far and, if anything is left, scaled to a leading 1 at its
first nonzero column, the new pivot, which is cleared from the earlier pivot
rows.  R is unique, so this is the dense first-nonzero elimination's result.
``solve`` takes A and a block of right-hand sides B as sparse rows, which
``sparse_system`` forms from sparse columns, and answers sparse, in one
elimination of [A | B].  ``nullspace`` and ``inverse`` read dense matrices
(lists of rows of ``Scalar``) into it and their answers back out.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .exactalg import SCALAR_ONE, SCALAR_ZERO, Scalar

Matrix = list[list[Scalar]]
Row = dict[int, Scalar]  # a sparse row: {column: nonzero}


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


def _sparse(row: Sequence) -> Row:
    return {j: Scalar.coerce(v) for j, v in enumerate(row) if v}


def _clear(row: Row, col: int, pivot: Row) -> None:
    """row -= row[col] * pivot in place, along the nonzeros of pivot, which holds a 1 at col."""
    neg = -row[col]
    for j, y in pivot.items():
        v = row[j] + neg * y if j in row else neg * y
        if v:
            row[j] = v
        else:
            del row[j]


def rref(rows: Sequence[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows: (the nonzero rows of R, their pivot columns, ascending)."""
    reduced: dict[int, Row] = {}  # pivot column -> its row: 1 there, 0 in every other pivot column
    for row in rows:
        row = dict(row)
        for col in [c for c in row if c in reduced]:
            _clear(row, col, reduced[col])
        if not row:
            continue
        lead = min(row)
        if row[lead] != SCALAR_ONE:
            inv = SCALAR_ONE / row[lead]
            row = {j: v * inv for j, v in row.items()}
        for other in reduced.values():
            if lead in other:
                _clear(other, lead, row)
        reduced[lead] = row
    pivots = sorted(reduced)
    return [reduced[col] for col in pivots], pivots


def sparse_system(a_columns: Sequence[Mapping], b_columns: Sequence[Mapping]) -> tuple[list[Row], list[Row]]:
    """The sparse rows of A and of B, from their columns given as {row key: nonzero}, in sorted key order."""
    rows: dict = {}
    for part, columns in enumerate((a_columns, b_columns)):
        for k, column in enumerate(columns):
            for key, v in column.items():
                rows.setdefault(key, ({}, {}))[part][k] = v
    keys = sorted(rows)
    return [rows[key][0] for key in keys], [rows[key][1] for key in keys]


def solve(a: Sequence[Row], b: Sequence[Row]) -> dict[int, Row] | None:
    """One exact solution X of A X = B, or None if inconsistent.

    A and B are lists of sparse rows, row i of B the right-hand sides of row i
    of A (``sparse_system`` forms them from sparse columns).  One elimination
    of [A | B] serves every column of B, and the result is None as soon as any
    one column is inconsistent.  X is {unknown: {column of B: nonzero}} over
    the pivot unknowns in ascending order; the free unknowns are zero, so the
    result is deterministic.
    """
    if len(a) != len(b):
        raise ValueError("right-hand side has wrong length")
    ncols = 1 + max((max(row) for row in a if row), default=-1)
    r, pivots = rref([{**row, **{ncols + p: v for p, v in extra.items()}} for row, extra in zip(a, b)])
    if pivots and pivots[-1] >= ncols:  # a zero row of A with a nonzero right-hand side
        return None
    return {col: {j - ncols: v for j, v in row.items() if j >= ncols} for col, row in zip(pivots, r)}


def nullspace(a: Matrix) -> list[list[Scalar]]:
    """Basis of the kernel of A, one vector per free column."""
    if not a:
        return []
    ncols = len(a[0])
    r, pivots = rref([_sparse(row) for row in a])
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [SCALAR_ZERO] * ncols
        v[j] = SCALAR_ONE
        for col, row in zip(pivots, r):
            if j in row:
                v[col] = -row[j]
        basis.append(v)
    return basis


def inverse(a: Matrix) -> Matrix | None:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    r, pivots = rref([{**_sparse(row), n + i: SCALAR_ONE} for i, row in enumerate(a)])
    return [[row.get(n + j, SCALAR_ZERO) for j in range(n)] for row in r] if pivots == list(range(n)) else None
