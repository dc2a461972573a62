"""Exact linear algebra over the Gaussian rationals, on sparse vectors and rows.

A sparse vector, and so a column of a matrix, is the tuple of its (index,
nonzero ``Scalar``) pairs in strictly ascending index: the form that
``Wedge.carry`` reads and ``LinearAlgMap`` and ``dirac.LinearInvolution``
hold.  ``is_columns`` is the one
guard on that form, ``transpose`` turns columns into rows, ``apply`` applies a
matrix given by its columns to a vector, and ``is_involution`` decides S² = I
along the columns.

``rref`` is the one elimination.  It runs over sparse rows, ``{column: nonzero
Scalar}`` dicts or sparse vectors, along their nonzeros: each row in turn is
cleared of the pivots found so far and, if anything is left, scaled to a
leading 1 at its first nonzero column, the new pivot, which is cleared from the
earlier pivot rows.  R is unique, so this is the dense first-nonzero
elimination's result.  ``solve`` takes A and a block of right-hand sides B as
sparse rows, which ``sparse_system`` forms from sparse columns, and answers
sparse, in one elimination of [A | B].  ``nullspace`` and ``inverse`` take
sparse rows and answer sparse vectors: a kernel basis, and the rows of A⁻¹.
As (Aᵀ)⁻¹ = (A⁻¹)ᵀ, ``inverse`` of A's columns is A⁻¹'s columns.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .exactalg import SCALAR_ONE, SCALAR_ZERO, Scalar

Row = dict[int, Scalar]  # a sparse row: {column: nonzero}
Vector = tuple[tuple[int, Scalar], ...]  # a sparse vector: its (index, nonzero) pairs, ascending


def is_columns(columns: Sequence[Vector], nrows: int) -> bool:
    """Whether each column is (index in range(nrows), nonzero) pairs in strictly ascending index."""
    return all(all(0 <= i < nrows and c for i, c in column) and all(a < b for (a, _), (b, _) in zip(column, column[1:]))
               for column in columns)


def transpose(columns: Sequence[Vector], nrows: int) -> list[Vector]:
    """The rows of the nrows-row matrix with these columns, as sparse vectors: row i holds the
    pairs (j, c) of the columns j with the entry c at i, in ascending j."""
    rows: list[list] = [[] for _ in range(nrows)]
    for j, column in enumerate(columns):
        for i, c in column:
            rows[i].append((j, c))
    return [tuple(row) for row in rows]


def apply(columns: Sequence[Vector], vector) -> Row:
    """The image of the vector with nonzero entries (index, coefficient) ``vector`` under the matrix with
    these columns, as {index: nonzero}."""
    out: Row = {}
    for j, cj in vector:
        for i, mij in columns[j]:
            out[i] = out.get(i, SCALAR_ZERO) + cj * mij
    return {i: c for i, c in out.items() if c}


def is_involution(columns: Sequence[Vector]) -> bool:
    """Whether the square matrix with these columns squares to the identity: S (S e_j) = e_j for every j."""
    return all(apply(columns, column) == {j: SCALAR_ONE} for j, column in enumerate(columns))


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


def nullspace(rows: Sequence, ncols: int) -> list[Vector]:
    """A kernel basis of the matrix with sparse rows ``rows`` and ``ncols`` columns, one vector per free column j:
    1 at j and, at each pivot column, minus R's entry in column j."""
    r, pivots = rref(rows)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = {j: SCALAR_ONE, **{col: -row[j] for col, row in zip(pivots, r) if j in row}}
        basis.append(tuple(sorted(v.items())))
    return basis


def inverse(rows: Sequence) -> list[Vector] | None:
    """The rows of A⁻¹, as sparse vectors, for the n sparse rows of a square A, their indices in range(n);
    None if A is singular."""
    n = len(rows)
    r, pivots = rref([{**dict(row), n + i: SCALAR_ONE} for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    return [tuple(sorted((j - n, v) for j, v in row.items() if j >= n)) for row in r]
