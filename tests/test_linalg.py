"""Exact elimination: the sparse kernel rref, the sparse solve (one or many right-hand sides)
and the sparse nullspace and inverse, against the dense reference elimination of conftest; and the
column routines transpose, apply and is_involution, against dense products."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (densify, identity, mat, mat_mul, mat_vec, rank, reference_inverse, reference_nullspace,
                      reference_rref, reference_solve, sparse_columns, sparse_rows, transpose)
from poissonkit import linalg
from poissonkit.exactalg import SCALAR_ZERO, Scalar


def _column(b, p):
    return [row[p] for row in b]


def _nullspace(a):
    """``linalg.nullspace`` of a dense A, its sparse vectors read back as dense ones: ``reference_nullspace``'s form."""
    ncols = len(a[0]) if a else 0
    basis = linalg.nullspace(sparse_rows(a), ncols)
    assert linalg.is_columns(basis, ncols)
    return densify(basis, ncols)


def _inverse(a):
    """``linalg.inverse`` of a dense square A, its sparse rows read back as dense ones, or None."""
    inv = linalg.inverse(sparse_rows(a))
    assert inv is None or linalg.is_columns(inv, len(a))
    return None if inv is None else densify(inv, len(a))


def _dense(rows, nrows, ncols):
    """Sparse rows as a dense matrix of nrows rows, zero rows below them."""
    return [[row.get(j, SCALAR_ZERO) for j in range(ncols)] for row in rows] + [[SCALAR_ZERO] * ncols
                                                                                 for _ in range(nrows - len(rows))]


def _solve(a, b):
    """``linalg.solve`` on a dense A and a dense vector or matrix B, its sparse answer read back in B's
    shape over every unknown, the free ones zero: ``reference_solve``'s form."""
    vector = not (b and isinstance(b[0], (list, tuple)))
    columns = mat([[v] for v in b] if vector else b)
    x = linalg.solve(sparse_rows(mat(a)), sparse_rows(columns))
    if x is None:
        return None
    nrhs = 1 if vector else len(b[0]) if b else 0
    dense = [[x.get(k, {}).get(p, SCALAR_ZERO) for p in range(nrhs)] for k in range(len(a[0]) if a else 0)]
    return [row[0] for row in dense] if vector else dense


small = st.integers(-2, 2).map(Scalar)
# Gaussian rationals with small parts, zero often enough that rank-deficient matrices are common
gaussian = st.builds(lambda p, q, im: Scalar(Fraction(p, q), im),
                     st.integers(-2, 2), st.sampled_from([1, 2, 3]), st.sampled_from([0, 0, 1, -1, Fraction(1, 2)]))


def matrices(entries, nrows, ncols):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


@st.composite
def systems(draw, entries=small):
    """A small A (often rank deficient) and a matrix B of right-hand sides."""
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    nrhs = draw(st.integers(1, 4))
    a = draw(matrices(entries, nrows, ncols))
    # mix columns in the span of A (consistent) with arbitrary ones
    b = [[None] * nrhs for _ in range(nrows)]
    for p in range(nrhs):
        if draw(st.booleans()):
            x = draw(st.lists(entries, min_size=ncols, max_size=ncols))
            col = mat_vec(a, x)
        else:
            col = draw(st.lists(entries, min_size=nrows, max_size=nrows))
        for i in range(nrows):
            b[i][p] = col[i]
    return a, b


@settings(max_examples=150, deadline=None)
@given(systems())
def test_matrix_rhs_agrees_with_column_by_column(system):
    _check_matrix_rhs(system)


@settings(max_examples=30, deadline=None)
@given(systems(gaussian))
def test_gaussian_rational_matrix_rhs_agrees_with_column_by_column(system):
    _check_matrix_rhs(system)


def _check_matrix_rhs(system):
    a, b = system
    nrhs = len(b[0])
    columns = [_solve(a, _column(b, p)) for p in range(nrhs)]
    x = _solve(a, b)
    if any(col is None for col in columns):
        assert x is None
        return
    assert x is not None and len(x) == len(a[0])
    assert [_column(x, p) for p in range(nrhs)] == columns
    assert mat_mul(a, x) == b


def test_one_inconsistent_column_fails_the_whole_solve():
    a = mat([[1, 0], [0, 1], [1, 1]])
    good = [[1, 2], [3, 4], [4, 6]]
    assert _solve(a, good) == mat([[1, 2], [3, 4]])
    for p in range(2):
        bad = [row[:] for row in good]
        bad[2][p] += 1
        assert _solve(a, bad) is None
        assert _solve(a, _column(bad, 1 - p)) is not None


def test_vector_rhs_keeps_its_shape():
    # one right-hand side is one column of the sparse answer, column 0
    a = mat([[2, 0], [0, 4]])
    assert linalg.solve(sparse_rows(a), sparse_rows(mat([[1], [1]]))) == {0: {0: Scalar(Fraction(1, 2))},
                                                                  1: {0: Scalar(Fraction(1, 4))}}
    assert _solve(a, [1, 1]) == [Scalar(Fraction(1, 2)), Scalar(Fraction(1, 4))]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: matrices(gaussian, n, n)))
def test_inverse_is_exact_exactly_when_invertible(a):
    n = len(a)
    inv = _inverse(a)
    assert (inv is None) == (rank(a) < n)
    if inv is not None:
        assert mat_mul(inv, a) == identity(n)
        assert mat_mul(a, inv) == identity(n)


@settings(max_examples=30, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda shape: matrices(gaussian, *shape)))
def test_rref_is_idempotent_and_keeps_rank_and_row_space(a):
    r, pivots = linalg.rref(sparse_rows(a))
    assert linalg.rref(r) == (r, pivots)
    assert all(row and all(row.values()) for row in r)  # the nonzero rows, nonzeros only
    dense = _dense(r, len(a), len(a[0]))
    npivots = len(pivots)
    assert npivots == len(r) == rank(a) == rank(dense)
    # the rows of R lie in the row space of A and span a space of the same dimension
    assert rank(a + dense) == npivots
    for i, col in enumerate(pivots):
        assert [row[col] for row in dense] == [Scalar(int(k == i)) for k in range(len(a))]


@st.composite
def degenerate_systems(draw):
    """Gaussian-rational A and B, often rank deficient, with zero rows and zero columns; 1 x 1 and empty too."""
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 5)) if nrows else 0
    a = draw(matrices(gaussian, nrows, ncols))
    for i in draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2)) if nrows else ():
        a[i] = [Scalar(0)] * ncols  # a zero row
    for j in draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2)) if ncols else ():
        for row in a:
            row[j] = Scalar(0)  # a zero column
    if nrows >= 2 and draw(st.booleans()):  # a row that is a combination of two others
        i, k, l = draw(st.lists(st.integers(0, nrows - 1), min_size=3, max_size=3))
        c = draw(gaussian)
        a[i] = [x + c * y for x, y in zip(a[k], a[l])]
    nrhs = draw(st.integers(1, 3))
    b = [[None] * nrhs for _ in range(nrows)]
    for p in range(nrhs):
        if draw(st.booleans()):
            col = mat_vec(a, draw(st.lists(gaussian, min_size=ncols, max_size=ncols)))
        else:
            col = draw(st.lists(gaussian, min_size=nrows, max_size=nrows))
        for i in range(nrows):
            b[i][p] = col[i]
    return a, b


@settings(max_examples=200, deadline=None)
@given(degenerate_systems())
def test_sparse_elimination_equals_the_dense_reference(system):
    # the same pivots and R, the same solution with free variables zero, the same None for an
    # inconsistent column, the same kernel basis and the same inverse
    a, b = system
    nrows, ncols = len(a), len(a[0]) if a else 0
    r, pivots = linalg.rref(sparse_rows(a))
    assert (_dense(r, nrows, ncols), pivots) == reference_rref(a)
    assert _solve(a, b) == reference_solve(a, b)
    for p in range(len(b[0]) if b else 0):
        assert _solve(a, _column(b, p)) == reference_solve(a, _column(b, p))
    x, want = linalg.solve(sparse_rows(a), sparse_rows(b)), reference_solve(a, b)
    assert (x is None) == (want is None)
    if x is not None:  # the sparse answer: the nonzero entries of the dense one, by pivot unknown
        assert list(x) == sorted(x)
        assert {k: row for k, row in enumerate(sparse_rows(want)) if row} == {k: row for k, row in x.items() if row}
    assert _nullspace(a) == reference_nullspace(a)
    k = min(nrows, ncols)
    square = [row[:k] for row in a[:k]]
    assert _inverse(square) == reference_inverse(square)


@settings(max_examples=100, deadline=None)
@given(degenerate_systems())
def test_nullspace_is_a_basis_of_the_kernel(system):
    a, _ = system
    if not a:
        return
    ncols = len(a[0])
    basis = _nullspace(a)
    assert all(mat_vec(a, v) == [Scalar(0)] * len(a) for v in basis)
    assert len(basis) == ncols - rank(a)
    assert rank(basis) == len(basis)  # independent


def test_empty_and_one_by_one_shapes():
    assert linalg.rref([]) == ([], [])
    assert linalg.solve([], []) == {} and linalg.nullspace([], 0) == [] and linalg.inverse([]) == []
    # a system with rows but no nonzero entry, as a slice whose images and right-hand sides all vanish forms
    assert linalg.rref([{}, {}]) == ([], []) and linalg.solve([{}, {}], [{}, {}]) == {}
    assert linalg.solve([{}], [{0: Scalar(1)}]) is None
    assert linalg.solve(sparse_rows(mat([[2]])), sparse_rows(mat([[3]]))) == {0: {0: Scalar(Fraction(3, 2))}}
    assert _solve([[]], [1]) is None and _solve([[], []], [[0], [0]]) == []
    assert _solve(mat([[0]]), [0]) == mat([[0]])[0] and _solve(mat([[0]]), [3]) is None
    assert _nullspace(mat([[0]])) == mat([[1]]) and _inverse(mat([[0]])) is None
    assert _inverse(mat([[2]])) == [[Scalar(Fraction(1, 2))]]
    # the sparse answers themselves: (index, nonzero) pairs; a kernel with no rows at all is every unit vector
    one = Scalar(1)
    assert linalg.nullspace([{}], 1) == [((0, one),)] and linalg.nullspace([], 2) == [((0, one),), ((1, one),)]
    assert linalg.inverse([{0: Scalar(2)}]) == [((0, Scalar(Fraction(1, 2))),)] and linalg.inverse([{}]) is None


@pytest.mark.parametrize("a, r, pivots", [
    pytest.param([[1, 1], [0, 1]], [[1, 0], [0, 1]], [0, 1], id="back-substitution"),
    pytest.param([[0, 2, 4], [1, 1, 1], [1, 2, 3]], [[1, 0, -1], [0, 1, 2]], [0, 1], id="dependent-row"),
    pytest.param([[0, 0, 1], [0, 3, 1], [2, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2], id="reversed"),
])
def test_rref_of_fixed_matrices(a, r, pivots):
    # each pivot column is cleared in every other row, the rows met before the pivot's own row too
    got, got_pivots = linalg.rref(sparse_rows(mat(a)))
    assert got_pivots == pivots
    assert got == sparse_rows(mat(r))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: matrices(gaussian, n, n)))
def test_inverse_of_the_columns_is_the_columns_of_the_inverse(a):
    # (A^T)^-1 = (A^-1)^T: the pushforwards of ``dirac`` hand A's columns to ``inverse`` and read
    # A^-1's columns off its answer
    want = reference_inverse(a)
    got = linalg.inverse(sparse_columns(a))
    assert (got is None) == (want is None)
    if got is not None:
        assert got == sparse_columns(want)


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda shape: matrices(gaussian, *shape)),
       st.lists(gaussian, min_size=4, max_size=4))
def test_column_routines_match_dense_products(a, v):
    # transpose gives the rows as sparse vectors, apply is A v, and both keep nonzeros only
    nrows, ncols = len(a), len(a[0])
    columns = sparse_columns(a)
    assert linalg.is_columns(columns, nrows)
    assert linalg.is_columns(columns, nrows - 1) == all(i < nrows - 1 for column in columns for i, _ in column)
    rows = linalg.transpose(columns, nrows)
    assert linalg.is_columns(rows, ncols) and densify(rows, ncols) == a
    v = v[:ncols]
    image = linalg.apply(columns, [(j, c) for j, c in enumerate(v) if c])
    assert all(image.values()) and densify([image], nrows) == [mat_vec(a, v)]


@pytest.mark.parametrize("rows, involution", [
    pytest.param([[1, 0], [0, 1]], True, id="identity"),
    pytest.param([[0, 1], [1, 0]], True, id="swap"),
    pytest.param([[1, 0], [Fraction(1, 2), -1]], True, id="shear"),
    pytest.param([[1, 1], [0, 1]], False, id="shear-of-infinite-order"),
    pytest.param([[-1, 0], [0, 2]], False, id="scaled"),
    pytest.param([[0, 1], [0, 0]], False, id="nilpotent"),
])
def test_is_involution_is_the_dense_square(rows, involution):
    a = mat(rows)
    assert (mat_mul(a, a) == identity(len(a))) == involution == linalg.is_involution(sparse_columns(a))
