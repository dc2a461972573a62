"""Exact elimination: solve with one or many right-hand sides, rref and inverse."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mat, mat_vec, rank
from poissonkit import linalg
from poissonkit.exactalg import Scalar


def _column(b, p):
    return [row[p] for row in b]


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
    columns = [linalg.solve(a, _column(b, p)) for p in range(nrhs)]
    x = linalg.solve(a, b)
    if any(col is None for col in columns):
        assert x is None
        return
    assert x is not None and len(x) == len(a[0])
    assert [_column(x, p) for p in range(nrhs)] == columns
    assert linalg.mat_mul(a, x) == b


def test_one_inconsistent_column_fails_the_whole_solve():
    a = mat([[1, 0], [0, 1], [1, 1]])
    good = [[1, 2], [3, 4], [4, 6]]
    assert linalg.solve(a, good) == mat([[1, 2], [3, 4]])
    for p in range(2):
        bad = [row[:] for row in good]
        bad[2][p] += 1
        assert linalg.solve(a, bad) is None
        assert linalg.solve(a, _column(bad, 1 - p)) is not None


def test_vector_rhs_keeps_its_shape():
    a = mat([[2, 0], [0, 4]])
    assert linalg.solve(a, [1, 1]) == [Scalar(Fraction(1, 2)), Scalar(Fraction(1, 4))]
    assert linalg.solve(a, [[1], [1]]) == [[Scalar(Fraction(1, 2))], [Scalar(Fraction(1, 4))]]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: matrices(gaussian, n, n)))
def test_inverse_is_exact_exactly_when_invertible(a):
    n = len(a)
    inv = linalg.inverse(a)
    assert (inv is None) == (rank(a) < n)
    if inv is not None:
        assert linalg.mat_mul(inv, a) == linalg.identity(n)
        assert linalg.mat_mul(a, inv) == linalg.identity(n)


@settings(max_examples=30, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda shape: matrices(gaussian, *shape)))
def test_rref_is_idempotent_and_keeps_rank_and_row_space(a):
    r, pivots = linalg.rref(a)
    assert linalg.rref(r) == (r, pivots)
    npivots = len(pivots)
    assert npivots == rank(a) == rank(r)
    # the rows of R lie in the row space of A and span a space of the same dimension
    assert rank(a + r) == npivots
    assert all(row == [Scalar(0)] * len(row) for row in r[npivots:])
    for i, col in enumerate(pivots):
        assert [row[col] for row in r] == [Scalar(int(k == i)) for k in range(len(r))]
