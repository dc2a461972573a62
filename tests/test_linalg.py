"""Exact elimination: solve with one or many right-hand sides."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from poissonkit import linalg
from poissonkit.exactalg import Scalar


def _column(b, p):
    return [row[p] for row in b]


small = st.integers(-2, 2).map(Scalar)


@st.composite
def systems(draw):
    """A small integer A (often rank deficient) and a matrix B of right-hand sides."""
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    nrhs = draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(small, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    # mix columns in the span of A (consistent) with arbitrary ones
    b = [[None] * nrhs for _ in range(nrows)]
    for p in range(nrhs):
        if draw(st.booleans()):
            x = draw(st.lists(small, min_size=ncols, max_size=ncols))
            col = linalg.mat_vec(a, x)
        else:
            col = draw(st.lists(small, min_size=nrows, max_size=nrows))
        for i in range(nrows):
            b[i][p] = col[i]
    return a, b


@settings(max_examples=150, deadline=None)
@given(systems())
def test_matrix_rhs_agrees_with_column_by_column(system):
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
    a = linalg.mat([[1, 0], [0, 1], [1, 1]])
    good = [[1, 2], [3, 4], [4, 6]]
    assert linalg.solve(a, good) == linalg.mat([[1, 2], [3, 4]])
    for p in range(2):
        bad = [row[:] for row in good]
        bad[2][p] += 1
        assert linalg.solve(a, bad) is None
        assert linalg.solve(a, _column(bad, 1 - p)) is not None


def test_vector_rhs_keeps_its_shape():
    a = linalg.mat([[2, 0], [0, 4]])
    assert linalg.solve(a, [1, 1]) == [Scalar(Fraction(1, 2)), Scalar(Fraction(1, 4))]
    assert linalg.solve(a, [[1], [1]]) == [[Scalar(Fraction(1, 2))], [Scalar(Fraction(1, 4))]]
