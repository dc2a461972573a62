"""The exact polynomial kernel against a naive reference polynomial.

The reference is a plain dict from exponent tuple to a (re, im) pair of
Fractions, with zero coefficients dropped, and Gaussian arithmetic written out
by hand.  It shares no code with ``exactalg``, so a bug in the kernel that
both Schouten routes would inherit shows here.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poly_at
from poissonkit.exactalg import Poly, Scalar, parse_poly, print_poly

NAMES = ["x", "y", "z"]

# -- the reference ---------------------------------------------------------------


def ref(p: Poly) -> dict:
    """The reference form of a Poly; also checks that its coefficients are canonical and nonzero."""
    out = {}
    for exps, c in p.terms.items():
        assert isinstance(c, Scalar) and c and len(exps) == p.nvars
        for part in (c.re, c.im):
            assert type(part) is int or (type(part) is Fraction and part.denominator > 1)
        out[exps] = (Fraction(c.re), Fraction(c.im))
    return out


def g_add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def g_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _put(out: dict, exps, c) -> None:
    c = g_add(out.get(exps, (Fraction(0), Fraction(0))), c)
    if c[0] or c[1]:
        out[exps] = c
    else:
        out.pop(exps, None)


def r_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        _put(out, e, c)
    return out


def r_neg(a: dict) -> dict:
    return {e: (-c[0], -c[1]) for e, c in a.items()}


def r_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            _put(out, tuple(x + y for x, y in zip(e1, e2)), g_mul(c1, c2))
    return out


def r_diff(a: dict, var: int) -> dict:
    out = {}
    for e, c in a.items():
        if e[var]:
            lowered = tuple(k - 1 if j == var else k for j, k in enumerate(e))
            _put(out, lowered, (c[0] * e[var], c[1] * e[var]))
    return out


def r_eval(a: dict, point) -> tuple:
    total = (Fraction(0), Fraction(0))
    for e, c in a.items():
        term = c
        for v, k in zip(point, e):
            for _ in range(k):
                term = g_mul(term, v)
        total = g_add(total, term)
    return total


def r_compose_linear(a: dict, mat, n: int) -> dict:
    """Substitute x_i <- sum_j mat[i][j] x_j, one factor at a time."""
    images = [{tuple(int(k == j) for k in range(n)): mat[i][j] for j in range(n) if mat[i][j] != (0, 0)}
              for i in range(n)]
    total = {}
    for e, c in a.items():
        term = {(0,) * n: c}
        for i, k in enumerate(e):
            for _ in range(k):
                term = r_mul(term, images[i])
        total = r_add(total, term)
    return total


def r_compose(a: dict, images: list, m: int) -> dict:
    """Substitute x_i <- images[i], reference polynomials on m variables, one factor at a time."""
    total = {}
    for e, c in a.items():
        term = {(0,) * m: c}
        for i, k in enumerate(e):
            for _ in range(k):
                term = r_mul(term, images[i])
        total = r_add(total, term)
    return total


def to_scalar(c) -> Scalar:
    return Scalar(c[0], c[1])


# -- strategies ------------------------------------------------------------------

# integral, non-integral and imaginary parts, so both part types and the mixed paths run
parts = st.one_of(st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=6))
gaussians = st.tuples(parts, parts).map(lambda c: (Fraction(c[0]), Fraction(c[1])))
real_or_imaginary = st.one_of(gaussians, parts.map(lambda r: (Fraction(r), Fraction(0))),
                              parts.map(lambda i: (Fraction(0), Fraction(i))))


@st.composite
def polys(draw, nvars):
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars), real_or_imaginary, max_size=4))
    return Poly(nvars, {e: to_scalar(c) for e, c in terms.items()})


@st.composite
def poly_pairs(draw):
    n = draw(st.integers(1, 3))
    return n, draw(polys(n)), draw(polys(n))


# -- properties --------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(poly_pairs())
def test_ring_operations_match_reference(args):
    n, p, q = args
    a, b = ref(p), ref(q)
    assert ref(p + q) == r_add(a, b)
    assert ref(p - q) == r_add(a, r_neg(b))
    assert ref(-p) == r_neg(a)
    assert ref(p * q) == r_mul(a, b)
    assert ref(p * p * q) == r_mul(r_mul(a, a), b)
    assert ref(p - p) == {}


@settings(max_examples=40, deadline=None)
@given(poly_pairs())
def test_diff_matches_reference(args):
    n, p, q = args
    for var in range(n):
        assert ref(p.diff(var)) == r_diff(ref(p), var)
        assert ref((p * q).diff(var)) == r_diff(r_mul(ref(p), ref(q)), var)


@settings(max_examples=40, deadline=None)
@given(poly_pairs(), st.data())
def test_eval_matches_reference(args, data):
    n, p, _ = args
    point = data.draw(st.lists(real_or_imaginary, min_size=n, max_size=n))
    value = poly_at(p, [to_scalar(c) for c in point])
    assert (Fraction(value.re), Fraction(value.im)) == r_eval(ref(p), point)


@settings(max_examples=30, deadline=None)
@given(poly_pairs(), st.data())
def test_compose_linear_matches_reference(args, data):
    n, p, _ = args
    mat = [data.draw(st.lists(real_or_imaginary, min_size=n, max_size=n)) for _ in range(n)]
    images = [Poly(n, {tuple(int(k == j) for k in range(n)): to_scalar(row[j]) for j in range(n)}) for row in mat]
    assert ref(p.compose(images)) == r_compose_linear(ref(p), mat, n)


@settings(max_examples=30, deadline=None)
@given(poly_pairs(), st.integers(0, 3), st.data())
def test_compose_matches_reference(args, m, data):
    # nonlinear images onto a chart of m variables, m = 0 being evaluation
    n, p, _ = args
    images = [data.draw(polys(m)) for _ in range(n)]
    assert ref(p.compose(images)) == r_compose(ref(p), [ref(img) for img in images], m)


@settings(max_examples=40, deadline=None)
@given(poly_pairs())
def test_print_parse_round_trip_matches_reference(args):
    n, p, _ = args
    text = print_poly(p, NAMES[:n])
    back = parse_poly(text, NAMES[:n])
    assert ref(back) == ref(p)
    assert print_poly(back, NAMES[:n]) == text
