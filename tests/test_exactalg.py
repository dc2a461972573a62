"""Exact scalar/polynomial arithmetic, the parser, and the Schouten layer."""

import ast
import inspect
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng, multivec_at, poly_at
from poissonkit import exactalg, liealg, linalg
from poissonkit.exactalg import (
    ParseError,
    Poly,
    PolyMultiVec,
    Scalar,
    parse_poly,
    parse_scalar,
    print_poly,
    schouten,
    wedge,
)
from poissonkit.oracle import rand_alg_element, rand_multivec, rand_poly, schouten_oracle


# -- scalars -----------------------------------------------------------------


def test_scalar_field_arithmetic():
    a = Scalar(Fraction(1, 2), 1)
    b = Scalar(2, Fraction(-1, 3))
    assert a + b == Scalar(Fraction(5, 2), Fraction(2, 3))
    assert a * b == Scalar(Fraction(4, 3), Fraction(11, 6))
    assert (a / b) * b == a
    assert a - a == Scalar(0)
    assert a**3 == a * a * a
    assert Scalar(0, 1) * Scalar(0, 1) == Scalar(-1)


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


fractions_ = st.fractions(min_value=-6, max_value=6, max_denominator=7)
scalars = st.one_of(
    st.just(Scalar(0)),
    st.builds(Scalar, fractions_),  # real
    st.builds(Scalar, st.just(0), fractions_),  # imaginary
    st.builds(Scalar, fractions_, fractions_),
)
operands = st.one_of(scalars, st.integers(-6, 6), fractions_)


def _parts(x):
    return (Fraction(x.re), Fraction(x.im)) if isinstance(x, Scalar) else (Fraction(x), Fraction(0))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(scalars, operands), st.tuples(operands, scalars)))
def test_scalar_arithmetic_matches_gaussian_formula(pair):
    # the fast paths (zero operand, real operands) must agree with plain Q(i)
    x, y = pair
    (a, b), (c, d) = _parts(x), _parts(y)
    results = [
        (x + y, (a + c, b + d)),
        (x - y, (a - c, b - d)),
        (x * y, (a * c - b * d, a * d + b * c)),
    ]
    norm = c * c + d * d
    if norm:
        results.append((x / y, ((a * c + b * d) / norm, (b * c - a * d) / norm)))
    for base, (re, im) in ((x, (a, b)), (y, (c, d))):
        if not isinstance(base, Scalar):
            continue
        power = (Fraction(1), Fraction(0))
        for n in range(4):
            results.append((base**n, power))
            size = power[0] * power[0] + power[1] * power[1]
            if n and size:
                results.append((base**-n, (power[0] / size, -power[1] / size)))
            power = (power[0] * re - power[1] * im, power[0] * im + power[1] * re)
    for result, expected in results:
        assert isinstance(result, Scalar)
        assert _canonical(result.re) and _canonical(result.im)
        assert (result.re, result.im) == expected


def _canonical(part):
    """An int when integral, else a Fraction with denominator > 1; never a float."""
    return type(part) is int or (type(part) is Fraction and part.denominator > 1)


@settings(max_examples=100, deadline=None)
@given(fractions_, fractions_)
def test_scalar_constructor_normalises(re, im):
    for value in (Scalar(re, im), Scalar(str(re), str(im)), -Scalar(re, im)):
        assert _canonical(value.re) and _canonical(value.im)
    assert (Scalar(re, im).re, Scalar(re, im).im) == (re, im)


def _equal_forms(x):
    """Every int, Fraction and Scalar equal to x."""
    re, im = _parts(x)
    if im:
        return [Scalar(re, im)]
    return [Scalar(re), re] + ([int(re)] if re.denominator == 1 else [])


@settings(max_examples=150, deadline=None)
@given(operands, operands)
def test_scalar_hash_agrees_with_eq(x, y):
    forms = _equal_forms(x) + _equal_forms(y)
    for a in forms:
        for b in forms:
            if a == b:
                assert b == a
                assert hash(a) == hash(b)
                assert {a: "hit"}.get(b) == "hit"
    assert {3: "a"}.get(Scalar(3)) == "a"


def test_scalar_str_round_trip():
    values = [Scalar(0), Scalar(3), Scalar(-2), Scalar(Fraction(1, 2)),
              Scalar(0, 1), Scalar(0, -1), Scalar(0, Fraction(3, 4)),
              Scalar(1, 2), Scalar(Fraction(-1, 2), Fraction(-5, 3))]
    for v in values:
        assert parse_scalar(str(v)) == v


# -- public constructors -----------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: Poly(2, {(1,): 1}),  # exponent tuple of the wrong length
    lambda: Poly(2, {(1, 0, 0): 1}),
    lambda: PolyMultiVec(3, 2, {(0,): Poly.const(3, 1)}),  # index tuple of the wrong length
    lambda: PolyMultiVec(3, 1, {(3,): Poly.const(3, 1)}),  # index out of range
    lambda: PolyMultiVec(3, 1, {(-1,): Poly.const(3, 1)}),
    lambda: PolyMultiVec(3, 2, {(1, 0): Poly.const(3, 1)}),  # not increasing
    lambda: PolyMultiVec(3, 2, {(1, 1): Poly.const(3, 1)}),
    lambda: PolyMultiVec(3, 1, {(0,): Poly.const(2, 1)}),  # component on the wrong chart
    lambda: PolyMultiVec(3, -1),
    lambda: liealg.AlgElement(liealg.sl_chevalley(2), 1, {(99,): Scalar(1)}),  # index out of range
    lambda: liealg.AlgElement(liealg.sl_chevalley(2), 1, {(3,): Scalar(1)}),
    lambda: liealg.AlgElement(liealg.sl_chevalley(2), -1),  # negative degree
])
def test_public_constructors_reject_malformed_keys(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("elem", [PolyMultiVec.basis(3, 0), liealg.AlgElement.basis(liealg.so3(), 0)],
                         ids=["PolyMultiVec", "AlgElement"])
def test_wedge_elements_are_immutable(elem):
    for name in ("space", "degree", "comps", "dim", "algebra", "other"):
        with pytest.raises(AttributeError):
            setattr(elem, name, 0)
    assert elem.comps == {(0,): elem.component((0,))}


def test_public_constructors_drop_zeros_and_coerce():
    p = Poly(2, {(1, 0): 0, (0, 1): Fraction(4, 2), (0, 0): Scalar(0)})
    assert p.terms == {(0, 1): Scalar(2)} and type(p.terms[(0, 1)].re) is int
    mv = PolyMultiVec(2, 1, {(0,): Poly.zero(2), (1,): p})
    assert mv.comps == {(1,): p}


# -- parser ------------------------------------------------------------------


def test_parse_dubrovin_bracket():
    p = parse_poly("x*y - 2*z", ["x", "y", "z"])
    assert p.terms == {(1, 1, 0): Scalar(1), (0, 0, 1): Scalar(-2)}


def test_parse_zero():
    assert parse_poly("0", ["x"]).is_zero()


def test_parse_rational_and_imaginary():
    p = parse_poly("(1/2)*x^2 + i*y", ["x", "y"])
    assert p.terms == {(2, 0): Scalar(Fraction(1, 2)), (0, 1): Scalar(0, 1)}


def test_parse_unary_minus_and_precedence():
    vars3 = ["x", "y", "z"]
    assert parse_poly("-x^2", vars3) == -(Poly.var(3, 0) ** 2)
    assert parse_poly("x - y*z", vars3) == Poly.var(3, 0) - Poly.var(3, 1) * Poly.var(3, 2)
    assert parse_poly("2*x^3", vars3) == 2 * Poly.var(3, 0) ** 3


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x +* y", ["x", "y"])
    assert err.value.pos == 3
    with pytest.raises(ParseError) as err:
        parse_poly("x + w", ["x", "y"])
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        parse_poly("x^(2)", ["x"])  # exponent must be an integer literal
    with pytest.raises(ValueError):
        parse_poly("i", ["i"])  # 'i' is reserved


def test_print_parse_round_trip_random():
    rng = make_rng(101)
    names = ["x", "y", "z", "w"]
    for _ in range(200):
        dim = rng.randint(1, 4)
        p = rand_poly(rng, dim, max_deg=3, max_terms=5)
        text = print_poly(p, names[:dim])
        assert parse_poly(text, names[:dim]) == p


# -- polynomial calculus -----------------------------------------------------


def test_poly_diff_eval():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    p = x**2 * y + 3 * y
    assert p.diff(0) == 2 * x * y
    assert p.diff(1) == x**2 + 3
    assert poly_at(p, [Scalar(2), Scalar(-1)]) == Scalar(-7)


def test_poly_divide_exact():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    p = (x + y) * (x**2 - y)
    assert p.divide_exact(x + y) == x**2 - y
    assert (p + 1).divide_exact(x + y) is None


def test_power_takes_no_square_after_the_last_bit(monkeypatch):
    # square-and-multiply: one product per bit of the exponent and one square between bits
    for cls, base in ((Poly, Poly.var(2, 0) + Poly.var(2, 1)), (Scalar, Scalar(1, 2))):
        products = []
        mul = cls.__mul__
        monkeypatch.setattr(cls, "__mul__", lambda a, b, mul=mul: products.append(1) or mul(a, b))
        for n, count, value in ((1, 1, base), (4, 3, mul(mul(base, base), mul(base, base)))):
            products.clear()
            assert base**n == value
            assert len(products) == count, (cls.__name__, n)


def test_poly_compose_linear():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    p = x * y
    swapped = p.compose([y, x])
    assert swapped == x * y
    scaled = (x**2).compose([2 * x, y])
    assert scaled == 4 * x**2


# -- wedge -------------------------------------------------------------------


def test_wedge_basis():
    d1, d2 = PolyMultiVec.basis(3, 0), PolyMultiVec.basis(3, 1)
    assert wedge(d1, d2).comps == {(0, 1): Poly.const(3, 1)}
    assert wedge(d1, d1).is_zero()


def test_wedge_bilinearity_example():
    x, y = Poly.var(3, 0), Poly.var(3, 1)
    a = PolyMultiVec.monomial(3, (0,), x)  # x d1
    b = PolyMultiVec.from_terms(3, 1, [((1,), y), ((2,), Poly.const(3, 1))])  # y d2 + d3
    out = wedge(a, b)
    assert out.comps == {(0, 1): x * y, (0, 2): x}


def test_from_terms_sorts_with_parity_and_collects():
    x, y = Poly.var(3, 0), Poly.var(3, 1)
    out = PolyMultiVec.from_terms(3, 2, [((1, 0), x), ((0, 1), y), ((2, 2), x), ((2, 1), y), ((1, 2), y)])
    assert out.comps == {(0, 1): y - x}
    assert PolyMultiVec.from_terms(3, 1, [((0,), x), ((0,), -x)]).is_zero()


def test_wedge_graded_commutative(rng):
    for _ in range(100):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        a, b = rand_multivec(rng, 3, p), rand_multivec(rng, 3, q)
        sign = -1 if (p * q) % 2 else 1
        ba = wedge(b, a)
        assert wedge(a, b) == (ba if sign == 1 else -ba)


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(PolyMultiVec.basis(2, 0), PolyMultiVec.basis(3, 0))


# -- Schouten bracket --------------------------------------------------------


def test_schouten_directional_derivative():
    d1 = PolyMultiVec.basis(2, 0)
    f = PolyMultiVec.function(Poly.var(2, 0))
    out = schouten(d1, f)
    assert out.comps == {(): Poly.const(2, 1)}


def test_schouten_constant_bivector_self():
    b = PolyMultiVec.monomial(3, (0, 1), Poly.const(3, 1))
    assert schouten(b, b).is_zero()


def test_schouten_vs_lie_derivative_example():
    # [x1 d1 ^ d2, d1] = -L_{d1}(x1 d1 ^ d2) = -d1 ^ d2
    a = PolyMultiVec.monomial(3, (0, 1), Poly.var(3, 0))
    b = PolyMultiVec.basis(3, 0)
    out = schouten(a, b)
    assert out.comps == {(0, 1): Poly.const(3, -1)}


def test_schouten_vector_fields_lie_bracket():
    # [y d1, x d2] = y d2 - x d1, the coordinate Lie bracket
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    a = PolyMultiVec.monomial(2, (0,), y)
    b = PolyMultiVec.monomial(2, (1,), x)
    out = schouten(a, b)
    assert out.comps == {(0,): -x, (1,): y}


def test_schouten_two_imaginary_factors_give_a_real_product():
    # [i x1 d1, i x1 d2] = i^2 [x1 d1, x1 d2] = -x1 d2: two imaginary parts meet in one product,
    # and reading i^2 back as +1 would give +x1 d2
    ix1 = Poly(2, {(1, 0): Scalar(0, 1)})
    out = schouten(PolyMultiVec.monomial(2, (0,), ix1), PolyMultiVec.monomial(2, (1,), ix1))
    assert out.comps == {(1,): -Poly.var(2, 0)}


def test_schouten_graded_antisymmetry(rng):
    # [a,b] = -(-1)^((p-1)(q-1)) [b,a], exactly
    for _ in range(120):
        dim = rng.randint(2, 4)
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        a, b = rand_multivec(rng, dim, p), rand_multivec(rng, dim, q)
        ba = schouten(b, a)
        expected = ba if ((p - 1) * (q - 1)) % 2 else -ba
        assert schouten(a, b) == expected


def test_schouten_graded_leibniz(rng):
    for _ in range(120):
        p, q, r = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)
        a = rand_multivec(rng, 3, p)
        b = rand_multivec(rng, 3, q)
        c = rand_multivec(rng, 3, r)
        lhs = schouten(a, wedge(b, c))
        rhs = wedge(schouten(a, b), c)
        tail = wedge(b, schouten(a, c))
        rhs = rhs + (tail if ((p - 1) * q) % 2 == 0 else -tail)
        assert (lhs - rhs).is_zero()


# hypothesis draws a seed; the seeded generators draw the chart dimension, the degrees (at most
# the dimension, so that few draws are zero by construction) and Gaussian-integer coefficients
seeds = st.integers(0, 2**32 - 1)


def _rand_args(seed, max_dim, degrees):
    rng = make_rng(seed)
    dim = rng.randint(1, max_dim)
    return dim, [rand_multivec(rng, dim, rng.randint(0, min(d, dim)), with_i=True) for d in degrees]


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_schouten_matches_oracle_property(seed):
    _, (a, b) = _rand_args(seed, 5, (3, 3))
    # a scale by 1/2 + i/3 runs the kernel's Fraction path, which Gaussian-integer draws never reach
    for x in (a, a * Scalar(Fraction(1, 2), Fraction(1, 3))):
        out = schouten(x, b)
        assert out == schouten_oracle(x, b)
        assert all(_canonical(c.re) and _canonical(c.im) for poly in out.comps.values() for c in poly.terms.values())


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_schouten_self_bracket_property(seed):
    # schouten(a, a) is one contraction, 2 (A o A) for even degree and 0 for odd degree; an equal
    # but distinct copy takes the two-contraction path, and the oracle shares no code with either
    _, (a,) = _rand_args(seed, 5, (3,))
    copy = PolyMultiVec(a.dim, a.degree, a.comps)
    out = schouten(a, a)
    assert out == schouten(a, copy) == schouten_oracle(a, a)
    if a.degree % 2:
        assert out.is_zero()


# exponents at the boundaries of the packed fields the kernel adds: sums of two of these cross 2^7,
# 2^8, 2^9, 2^16 and 2^17, and 10^20 needs more than 64 bits, so a carry into the next field would
# change the output
BOUNDARY_EXPONENTS = (0, 1, 2, 127, 128, 255, 256, 2**15, 2**16 + 1, 10**20)
boundary_coeffs = st.sampled_from([Scalar(1), Scalar(-3), Scalar(0, 1), Scalar(0, -2), Scalar(Fraction(1, 2)),
                                   Scalar(Fraction(-2, 3), Fraction(5, 7))])


@st.composite
def boundary_fields(draw):
    """Two fields on 1-40 coordinates whose indices and exponents share a few active coordinates,
    so that the derivatives of one meet the other."""
    dim = draw(st.integers(1, 40))
    active = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=3, unique=True))

    def field():
        degree = draw(st.integers(0, min(2, len(active))))
        comps = {}
        for _ in range(draw(st.integers(1, 3))):
            idxs = tuple(sorted(draw(st.lists(st.sampled_from(active), min_size=degree, max_size=degree,
                                              unique=True))))
            terms = {}
            for _ in range(draw(st.integers(1, 2))):
                exps = [0] * dim
                for j in active:
                    exps[j] = draw(st.sampled_from(BOUNDARY_EXPONENTS))
                terms[tuple(exps)] = draw(boundary_coeffs)
            comps[idxs] = Poly(dim, terms)
        return PolyMultiVec(dim, degree, comps)

    return field(), field()


@settings(max_examples=100, deadline=None)
@given(boundary_fields())
def test_schouten_matches_oracle_at_exponent_boundaries(fields):
    a, b = fields
    assert schouten(a, b) == schouten_oracle(a, b)
    copy = PolyMultiVec(a.dim, a.degree, a.comps)
    assert schouten(a, a) == schouten(a, copy) == schouten_oracle(a, a)


gaussian_coeffs = st.sampled_from([Scalar(0, 1), Scalar(0, -3), Scalar(2, 1), Scalar(-1, -1), Scalar(4),
                                   Scalar(Fraction(1, 3), Fraction(-5, 2)), Scalar(0, Fraction(7, 4))])


@st.composite
def gaussian_boundary_fields(draw):
    """Two fields on 1-6 coordinates, of degree 0-3, whose components have 1-4 terms with mostly
    imaginary or complex coefficients and exponents at the boundaries of the packed fields, so that
    products of two imaginary parts, whose i field is 2, meet every index mask up to the widest."""
    dim = draw(st.integers(1, 6))

    def field():
        degree = draw(st.integers(0, min(3, dim)))
        comps = {}
        for _ in range(draw(st.integers(1, 3))):
            idxs = tuple(sorted(draw(st.lists(st.integers(0, dim - 1), min_size=degree, max_size=degree,
                                              unique=True))))
            terms = {}
            for _ in range(draw(st.integers(1, 4))):
                exps = tuple(draw(st.sampled_from(BOUNDARY_EXPONENTS[:4]) | st.sampled_from(BOUNDARY_EXPONENTS))
                             for _ in range(dim))
                terms[exps] = draw(gaussian_coeffs)
            comps[idxs] = Poly(dim, terms)
        return PolyMultiVec(dim, degree, comps)

    return field(), field()


@settings(max_examples=100, deadline=None)
@given(gaussian_boundary_fields())
def test_schouten_matches_oracle_on_gaussian_coefficients_at_exponent_boundaries(fields):
    a, b = fields
    assert schouten(a, b) == schouten_oracle(a, b)
    copy = PolyMultiVec(a.dim, a.degree, a.comps)
    assert schouten(a, a) == schouten(a, copy) == schouten_oracle(a, a)


@st.composite
def wide_fields(draw):
    """Two fields on 1-70 coordinates, of degree 0-4, whose index sets and monomials draw from up to
    6 active coordinates spread over the whole range.  Dimensions 65-70 and the top 8 coordinates
    are drawn often, so that the kernel's index masks meet, collide and sort past bit 63."""
    dim = draw(st.integers(1, 70) | st.integers(65, 70))
    coordinate = st.integers(0, dim - 1) | st.integers(max(0, dim - 8), dim - 1)
    active = draw(st.lists(coordinate, min_size=1, max_size=6, unique=True))

    def field():
        degree = draw(st.integers(0, min(4, len(active))))
        comps = {}
        for _ in range(draw(st.integers(1, 3))):
            idxs = tuple(sorted(draw(st.lists(st.sampled_from(active), min_size=degree, max_size=degree,
                                              unique=True))))
            terms = {}
            for _ in range(draw(st.integers(1, 2))):
                exps = [0] * dim
                for j in draw(st.lists(st.sampled_from(active), max_size=3)):
                    exps[j] += 1
                terms[tuple(exps)] = draw(boundary_coeffs)
            comps[idxs] = Poly(dim, terms)
        return PolyMultiVec(dim, degree, comps)

    return field(), field()


@settings(max_examples=100, deadline=None)
@given(wide_fields())
def test_schouten_matches_oracle_past_bit_63(fields):
    a, b = fields
    assert schouten(a, b) == schouten_oracle(a, b)
    copy = PolyMultiVec(a.dim, a.degree, a.comps)
    assert schouten(a, a) == schouten(a, copy)


def test_schouten_refuses_a_negative_exponent():
    # Poly(...) takes any int exponent, but a negative field would borrow from its neighbour in the
    # packed key and give a wrong bracket without an error
    laurent = PolyMultiVec(2, 1, {(0,): Poly(2, {(-1, 1): Scalar(1)})})
    field = PolyMultiVec(2, 1, {(1,): Poly.var(2, 0)})
    for a, b in ((laurent, field), (field, laurent), (laurent, laurent)):
        with pytest.raises(ValueError, match="negative"):
            schouten(a, b)


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_schouten_graded_antisymmetry_property(seed):
    _, (a, b) = _rand_args(seed, 5, (3, 3))
    p, q = a.degree, b.degree
    ba = schouten(b, a)
    assert schouten(a, b) == (ba if ((p - 1) * (q - 1)) % 2 else -ba)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_schouten_graded_leibniz_property(seed):
    # [A, B^C] = [A,B]^C + (-1)^((p-1) q) B^[A,C]
    _, (a, b, c) = _rand_args(seed, 4, (2, 2, 2))
    p, q = a.degree, b.degree
    tail = wedge(b, schouten(a, c))
    assert schouten(a, wedge(b, c)) == wedge(schouten(a, b), c) + (tail if ((p - 1) * q) % 2 == 0 else -tail)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_schouten_graded_jacobi_property(seed):
    # [A, [B, C]] = [[A, B], C] + (-1)^((p-1)(q-1)) [B, [A, C]]
    _, (a, b, c) = _rand_args(seed, 3, (2, 2, 2))
    p, q = a.degree, b.degree
    tail = schouten(b, schouten(a, c))
    rhs = schouten(schouten(a, b), c) + (tail if ((p - 1) * (q - 1)) % 2 == 0 else -tail)
    assert schouten(a, schouten(b, c)) == rhs


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_schouten_vector_field_on_function_property(seed):
    # [X, f] = X(f) = sum_l X^l df/dx_l
    dim, (x,) = _rand_args(seed, 5, (1,))
    f = rand_poly(make_rng(seed + 1), dim, max_deg=3, max_terms=4)
    xf = sum((x.component((l,)) * f.diff(l) for l in range(dim)), Poly.zero(dim))
    assert schouten(x, PolyMultiVec.function(f)) == PolyMultiVec.function(xf)


# -- diff and evaluation -----------------------------------------------------


def test_diff_componentwise():
    xy = Poly.var(3, 0) * Poly.var(3, 1)
    mv = PolyMultiVec.monomial(3, (0, 1), xy)
    assert mv.diff(1).comps == {(0, 1): Poly.var(3, 0)}
    const = PolyMultiVec.monomial(3, (0, 2), Poly.const(3, 5))
    assert const.diff(0).is_zero()


def test_diff_dubrovin_z():
    coords = ["x", "y", "z"]
    pi = PolyMultiVec(3, 2, {
        (0, 1): parse_poly("x*y - 2*z", coords),
        (1, 2): parse_poly("y*z - 2*x", coords),
        (0, 2): parse_poly("-(z*x - 2*y)", coords),
    })
    dz = pi.diff(2)
    assert dz.comps[(0, 1)] == Poly.const(3, -2)
    assert dz.comps[(1, 2)] == parse_poly("y", coords)
    assert dz.comps[(0, 2)] == parse_poly("-x", coords)


def test_eval_multivec_dubrovin_origin():
    coords = ["x", "y", "z"]
    pi = PolyMultiVec(3, 2, {
        (0, 1): parse_poly("x*y - 2*z", coords),
        (1, 2): parse_poly("y*z - 2*x", coords),
        (0, 2): parse_poly("-(z*x - 2*y)", coords),
    })
    assert multivec_at(pi, [Scalar(0)] * 3) == {}


def test_eval_multivec_so3_point():
    # components at (1,2,3): {x1,x2} = x3 = 3, {x2,x3} = x1 = 1, {x3,x1} = x2 = 2
    pi = PolyMultiVec(3, 2, {
        (0, 1): Poly.var(3, 2),
        (1, 2): Poly.var(3, 0),
        (0, 2): -Poly.var(3, 1),
    })
    values = multivec_at(pi, [Scalar(1), Scalar(2), Scalar(3)])
    assert values == {(0, 1): Scalar(3), (1, 2): Scalar(1), (0, 2): Scalar(-2)}
    assert poly_at(pi.component((2, 0)), [Scalar(1), Scalar(2), Scalar(3)]) == Scalar(2)


def test_eval_point_length_mismatch():
    mv = PolyMultiVec.basis(3, 0)
    with pytest.raises(ValueError):
        multivec_at(mv, [Scalar(0)])


# -- one wedge class ----------------------------------------------------------------------

# the storage and arithmetic of a wedge element, which only exactalg.Wedge defines
_WEDGE_API = {"__init__", "__add__", "__neg__", "__mul__", "wedge", "from_terms", "component", "__eq__", "__hash__",
              "__str__"}


def test_wedge_storage_and_arithmetic_are_defined_once():
    # the two wedge types name only their coefficient ring, their basis and their own operations
    for cls in (PolyMultiVec, liealg.AlgElement):
        assert cls.__bases__ == (exactalg.Wedge,), cls.__name__
        assert not _WEDGE_API & set(vars(cls)), cls.__name__
    assert _WEDGE_API <= set(vars(exactalg.Wedge))
    assert exactalg.wedge is exactalg.Wedge.wedge


_KERNELS = [exactalg.schouten, exactalg._hook, exactalg._packed_exponents, liealg.alg_schouten]


@pytest.mark.parametrize("kernel", _KERNELS, ids=lambda f: f.__name__)
def test_schouten_kernels_name_no_wedge_arithmetic(kernel):
    # the kernels keep their own loops and build their results with Wedge._new only, so the
    # oracles, which use the Wedge arithmetic, stay a second route
    tree = ast.parse(inspect.getsource(kernel))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in _WEDGE_API | {"__sub__", "__rmul__", "zero", "basis"}, node.attr
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id not in ("Wedge", "PolyMultiVec", "AlgElement", "wedge"), node.func.id


def test_schouten_kernels_run_with_the_wedge_arithmetic_disabled(monkeypatch):
    # the operators too: with every method of _WEDGE_API refusing, the kernels still give their results
    rng = make_rng(11)
    g = liealg.sl_chevalley(2)
    charts = [(rand_multivec(rng, 3, p), rand_multivec(rng, 3, q)) for p, q in ((0, 1), (1, 1), (2, 1), (2, 2))]
    algs = [(rand_alg_element(rng, g, p, 0.7), rand_alg_element(rng, g, q, 0.7)) for p, q in ((1, 1), (2, 1), (2, 2))]

    def run():
        out = [schouten(a, b) for a, b in charts] + [schouten(a, a) for a, _ in charts]
        return out + [liealg.alg_schouten(a, b) for a, b in algs]

    expected = run()

    def refuse(*args, **kwargs):
        raise AssertionError("a Schouten kernel used the Wedge arithmetic")

    for name in _WEDGE_API | {"__sub__", "__rmul__"}:
        monkeypatch.setattr(exactalg.Wedge, name, refuse)
    got = run()
    monkeypatch.undo()
    assert got == expected


# -- the exact kernels stay exact --------------------------------------------------------


@pytest.mark.parametrize("module", [exactalg, liealg, linalg], ids=lambda m: m.__name__)
def test_exact_kernels_use_no_floats(module):
    # no float or complex literal, no float() call and no math import; only the
    # conversion Scalar.to_complex, the handoff to the numeric half, is exempt
    tree = ast.parse(Path(module.__file__).read_text())
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Scalar":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "to_complex":
                    exempt.update(id(sub) for sub in ast.walk(item))
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Constant):
            assert type(node.value) not in (float, complex), (node.lineno, node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id not in ("float", "complex"), node.lineno
        elif isinstance(node, ast.Import):
            assert not {alias.name for alias in node.names} & {"math", "cmath"}, node.lineno
        elif isinstance(node, ast.ImportFrom):
            assert node.module not in ("math", "cmath"), node.lineno
    if module is exactalg:
        assert exempt, "Scalar.to_complex not found"


def test_floats_are_refused_not_converted():
    # Scalar(0.1) used to become 3602879701896397/36028797018963968, and Poly arithmetic
    # converted a float operand the same way
    x = Poly.var(2, 0)
    refused = [lambda: Scalar(0.1), lambda: Scalar(1, 0.5), lambda: Scalar(0.5j), lambda: Scalar.coerce(0.5),
               lambda: Scalar(1) / 0.5, lambda: Poly.const(2, 0.5), lambda: Poly(2, {(1, 0): 0.5}),
               lambda: x + 0.1, lambda: 0.1 + x, lambda: x - 0.5, lambda: 0.5 - x, lambda: x * 0.5,
               lambda: 0.5 * x, lambda: x + 1j, lambda: x * 1j]
    for make in refused:
        with pytest.raises(TypeError):
            make()
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        for operand in (0.5, 1j, "x", None):
            assert getattr(x, op)(operand) is NotImplemented, (op, operand)


def test_poly_scales_a_multivector_from_either_side():
    # Poly * PolyMultiVec used to raise "argument should be a string or a Rational instance"
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    mv = PolyMultiVec(2, 1, {(0,): y, (1,): Poly.const(2, 1)})
    assert x * mv == mv * x == PolyMultiVec(2, 1, {(0,): x * y, (1,): x})
    with pytest.raises(ValueError):
        Poly.var(3, 0) * mv  # a polynomial on another chart
