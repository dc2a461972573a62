"""Charts, brackets, Casimirs, and (relative) modular vector fields."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bracket_by_pairs, contract_forms, make_rng, sharp
from poissonkit import dirac, poisson
from poissonkit.chartio import parse_chart_text
from poissonkit.dirac import AlignedSubmanifold, LinearInvolution, fixed_locus_symbolic
from poissonkit.exactalg import Poly, PolyMultiVec, Scalar, parse_poly, schouten
from poissonkit.liealg import builtin_algebra, lie_poisson_chart
from poissonkit.oracle import rand_multivec, rand_poly, rand_scalar, schouten_oracle
from poissonkit.poisson import (
    PoissonChart,
    UnsupportedDensity,
    bracket,
    hamiltonian_vf,
    is_casimir,
    jacobiator,
    modular_vf,
    relative_modular,
)
from poissonkit.report import InvalidInput


def dubrovin_chart():
    coords = ("x", "y", "z")
    brackets = {(0, 1): "x*y - 2*z", (1, 2): "y*z - 2*x", (0, 2): "-(z*x - 2*y)"}
    return PoissonChart(3, coords, PolyMultiVec(3, 2, {k: parse_poly(v, coords) for k, v in brackets.items()}))


# -- jacobiator ----------------------------------------------------------------


def test_jacobiator_dubrovin_zero():
    assert jacobiator(dubrovin_chart()).is_zero()


def test_jacobiator_constant_bivector_zero():
    chart = PoissonChart(3, ("x", "y", "z"), PolyMultiVec.monomial(3, (0, 1), Poly.const(3, 1)))
    assert jacobiator(chart).is_zero()


def test_jacobiator_linear_plus_constant_is_poisson():
    # all Jacobi sums of pi = x3 d1^d2 + d2^d3 collapse termwise
    pi = PolyMultiVec(3, 2, {(0, 1): Poly.var(3, 2), (1, 2): Poly.const(3, 1)})
    chart = PoissonChart(3, ("x1", "x2", "x3"), pi)
    assert jacobiator(chart).is_zero()


def test_jacobiator_nonzero_matches_oracle():
    # pi = x3 d1^d2 + x2 d2^d3 has Jacobi defect {x1,{x2,x3}} = x3
    pi = PolyMultiVec(3, 2, {(0, 1): Poly.var(3, 2), (1, 2): Poly.var(3, 1)})
    chart = PoissonChart(3, ("x1", "x2", "x3"), pi)
    jac = jacobiator(chart)
    assert not jac.is_zero()
    assert (jac - schouten_oracle(pi, pi)).is_zero()
    assert jac.comps == {(0, 1, 2): 2 * Poly.var(3, 2)}


def test_jacobiator_contracts_to_twice_jacobi_sum():
    rng = make_rng(7)
    for _ in range(25):
        pi = rand_multivec(rng, 3, 2)
        chart = PoissonChart(3, ("x", "y", "z"), pi)
        f, g, h = (rand_poly(rng, 3) for _ in range(3))
        cyc = (
            bracket(chart, f, bracket(chart, g, h))
            + bracket(chart, g, bracket(chart, h, f))
            + bracket(chart, h, bracket(chart, f, g))
        )
        assert contract_forms(jacobiator(chart), [f, g, h]) == 2 * cyc


# -- bracket -------------------------------------------------------------------


def test_bracket_dubrovin_xy():
    chart = dubrovin_chart()
    out = bracket(chart, parse_poly("x", chart.coords), parse_poly("y", chart.coords))
    assert out == parse_poly("x*y - 2*z", chart.coords)


def test_bracket_antisymmetry_random(rng):
    chart = dubrovin_chart()
    for _ in range(30):
        f = rand_poly(rng, 3)
        assert bracket(chart, f, f).is_zero()


def test_bracket_so3_structure():
    chart = lie_poisson_chart(builtin_algebra("so3"))
    assert bracket(chart, Poly.var(3, 0), Poly.var(3, 1)) == Poly.var(3, 2)


def test_bracket_jacobi_on_poisson_charts():
    rng = make_rng(8)
    charts = [dubrovin_chart(), lie_poisson_chart(builtin_algebra("so3")),
              lie_poisson_chart(builtin_algebra("sl2"))]
    for chart in charts:
        assert jacobiator(chart).is_zero()
        for _ in range(20):
            f, g, h = (rand_poly(rng, chart.dim) for _ in range(3))
            cyc = (
                bracket(chart, f, bracket(chart, g, h))
                + bracket(chart, g, bracket(chart, h, f))
                + bracket(chart, h, bracket(chart, f, g))
            )
            assert cyc.is_zero()


def test_bracket_leibniz_random(rng):
    chart = dubrovin_chart()
    for _ in range(40):
        f, g, h = (rand_poly(rng, 3) for _ in range(3))
        assert bracket(chart, f, g * h) == g * bracket(chart, f, h) + h * bracket(chart, f, g)


def test_bracket_variable_mismatch():
    chart = dubrovin_chart()
    with pytest.raises(ValueError):
        bracket(chart, Poly.var(2, 0), Poly.var(2, 1))


def _scale(rng):
    """A Gaussian rational whose parts may be non-integral."""
    return Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 6)), Fraction(rng.randint(-5, 5), rng.randint(1, 6)))


def _random_chart(rng):
    """A chart of 2 to 4 coordinates whose random bivector, not Poisson in general, is scaled by ``_scale``."""
    dim = rng.randint(2, 4)
    return PoissonChart(dim, tuple(f"x{k}" for k in range(dim)), rand_multivec(rng, dim, 2) * _scale(rng))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bracket_matches_the_pair_formula(seed):
    # {f, g} = X_f(g) against the sum over the components of pi, on random charts, not all
    # Poisson, whose coefficients have imaginary and non-integral parts
    rng = make_rng(seed)
    chart = _random_chart(rng)
    f, g = rand_poly(rng, chart.dim) * _scale(rng), rand_poly(rng, chart.dim) * _scale(rng)
    assert bracket(chart, f, g) == bracket_by_pairs(chart, f, g)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hamiltonian_vf_matches_sharp_of_df(seed):
    # X_f = -[pi, f] against pi^#(df), contracted component by component, on the same random charts
    rng = make_rng(seed)
    chart = _random_chart(rng)
    f = rand_poly(rng, chart.dim) * _scale(rng)
    assert hamiltonian_vf(chart, f) == sharp(chart, [f.diff(i) for i in range(chart.dim)])


@pytest.mark.parametrize("wrong", ["f", "g", "both"])
def test_bracket_mismatch_is_the_pair_formula_error(wrong):
    chart = dubrovin_chart()
    f, g = (Poly.var(2, 0) if wrong in (name, "both") else Poly.var(3, 0) for name in "fg")
    with pytest.raises(ValueError) as got:
        bracket(chart, f, g)
    with pytest.raises(ValueError) as want:
        bracket_by_pairs(chart, f, g)
    assert str(got.value) == str(want.value)


# -- Hamiltonian fields and Casimirs --------------------------------------------


def test_hamiltonian_constant_bivector():
    chart = PoissonChart(2, ("x1", "x2"), PolyMultiVec.monomial(2, (0, 1), Poly.const(2, 1)))
    assert hamiltonian_vf(chart, Poly.var(2, 0)).comps == {(1,): Poly.const(2, 1)}


def test_hamiltonian_linear_bivector():
    # pi = x1 d1^d2, f = x2  ->  X_f = -x1 d1
    chart = PoissonChart(2, ("x1", "x2"), PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 0)))
    out = hamiltonian_vf(chart, Poly.var(2, 1))
    assert out.comps == {(0,): -Poly.var(2, 0)}


def test_hamiltonian_defines_bracket(rng):
    chart = dubrovin_chart()
    for _ in range(20):
        f, g = rand_poly(rng, 3), rand_poly(rng, 3)
        xf = hamiltonian_vf(chart, f)
        directional = Poly.zero(3)
        for (i,), comp in xf.comps.items():
            directional = directional + comp * g.diff(i)
        assert directional == bracket(chart, f, g)


def test_sharp_matches_componentwise_formula(rng):
    # pi^#(alpha)^k = sum_i alpha_i pi^{ik}; covectors with zero entries, as modular_vf passes
    for _ in range(40):
        dim = rng.randint(2, 5)
        chart = PoissonChart(dim, tuple(f"x{j}" for j in range(dim)), rand_multivec(rng, dim, 2))
        alpha = [rand_poly(rng, dim) if rng.random() < 0.5 else Poly.zero(dim) for _ in range(dim)]
        expected = PolyMultiVec.from_terms(dim, 1, [
            ((k,), sum((alpha[i] * chart.pi.component((i, k)) for i in range(dim)), Poly.zero(dim)))
            for k in range(dim)
        ])
        assert sharp(chart, alpha) == expected


def test_markoff_casimir():
    chart = dubrovin_chart()
    verdict = is_casimir(chart, parse_poly("x^2 + y^2 + z^2 - x*y*z", chart.coords))
    assert verdict.ok
    assert hamiltonian_vf(chart, parse_poly("x^2 + y^2 + z^2 - x*y*z", chart.coords)).is_zero()


def test_constant_is_casimir():
    assert is_casimir(dubrovin_chart(), Poly.const(3, 7)).ok


def test_so3_quadratic_casimir():
    chart = lie_poisson_chart(builtin_algebra("so3"))
    quad = Poly.var(3, 0) ** 2 + Poly.var(3, 1) ** 2 + Poly.var(3, 2) ** 2
    assert is_casimir(chart, quad).ok


def test_witnesses_are_the_first_nonzero_components():
    # {y_i, y_j} = y_i y_j + y_k with k = (i j + 2) mod 6 (0-based) breaks Jacobi on every one of the
    # 20 triples, and the kernel does not form the smallest one first; the witness is the smallest
    coords = tuple(f"y{i + 1}" for i in range(6))
    text = "".join(f"bracket y{i + 1} y{j + 1} = y{i + 1}*y{j + 1} + y{(i * j + 2) % 6 + 1}\n"
                   for i in range(6) for j in range(i + 1, 6))
    chart, _ = parse_chart_text(f"dim 6\ncoords {' '.join(coords)}\n{text}", check_jacobi=False)
    jac = jacobiator(chart)
    assert len(jac.comps) == 20 and next(iter(jac.comps)) != (0, 1, 2)
    verdict = poisson._not_poisson(chart)
    assert verdict.witness == ((0, 1, 2), parse_poly("-2*y1*y5 - 2*y2*y3 + 4*y3^2 + 2*y3 - 2*y5", coords))
    casimir = is_casimir(chart, parse_poly("y6^2", coords))
    assert (casimir.reason, casimir.witness) == ("X_f(y1)", (0, parse_poly("-2*y1*y6^2 - 2*y6*y3", coords)))


def test_casimir_failure_reports_witness():
    chart = dubrovin_chart()
    verdict = is_casimir(chart, parse_poly("x", chart.coords))
    assert not verdict.ok
    assert verdict.witness is not None and not verdict.witness[1].is_zero()


def test_chart_brackets_go_through_schouten(monkeypatch):
    # one contraction kernel: Casimir checks, brackets and relative modular fields reach the
    # schouten that poisson and dirac bind; the fixed-locus pushforwards carry wedge legs
    # instead, so fixed_locus_symbolic reaches it only through Jacobiators
    assert not hasattr(poisson, "sharp")
    calls = []

    def counting(a, b):
        calls.append((a.degree, b.degree))
        return schouten(a, b)

    for module in (poisson, dirac):
        monkeypatch.setattr(module, "schouten", counting)
    chart = dubrovin_chart()
    assert is_casimir(chart, parse_poly("x^2 + y^2 + z^2 - x*y*z", chart.coords)).ok and (2, 0) in calls
    calls.clear()
    assert bracket(chart, parse_poly("x", chart.coords), parse_poly("y", chart.coords)) == parse_poly("x*y - 2*z", chart.coords) and (1, 0) in calls
    calls.clear()
    line = PoissonChart(2, ("x", "y"), PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 1)))
    assert relative_modular(_aligned(line, (0,))).ok and (2, 0) in calls
    so3 = lie_poisson_chart(builtin_algebra("so3"))
    # x2 d1^d2 + y2 d3^d4, whose two blocks the involution swaps
    blocks = PoissonChart(4, ("x1", "x2", "y1", "y2"), PolyMultiVec(4, 2, {(0, 1): Poly.var(4, 1), (2, 3): Poly.var(4, 3)}))
    cases = [(so3, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]), (blocks, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])]
    for ambient, rows in cases:
        calls.clear()
        assert fixed_locus_symbolic(ambient, LinearInvolution.from_rows(rows)).ok
        assert calls and set(calls) == {(2, 2)}, calls


# -- modular vector fields -------------------------------------------------------


def test_modular_symplectic_zero():
    chart = PoissonChart(2, ("x1", "x2"), PolyMultiVec.monomial(2, (0, 1), Poly.const(2, 1)))
    assert modular_vf(chart).is_zero()


def test_modular_linear_example():
    # pi = x1 d1^d2, rho = 1: nu = -d2
    chart = PoissonChart(2, ("x1", "x2"), PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 0)))
    assert modular_vf(chart).comps == {(1,): Poly.const(2, -1)}


def test_modular_so3_unimodular():
    assert modular_vf(lie_poisson_chart(builtin_algebra("so3"))).is_zero()


def test_modular_is_poisson_vector_field():
    charts = [
        dubrovin_chart(),
        lie_poisson_chart(builtin_algebra("so3")),
        lie_poisson_chart(builtin_algebra("sl2")),
        PoissonChart(2, ("x1", "x2"), PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 0))),
    ]
    for chart in charts:
        nu = modular_vf(chart)
        assert schouten(nu, chart.pi).is_zero()


def test_modular_invariant_under_constant_density():
    pi = PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 0))
    base = PoissonChart(2, ("x1", "x2"), pi)
    scaled = PoissonChart(2, ("x1", "x2"), pi, Poly.const(2, Scalar(5)))
    assert modular_vf(base) == modular_vf(scaled)


def test_modular_unsupported_density():
    pi = PolyMultiVec.monomial(2, (0, 1), Poly.const(2, 1))
    chart = PoissonChart(2, ("x1", "x2"), pi, Poly.var(2, 0))
    with pytest.raises(UnsupportedDensity):
        modular_vf(chart)


def ref_modular_vf(chart):
    """The per-coordinate route: nu_j = div(X_{x_j}) = (1/rho) sum_i d(rho X^i)/dx_i for each j."""
    comps = {}
    for j in range(chart.dim):
        total = Poly.zero(chart.dim)
        for (i,), poly in hamiltonian_vf(chart, Poly.var(chart.dim, j)).comps.items():
            total = total + (chart.rho * poly).diff(i)
        if chart.rho != Poly.const(chart.dim, 1):
            total = total.divide_exact(chart.rho)
            if total is None:
                raise UnsupportedDensity("rho does not divide the divergence numerator exactly")
        comps[(j,)] = total
    return PolyMultiVec(chart.dim, 1, comps)


def _log_canonical(rng, dim):
    """pi = sum c_ab y_a y_b d_a^d_b with random Gaussian-integer c_ab: a monomial density divides its numerators."""
    y = [Poly.var(dim, a) for a in range(dim)]
    comps = {(a, b): y[a] * y[b] * rand_scalar(rng) for a in range(dim) for b in range(a + 1, dim) if rng.random() < 0.8}
    return PolyMultiVec(dim, 2, comps)


def test_modular_sweep_matches_per_coordinate_route():
    # rho = 1, a constant rho and a monomial rho; pi random (modular_vf does not need it Poisson)
    rng = make_rng(1616)
    for _ in range(40):
        dim = rng.randint(1, 5)
        names = tuple(f"x{a}" for a in range(dim))
        pi = rand_multivec(rng, dim, 2)
        for rho in (None, Poly.const(dim, rand_scalar(rng) or 1), Poly.const(dim, Scalar(Fraction(3, 7), 2))):
            chart = PoissonChart(dim, names, pi, rho)
            assert modular_vf(chart) == ref_modular_vf(chart)
        logcan = _log_canonical(rng, dim)
        exps = tuple(rng.randint(0, 3) for _ in range(dim))
        rho = Poly(dim, {exps: rand_scalar(rng) or 1})
        chart = PoissonChart(dim, names, logcan, rho)
        assert modular_vf(chart) == ref_modular_vf(chart)


def test_modular_sweep_raises_where_the_per_coordinate_route_raises():
    # rho = x does not divide d_y(x y) - ...: both routes raise, with the same message
    chart, _ = parse_chart_text("dim 2\ncoords x y\nbracket x y = y\nvolume = x\nsubmanifold x = x\n")
    for route in (modular_vf, ref_modular_vf):
        with pytest.raises(UnsupportedDensity, match="^rho does not divide the divergence numerator exactly$"):
            route(chart)
    rng = make_rng(1617)
    raised = 0
    for _ in range(40):
        dim = rng.randint(2, 4)
        chart = PoissonChart(dim, tuple(f"x{a}" for a in range(dim)), rand_multivec(rng, dim, 2),
                             Poly.var(dim, rng.randrange(dim)) + rand_scalar(rng))
        try:
            expected = ref_modular_vf(chart)
        except UnsupportedDensity:
            raised += 1
            with pytest.raises(UnsupportedDensity):
                modular_vf(chart)
        else:
            assert modular_vf(chart) == expected
    assert 0 < raised < 40


# -- relative modular field ------------------------------------------------------


def _aligned(chart, xs):
    ys = tuple(i for i in range(chart.dim) if i not in xs)
    return AlignedSubmanifold(chart, tuple(xs), ys)


def test_relative_modular_linear_fixture():
    # pi = y dx^dy on R^2, Q = {y = 0}: nu_r = d/dx, pr nu_P = d/dx, nu_Q = 0
    chart = PoissonChart(2, ("x", "y"), PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 1)))
    rep = relative_modular(_aligned(chart, (0,)))
    assert rep.values["nu_r"].comps == {(0,): Poly.const(1, 1)}
    assert rep.values["pr_nu_P"].comps == {(0,): Poly.const(1, 1)}
    assert rep.values["nu_Q"].is_zero()
    assert rep.ok


def test_relative_modular_block_chart():
    # pi = d1^d2 + y1 y2 d3^d4, Q = {y = 0}: everything vanishes on Q
    pi = PolyMultiVec(4, 2, {(0, 1): Poly.const(4, 1), (2, 3): Poly.var(4, 2) * Poly.var(4, 3)})
    chart = PoissonChart(4, ("x1", "x2", "y1", "y2"), pi)
    rep = relative_modular(_aligned(chart, (0, 1)))
    assert rep.values["nu_r"].is_zero() and rep.values["pr_nu_P"].is_zero() and rep.values["nu_Q"].is_zero()
    assert rep.ok


def test_relative_modular_constant_blocks():
    pi = PolyMultiVec(4, 2, {(0, 1): Poly.const(4, 1), (2, 3): Poly.const(4, 1)})
    chart = PoissonChart(4, ("x1", "x2", "y1", "y2"), pi)
    rep = relative_modular(_aligned(chart, (0, 1)))
    assert rep.values["nu_r"].is_zero() and rep.values["pr_nu_P"].is_zero() and rep.values["nu_Q"].is_zero()
    assert rep.ok


def test_relative_modular_is_poisson_for_induced():
    chart = PoissonChart(2, ("x", "y"), PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 1)))
    rep = relative_modular(_aligned(chart, (0,)))
    assert schouten(rep.values["nu_r"], rep.values["chart_q"].pi).is_zero()


def test_relative_modular_extension_independent():
    # recompute nu_r(x) with the extension f = x + x y^2 (df|_Q still kills V_Q)
    chart = PoissonChart(2, ("x", "y"), PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 1)))
    rep = relative_modular(_aligned(chart, (0,)))
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    alt = hamiltonian_vf(chart, x + x * y**2)
    div_y = alt.component((1,)).diff(1).compose([Poly.var(1, 0), Poly.zero(1)])
    assert div_y == rep.values["nu_r"].component((0,))


def test_relative_modular_rejects_non_dirac():
    pi = PolyMultiVec(2, 2, {(0, 1): Poly.const(2, 1)})
    chart = PoissonChart(2, ("x", "y"), pi)
    with pytest.raises(ValueError):
        relative_modular(_aligned(chart, (0,)))


def test_relative_modular_checks_the_chart_it_computes_on():
    # Q = {y = 0} is Dirac for a = y dx^dy but not for b = dx^dy; the check and the
    # fields both read the submanifold's own chart, so Q in b is rejected
    a = PoissonChart(2, ("x", "y"), PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 1)))
    b = PoissonChart(2, ("x", "y"), PolyMultiVec.monomial(2, (0, 1), Poly.const(2, 1)))
    assert relative_modular(AlignedSubmanifold(a, (0,), (1,))).ok
    with pytest.raises(InvalidInput):
        relative_modular(AlignedSubmanifold(b, (0,), (1,)))
