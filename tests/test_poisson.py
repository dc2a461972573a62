"""Charts, brackets, Casimirs, and (relative) modular vector fields."""

import pytest

from conftest import make_rng
from poissonkit.dirac import AlignedSubmanifold
from poissonkit.exactalg import Poly, PolyMultiVec, Scalar, schouten
from poissonkit.liealg import builtin_algebra, lie_poisson_chart
from poissonkit.oracle import rand_multivec, rand_poly, schouten_oracle
from poissonkit.poisson import (
    PoissonChart,
    UnsupportedDensity,
    bracket,
    contract_forms,
    hamiltonian_vf,
    is_casimir,
    jacobiator,
    modular_vf,
    relative_modular,
    sharp,
)


def dubrovin_chart():
    return PoissonChart.from_brackets(
        ("x", "y", "z"),
        {(0, 1): "x*y - 2*z", (1, 2): "y*z - 2*x", (0, 2): "-(z*x - 2*y)"},
    )


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
    out = bracket(chart, chart.parse("x"), chart.parse("y"))
    assert out == chart.parse("x*y - 2*z")


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
    verdict = is_casimir(chart, chart.parse("x^2 + y^2 + z^2 - x*y*z"))
    assert verdict.ok
    assert hamiltonian_vf(chart, chart.parse("x^2 + y^2 + z^2 - x*y*z")).is_zero()


def test_constant_is_casimir():
    assert is_casimir(dubrovin_chart(), Poly.const(3, 7)).ok


def test_so3_quadratic_casimir():
    chart = lie_poisson_chart(builtin_algebra("so3"))
    quad = Poly.var(3, 0) ** 2 + Poly.var(3, 1) ** 2 + Poly.var(3, 2) ** 2
    assert is_casimir(chart, quad).ok


def test_casimir_failure_reports_witness():
    chart = dubrovin_chart()
    verdict = is_casimir(chart, chart.parse("x"))
    assert not verdict.ok
    assert verdict.witness is not None and not verdict.witness.is_zero()


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


# -- relative modular field ------------------------------------------------------


def _aligned(chart, xs):
    ys = tuple(i for i in range(chart.dim) if i not in xs)
    return AlignedSubmanifold(chart, tuple(xs), ys)


def test_relative_modular_linear_fixture():
    # pi = y dx^dy on R^2, Q = {y = 0}: nu_r = d/dx, pr nu_P = d/dx, nu_Q = 0
    chart = PoissonChart(2, ("x", "y"), PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 1)))
    rep = relative_modular(chart, _aligned(chart, (0,)))
    assert rep.nu_r.comps == {(0,): Poly.const(1, 1)}
    assert rep.pr_nu_p.comps == {(0,): Poly.const(1, 1)}
    assert rep.nu_q.is_zero()
    assert rep.relation_holds


def test_relative_modular_block_chart():
    # pi = d1^d2 + y1 y2 d3^d4, Q = {y = 0}: everything vanishes on Q
    pi = PolyMultiVec(4, 2, {(0, 1): Poly.const(4, 1), (2, 3): Poly.var(4, 2) * Poly.var(4, 3)})
    chart = PoissonChart(4, ("x1", "x2", "y1", "y2"), pi)
    rep = relative_modular(chart, _aligned(chart, (0, 1)))
    assert rep.nu_r.is_zero() and rep.pr_nu_p.is_zero() and rep.nu_q.is_zero()
    assert rep.relation_holds


def test_relative_modular_constant_blocks():
    pi = PolyMultiVec(4, 2, {(0, 1): Poly.const(4, 1), (2, 3): Poly.const(4, 1)})
    chart = PoissonChart(4, ("x1", "x2", "y1", "y2"), pi)
    rep = relative_modular(chart, _aligned(chart, (0, 1)))
    assert rep.nu_r.is_zero() and rep.pr_nu_p.is_zero() and rep.nu_q.is_zero()
    assert rep.relation_holds


def test_relative_modular_is_poisson_for_induced():
    chart = PoissonChart(2, ("x", "y"), PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 1)))
    rep = relative_modular(chart, _aligned(chart, (0,)))
    assert schouten(rep.nu_r, rep.chart_q.pi).is_zero()


def test_relative_modular_extension_independent():
    # recompute nu_r(x) with the extension f = x + x y^2 (df|_Q still kills V_Q)
    chart = PoissonChart(2, ("x", "y"), PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 1)))
    rep = relative_modular(chart, _aligned(chart, (0,)))
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    alt = hamiltonian_vf(chart, x + x * y**2)
    div_y = alt.component((1,)).diff(1).set_vars_zero([1]).restrict([0])
    assert div_y == rep.nu_r.component((0,))


def test_relative_modular_rejects_non_dirac():
    pi = PolyMultiVec(2, 2, {(0, 1): Poly.const(2, 1)})
    chart = PoissonChart(2, ("x", "y"), pi)
    with pytest.raises(ValueError):
        relative_modular(chart, _aligned(chart, (0,)))
