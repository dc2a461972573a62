"""Acceptance criteria, one test per criterion with its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion; each test also enforces its runtime budget.
"""

import time

import numpy as np

from conftest import equivariance_check, make_rng
from poissonkit.chartio import parse_chart_file
from poissonkit.cli import run_command
from poissonkit.dirac import (
    AlignedSubmanifold,
    affine_lie_poisson_dirac,
    check_aligned_dirac,
)
from poissonkit.dynr import DynamicalRFamily, residual_scan
from poissonkit.exactalg import Poly, PolyMultiVec, schouten
from poissonkit.groupnum import (
    InvolutionSpec,
    crosscheck_report,
    dual_group,
    dual_group_bivector,
    pi_q_projection,
    pl_bivector,
    rank_relation_holds,
    stokes_report,
    su_group,
    sl_group,
    _fixed_points,
    _stokes_points,
)
from poissonkit.liealg import (
    builtin_algebra,
    chi_check,
    coboundary_check,
    drinfeld_double,
    sl_chevalley,
    standard_r_matrix,
    su_compact_basis,
    symmetric_bialgebra_check,
    transpose_antimorphism,
    validate_lie,
)
from poissonkit.oracle import rand_multivec, schouten_oracle
from poissonkit.poisson import PoissonChart, hamiltonian_vf, jacobiator, relative_modular


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {status}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_c01_dubrovin_jacobi_exact():
    t0 = time.perf_counter()
    code, _ = run_command(["check", "jacobi", "dubrovin3.chart"])
    chart, _ = parse_chart_file("dubrovin3.chart")
    exact_zero = jacobiator(chart).is_zero()
    elapsed = time.perf_counter() - t0
    _report(1, code == 0 and exact_zero and elapsed < 1.0,
            f"exact Jacobiator zero, {elapsed:.3f}s")


def test_c02_markoff_casimir_exact():
    t0 = time.perf_counter()
    code, _ = run_command(["check", "casimir", "dubrovin3.chart", "--f", "x^2+y^2+z^2-x*y*z"])
    chart, _ = parse_chart_file("dubrovin3.chart")
    xf = hamiltonian_vf(chart, chart.parse("x^2+y^2+z^2-x*y*z"))
    elapsed = time.perf_counter() - t0
    _report(2, code == 0 and xf.is_zero() and elapsed < 1.0,
            f"Hamiltonian field exactly zero, {elapsed:.3f}s")


def test_c03_schouten_oracle_100_pairs():
    t0 = time.perf_counter()
    rng = make_rng(303)
    ok = True
    for _ in range(100):
        a = rand_multivec(rng, 3, rng.randint(0, 2))
        b = rand_multivec(rng, 3, rng.randint(0, 2))
        if not (schouten(a, b) - schouten_oracle(a, b)).is_zero():
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _report(3, ok and elapsed < 10.0, f"100 seeded pairs exact, {elapsed:.2f}s")


def test_c04_dirac_criterion_examples():
    t0 = time.perf_counter()
    pi = PolyMultiVec(4, 2, {(0, 1): Poly.const(4, 1), (2, 3): Poly.const(4, 1)})
    chart = PoissonChart(4, ("x1", "x2", "x3", "x4"), pi)
    ok = check_aligned_dirac(AlignedSubmanifold(chart, (0, 1), (2, 3))).ok
    bad = check_aligned_dirac(AlignedSubmanifold(chart, (0, 3), (1, 2)))
    ok = ok and (not bad.ok) and bad.witness[1] == Poly.const(4, 1)
    e1 = time.perf_counter() - t0

    t0 = time.perf_counter()
    so3 = builtin_algebra("so3")
    ok = ok and affine_lie_poisson_dirac(so3, ["x3"], ["x1", "x2"], [0, 0, 1]).ok
    ok = ok and not affine_lie_poisson_dirac(so3, ["x1", "x2"], ["x3"], [0, 0, 1]).ok
    sl2 = builtin_algebra("sl2")
    ok = ok and affine_lie_poisson_dirac(sl2, ["h1"], ["e12", "f12"], [0, 0, 1]).ok
    e2 = time.perf_counter() - t0
    _report(4, ok and e1 < 1.0 and e2 < 1.0,
            f"constant {e1:.3f}s + affine Lie-Poisson {e2:.3f}s, all exact")


def test_c05_relative_modular_identity():
    chart, sub = parse_chart_file("relmod2.chart")
    rep = relative_modular(sub)
    ok = (
        rep.ok
        and rep.values["nu_r"].comps == {(0,): Poly.const(1, 1)}
        and rep.values["pr_nu_P"].comps == {(0,): Poly.const(1, 1)}
        and rep.values["nu_Q"].is_zero()
        and (rep.values["pr_nu_P"] - rep.values["nu_Q"]) == rep.values["nu_r"]
    )
    _report(5, ok, "nu_r = pr nu_P - nu_Q holds exactly on the y dx^dy fixture")


def test_c06_symmetric_bialgebra_suite():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for g in (sl_chevalley(2), sl_chevalley(3), su_compact_basis(2), su_compact_basis(3)):
        r = standard_r_matrix(g)
        phi = transpose_antimorphism(g)
        cob = coboundary_check(g, r)
        sym = symmetric_bialgebra_check(g, r, phi)
        dd = drinfeld_double(g, r)
        dv = validate_lie(dd.sigma)
        chi = chi_check(dd, phi)
        good = bool(cob and sym and dv and chi)
        ok = ok and good
        detail.append(f"{g.name}:{'ok' if good else 'FAIL'}")
    elapsed = time.perf_counter() - t0
    _report(6, ok and elapsed < 30.0, f"{' '.join(detail)}, {elapsed:.2f}s")


def test_c07_stokes_flagship():
    t0 = time.perf_counter()
    rep = stokes_report(3, samples=20, seed=1)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.ok
        and abs(rep.values["kappa"] - 2.0) <= 1e-8
        and rep.values["max_dubrovin_residual"] <= 1e-8
        and rep.values["max_pushforward_residual"] <= 1e-8
    )
    _report(7, ok and elapsed < 30.0,
            f"kappa={rep.values['kappa']:.12f}, dubrovin={rep.values['max_dubrovin_residual']:.2e}, "
            f"pushforward={rep.values['max_pushforward_residual']:.2e}, {elapsed:.2f}s")


def test_c08_two_route_agreement():
    t0 = time.perf_counter()
    sl = crosscheck_report("sl", samples=10, seed=2, n=3)
    su = crosscheck_report("su", samples=10, seed=2, n=3)
    elapsed = time.perf_counter() - t0
    ok = sl.ok and su.ok
    _report(8, ok and elapsed < 30.0,
            f"SL(3,R) diff={sl.values['max_route_difference']:.2e}, "
            f"SU(3) diff={su.values['max_route_difference']:.2e}, {elapsed:.2f}s")


def test_c09_cdybe():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for n in (2, 3):
        g = sl_chevalley(n)
        for fam in (DynamicalRFamily(g, "trig"), DynamicalRFamily(g, "rational")):
            rep = residual_scan(fam, samples=10, seed=5)
            good = (rep.values["spread"] <= 1e-7 and rep.values["invariance_defect"] <= 1e-7
                    and rep.values["derivative_defect"] <= 1e-7)
            ok = ok and good
            detail.append(f"sl{n}/{fam.kind}:{rep.values['spread']:.1e}")
    g3 = sl_chevalley(3)
    neg = residual_scan(DynamicalRFamily(g3, "tanh-corrupted"), samples=6, seed=5)
    ok = ok and not neg.ok
    eq = equivariance_check(DynamicalRFamily(g3, "trig"), transpose_antimorphism(g3))
    ok = ok and eq.ok
    elapsed = time.perf_counter() - t0
    _report(9, ok and elapsed < 10.0,
            f"{' '.join(detail)}, negative control fails, {elapsed:.2f}s")


def test_c10_rank_relation_at_sampled_fixed_points():
    t0 = time.perf_counter()
    ok = True
    # criterion 7 points: Fix(pair-swap) in the dual group
    group = dual_group(3)
    psi = InvolutionSpec("pair-swap")
    for k in range(20):
        rng = np.random.default_rng([1, k])
        pi = dual_group_bivector(group, _stokes_points(3, [rng])[0])
        ok = ok and rank_relation_holds(psi, pi, pi_q_projection(psi, pi))
    # criterion 8 points: transpose-fixed points of SL(3, R) and SU(3)
    spec = InvolutionSpec("transpose")
    for grp in (sl_group(3), su_group(3)):
        for k in range(10):
            g = _fixed_points(grp, [np.random.default_rng([2, k])])[0]
            pi = pl_bivector(grp, g)
            ok = ok and rank_relation_holds(spec, pi, pi_q_projection(spec, pi))
    elapsed = time.perf_counter() - t0
    _report(10, ok, f"rank pi_Q^# == dim(im pi^# meet T_xQ) at 40 sampled points, {elapsed:.2f}s")
