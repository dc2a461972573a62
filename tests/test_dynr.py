"""Dynamical r-matrix families: evaluation, CDYBE residual, equivariance."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import _ad_defect, assert_pass_rule, counted_calls, equivariance_check, make_rng, rr_bracket, with_bound
from poissonkit import dynr, report
from poissonkit.dynr import (
    DynamicalRFamily,
    NearSingular,
    cdybe_residual,
    eval_r,
    r_derivative,
    residual_scan,
    structure_tensor,
)
from poissonkit.exactalg import Scalar
from poissonkit.groupnum import crosscheck_report, stokes_report
from poissonkit.liealg import (
    AlgElement,
    LieAlgebraData,
    LinearAlgMap,
    alg_schouten,
    sl_chevalley,
    su_compact_basis,
    transpose_antimorphism,
)
from poissonkit import linalg
from poissonkit.oracle import rand_alg_element
from poissonkit.report import InvalidInput


def _upper_entries(t):
    """(index tuple, entry) of an antisymmetric array on strictly increasing tuples."""
    return [(idx, t[idx]) for idx in itertools.combinations(range(t.shape[0]), t.ndim)]


def _max_gap(elem, t):
    """Largest difference between an exact element and an antisymmetric array, over increasing tuples."""
    return max(abs(float(elem.component(idx).re) - value) for idx, value in _upper_entries(t))


# -- evaluation -----------------------------------------------------------------


def test_eval_r_sl2_trig_value():
    g = sl_chevalley(2)
    fam = DynamicalRFamily(g, "trig")
    lam = [0.7]
    r = eval_r(fam, lam)
    e, f = g.labels.index("e12"), g.labels.index("f12")
    # coefficient g(<alpha, lambda>/2) = coth(lambda(h_alpha)) = coth(0.7)
    assert abs(r[e, f] - 1.0 / math.tanh(0.7)) < 1e-15


def test_eval_r_antisymmetric_storage():
    g = sl_chevalley(2)
    r = eval_r(DynamicalRFamily(g, "trig"), [0.9])
    e, f = g.labels.index("e12"), g.labels.index("f12")
    assert r.shape == (g.dim, g.dim)
    assert r[f, e] == -r[e, f]
    assert np.array_equal(r, -r.T)


def test_rational_homogeneity():
    g = sl_chevalley(3)
    fam = DynamicalRFamily(g, "rational")
    lam = np.array([0.8, -1.3])
    c = 2.5
    r1 = eval_r(fam, c * lam)
    r2 = eval_r(fam, lam) * (1.0 / c)
    assert np.max(np.abs(r1 - r2)) < 1e-14


def test_singular_guard():
    g = sl_chevalley(2)
    with pytest.raises(NearSingular):
        eval_r(DynamicalRFamily(g, "trig"), [1e-5])


def test_structure_tensor_rejects_non_real_constants():
    g = LieAlgebraData.from_brackets(["a", "b"], {(0, 1): {0: Scalar(0, 1)}})
    with pytest.raises(ValueError, match="not real"):
        structure_tensor(g)


# -- residual -------------------------------------------------------------------


def test_residual_constant_two_points_sl2():
    g = sl_chevalley(2)
    fam = DynamicalRFamily(g, "trig")
    r1 = cdybe_residual(fam, [0.6])
    r2 = cdybe_residual(fam, [-1.4])
    assert np.max(np.abs(r1 - r2)) < 1e-12
    # the surviving constant is exactly e ^ f ^ h
    e, f, h = (g.labels.index(k) for k in ("e12", "f12", "h1"))
    assert abs(r1[e, f, h] - 1.0) < 1e-12


def test_residual_ad_invariance_sl2():
    # [x_b, res] written out slot by slot, without the cyclic shortcut of the scan
    g = sl_chevalley(2)
    C = structure_tensor(g)
    res = cdybe_residual(DynamicalRFamily(g, "trig"), [0.8])
    defect = (np.einsum("bil,ijk->bljk", C, res) + np.einsum("bij,lik->bljk", C, res)
              + np.einsum("bik,lji->bljk", C, res))
    assert np.max(np.abs(defect)) < 1e-12
    assert np.max(np.abs(_ad_defect(C, res) - defect)) < 1e-15


def test_rational_residual_vanishes_sl2():
    g = sl_chevalley(2)
    res = cdybe_residual(DynamicalRFamily(g, "rational"), [0.75])
    assert np.max(np.abs(res)) < 1e-12


def test_residual_storage_is_antisymmetric():
    g = sl_chevalley(3)
    res = cdybe_residual(DynamicalRFamily(g, "trig"), [0.9, 0.7])
    assert res.shape == (g.dim,) * 3
    for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        assert np.array_equal(res, -res.transpose(axes))
    for i, j in itertools.product(range(g.dim), repeat=2):
        assert res[i, i, j] == res[i, j, i] == res[j, i, i] == 0.0


# -- second routes: exact brackets over Scalars ------------------------------------


def _exact_rational_residual(g, lam):
    """(1/2)[r, r] and sum_m h_m ^ dr/dlambda_m + (1/2)[r, r] for the rational family, exactly."""
    roots = g.root_data.roots
    xs = [sum(c * l for c, l in zip(info.h_coords, lam)) for info in roots]  # <alpha, lambda> / 2
    r = AlgElement(g, 2, {(info.e_index, info.f_index): Scalar(info.d / x) for info, x in zip(roots, xs)})
    half = alg_schouten(r, r) * Scalar(Fraction(1, 2))
    total = half
    for m, h in enumerate(g.root_data.cartan):
        dr = AlgElement(g, 2, {
            (info.e_index, info.f_index): Scalar(-info.d * info.h_coords[m] / (x * x)) for info, x in zip(roots, xs)
        })
        total = total + AlgElement.basis(g, h).wedge(dr)
    return half, total


# points where every |<alpha, lambda>| >= 1/2, the region the scans sample
@pytest.mark.parametrize("n, points", [
    (3, [(Fraction(3, 4), Fraction(-5, 3)), (Fraction(-7, 2), Fraction(2, 3))]),
    (4, [(Fraction(3, 4), Fraction(-5, 3), Fraction(7, 5)), (Fraction(1, 3), Fraction(5, 4), Fraction(-1, 2))]),
])
def test_rational_residual_matches_exact_route(n, points):
    g = sl_chevalley(n)
    fam = DynamicalRFamily(g, "rational")
    C = structure_tensor(g)
    for lam in points:
        half, total = _exact_rational_residual(g, lam)
        assert not half.is_zero()  # the cancellation against the derivative terms is not vacuous
        lam_f = [float(v) for v in lam]
        assert _max_gap(half, 0.5 * rr_bracket(C, eval_r(fam, lam_f))) < 1e-12
        assert _max_gap(total, cdybe_residual(fam, lam_f)) < 1e-12


def _parity(perm):
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1 if inversions % 2 else 1


def _dense(elem):
    """The antisymmetric array of an exact real element of degree 2 or 3."""
    dim, k = elem.algebra.dim, elem.degree
    out = np.zeros((dim,) * k)
    for idxs, c in elem.comps.items():
        for perm in itertools.permutations(range(k)):
            out[tuple(idxs[p] for p in perm)] = _parity(perm) * float(c.re)
    return out


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "su2", "su3"])
def test_einsum_brackets_match_alg_schouten(name):
    g = sl_chevalley(int(name[2:])) if name.startswith("sl") else su_compact_basis(int(name[2:]))
    C = structure_tensor(g)
    rng = make_rng(45)
    density = 0.6 if g.dim < 5 else 0.2
    for _ in range(5):
        r = rand_alg_element(rng, g, 2, density)
        assert _max_gap(alg_schouten(r, r), rr_bracket(C, _dense(r))) < 1e-12
        t = rand_alg_element(rng, g, 3, density / 2)
        defects = _ad_defect(C, _dense(t))
        for b in range(g.dim):
            assert _max_gap(alg_schouten(AlgElement.basis(g, b), t), defects[b]) < 1e-12


# -- scans ----------------------------------------------------------------------


def test_scan_sl2_trig_tight(monkeypatch):
    monkeypatch.setattr(dynr, "TOL_CDYBE", 1e-8)
    rep = residual_scan(DynamicalRFamily(sl_chevalley(2), "trig"), samples=10, seed=5)
    assert rep.ok
    assert rep.values["spread"] <= 1e-8


def test_scan_sl3_both_families():
    g = sl_chevalley(3)
    for fam in (DynamicalRFamily(g, "trig"), DynamicalRFamily(g, "rational")):
        rep = residual_scan(fam, samples=10, seed=5)
        assert rep.ok, (fam.kind, rep)


def test_scan_negative_control_sl3():
    rep = residual_scan(DynamicalRFamily(sl_chevalley(3), "tanh-corrupted"), samples=6, seed=5)
    assert not rep.ok
    assert rep.values["spread"] > 1e-3


def test_tanh_family_solves_the_rank_one_equation():
    # tanh' + tanh^2 = 1, as coth' + coth^2 = 1, so on sl(2) the corrupted family is no control
    rep = residual_scan(DynamicalRFamily(sl_chevalley(2), "tanh-corrupted"), samples=6, seed=5)
    assert rep.ok and max(rep.values["spread"], rep.values["invariance_defect"]) <= 1e-12


def test_residual_scan_evaluates_r_once_per_block(monkeypatch):
    # per block: one eval_r call, at every lambda and its shifted copies, and one r_derivative
    # call per coordinate, from which the residual is formed; no second evaluation through
    # cdybe_residual, and one round-by-round draw of the block's lambda
    assert not hasattr(dynr, "_sample_lambda")
    monkeypatch.setattr(report, "BLOCK", 4)
    calls = counted_calls(monkeypatch, dynr, ["eval_r", "r_derivative", "cdybe_residual", "_sample_lambdas"])
    for n in (3, 4):
        family = DynamicalRFamily(sl_chevalley(n), "trig")
        calls.update(dict.fromkeys(calls, 0))
        assert residual_scan(family, samples=9, seed=2).ok  # blocks of 4, 4 and 1
        assert calls == {"eval_r": 3, "r_derivative": 3 * family.rank, "cdybe_residual": 0, "_sample_lambdas": 3}


def test_scan_deterministic():
    rep1 = residual_scan(DynamicalRFamily(sl_chevalley(3), "trig"), samples=6, seed=9)
    rep2 = residual_scan(DynamicalRFamily(sl_chevalley(3), "trig"), samples=6, seed=9)
    assert rep1 == rep2


@pytest.mark.parametrize("kind", ["trig", "tanh-corrupted"], ids=["trig_family", "corrupted_family"])
def test_residual_scan_pass_rule(kind, monkeypatch):
    # TOL_CDYBE bounds all three defects; the trig family's largest is the derivative defect,
    # the corrupted family's the spread
    family = DynamicalRFamily(sl_chevalley(3), kind)
    bounded = ("spread", "invariance_defect", "derivative_defect")
    check = with_bound(monkeypatch, dynr, "TOL_CDYBE", lambda: residual_scan(family, samples=3, seed=4))
    assert_pass_rule(check, bounded, 4, 3)


def test_residual_scan_fails_through_the_spread_alone(monkeypatch):
    # the trig residual times 1 + |r(lambda)|^2 / 1000: a scalar multiple stays ad-invariant and
    # the derivative check never reads it, so only the spread across lambda leaves its bound
    family = DynamicalRFamily(sl_chevalley(3), "trig")
    residual = dynr._residual

    def scaled(family, r, dr):
        return residual(family, r, dr) * (1.0 + 1e-3 * np.sum(r * r, axis=(-2, -1)))[..., None, None, None]

    assert residual_scan(family, samples=3, seed=4).ok
    monkeypatch.setattr(dynr, "_residual", scaled)
    rep = residual_scan(family, samples=3, seed=4)
    assert rep.values["spread"] > 1e-3
    assert max(rep.values["invariance_defect"], rep.values["derivative_defect"]) <= rep.values["tol"] and not rep.ok


def test_trig_family_is_equivariant_under_the_transpose():
    # the root-swapping anti-morphism fixes the Cartan, so r(lambda) must go to -r(lambda)
    g = sl_chevalley(3)
    assert equivariance_check(DynamicalRFamily(g, "trig"), transpose_antimorphism(g)).ok


def test_equivariance_pass_rule():
    # the identity is not an anti-morphism, so its defect is nonzero
    g = sl_chevalley(2)
    ident = LinearAlgMap(g, g, tuple(tuple(row) for row in linalg.identity(g.dim)))
    assert_pass_rule(lambda tol: equivariance_check(DynamicalRFamily(g, "trig"), ident, 2, 3, tol), ("defect",), 3, 2)


def test_report_values_are_python_floats():
    g = sl_chevalley(2)
    rep = residual_scan(DynamicalRFamily(g, "trig"), samples=3, seed=1)
    assert all(type(rep.values[k]) is float for k in ("spread", "invariance_defect", "derivative_defect"))
    eq = equivariance_check(DynamicalRFamily(g, "trig"), transpose_antimorphism(g), samples=2, seed=1)
    assert type(eq.values["defect"]) is float


def test_gradient_check_explicit():
    g = sl_chevalley(3)
    fam = DynamicalRFamily(g, "trig")
    lam = np.array([1.1, -0.9])
    step = 1e-5
    for m in range(2):
        lp, lm = lam.copy(), lam.copy()
        lp[m] += step
        lm[m] -= step
        fd = (eval_r(fam, lp) - eval_r(fam, lm)) * (1.0 / (2 * step))
        assert np.max(np.abs(fd - r_derivative(fam, lam, m))) < 1e-7


# -- equivariance ---------------------------------------------------------------


def test_equivariance_sl2_sl3():
    for n in (2, 3):
        g = sl_chevalley(n)
        s = transpose_antimorphism(g)
        rep = equivariance_check(DynamicalRFamily(g, "trig"), s, samples=8, seed=3)
        assert rep.ok
        assert rep.values["defect"] <= 1e-10


def test_equivariance_negative_control_identity():
    g = sl_chevalley(2)
    ident = LinearAlgMap(g, g, tuple(tuple(row) for row in linalg.identity(g.dim)))
    rep = equivariance_check(DynamicalRFamily(g, "trig"), ident, samples=4, seed=3)
    assert not rep.ok
    assert rep.values["defect"] > 0.1


def test_no_samples_is_no_pass():
    # over no samples there is nothing to check: all four sampled checks reject it as bad input
    g = sl_chevalley(2)
    with pytest.raises(InvalidInput):
        residual_scan(DynamicalRFamily(g, "trig"), samples=0)
    with pytest.raises(InvalidInput):
        equivariance_check(DynamicalRFamily(g, "trig"), transpose_antimorphism(g), samples=0)
    with pytest.raises(InvalidInput):
        stokes_report(3, 0)
    with pytest.raises(InvalidInput):
        crosscheck_report("sl", 0)


def test_equivariance_rejects_a_map_that_leaves_the_cartan():
    g = sl_chevalley(2)
    rows = [list(row) for row in linalg.identity(g.dim)]
    rows[g.labels.index("e12")][g.labels.index("h1")] = Scalar(1)  # h -> h + e
    s = LinearAlgMap(g, g, tuple(map(tuple, rows)))
    with pytest.raises(ValueError, match="Cartan"):
        equivariance_check(DynamicalRFamily(g, "trig"), s, samples=2)
