"""Matrix-group numerics: exponentials, cocycles, fixed-locus tensors, Stokes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonkit import groupnum
from poissonkit.groupnum import (
    TOL_MEMBER,
    InvolutionSpec,
    TangentBivector,
    adjoint_coordinate_matrix,
    cocycle_lambda,
    crosscheck_report,
    dual_group,
    dual_group_bivector,
    dual_tangency_residual,
    matrix_exp,
    pair_trace,
    pi_q_formula,
    pi_q_projection,
    pl_bivector,
    rank_relation_holds,
    sl_group,
    stokes_report,
    su_group,
    xplus,
    _sample_fixed_point,
    _bracket_difference,
)


# -- matrix exponential -----------------------------------------------------------


def test_expm_zero():
    assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    a = 0.37
    out = matrix_exp(np.diag([a, -a]))
    assert np.max(np.abs(out - np.diag([np.exp(a), np.exp(-a)]))) < 1e-14


def test_expm_inverse_property():
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.normal(size=(4, 4))
        prod = matrix_exp(x) @ matrix_exp(-x)
        assert np.max(np.abs(prod - np.eye(4))) < 1e-12


# -- cocycle ------------------------------------------------------------------------


def test_lambda_identity_zero():
    group = sl_group(3)
    lam = cocycle_lambda(group, np.eye(3))
    assert np.max(np.abs(lam)) < 1e-12


def test_cocycle_identity_random_pairs():
    group = sl_group(3)
    worst = 0.0
    for k in range(20):
        r1 = np.random.default_rng([11, k])
        r2 = np.random.default_rng([12, k])
        g = matrix_exp(group.random_algebra_element(r1))
        h = matrix_exp(group.random_algebra_element(r2))
        lhs = cocycle_lambda(group, g @ h)
        a = adjoint_coordinate_matrix(group, g)
        rhs = cocycle_lambda(group, g) + a @ cocycle_lambda(group, h) @ a.T
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-9


def test_lambda_sl2_one_parameter_hand_value():
    # g = exp(t e): Ad_g f = f + t h - t^2 e, Ad_g h = h - 2t e, Ad_g e = e,
    # so lambda(g) = e ^ (t h): single coefficient t on the (e, h) slot
    group = sl_group(2)
    e = group.algebra.label_index("e12")
    f = group.algebra.label_index("f12")
    h = group.algebra.label_index("h1")
    t = 0.63
    g = matrix_exp(t * group.basis[e])
    lam = cocycle_lambda(group, g)
    expected = np.zeros((3, 3))
    expected[e, h] = t
    expected[h, e] = -t
    assert np.max(np.abs(lam - expected)) < 1e-12


# -- Poisson-Lie bivector -------------------------------------------------------------


def test_pl_vanishes_at_identity():
    for group in (sl_group(3), su_group(3)):
        pi = pl_bivector(group, np.eye(3, dtype=group.basis[0].dtype))
        assert np.max(np.abs(pi.sharp_matrix())) < 1e-13


def test_pl_multiplicativity():
    for group in (sl_group(2), sl_group(3), su_group(2), su_group(3)):
        worst = 0.0
        for k in range(20):
            r1 = np.random.default_rng([21, k])
            r2 = np.random.default_rng([22, k])
            g = matrix_exp(group.random_algebra_element(r1))
            h = matrix_exp(group.random_algebra_element(r2))
            lhs = pl_bivector(group, g @ h)
            right = pl_bivector(group, g).map_legs(lambda v: v @ h)
            left = pl_bivector(group, h).map_legs(lambda v: g @ v)
            diff = lhs.sharp_matrix() - right.sharp_matrix() - left.sharp_matrix()
            worst = max(worst, float(np.max(np.abs(diff))))
        assert worst <= 1e-9, group.name


def test_entry_bracket_antisymmetry():
    group = sl_group(3)
    g = matrix_exp(group.random_algebra_element(np.random.default_rng(3)))
    pi = pl_bivector(group, g)
    assert pi.entry_bracket((0, 0), (0, 0)) == 0
    a = pi.entry_bracket((0, 1), (2, 0))
    b = pi.entry_bracket((2, 0), (0, 1))
    assert abs(a + b) < 1e-15


# -- involutions ------------------------------------------------------------------------


def test_transpose_pushforward():
    spec = InvolutionSpec("transpose")
    v = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(spec.push(v), v.T)
    assert np.max(np.abs(spec.push(spec.push(v)) - v)) < 1e-12


def test_pair_swap_pushforward():
    spec = InvolutionSpec("pair-swap")
    u = np.arange(9.0).reshape(3, 3)
    v = np.arange(9.0, 18.0).reshape(3, 3)
    out = spec.push(np.stack([u, v]))
    assert np.array_equal(out[0], v.T)
    assert np.array_equal(out[1], u.T)


def test_xplus_projector():
    spec = InvolutionSpec("transpose")
    g = np.eye(3)
    sym = np.array([[0.0, 1, 2], [1, 0, 3], [2, 3, 0]])
    anti = np.array([[0.0, 1, -2], [-1, 0, 3], [2, -3, 0]])
    assert np.array_equal(xplus(spec, g, sym), sym)
    assert np.max(np.abs(xplus(spec, g, anti))) == 0
    mixed = sym + anti
    once = xplus(spec, g, mixed)
    assert np.max(np.abs(xplus(spec, g, once) - once)) < 1e-12


def test_xplus_requires_fixed_point():
    spec = InvolutionSpec("transpose")
    g = matrix_exp(np.array([[0.0, 1], [0, 0]]))  # not symmetric
    with pytest.raises(ValueError):
        xplus(spec, g, np.eye(2))


def test_projection_fixed_and_antifixed_cases():
    spec = InvolutionSpec("transpose")
    g = np.eye(3)
    sym1 = np.array([[1.0, 2, 0], [2, 0, 1], [0, 1, -1]])
    sym2 = np.array([[0.0, 0, 1], [0, 2, 0], [1, 0, -2]])
    anti = np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    fixed_pi = TangentBivector(g, [(sym1, sym2)])
    out = pi_q_projection(spec, fixed_pi)
    assert np.max(np.abs(out.sharp_matrix() - fixed_pi.sharp_matrix())) < 1e-14
    # one anti-fixed leg per wedge term projects to zero: such a bivector is
    # only involution-invariant when paired to cancel, e.g. anti ^ sym + sym ^ anti
    mixed = TangentBivector(g, [(anti, sym1), (sym1, anti)])
    assert np.max(np.abs(pi_q_projection(spec, mixed).sharp_matrix())) < 1e-14


def test_projection_rejects_non_invariant():
    spec = InvolutionSpec("transpose")
    g = np.eye(3)
    sym = np.array([[1.0, 2, 0], [2, 0, 1], [0, 1, -1]])
    anti = np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        pi_q_projection(spec, TangentBivector(g, [(anti, sym)]))


def test_projected_legs_tangent_to_symmetric_locus():
    group = sl_group(3)
    spec = InvolutionSpec("transpose")
    g = _sample_fixed_point(group, np.random.default_rng([31, 0]))
    out = pi_q_projection(spec, pl_bivector(group, g))
    for u, v in out.pairs:
        assert np.max(np.abs(u - u.T)) < 1e-9
        assert np.max(np.abs(v - v.T)) < 1e-9


# -- two routes ---------------------------------------------------------------------------


def test_formula_vanishes_at_identity():
    for group in (sl_group(3), su_group(3)):
        ident = np.eye(3, dtype=group.basis[0].dtype)
        pi = pi_q_formula(group, ident, lambda m: np.swapaxes(m, -1, -2))
        assert np.max(np.abs(pi.sharp_matrix())) < 1e-14


def test_two_routes_agree_sl3_su3():
    for rep_kind in ("sl", "su"):
        rep = crosscheck_report(rep_kind, samples=10, seed=2, tol=1e-8, n=3)
        assert rep.ok, rep
        assert rep.max_route_difference <= 1e-8


def test_crosscheck_flags_legs_off_the_plus_eigenspace(monkeypatch):
    # a projection that leaves the v legs as they are; on SU(3) the two routes still agree and the
    # rank relation holds, so only the +1 eigenspace check, run on both stacks, fails the report
    def u_only(spec, pi):
        return TangentBivector.from_legs(pi.base, xplus(spec, pi.base, pi.u), pi.v)

    monkeypatch.setattr(groupnum, "pi_q_projection", u_only)
    for kind in ("sl", "su"):
        rep = crosscheck_report(kind, samples=3, seed=2, tol=1e-8, n=3)
        assert rep.max_plus_residual > TOL_MEMBER
        assert not rep.ok


def test_su3_specialized_formula():
    # with phi X = -X, phi Y = Y the direct formula collapses to
    # 1/4 sum d_a (X^L - X^R) ^ (Y^L + Y^R); check it against the
    # projection route at sampled symmetric unitaries
    group = su_group(3)
    spec = InvolutionSpec("transpose")
    alg = group.algebra
    worst = 0.0
    for k in range(5):
        g = _sample_fixed_point(group, np.random.default_rng([37, k]))
        pairs = []
        for i, j, c in group.r_terms:  # c = d_a / 2 on the (X_a, Y_a) slot
            x_mat, y_mat = group.basis[i], group.basis[j]
            pairs.append((0.5 * c * (g @ x_mat - x_mat @ g), g @ y_mat + y_mat @ g))
        special = TangentBivector(g, pairs)
        projected = pi_q_projection(spec, pl_bivector(group, g))
        worst = max(worst, _bracket_difference(projected, special))
    assert worst <= 1e-12
    assert alg.name == "su3"


def test_swapped_arrow_binding_rejected():
    group = sl_group(3)
    spec = InvolutionSpec("transpose")
    g = _sample_fixed_point(group, np.random.default_rng([33, 0]))
    proj = pi_q_projection(spec, pl_bivector(group, g))
    swapped = pi_q_formula(group, g, lambda m: np.swapaxes(m, -1, -2), swap_arrows=True)
    assert _bracket_difference(proj, swapped) > 1e-3


# -- dual group and Stokes -------------------------------------------------------------------


def test_dual_basis_duality():
    group = dual_group(3)
    for i, xi in enumerate(group.xi_basis):
        for j, d in enumerate(group.diag_basis):
            target = 1.0 if i == j else 0.0
            assert abs(pair_trace(xi, d) - target) < 1e-12


def test_dual_bivector_identity_zero():
    group = dual_group(3)
    pi = dual_group_bivector(group, np.stack([np.eye(3), np.eye(3)]))
    assert np.max(np.abs(pi.sharp_matrix())) < 1e-12


def test_dual_membership_enforced():
    group = dual_group(3)
    bad = np.stack([np.eye(3) + 0.1, np.eye(3)])  # dense, not upper-triangular
    with pytest.raises(ValueError):
        dual_group_bivector(group, bad)


def test_dual_tangency_random_points():
    from poissonkit.groupnum import _sample_dual_point

    group = dual_group(3)
    worst = 0.0
    for k in range(20):
        point = _sample_dual_point(3, np.random.default_rng([41, k]))
        pi = dual_group_bivector(group, point)
        worst = max(worst, dual_tangency_residual(pi))
    assert worst <= 1e-8


def test_stokes_report_passes():
    rep = stokes_report(3, samples=20, seed=1, tol=1e-8)
    assert rep.ok
    assert abs(abs(rep.kappa) - 2.0) <= 1e-8
    assert rep.max_dubrovin_residual <= 1e-8
    assert rep.max_pushforward_residual <= 1e-8
    assert rep.max_markoff_defect <= 1e-7
    assert rep.rank_relation_ok


def test_stokes_deterministic_bitwise():
    rep1 = stokes_report(3, samples=6, seed=7, tol=1e-8)
    rep2 = stokes_report(3, samples=6, seed=7, tol=1e-8)
    assert rep1 == rep2
    assert rep1.lines() == rep2.lines()


def test_stokes_requires_n3_chart():
    with pytest.raises(ValueError):
        stokes_report(4, samples=2, seed=1)


def test_rank_relation_on_so3_style_degenerate():
    # a rank-deficient invariant bivector on pairs: zero tensor trivially works
    spec = InvolutionSpec("transpose")
    g = np.eye(3)
    pi = TangentBivector(g, [])
    assert rank_relation_holds(spec, pi, pi_q_projection(spec, pi))


# -- stacked legs against the per-pair formulas ---------------------------------------------


def _ref_vec(x):
    x = np.asarray(x)
    return np.concatenate([np.real(x).ravel(), np.imag(x).ravel()])


def _ref_sharp(pi):
    size = 2 * pi.base.size
    m = np.zeros((size, size))
    for u, v in pi.pairs:
        uu, vv = _ref_vec(u), _ref_vec(v)
        m += np.outer(uu, vv) - np.outer(vv, uu)
    return m


def _ref_entry_bracket(pi, idx1, idx2):
    total = 0.0
    for u, v in pi.pairs:
        total = total + u[idx1] * v[idx2] - u[idx2] * v[idx1]
    return total


def _ref_bracket_difference(a, b):
    idxs = list(np.ndindex(*a.base.shape))
    best = 0.0
    for p in range(len(idxs)):
        for q in range(p + 1, len(idxs)):
            lhs = complex(_ref_entry_bracket(a, idxs[p], idxs[q]))
            best = max(best, abs(lhs - complex(_ref_entry_bracket(b, idxs[p], idxs[q]))))
    return best


def _ref_push(spec, v):
    """Per-leg push: g^T, or (B, C) -> (C^T, B^T) on one pair."""
    if spec.kind == "transpose":
        return v.T
    return np.stack([v[1].T, v[0].T])


def _ref_plus_projector(spec, template, thresh=1e-8):
    """Projector onto the +1 eigenspace, with the pushforward matrix built probe by probe."""
    size = 2 * template.size
    half = template.size
    p = np.zeros((size, size))
    for k in range(size):
        probe = np.zeros(size)
        probe[k] = 1.0
        re = probe[:half].reshape(template.shape)
        im = probe[half:].reshape(template.shape)
        v = re + 1j * im if np.iscomplexobj(template) else re
        p[:, k] = _ref_vec(_ref_push(spec, v))
    _, s, vt = np.linalg.svd(p - np.eye(size))
    basis = vt[s <= thresh].T
    return basis @ basis.T


def _ref_tangency(pi):
    b, c = pi.base[0], pi.base[1]
    half = pi.base.size
    u, s, _ = np.linalg.svd(_ref_sharp(pi), full_matrices=False)
    res = 0.0
    for col in u[:, s > 1e-10].T:
        leg = col[:half].reshape(pi.base.shape)
        beta, gamma = leg[0], leg[1]
        res = max(res, float(np.max(np.abs(np.tril(beta, -1)))))
        res = max(res, float(np.max(np.abs(np.triu(gamma, 1)))))
        res = max(res, float(np.max(np.abs(np.diag(beta) * np.diag(c) + np.diag(b) * np.diag(gamma)))))
    return res


def _random_bivector(rng, base, m):
    shape = (m, *base.shape)
    u = rng.normal(size=shape)
    v = rng.normal(size=shape)
    if np.iscomplexobj(base):
        u = u + 1j * rng.normal(size=shape)
        v = v + 1j * rng.normal(size=shape)
    return TangentBivector(base, list(zip(u, v)))


def _stacked_cases():
    """(name, bivector) on SL(3), SU(3) and the pair group: random legs and pl_bivector."""
    from poissonkit.groupnum import _sample_dual_point

    rng = np.random.default_rng(51)
    sl3, su3 = sl_group(3), su_group(3)
    points = {
        "SL(3)": (sl3, matrix_exp(sl3.random_algebra_element(rng))),
        "SU(3)": (su3, matrix_exp(su3.random_algebra_element(rng))),
        "pair": (dual_group(3), _sample_dual_point(3, rng)),
    }
    for name, (group, g) in points.items():
        yield f"{name} random", _random_bivector(rng, g, 7)
        yield f"{name} pl", pl_bivector(group, g)


def test_stacked_sharp_and_brackets_match_per_pair_formulas():
    for name, pi in _stacked_cases():
        scale = max(1.0, pi.max_abs()) ** 2
        assert np.max(np.abs(pi.sharp_matrix() - _ref_sharp(pi))) <= 1e-14 * scale, name
        idxs = list(np.ndindex(*pi.base.shape))
        full = pi.bracket_matrix()
        for p, i1 in enumerate(idxs):
            for q, i2 in enumerate(idxs):
                ref = _ref_entry_bracket(pi, i1, i2)
                assert abs(pi.entry_bracket(i1, i2) - ref) <= 1e-14 * scale, (name, i1, i2)
                assert abs(full[p, q] - ref) <= 1e-14 * scale, (name, i1, i2)


def test_stacked_bracket_difference_matches_double_loop():
    cases = list(_stacked_cases())
    for (name_a, a), (name_b, b) in zip(cases[::2], cases[1::2]):
        scale = max(1.0, a.max_abs(), b.max_abs()) ** 2
        assert abs(_bracket_difference(a, b) - _ref_bracket_difference(a, b)) <= 1e-14 * scale, name_a
        assert _bracket_difference(a, a) == 0.0


def test_stacked_push_matches_per_leg_push():
    rng = np.random.default_rng(52)
    for kind, shape in (("transpose", (3, 3)), ("pair-swap", (2, 3, 3))):
        spec = InvolutionSpec(kind)
        legs = rng.normal(size=(5, *shape)) + 1j * rng.normal(size=(5, *shape))
        assert np.array_equal(spec.push(legs), np.stack([_ref_push(spec, leg) for leg in legs])), kind
        assert np.array_equal(spec.push(legs[0]), _ref_push(spec, legs[0])), kind
        nested = legs.reshape(5, 1, *shape)
        assert np.array_equal(spec.push(nested)[:, 0], spec.push(legs)), kind


def test_plus_eigenspace_matches_per_probe_loop():
    from poissonkit.groupnum import _plus_eigenspace

    templates = (
        ("transpose", np.eye(3)),
        ("transpose", np.eye(3, dtype=complex)),
        ("pair-swap", np.stack([np.eye(3), np.eye(3)])),
    )
    for kind, template in templates:
        spec = InvolutionSpec(kind)
        basis = _plus_eigenspace(spec, template, 1e-8)
        ref = _ref_plus_projector(spec, template)
        assert np.max(np.abs(basis @ basis.T - ref)) <= 1e-14, (kind, template.dtype)
        assert basis.shape[1] == round(np.trace(ref))


def test_dual_tangency_matches_per_column_loop():
    from poissonkit.groupnum import _sample_dual_point

    group = dual_group(3)
    rng = np.random.default_rng(53)
    point = _sample_dual_point(3, rng)
    tangent = dual_group_bivector(group, point)
    off = _random_bivector(rng, point, 3)  # generic legs leave T G*
    for pi in (tangent, off):
        assert abs(dual_tangency_residual(pi) - _ref_tangency(pi)) <= 1e-14
    assert dual_tangency_residual(off) > 1e-3
    # only the strictly upper part of gamma leaves G*
    e01 = np.zeros((3, 3))
    e01[0, 1] = 1.0
    upper_gamma = TangentBivector(point, [(np.stack([np.zeros((3, 3)), e01]), np.stack([np.eye(3), np.zeros((3, 3))]))])
    assert abs(dual_tangency_residual(upper_gamma) - _ref_tangency(upper_gamma)) <= 1e-14
    assert dual_tangency_residual(upper_gamma) > 0.5


def test_empty_bivector():
    spec = InvolutionSpec("pair-swap")
    point = np.stack([np.eye(3), np.eye(3)])
    pi = TangentBivector(point, [])
    assert pi.u.shape == pi.v.shape == (0, 2, 3, 3)
    assert pi.pairs == []
    assert np.array_equal(pi.sharp_matrix(), np.zeros((36, 36)))
    assert np.array_equal(pi.bracket_matrix(), np.zeros((18, 18)))
    assert pi.entry_bracket((0, 0, 1), (1, 1, 0)) == 0
    assert pi.max_abs() == 0.0
    assert pi_q_projection(spec, pi).u.shape == (0, 2, 3, 3)
    assert dual_tangency_residual(pi) == 0.0
    assert _bracket_difference(pi, pi) == 0.0
    assert rank_relation_holds(spec, pi, pi_q_projection(spec, pi))


def test_leg_stacks_must_match_the_base():
    with pytest.raises(ValueError):
        TangentBivector.from_legs(np.eye(3), np.zeros((2, 3, 3)), np.zeros((1, 3, 3)))
    with pytest.raises(ValueError):
        TangentBivector.from_legs(np.eye(3), np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(0, 5),
    shape=st.sampled_from([(3, 3), (2, 3, 3)]),
    complex_legs=st.booleans(),
    a=st.floats(-4.0, 4.0),
)
def test_sharp_matrix_antisymmetric_and_bilinear(seed, m, shape, complex_legs, a):
    rng = np.random.default_rng(seed)
    base = np.zeros(shape, dtype=complex if complex_legs else float)

    def legs():
        out = rng.normal(size=(m, *shape))
        return out + 1j * rng.normal(size=(m, *shape)) if complex_legs else out

    u1, u2, v1, v2 = legs(), legs(), legs(), legs()

    def sharp(u, v):
        return TangentBivector.from_legs(base, u, v).sharp_matrix()

    s = sharp(u1, v1)
    assert np.array_equal(s, -s.T)
    assert np.max(np.abs(sharp(u1 + a * u2, v1) - sharp(u1, v1) - a * sharp(u2, v1)), initial=0.0) <= 1e-12
    assert np.max(np.abs(sharp(u1, v1 + a * v2) - sharp(u1, v1) - a * sharp(u1, v2)), initial=0.0) <= 1e-12
    assert np.max(np.abs(sharp(v1, u1) + s), initial=0.0) <= 1e-12
