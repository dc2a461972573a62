"""Matrix-group numerics: sampled points, cocycles, fixed-locus tensors, Stokes."""

import ast
import inspect
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (adjoint_coordinate_matrix, algebra_element, assert_pass_rule, bracket_difference, cocycle_lambda,
                      dense, mat_mul, pi_q_formula_swapped, poly_at, with_bound)
from poissonkit import dynr, groupnum
from poissonkit.report import WORDS, sample_words
from poissonkit.groupnum import (
    TOL_CROSS,
    TOL_MARKOFF,
    TOL_MEMBER,
    InvolutionSpec,
    TangentBivector,
    crosscheck_report,
    dual_group,
    dual_group_bivector,
    dual_tangency_residual,
    pi_q_formula,
    pi_q_projection,
    pl_bivector,
    rank_relation_holds,
    sl_group,
    stokes_report,
    su_group,
    _dual_points,
    _fixed_points,
    _stokes_points,
)
from poissonkit.chartio import parse_chart_file
from poissonkit.exactalg import Poly, Scalar
from poissonkit.poisson import bracket
from poissonkit.liealg import DOUBLE_R_SCALE, _double_basis, sl_chevalley, standard_r_matrix, su_compact_basis


# -- sampled points ---------------------------------------------------------------------


def _words(rng) -> np.ndarray:
    """One sample's row of raw words, drawn from a test's own generator."""
    return rng.integers(0, 2**64, size=(1, WORDS), dtype=np.uint64)


def _is_dyadic(x: np.ndarray, bits: int) -> bool:
    """Whether every entry of x is an integer over 2^bits."""
    return np.array_equal(x * 2.0**bits, np.round(x * 2.0**bits))


@pytest.mark.parametrize("n", range(2, 7))
def test_sampled_points_lie_on_their_loci(n):
    # at seeds 1-20, 200 samples each: every point is in its group and the fixed points are fixed
    # by their involution; the SL(n), Stokes and G* entries are dyadic, h D h^T over 8 * 8 * 2^(n // 2)
    # and D U over 8 * 2^(n // 2); the SL(n) points have distinct eigenvalues, so the route
    # comparison runs at generic points of the locus
    transpose, swap = InvolutionSpec("transpose"), InvolutionSpec("pair-swap")
    sl_n, su_n, dual_n = sl_group(n), su_group(n), dual_group(n)
    for seed in range(1, 21):
        words = sample_words(seed, range(200))
        sl, su = _fixed_points("sl", n, words), _fixed_points("su", n, words)
        stokes, dual = _stokes_points(n, words), _dual_points(n, words)
        for group, points in ((sl_n, sl), (su_n, su), (dual_n, stokes), (dual_n, dual)):
            assert np.max(group.membership(points)) <= TOL_MEMBER, (group.name, seed)
        assert max(np.max(transpose.fixed_residual(sl)), np.max(transpose.fixed_residual(su)),
                   np.max(swap.fixed_residual(stokes))) <= TOL_MEMBER
        assert _is_dyadic(sl, 6 + n // 2) and _is_dyadic(stokes, 3) and _is_dyadic(dual, 3 + n // 2)
        eigenvalues = np.linalg.eigvalsh(sl)
        assert np.min(np.diff(eigenvalues, axis=1) / np.abs(eigenvalues[:, 1:])) > 1e-6, seed


@pytest.mark.parametrize("n", range(2, 7))
def test_sl_crosscheck_routes_agree_exactly(n):
    # at the dyadic SL(n) points no float operation of either route rounds
    for seed in range(1, 6):
        assert crosscheck_report("sl", 200, seed, n).values["max_route_difference"] == 0.0, seed


# -- group data -----------------------------------------------------------------------


def _as_complex(exact) -> np.ndarray:
    """An exact matrix, or a pair of them, entry by entry as complex numbers."""
    return np.vectorize(lambda c: c.to_complex(), otypes=[complex])(np.array(exact, dtype=object))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_groups_carry_the_basis_and_r_matrix_of_their_algebra(n):
    # the groups are built from the exact matrix bases and r-terms alone; they must agree with the
    # exact algebras, whose structure constants no numeric code reads, and with the double's exact
    # basis.  A basis is real exactly when no entry has an imaginary part, so SU(n) keeps its i's.
    # The expected basis is the exact one densified and converted as one array, real when it has
    # no imaginary part: equal entries and the same dtype
    sl, su = sl_chevalley(n), su_compact_basis(n)
    double, double_terms = _double_basis(n)
    cases = [(sl_group(n), sl.matrices, (n, n), standard_r_matrix(sl).comps.items(), True),
             (su_group(n), su.matrices, (n, n), standard_r_matrix(su).comps.items(), False),
             (dual_group(n), double, (2, n, n), [((i, j), Scalar(c)) for i, j, c in double_terms], True)]
    for group, mats, shape, terms, real in cases:
        assert len(group.basis) == len(mats)
        expected = _as_complex([dense(m, shape) for m in mats])
        expected = expected if expected.imag.any() else expected.real
        assert all(np.array_equal(b, e) and b.dtype == e.dtype and np.isrealobj(b) == real
                   for b, e in zip(group.basis, expected))
        assert group.r_terms == [(i, j, float(c.re)) for (i, j), c in terms]
        assert all(type(c) is float for _, _, c in group.r_terms)
    dim = len(double) // 2
    assert dual_group(n).r_terms == [(i, dim + i, 4.0) for i in range(dim)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_su_standard_r_matrix_is_the_compact_one(n):
    # one r-matrix per algebra: standard_r_matrix on su(n) is sum d_a/2 X_a ^ Y_a, the r-matrix
    # that su_group carries, not sum d_a X_a ^ Y_a
    g = su_compact_basis(n)
    compact = {}
    for info in g.root_data.roots:
        a, b = info.pair
        compact[(g.labels.index(f"X{a + 1}{b + 1}"), g.labels.index(f"Y{a + 1}{b + 1}"))] = Scalar(info.d / 2)
    r = standard_r_matrix(g)
    assert r.comps == compact
    assert su_group(n).r_terms == [(i, j, float(c.re)) for (i, j), c in r.comps.items()]


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
        g = scipy.linalg.expm(algebra_element(group, r1))
        h = scipy.linalg.expm(algebra_element(group, r2))
        lhs = cocycle_lambda(group, g @ h)
        a = adjoint_coordinate_matrix(group, g)
        rhs = cocycle_lambda(group, g) + a @ cocycle_lambda(group, h) @ a.T
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-9


def test_lambda_sl2_one_parameter_hand_value():
    # g = exp(t e): Ad_g f = f + t h - t^2 e, Ad_g h = h - 2t e, Ad_g e = e,
    # so lambda(g) = e ^ (t h): single coefficient t on the (e, h) slot
    group, alg = sl_group(2), sl_chevalley(2)
    e = alg.labels.index("e12")
    f = alg.labels.index("f12")
    h = alg.labels.index("h1")
    t = 0.63
    g = scipy.linalg.expm(t * group.basis[e])
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
            g = scipy.linalg.expm(algebra_element(group, r1))
            h = scipy.linalg.expm(algebra_element(group, r2))
            lhs = pl_bivector(group, g @ h)
            right = pl_bivector(group, g).map_legs(lambda v: v @ h)
            left = pl_bivector(group, h).map_legs(lambda v: g @ v)
            diff = lhs.sharp_matrix() - right.sharp_matrix() - left.sharp_matrix()
            worst = max(worst, float(np.max(np.abs(diff))))
        assert worst <= 1e-9, group.name


def _ref_pl_bivector_ad(group, g):
    """pi(g) = r_{g*} (Ad_g r - r) at one point, term by term in the Ad form: the wedge pairs
    (c Ad_g(a) g, Ad_g(b) g) and (-c a g, b g), with Ad_g(x) = g x g^-1, for each r-term c a ^ b."""
    g_inv = np.linalg.inv(g)
    u, v = [], []
    for i, j, c in group.r_terms:
        a, b = group.basis[i], group.basis[j]
        u += [c * (g @ a @ g_inv @ g), -c * (a @ g)]
        v += [g @ b @ g_inv @ g, b @ g]
    return TangentBivector(g, np.stack(u), np.stack(v))


def _pl_cases():
    """(name, group, stack of 4 points): generic points of SL(n) and SU(n), n = 2..4, and of G*, n = 3, 4."""
    for n in (2, 3, 4):
        for group in (sl_group(n), su_group(n)):
            rngs = [np.random.default_rng([61, n, k]) for k in range(4)]
            yield group.name, group, scipy.linalg.expm(np.stack([algebra_element(group, rng) for rng in rngs]))
    for n in (3, 4):
        yield f"dual {n}", dual_group(n), _dual_points(n, sample_words(62, range(4), stream=n))


def test_pl_bivector_matches_ad_form():
    # g a is the tangent vector r_{g*} Ad_g a = g a g^-1 g, so the two leg sets span one bivector
    for name, group, points in _pl_cases():
        stacked = pl_bivector(group, points)
        for k, g in enumerate(points):
            ref = _ref_pl_bivector_ad(group, g)
            scale = max(1.0, ref.max_abs()) ** 2
            for pi in (pl_bivector(group, g), TangentBivector(g, stacked.u[k], stacked.v[k])):
                assert np.max(np.abs(pi.sharp_matrix() - ref.sharp_matrix())) <= 1e-13 * scale, (name, k)
                assert np.max(np.abs(pi.bracket_matrix() - ref.bracket_matrix())) <= 1e-13 * scale, (name, k)


def test_pl_bivector_inverts_nothing(monkeypatch):
    def no_inverse(*_):
        raise AssertionError("pl_bivector inverted a matrix")

    cases = list(_pl_cases())
    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    for name, group, points in cases:
        assert pl_bivector(group, points).u.shape[:2] == (4, 2 * len(group.r_terms)), name
        pl_bivector(group, points[0])
    with pytest.raises(AssertionError):  # the guard sees an inverse where one is taken
        _ref_pl_bivector_ad(sl_group(2), np.eye(2))


def test_entry_bracket_antisymmetry():
    group = sl_group(3)
    g = scipy.linalg.expm(algebra_element(group, np.random.default_rng(3)))
    pi = pl_bivector(group, g)
    assert np.array_equal(pi.bracket_matrix([(0, 0), (0, 0)]), np.zeros((2, 2)))
    a = pi.bracket_matrix([(0, 1), (2, 0)])[0, 1]
    b = pi.bracket_matrix([(2, 0), (0, 1)])[0, 1]
    assert abs(a + b) < 1e-15


# -- involutions ------------------------------------------------------------------------


def test_transpose_pushforward():
    spec = InvolutionSpec("transpose")
    v = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(spec.apply(v), v.T)
    assert np.max(np.abs(spec.apply(spec.apply(v)) - v)) < 1e-12


def test_pair_swap_pushforward():
    spec = InvolutionSpec("pair-swap")
    u = np.arange(9.0).reshape(3, 3)
    v = np.arange(9.0, 18.0).reshape(3, 3)
    out = spec.apply(np.stack([u, v]))
    assert np.array_equal(out[0], v.T)
    assert np.array_equal(out[1], u.T)


def _xplus(spec, g, v):
    """v+ through pi_q_projection, as the leg of v ^ v, which every involution fixes."""
    return pi_q_projection(spec, TangentBivector(g, [v], [v])).u[0]


def test_xplus_projector():
    spec = InvolutionSpec("transpose")
    g = np.eye(3)
    sym = np.array([[0.0, 1, 2], [1, 0, 3], [2, 3, 0]])
    anti = np.array([[0.0, 1, -2], [-1, 0, 3], [2, -3, 0]])
    assert np.array_equal(_xplus(spec, g, sym), sym)
    assert np.max(np.abs(_xplus(spec, g, anti))) == 0
    mixed = sym + anti
    once = _xplus(spec, g, mixed)
    assert np.max(np.abs(_xplus(spec, g, once) - once)) < 1e-12


def test_xplus_requires_fixed_point():
    spec = InvolutionSpec("transpose")
    g = scipy.linalg.expm(np.array([[0.0, 1], [0, 0]]))  # not symmetric
    with pytest.raises(ValueError, match="point is not fixed by the involution"):
        _xplus(spec, g, np.eye(2))


def test_projection_fixed_and_antifixed_cases():
    spec = InvolutionSpec("transpose")
    g = np.eye(3)
    sym1 = np.array([[1.0, 2, 0], [2, 0, 1], [0, 1, -1]])
    sym2 = np.array([[0.0, 0, 1], [0, 2, 0], [1, 0, -2]])
    anti = np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    fixed_pi = TangentBivector(g, [sym1], [sym2])
    out = pi_q_projection(spec, fixed_pi)
    assert np.max(np.abs(out.sharp_matrix() - fixed_pi.sharp_matrix())) < 1e-14
    # one anti-fixed leg per wedge term projects to zero: such a bivector is
    # only involution-invariant when paired to cancel, e.g. anti ^ sym + sym ^ anti
    mixed = TangentBivector(g, [anti, sym1], [sym1, anti])
    assert np.max(np.abs(pi_q_projection(spec, mixed).sharp_matrix())) < 1e-14


def test_projection_rejects_non_invariant():
    spec = InvolutionSpec("transpose")
    g = np.eye(3)
    sym = np.array([[1.0, 2, 0], [2, 0, 1], [0, 1, -1]])
    anti = np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        pi_q_projection(spec, TangentBivector(g, [anti], [sym]))
    # invariance is checked before the base point: at a point the involution moves, it still fails first
    moved = scipy.linalg.expm(np.array([[0.0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError, match="not involution-invariant"):
        pi_q_projection(spec, TangentBivector(moved, [anti], [sym]))


def test_projected_legs_tangent_to_symmetric_locus():
    group = sl_group(3)
    spec = InvolutionSpec("transpose")
    g = _fixed_points("sl", 3, sample_words(31, range(1)))[0]
    out = pi_q_projection(spec, pl_bivector(group, g))
    for u, v in zip(out.u, out.v):
        assert np.max(np.abs(u - u.T)) < 1e-9
        assert np.max(np.abs(v - v.T)) < 1e-9


# -- two routes ---------------------------------------------------------------------------


def test_formula_vanishes_at_identity():
    for group in (sl_group(3), su_group(3)):
        ident = np.eye(3, dtype=group.basis[0].dtype)
        pi = pi_q_formula(group, ident)
        assert np.max(np.abs(pi.sharp_matrix())) < 1e-14


def test_two_routes_agree_sl3_su3():
    for rep_kind in ("sl", "su"):
        rep = crosscheck_report(rep_kind, samples=10, seed=2, n=3)
        assert rep.ok, rep
        assert rep.values["max_route_difference"] <= 1e-8


def test_crosscheck_flags_legs_off_the_plus_eigenspace(monkeypatch):
    # a projection that leaves the u legs or the v legs as they are; on SU(3) the two routes still
    # agree and the rank relation holds, and on the dual group every Stokes readout still passes,
    # so only the +1 eigenspace check, run on both stacks, fails those reports (the report hands
    # it a block of samples, so it keeps the bivector's batch axis); on SL(3) the rank relation
    # fails too
    def u_only(spec, pi):
        return TangentBivector(pi.base, 0.5 * (pi.u + spec.apply(pi.u)), pi.v, pi.batch_ndim)

    def v_only(spec, pi):
        return TangentBivector(pi.base, pi.u, 0.5 * (pi.v + spec.apply(pi.v)), pi.batch_ndim)

    for half in (u_only, v_only):
        monkeypatch.setattr(groupnum, "pi_q_projection", half)
        sl, su = (crosscheck_report(kind, samples=3, seed=2, n=3) for kind in ("sl", "su"))
        stokes = stokes_report(3, 20, 1)
        for rep in (sl, su, stokes):
            assert rep.values["max_plus_residual"] > TOL_MEMBER, half.__name__
            assert not rep.ok
        assert not sl.values["rank_relation_ok"]
        assert su.values["max_route_difference"] <= 1e-8 and su.values["rank_relation_ok"]
        assert stokes.values["rank_relation_ok"] and stokes.values["kappa_two_defect"] <= 1e-8
        assert max(stokes.values[key] for key in ("max_dubrovin_residual", "max_pushforward_residual",
                                                  "max_tangency_residual", "max_markoff_defect")) <= 1e-8


def test_su3_specialized_formula():
    # with phi X = -X, phi Y = Y the direct formula collapses to
    # 1/4 sum d_a (X^L - X^R) ^ (Y^L + Y^R); check it against the
    # projection route at sampled symmetric unitaries
    group = su_group(3)
    spec = InvolutionSpec("transpose")
    alg = su_compact_basis(3)
    worst = 0.0
    for k in range(5):
        g = _fixed_points("su", 3, sample_words(37, range(k, k + 1)))[0]
        u, v = [], []
        for i, j, c in group.r_terms:  # c = d_a / 2 on the (X_a, Y_a) slot
            x_mat, y_mat = group.basis[i], group.basis[j]
            u.append(0.5 * c * (g @ x_mat - x_mat @ g))
            v.append(g @ y_mat + y_mat @ g)
        special = TangentBivector(g, u, v)
        projected = pi_q_projection(spec, pl_bivector(group, g))
        worst = max(worst, bracket_difference(projected, special))
    assert worst <= 1e-12
    assert alg.name == "su3"
    assert all(np.array_equal(b, _as_complex(dense(m, (3, 3)))) for b, m in zip(group.basis, alg.matrices))


def test_swapped_arrow_binding_rejected():
    group = sl_group(3)
    spec = InvolutionSpec("transpose")
    g = _fixed_points("sl", 3, sample_words(33, range(1)))[0]
    proj = pi_q_projection(spec, pl_bivector(group, g))
    swapped = pi_q_formula_swapped(group, g)
    assert bracket_difference(proj, swapped) > 1e-3


# -- dual group and Stokes -------------------------------------------------------------------


def test_dual_basis_duality():
    group = dual_group(3)
    dim = group.dim // 2  # the diagonal D_i first, then the dual xi^i
    for i, xi in enumerate(group.basis[dim:]):
        for j, d in enumerate(group.basis[:dim]):
            target = 1.0 if i == j else 0.0
            assert abs(np.trace(xi[0] @ d[0]) - np.trace(xi[1] @ d[1]) - target) < 1e-12


def _exact_pairing(x, y):
    """<(a,b),(c,d)> = tr(ac) - tr(bd), exactly."""
    def trace(m):
        return sum((m[k][k] for k in range(len(m))), Scalar(0))
    return trace(mat_mul(x[0], y[0])) - trace(mat_mul(x[1], y[1]))


@pytest.mark.parametrize("n", range(2, 7))
def test_double_basis_is_dual_exactly(n):
    # <xi^i, D_j> = delta_ij in exact arithmetic; the xi^i lie in b+ + b-: (upper, lower) pairs
    # with opposite diagonals; and r = DOUBLE_R_SCALE sum_i D_i ^ xi^i
    basis, r_terms = _double_basis(n)
    dim = len(basis) // 2
    assert dim == n * n - 1
    diagonal, duals = ([dense(pair, (2, n, n)) for pair in half] for half in (basis[:dim], basis[dim:]))
    assert all(top == bottom for top, bottom in diagonal)
    for i, xi in enumerate(duals):
        assert [_exact_pairing(xi, d) for d in diagonal] == [Scalar(int(i == j)) for j in range(dim)]
        upper, lower = xi
        assert all(not upper[a][b] and not lower[b][a] for a in range(n) for b in range(a))
        assert all(upper[a][a] == -lower[a][a] for a in range(n))
    assert r_terms == tuple((i, dim + i, DOUBLE_R_SCALE) for i in range(dim))
    assert DOUBLE_R_SCALE == 4 and isinstance(DOUBLE_R_SCALE, Fraction)


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
    group = dual_group(3)
    worst = 0.0
    for k in range(20):
        point = _dual_points(3, sample_words(41, range(k, k + 1)))[0]
        pi = dual_group_bivector(group, point)
        worst = max(worst, dual_tangency_residual(pi))
    assert worst <= 1e-8


def test_stokes_report_passes():
    rep = stokes_report(3, samples=20, seed=1)
    assert rep.ok
    assert abs(rep.values["kappa"] - 2.0) <= 1e-8
    assert rep.values["max_dubrovin_residual"] <= 1e-8
    assert rep.values["max_pushforward_residual"] <= 1e-8
    assert rep.values["max_markoff_defect"] <= 1e-7
    assert rep.values["rank_relation_ok"]


def test_dubrovin_target_is_the_exact_chart_at_dyadic_points():
    # the float target and dubrovin3.chart state one bracket, on (x, y, z) = (S_12, S_13, S_23) as
    # the chart file says; with entries k/8 every product and difference is exact in binary floats
    chart, _ = parse_chart_file("dubrovin3.chart")
    variables = [Poly.var(3, p) for p in range(3)]
    exact = [[bracket(chart, f, g) for g in variables] for f in variables]
    values = [Fraction(k, 8) for k in (-13, -8, -1, 0, 3, 8, 16)]
    points = list(itertools.product(values, repeat=3))
    s = np.tile(np.eye(3), (len(points), 1, 1))
    s[:, 0, 1], s[:, 0, 2], s[:, 1, 2] = np.array(points, dtype=float).T
    target = groupnum._dubrovin_target(s)
    for point, got in zip(points, target):
        assert [[Fraction(v) for v in row] for row in got] == [[poly_at(b, point) for b in row] for row in exact]


def test_stokes_deterministic_bitwise():
    rep1 = stokes_report(3, samples=6, seed=7)
    rep2 = stokes_report(3, samples=6, seed=7)
    assert rep1 == rep2
    assert rep1.lines(True, "group stokes") == rep2.lines(True, "group stokes")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stokes_pass_rule(seed, monkeypatch):
    # TOL_CROSS bounds the Dubrovin residual, the kappa-two defect, the pushforward residual and
    # the tangency residual; the rank cut has its own bound, so it stays where it is
    bounded = ("max_dubrovin_residual", "kappa_two_defect", "max_pushforward_residual", "max_tangency_residual")
    check = with_bound(monkeypatch, groupnum, "TOL_CROSS", lambda: stokes_report(3, samples=3, seed=seed))
    assert_pass_rule(check, bounded, seed, 3)


def _failed_stokes_gates(values, route=TOL_CROSS):
    """The gates of stokes_report's pass rule that its values fail, with the route gates at
    ``route`` and the others at their bounds as imported; the tangency gate reads the route
    bound, and is held to TOL_CROSS also where a control raises that bound."""
    bounds = {"max_dubrovin_residual": route, "kappa_two_defect": route, "max_pushforward_residual": route,
              "max_tangency_residual": min(route, TOL_CROSS), "max_markoff_defect": TOL_MARKOFF,
              "max_plus_residual": TOL_MEMBER}
    return [key for key, bound in bounds.items() if not values[key] <= bound] + (
        [] if values["rank_relation_ok"] else ["rank_relation_ok"])


def _with_invariant_term(monkeypatch, eps, w_entry, z_entry):
    """pl_bivector plus eps (w ^ z + Phi w ^ Phi z) at points fixed by the pair-swap Phi, with w
    and z the unit vectors at the given entries of (B, C); points Phi moves keep pi as it is."""
    spec, original = InvolutionSpec("pair-swap"), groupnum.pl_bivector
    w, z = np.zeros((2, 2, 3, 3)), np.zeros((2, 2, 3, 3))
    w[0, 0][w_entry] = z[0, 0][z_entry] = 1.0
    w[1], z[1] = spec.apply(w[0]), spec.apply(z[0])

    def perturbed(group, g):
        pi = original(group, g)
        if np.any(spec.fixed_residual(g) > TOL_MEMBER):
            return pi
        extra = (len(g), 2, 2, 3, 3)
        return TangentBivector(g, np.concatenate([pi.u, np.broadcast_to(eps * w, extra)], axis=1),
                               np.concatenate([pi.v, np.broadcast_to(z, extra)], axis=1), 1)

    monkeypatch.setattr(groupnum, "pl_bivector", perturbed)


# each control makes stokes_report fail through one gate alone, every other value within its bound.
# w strictly lower in beta leaves T G* and moves only the tangency residual.  w, z along B_12 and
# B_13 are tangent and move only {x, y}, by eps / 2, which is not the entry kappa is read at: at
# eps = 1e-4 and TOL_CROSS = 1 the Markoff defect fails alone, at eps = 1e-8 and TOL_CROSS = 1e-9
# the Dubrovin residual does, the Markoff defect staying near 1.4e-8
@pytest.mark.parametrize("gate, eps, w_entry, z_entry, route", [
    ("max_tangency_residual", 1e-4, (1, 0), (0, 1), 1e-8),
    ("max_markoff_defect", 1e-4, (0, 1), (0, 2), 1.0),
    ("max_dubrovin_residual", 1e-8, (0, 1), (0, 2), 1e-9),
], ids=["tangency", "markoff", "dubrovin"])
def test_stokes_fails_through_one_gate(monkeypatch, gate, eps, w_entry, z_entry, route):
    monkeypatch.setattr(groupnum, "TOL_CROSS", route)
    assert _failed_stokes_gates(stokes_report(3, 20, 1).values, route) == []
    _with_invariant_term(monkeypatch, eps, w_entry, z_entry)
    rep = stokes_report(3, 20, 1)
    assert _failed_stokes_gates(rep.values, route) == [gate] and not rep.ok


def test_stokes_fails_through_the_rank_relation_alone(monkeypatch):
    # the rank relation alone reads the +1 basis; handed the -1 eigenspace, it fails by itself
    plus = groupnum._plus_eigenspace

    def minus(spec, shape, dtype):
        p = plus(spec, shape, dtype)
        return np.linalg.svd(np.eye(len(p)) - p @ p.T)[0][:, :len(p) - p.shape[1]]

    monkeypatch.setattr(groupnum, "_plus_eigenspace", minus)
    rep = stokes_report(3, 20, 1)
    assert _failed_stokes_gates(rep.values) == ["rank_relation_ok"] and not rep.ok


@pytest.mark.parametrize("kind", ["sl", "su"])
def test_crosscheck_pass_rule(kind, monkeypatch):
    # TOL_CROSS bounds the route difference only; the +1 eigenspace residual has TOL_MEMBER
    check = with_bound(monkeypatch, groupnum, "TOL_CROSS", lambda: crosscheck_report(kind, 3, 2, n=3))
    assert_pass_rule(check, ("max_route_difference",), 2, 3)


@pytest.mark.parametrize("module, name", [("groupnum", "stokes_report"), ("groupnum", "crosscheck_report"),
                                          ("dynr", "residual_scan")])
def test_every_bound_of_a_pass_rule_is_a_module_constant(module, name):
    # a bound is fixed in the check's definition: each order comparison in the report compares
    # with a module-level constant, never a literal or a parameter, so no caller can move it
    tree = ast.parse(inspect.getsource({"groupnum": groupnum, "dynr": dynr}[module]))
    constants = {target.id for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name) and target.id.isupper()}
    (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    bounds = [comparator for node in ast.walk(function) if isinstance(node, ast.Compare)
              for op, comparator in zip(node.ops, node.comparators) if isinstance(op, (ast.Lt, ast.LtE))]
    assert bounds and not [ast.unparse(b) for b in bounds if not (isinstance(b, ast.Name) and b.id in constants)]
    assert not [node for node in ast.walk(function) if isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Gt, ast.GtE)) for op in node.ops)]


def test_stokes_requires_n3_chart():
    with pytest.raises(ValueError):
        stokes_report(4, samples=2, seed=1)


def test_rank_relation_on_so3_style_degenerate():
    # a rank-deficient invariant bivector on pairs: zero tensor trivially works
    spec = InvolutionSpec("transpose")
    g = np.eye(3)
    pi = TangentBivector(g, np.zeros((0, 3, 3)), np.zeros((0, 3, 3)))
    assert rank_relation_holds(spec, pi, pi_q_projection(spec, pi))


# -- stacked legs against the per-pair formulas ---------------------------------------------


def _ref_vec(x):
    x = np.asarray(x)
    return np.concatenate([np.real(x).ravel(), np.imag(x).ravel()])


def _ref_leg(x, complex_legs):
    """A leg as a vector of the tangent space: realified for complex legs, flattened for real ones."""
    return _ref_vec(x) if complex_legs else np.asarray(x).ravel()


def _ref_sharp(pi):
    complex_legs = np.iscomplexobj(pi.u)
    size = (2 if complex_legs else 1) * pi.base.size
    m = np.zeros((size, size))
    for u, v in zip(pi.u, pi.v):
        uu, vv = _ref_leg(u, complex_legs), _ref_leg(v, complex_legs)
        m += np.outer(uu, vv) - np.outer(vv, uu)
    return m


def _ref_entry_bracket(pi, idx1, idx2):
    total = 0.0
    for u, v in zip(pi.u, pi.v):
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
    complex_legs = np.iscomplexobj(template)
    half = template.size
    size = (2 if complex_legs else 1) * half
    p = np.zeros((size, size))
    for k in range(size):
        probe = np.zeros(2 * half)
        probe[k] = 1.0
        re = probe[:half].reshape(template.shape)
        im = probe[half:].reshape(template.shape)
        v = re + 1j * im if complex_legs else re
        p[:, k] = _ref_leg(_ref_push(spec, v), complex_legs)
    _, s, vt = np.linalg.svd(p - np.eye(size))
    basis = vt[s <= thresh].T
    return basis @ basis.T


def _ref_tangency(pi):
    """The largest pairing of a column of the sharp matrix with the constraint differentials of G*,
    over the scale max(1, |pi|)^2."""
    b, c = pi.base[0], pi.base[1]
    half = pi.base.size
    res = 0.0
    for col in _ref_sharp(pi).T:
        beta, gamma = col[:half].reshape(pi.base.shape)
        res = max(res, float(np.max(np.abs(np.tril(beta, -1)))))
        res = max(res, float(np.max(np.abs(np.triu(gamma, 1)))))
        res = max(res, float(np.max(np.abs(np.diag(beta) * np.diag(c) + np.diag(b) * np.diag(gamma)))))
    legs = [abs(x) for leg in (*pi.u, *pi.v) for x in np.ravel(leg)]
    return res / max(1.0, *legs) ** 2


def _random_bivector(rng, base, m):
    shape = (m, *base.shape)
    u = rng.normal(size=shape)
    v = rng.normal(size=shape)
    if np.iscomplexobj(base):
        u = u + 1j * rng.normal(size=shape)
        v = v + 1j * rng.normal(size=shape)
    return TangentBivector(base, u, v)


def _stacked_cases():
    """(name, bivector) on SL(3), SU(3) and the pair group: random legs and pl_bivector."""
    rng = np.random.default_rng(51)
    sl3, su3 = sl_group(3), su_group(3)
    points = {
        "SL(3)": (sl3, scipy.linalg.expm(algebra_element(sl3, rng))),
        "SU(3)": (su3, scipy.linalg.expm(algebra_element(su3, rng))),
        "pair": (dual_group(3), _dual_points(3, _words(rng))[0]),
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
                assert abs(pi.bracket_matrix([i1, i2])[0, 1] - ref) <= 1e-14 * scale, (name, i1, i2)
                assert abs(full[p, q] - ref) <= 1e-14 * scale, (name, i1, i2)


def test_stacked_bracket_difference_matches_double_loop():
    cases = list(_stacked_cases())
    for (name_a, a), (name_b, b) in zip(cases[::2], cases[1::2]):
        scale = max(1.0, a.max_abs(), b.max_abs()) ** 2
        assert abs(bracket_difference(a, b) - _ref_bracket_difference(a, b)) <= 1e-14 * scale, name_a
        assert bracket_difference(a, a) == 0.0


def test_stacked_push_matches_per_leg_push():
    rng = np.random.default_rng(52)
    for kind, shape in (("transpose", (3, 3)), ("pair-swap", (2, 3, 3))):
        spec = InvolutionSpec(kind)
        legs = rng.normal(size=(5, *shape)) + 1j * rng.normal(size=(5, *shape))
        assert np.array_equal(spec.apply(legs), np.stack([_ref_push(spec, leg) for leg in legs])), kind
        assert np.array_equal(spec.apply(legs[0]), _ref_push(spec, legs[0])), kind
        nested = legs.reshape(5, 1, *shape)
        assert np.array_equal(spec.apply(nested)[:, 0], spec.apply(legs)), kind


def test_plus_eigenspace_matches_per_probe_loop():
    from poissonkit.groupnum import _plus_eigenspace

    for n in range(2, 7):
        templates = (
            ("transpose", np.eye(n)),
            ("transpose", np.eye(n, dtype=complex)),
            ("pair-swap", np.stack([np.eye(n), np.eye(n)])),
            ("pair-swap", np.stack([np.eye(n), np.eye(n)]).astype(complex)),
        )
        for kind, template in templates:
            spec = InvolutionSpec(kind)
            basis = _plus_eigenspace(spec, template.shape, template.dtype)
            ref = _ref_plus_projector(spec, template)
            assert np.max(np.abs(basis @ basis.T - ref)) <= 1e-14, (n, kind, template.dtype)
            assert basis.shape[1] == round(np.trace(ref))


def _ref_invariance(spec, pi):
    """|| Phi_* pi - pi || of the sharp matrices, Phi_* pi's legs pushed one by one."""
    pushed = TangentBivector(pi.base, [_ref_push(spec, u) for u in pi.u], [_ref_push(spec, v) for v in pi.v])
    return float(np.max(np.abs(_ref_sharp(pushed) - _ref_sharp(pi))))


def test_permuted_invariance_matches_pushed_legs():
    # pi_q_projection reads Phi_* pi as the sharp matrix permuted on both axes; on random legs at
    # fixed points, with and without their pushed copies, it must raise exactly where the pushed
    # legs' residual exceeds TOL_MEMBER max(1, |pi|)^2, and report that residual
    rng = np.random.default_rng(54)
    stokes = _stokes_points(3, _words(rng))[0]
    bases = (("transpose", _fixed_points("sl", 3, _words(rng))[0]),
             ("transpose", _fixed_points("su", 3, _words(rng))[0]),
             ("pair-swap", stokes), ("pair-swap", stokes.astype(complex)))
    for kind, base in bases:
        spec = InvolutionSpec(kind)
        off = _random_bivector(rng, base, 4)
        on = TangentBivector(base, [*off.u, *spec.apply(off.u)], [*off.v, *spec.apply(off.v)])
        assert _ref_invariance(spec, on) <= 1e-14 * max(1.0, on.max_abs()) ** 2
        pi_q_projection(spec, on)
        ref = _ref_invariance(spec, off)
        with pytest.raises(ValueError, match=re.escape(f"not involution-invariant (residual {ref:.2e})")):
            pi_q_projection(spec, off)
        # on plus t off, just below and just above the bound; t off's legs stay below |on|
        bound = TOL_MEMBER * max(1.0, on.max_abs()) ** 2
        for factor, raises in ((0.5, False), (2.0, True)):
            t = factor * bound / ref
            mixed = TangentBivector(base, [*on.u, *(t * off.u)], [*on.v, *off.v])
            assert mixed.max_abs() == on.max_abs() and (_ref_invariance(spec, mixed) > bound) == raises
            if raises:
                with pytest.raises(ValueError, match="not involution-invariant"):
                    pi_q_projection(spec, mixed)
            else:
                pi_q_projection(spec, mixed)


def test_dual_tangency_matches_per_column_loop():
    group = dual_group(3)
    rng = np.random.default_rng(53)
    point = _dual_points(3, _words(rng))[0]
    tangent = dual_group_bivector(group, point)
    off = _random_bivector(rng, point, 3)  # generic legs leave T G*
    for pi in (tangent, off):
        assert abs(dual_tangency_residual(pi) - _ref_tangency(pi)) <= 1e-14
    assert dual_tangency_residual(off) > 1e-3
    # only the strictly upper part of gamma leaves G*
    e01 = np.zeros((3, 3))
    e01[0, 1] = 1.0
    upper_gamma = TangentBivector(point, [np.stack([np.zeros((3, 3)), e01])], [np.stack([np.eye(3), np.zeros((3, 3))])])
    assert abs(dual_tangency_residual(upper_gamma) - _ref_tangency(upper_gamma)) <= 1e-14
    assert dual_tangency_residual(upper_gamma) > 0.5
    # a leaving direction of weight 1e-6 |pi|^2 beside the tangent pi: strictly lower beta paired
    # with the tangent B_12, which keeps |pi| and reads 1e-6 at the scale max(1, |pi|)^2
    scale = max(1.0, tangent.max_abs()) ** 2
    lower_beta, b12 = np.zeros((2, 3, 3)), np.zeros((2, 3, 3))
    lower_beta[0, 1, 0] = b12[0, 0, 1] = 1.0
    weak = TangentBivector(point, [*tangent.u, 1e-6 * scale * lower_beta], [*tangent.v, b12])
    assert weak.max_abs() == tangent.max_abs()
    assert abs(dual_tangency_residual(weak) - _ref_tangency(weak)) <= 1e-14
    assert abs(dual_tangency_residual(weak) - 1e-6) <= 1e-12 and dual_tangency_residual(weak) > groupnum.TOL_CROSS


def test_empty_bivector():
    spec = InvolutionSpec("pair-swap")
    point = np.stack([np.eye(3), np.eye(3)])
    pi = TangentBivector(point, np.zeros((0, 2, 3, 3)), np.zeros((0, 2, 3, 3)))
    assert pi.u.shape == pi.v.shape == (0, 2, 3, 3)
    assert np.array_equal(pi.sharp_matrix(), np.zeros((18, 18)))
    assert np.array_equal(pi.bracket_matrix(), np.zeros((18, 18)))
    assert np.array_equal(pi.bracket_matrix([(0, 0, 1), (1, 1, 0)]), np.zeros((2, 2)))
    assert pi.max_abs() == 0.0
    assert pi_q_projection(spec, pi).u.shape == (0, 2, 3, 3)
    assert dual_tangency_residual(pi) == 0.0
    assert bracket_difference(pi, pi) == 0.0
    assert rank_relation_holds(spec, pi, pi_q_projection(spec, pi))


def test_leg_stacks_must_match_the_base():
    with pytest.raises(ValueError):
        TangentBivector(np.eye(3), np.zeros((2, 3, 3)), np.zeros((1, 3, 3)))
    with pytest.raises(ValueError):
        TangentBivector(np.eye(3), np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))


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
        return TangentBivector(base, u, v).sharp_matrix()

    s = sharp(u1, v1)
    assert np.array_equal(s, -s.T)
    assert np.max(np.abs(sharp(u1 + a * u2, v1) - sharp(u1, v1) - a * sharp(u2, v1)), initial=0.0) <= 1e-12
    assert np.max(np.abs(sharp(u1, v1 + a * v2) - sharp(u1, v1) - a * sharp(u1, v2)), initial=0.0) <= 1e-12
    assert np.max(np.abs(sharp(v1, u1) + s), initial=0.0) <= 1e-12
