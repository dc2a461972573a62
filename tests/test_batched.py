"""The block-batched numeric reports against per-sample loops.

``stokes_report``, ``crosscheck_report``, ``residual_scan`` and
``equivariance_check`` run their samples in blocks of stacked array
operations.  The loops below are the per-sample versions they replaced, one
point or one lambda at a time, with the rank relation and the tangency
residual read from the whole sharp matrix and the samples drawn
entry by entry.  Every bool and str of a
report must agree exactly, every float to 1e-12 * max(1, |value|), and a
failing sample must raise what the loop raises.
"""

import tracemalloc

import numpy as np
import pytest

import conftest
from conftest import _ad_defect, algebra_element, equivariance_check
from poissonkit import dynr, groupnum, report
from poissonkit.groupnum import TOL_CROSS, TOL_MEMBER, InvolutionSpec, TangentBivector
from poissonkit.liealg import LinearAlgMap, sl_chevalley, transpose_antimorphism
from poissonkit.report import Report

# -- the per-sample loops ------------------------------------------------------------------


def _ref_rank(mat, thresh):
    return int(np.sum(np.linalg.svd(mat, compute_uv=False) > thresh)) if mat.size else 0


def _ref_image(mat, thresh):
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, s > thresh]


def _ref_rank_relation(spec, pi, projected, thresh=TOL_CROSS):
    image = _ref_image(pi.sharp_matrix(), thresh)
    plus = groupnum._plus_eigenspace(spec, pi.base.shape, pi.base.dtype, thresh)
    if image.shape[1] == 0 or plus.shape[1] == 0:
        dim_int = 0
    else:
        dim_int = image.shape[1] + plus.shape[1] - _ref_rank(np.concatenate([image, plus], axis=1), thresh)
    return _ref_rank(projected.sharp_matrix(), thresh) == dim_int


def _ref_tangency(pi):
    b, c = pi.base[0], pi.base[1]
    legs = _ref_image(pi.sharp_matrix(), 1e-10)[:pi.base.size].T.reshape(-1, *pi.base.shape)
    beta, gamma = legs[:, 0], legs[:, 1]
    diag = np.diagonal(beta, axis1=1, axis2=2) * np.diag(c) + np.diag(b) * np.diagonal(gamma, axis1=1, axis2=2)
    return float(max(np.max(np.abs(np.tril(beta, -1)), initial=0.0),
                     np.max(np.abs(np.triu(gamma, 1)), initial=0.0),
                     np.max(np.abs(diag), initial=0.0)))


def _ref_unipotent(n, rng):
    x = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            x[a, b] = rng.normal(0.0, 0.5)
    return groupnum.matrix_exp(x)


def _ref_dual_point(n, rng):
    up = np.zeros((n, n))
    low = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            up[a, b] = rng.normal(0.0, 0.5)
            low[b, a] = rng.normal(0.0, 0.5)
    d = rng.normal(0.0, 0.5, size=n)
    d -= d.mean()
    up += np.diag(d)
    low -= np.diag(d)
    return np.stack([groupnum.matrix_exp(up), groupnum.matrix_exp(low)])


def _ref_fixed_point(group, rng):
    coeffs = rng.normal(0.0, 0.5, size=group.dim)
    x = np.zeros_like(group.basis[0])
    for c, b in zip(coeffs, group.basis):
        x = x + c * b
    return groupnum.matrix_exp(0.5 * (x + x.T))


def _ref_stokes(samples, seed, tol=1e-8):
    n = 3
    kappa_predicted = 2.0  # {x, y} = 2 (xy - 2z), sign included
    group = groupnum.dual_group(n)
    psi = InvolutionSpec("pair-swap")
    max_resid = max_tangency = max_markoff = largest = 0.0
    kappa = None
    rank_ok = True
    for k in range(samples):
        b = _ref_unipotent(n, np.random.default_rng([seed, k]))
        point = np.stack([b, b.T])
        if group.membership(point) > TOL_MEMBER:
            raise AssertionError("sampled point failed group membership")
        pi = groupnum.pl_bivector(group, point)
        max_tangency = max(max_tangency, _ref_tangency(pi))
        pi_q = groupnum.pi_q_projection(psi, pi)
        rank_ok = rank_ok and _ref_rank_relation(psi, pi, pi_q)
        x, y, z = (float(point[idx]) for idx in groupnum.CHART_N3)
        chart = pi_q.bracket_matrix(groupnum.CHART_N3)
        for (p, q), rhs in zip(((0, 1), (1, 2), (2, 0)), (x * y - 2 * z, y * z - 2 * x, z * x - 2 * y)):
            lhs = float(chart[p, q])
            max_resid = max(max_resid, abs(lhs - kappa_predicted * rhs))
            if abs(rhs) > largest:  # kappa is the measured ratio at the largest target
                largest, kappa = abs(rhs), lhs / rhs
        grad = np.array([2 * x - y * z, 2 * y - x * z, 2 * z - x * y])
        max_markoff = max(max_markoff, float(np.max(np.abs(grad @ chart))))
    max_push = 0.0
    for k in range(samples):
        point = _ref_dual_point(n, np.random.default_rng([seed, samples + k]))
        pi = groupnum.dual_group_bivector(group, point)
        b, c = point
        pushed = pi.map_legs(lambda legs: legs[:, 0] @ c.T + b @ np.swapaxes(legs[:, 1], -1, -2), base=b @ c.T)
        x, y, z = pushed.base[0, 1], pushed.base[0, 2], pushed.base[1, 2]
        image = pushed.bracket_matrix(((0, 1), (0, 2), (1, 2)))
        for lhs, rhs in zip((image[0, 1], image[1, 2], image[2, 0]), (x * y - 2 * z, y * z - 2 * x, z * x - 2 * y)):
            max_push = max(max_push, abs(float(lhs) - 2.0 * kappa_predicted * float(rhs)))
    kappa_two_defect = abs(kappa - kappa_predicted)
    ok = (max_resid <= tol and kappa_two_defect <= tol and max_push <= tol and max_tangency <= TOL_CROSS
          and max_markoff <= 1e-7 and rank_ok)
    return Report(ok, {
        "kappa": kappa,
        "kappa_two_defect": kappa_two_defect,
        "max_dubrovin_residual": max_resid,
        "max_pushforward_residual": max_push,
        "max_tangency_residual": max_tangency,
        "max_markoff_defect": max_markoff,
        "rank_relation_ok": rank_ok,
    }, seed=seed, samples=samples)


def _ref_crosscheck(kind, samples, seed, tol=TOL_CROSS, n=3):
    group = groupnum.sl_group(n) if kind == "sl" else groupnum.su_group(n)
    spec = InvolutionSpec("transpose")
    max_diff = max_plus = 0.0
    rank_ok = True
    for k in range(samples):
        g = _ref_fixed_point(group, np.random.default_rng([seed, k]))
        if group.membership(g) > TOL_MEMBER:
            raise AssertionError("sampled point failed group membership")
        pi = groupnum.pl_bivector(group, g)
        projected = groupnum.pi_q_projection(spec, pi)
        direct = groupnum.pi_q_formula(group, g)
        max_diff = max(max_diff, float(groupnum._bracket_difference(projected, direct)))
        rank_ok = rank_ok and _ref_rank_relation(spec, pi, projected)
        legs = np.concatenate([projected.u, projected.v])
        max_plus = max(max_plus, float(np.max(np.abs(spec.apply(legs) - legs), initial=0.0)))
    values = {"group": group.name, "max_route_difference": max_diff, "max_plus_residual": max_plus,
              "rank_relation_ok": rank_ok}
    return Report(max_diff <= tol and max_plus <= TOL_MEMBER and rank_ok, values, seed=seed, samples=samples)


def _ref_residual_scan(family, samples, seed, tol=1e-7):
    C = family.structure
    step = 1e-5
    first = None
    spread = invariance = deriv_defect = 0.0
    for idx in range(samples):
        lam = conftest._sample_lambda(family, seed, idx)
        res = dynr.cdybe_residual(family, lam)
        for m in range(family.rank):
            lp, lmn = lam.copy(), lam.copy()
            lp[m] += step
            lmn[m] -= step
            fd = (dynr.eval_r(family, lp) - dynr.eval_r(family, lmn)) * (1.0 / (2 * step))
            deriv_defect = max(deriv_defect, dynr._max_upper(fd - dynr.r_derivative(family, lam, m), 2))
        if first is None:
            first = res
        spread = max(spread, dynr._max_upper(res - first, 3))
        invariance = max(invariance, dynr._max_upper(_ad_defect(C, res), 3))
    values = {"algebra": family.algebra.name, "family": family.kind, "spread": spread,
              "invariance_defect": invariance, "derivative_defect": deriv_defect, "tol": tol}
    return Report(max(spread, invariance, deriv_defect) <= tol, values, seed=seed, samples=samples)


def _ref_equivariance(family, s, samples, seed, tol=1e-10):
    S = np.array([[float(c.re) for c in row] for row in s.matrix])
    cartan = list(family.algebra.root_data.cartan)
    s_h = S[np.ix_(cartan, cartan)]
    defect = 0.0
    for idx in range(samples):
        lam = conftest._sample_lambda(family, seed, idx)
        rotated = S @ dynr.eval_r(family, lam) @ S.T
        defect = max(defect, dynr._max_upper(rotated + dynr.eval_r(family, s_h.T @ lam), 2))
    return Report(defect <= tol, {"algebra": family.algebra.name, "defect": defect, "tol": tol},
                  seed=seed, samples=samples)


def _assert_agree(batched, loop):
    assert (batched.ok, batched.seed, batched.samples) == (loop.ok, loop.seed, loop.samples)
    assert list(batched.values) == list(loop.values)
    for key, want in loop.values.items():
        got = batched.values[key]
        assert type(got) is type(want), key
        if isinstance(want, float):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (key, got, want)
        else:
            assert got == want, key


# -- agreement at 1, one block, one block + 1 and three blocks of samples ----------------------

SMALL_BLOCK = 4  # a small block, so that block boundaries are crossed at few samples
# (block, samples, seed): one sample, one block, one block and one sample, three blocks; then three
# blocks at another seed, and the shipped block size crossed once
CASES = [(SMALL_BLOCK, samples, 1) for samples in (1, 4, 5, 12)] + [(SMALL_BLOCK, 12, 2), (None, report.BLOCK + 1, 3)]


def _set_block(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(report, "BLOCK", block)


@pytest.mark.parametrize("block, samples, seed", CASES)
def test_stokes_matches_the_per_sample_loop(block, samples, seed, monkeypatch):
    _set_block(monkeypatch, block)
    _assert_agree(groupnum.stokes_report(3, samples, seed), _ref_stokes(samples, seed))


@pytest.mark.parametrize("kind", ["sl", "su"])
@pytest.mark.parametrize("block, samples, seed", CASES)
def test_crosscheck_matches_the_per_sample_loop(kind, block, samples, seed, monkeypatch):
    _set_block(monkeypatch, block)
    _assert_agree(groupnum.crosscheck_report(kind, samples, seed), _ref_crosscheck(kind, samples, seed))


@pytest.mark.parametrize("kind", ["trig", "rational", "tanh-corrupted"])
@pytest.mark.parametrize("block, samples, seed", CASES)
def test_residual_scan_matches_the_per_sample_loop(kind, block, samples, seed, monkeypatch):
    _set_block(monkeypatch, block)
    family = dynr.DynamicalRFamily(sl_chevalley(3), kind)
    _assert_agree(dynr.residual_scan(family, samples, seed), _ref_residual_scan(family, samples, seed))


@pytest.mark.parametrize("block, samples, seed", CASES)
def test_equivariance_matches_the_per_sample_loop(block, samples, seed, monkeypatch):
    _set_block(monkeypatch, block)
    g = sl_chevalley(3)
    family, s = dynr.DynamicalRFamily(g, "trig"), transpose_antimorphism(g)
    _assert_agree(equivariance_check(family, s, samples, seed), _ref_equivariance(family, s, samples, seed))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sample_lambdas_match_the_per_sample_loop(n):
    # the rounds of LAMBDA_ROUND draws give every sample the lambda of its one-draw-at-a-time
    # loop, bit for bit, at seeds past 2^32 too and for a block that does not start at sample 0
    family = dynr.DynamicalRFamily(sl_chevalley(n), "trig")
    second_round = 0
    for seed in (0, 1, 5, 2**32, 2**40 + 7):
        loop = np.stack([conftest._sample_lambda(family, seed, k) for k in range(130)])
        rounds = dynr._sample_lambdas(family, seed, range(130))
        assert rounds.shape == loop.shape and rounds.tobytes() == loop.tobytes()
        assert dynr._sample_lambdas(family, seed, range(64, 130)).tobytes() == loop[64:].tobytes()
        for k in range(130):
            first = np.random.default_rng([seed, k]).uniform(-2.0, 2.0, size=(dynr.LAMBDA_ROUND, family.rank))
            second_round += not (np.abs(family.pairings(first)) >= 0.5).all(axis=-1).any()
    if n == 4:
        assert second_round > 0  # some sample rejected its whole first round and drew another


@pytest.mark.parametrize("n", [2, 3, 4])
def test_max_ad_defect_matches_the_dense_reference(n):
    # random antisymmetric trivectors, not ad-invariant, so the defect is of order 1; on sl2 every
    # trivector is a multiple of e ^ f ^ h, which is ad-invariant, so there it is rounding error
    C = dynr.structure_tensor(sl_chevalley(n))
    dim = C.shape[0]
    t = dynr._cyclic(np.random.default_rng(n).normal(size=(5, dim, dim, dim)))
    per_sample = [dynr._max_upper(_ad_defect(C, sample), 3) for sample in t]
    assert min(per_sample) > 0.1 if n > 2 else max(per_sample) < 1e-12
    for got, want in [(dynr._max_ad_defect(C, t), max(per_sample))] + [
            (dynr._max_ad_defect(C, sample), value) for sample, value in zip(t, per_sample)]:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


def test_crosscheck_matches_the_per_sample_loop_at_n4(monkeypatch):
    _set_block(monkeypatch, SMALL_BLOCK)
    _assert_agree(groupnum.crosscheck_report("sl", 5, 4, n=4), _ref_crosscheck("sl", 5, 4, n=4))


# -- the first failing sample, in a later block ---------------------------------------------


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


def _hits(g, bad, point_ndim):
    """Per point of g (one point or a stack), whether it equals the point bad."""
    return np.all(g == bad, axis=tuple(range(-point_ndim, 0)))


def _corrupt_exp(monkeypatch, corrupt):
    """groupnum.matrix_exp with corrupt[generator] applied to the exponential of each listed
    generator, in a single call and in a stacked one alike."""
    original = groupnum.matrix_exp

    def exp(x):
        out = original(x)
        for generator, fn in corrupt:
            out = np.where(_hits(x, generator, 2)[..., None, None], fn(out), out)
        return out

    monkeypatch.setattr(groupnum, "matrix_exp", exp)


def test_non_fixed_point_raises_as_the_loop_does(monkeypatch):
    # in the third block of four, sample 9 is sheared off the symmetric locus (an error in the
    # projection) and sample 10 scaled off SL(3) (an error at the earlier membership check);
    # the loop fails at sample 9, and so must the blocks
    _set_block(monkeypatch, SMALL_BLOCK)
    group = groupnum.sl_group(3)
    shear = np.eye(3)
    shear[0, 1] = 0.3
    generators = []
    for k in (9, 10):
        x = algebra_element(group, np.random.default_rng([2, k]))
        generators.append(0.5 * (x + x.T))
    _corrupt_exp(monkeypatch, [(generators[0], lambda g: g @ shear), (generators[1], lambda g: 1.01 * g)])
    loop = _raised(lambda: _ref_crosscheck("sl", 12, 2))
    assert loop[0] is ValueError
    assert _raised(lambda: groupnum.crosscheck_report("sl", 12, 2)) == loop
    assert _raised(lambda: _ref_crosscheck("sl", 10, 2)) == loop  # sample 9's error


def test_non_invariant_bivector_raises_as_the_loop_does(monkeypatch):
    # in the third block of four, the B legs of sample 9 are rescaled, which breaks invariance under
    # (B, C) -> (C^T, B^T), and sample 10's point is scaled off G* (an error at the earlier
    # membership check); the loop fails at sample 9, and so must the blocks
    _set_block(monkeypatch, SMALL_BLOCK)
    b = _ref_unipotent(3, np.random.default_rng([1, 9]))
    bad_point, factor = np.stack([b, b.T]), np.array([1.5, 1.0])[:, None, None]
    original = groupnum.pl_bivector

    def rescaled(group, g):
        pi = original(group, g)
        u = np.where(_hits(g, bad_point, 3)[..., None, None, None, None], pi.u * factor, pi.u)
        return TangentBivector(pi.base, u, pi.v, pi.batch_ndim)

    monkeypatch.setattr(groupnum, "pl_bivector", rescaled)
    rng = np.random.default_rng([1, 10])
    generator = np.zeros((3, 3))
    generator[np.triu_indices(3, 1)] = rng.normal(0.0, 0.5, size=3)
    _corrupt_exp(monkeypatch, [(generator, lambda g: 1.01 * g)])
    loop = _raised(lambda: _ref_stokes(12, 1))
    assert loop[0] is ValueError and "not involution-invariant" in loop[1]
    assert _raised(lambda: groupnum.stokes_report(3, 12, 1)) == loop


def _inject_lambdas(monkeypatch, special):
    """Make both samplers, the round-by-round one of the scan and the per-sample one of the
    loops and of ``equivariance_check``, return special[k] for each sample k listed in special."""
    sample_one, sample_many = conftest._sample_lambda, dynr._sample_lambdas
    monkeypatch.setattr(conftest, "_sample_lambda",
                        lambda fam, seed, idx: special[idx].copy() if idx in special else sample_one(fam, seed, idx))
    monkeypatch.setattr(dynr, "_sample_lambdas", lambda fam, seed, ks: np.stack(
        [special[k].copy() if k in special else lam for k, lam in zip(ks, sample_many(fam, seed, ks))]))


def test_near_singular_lambda_raises_as_the_loop_does(monkeypatch):
    # sample 9 passes the guard, but its backward difference lambda - step e_0 does not;
    # sample 10 fails at lambda itself.  The loop meets sample 9's difference first.
    _set_block(monkeypatch, SMALL_BLOCK)
    family = dynr.DynamicalRFamily(sl_chevalley(3), "trig")
    _inject_lambdas(monkeypatch, {9: np.array([0.5 * (dynr.SINGULAR_GUARD + 5e-6), 0.8]), 10: np.array([0.7, 1e-4])})
    loop = _raised(lambda: _ref_residual_scan(family, 12, 0))
    assert loop[0] is dynr.NearSingular and "9.85e-04" in loop[1]
    assert _raised(lambda: dynr.residual_scan(family, 12, 0)) == loop


def test_near_singular_moved_lambda_raises_as_the_loop_does(monkeypatch):
    # s acts on the Cartan as (l1, l2) -> (l1 + l2, l2).  Sample 9 passes the guard, but its image
    # does not; sample 10 fails at lambda itself.  The loop meets sample 9's image first.
    _set_block(monkeypatch, SMALL_BLOCK)
    g = sl_chevalley(3)
    family = dynr.DynamicalRFamily(g, "trig")
    c0, c1 = g.root_data.cartan
    rows = [list(row) for row in transpose_antimorphism(g).matrix]
    rows[c1][c0] = rows[c1][c1]
    s = LinearAlgMap(g, g, tuple(map(tuple, rows)))
    _inject_lambdas(monkeypatch, {9: np.array([1.0, -0.5 + 1e-4]), 10: np.array([0.7, 1e-4])})
    loop = _raised(lambda: _ref_equivariance(family, s, 12, 0))
    assert loop[0] is dynr.NearSingular and "root (0, 2)" in loop[1]
    assert _raised(lambda: equivariance_check(family, s, 12, 0)) == loop


def test_stacked_checks_report_the_first_failing_point():
    # at the function level: a stack with two failing points reports the first one's residual
    spec = InvolutionSpec("transpose")
    points = np.stack([np.eye(3)] * 5)
    points[2, 0, 1] = 0.25
    points[4, 0, 1] = 0.5
    legs = np.zeros((5, 1, 3, 3))
    pi = TangentBivector(points, legs, legs, 1)
    loop = _raised(lambda: [groupnum.pi_q_projection(spec, TangentBivector(p, legs[0], legs[0]))
                            for p in points])
    assert "not fixed" in loop[1]
    assert _raised(lambda: groupnum.pi_q_projection(spec, pi)) == loop
    group = groupnum.sl_group(3)
    scaled = np.stack([np.eye(3)] * 5)
    scaled[1] *= 1.01
    scaled[3] *= 1.02
    loop = _raised(lambda: [groupnum.dual_group_bivector(group, p) for p in scaled])
    assert _raised(lambda: groupnum.dual_group_bivector(group, scaled)) == loop


def test_membership_failure_raises_as_the_loop_does(monkeypatch):
    # only sample 10, the third point of its block, leaves SL(3)
    _set_block(monkeypatch, SMALL_BLOCK)
    x = algebra_element(groupnum.sl_group(3), np.random.default_rng([2, 10]))
    _corrupt_exp(monkeypatch, [(0.5 * (x + x.T), lambda g: 1.01 * g)])
    loop = _raised(lambda: _ref_crosscheck("sl", 12, 2))
    assert loop[0] is AssertionError
    assert _raised(lambda: groupnum.crosscheck_report("sl", 12, 2)) == loop


def test_stokes_membership_failure_raises_as_the_loop_does(monkeypatch):
    # only sample 10, the third point of its block, is scaled off G*; it stays fixed by the
    # involution, so the shared sampling step's membership check is what fails
    _set_block(monkeypatch, SMALL_BLOCK)
    rng = np.random.default_rng([1, 10])
    generator = np.zeros((3, 3))
    generator[np.triu_indices(3, 1)] = rng.normal(0.0, 0.5, size=3)
    _corrupt_exp(monkeypatch, [(generator, lambda g: 1.01 * g)])
    loop = _raised(lambda: _ref_stokes(12, 1))
    assert loop[0] is AssertionError
    assert _raised(lambda: groupnum.stokes_report(3, 12, 1)) == loop


def test_stacked_verdicts_are_per_point():
    spec = InvolutionSpec("transpose")
    group = groupnum.sl_group(3)
    g = np.stack([groupnum._fixed_points(group, [np.random.default_rng([7, k])])[0] for k in range(3)])
    pi = groupnum.pl_bivector(group, g)
    # point 1 alone keeps its unprojected u legs, which breaks its rank relation
    u = groupnum.pi_q_projection(spec, pi).u.copy()
    u[1] = pi.u[1]
    broken = TangentBivector(g, u, groupnum.pi_q_projection(spec, pi).v, 1)
    loop = [groupnum.rank_relation_holds(spec, groupnum.pl_bivector(group, p), TangentBivector(p, pu, pv))
            for p, pu, pv in zip(g, broken.u, broken.v)]
    assert loop == [True, False, True]
    assert list(groupnum.rank_relation_holds(spec, pi, broken)) == loop
    single = [groupnum.pl_bivector(group, p).bracket_matrix([(0, 1), (1, 2)])[0, 1] for p in g]
    assert np.max(np.abs(pi.bracket_matrix([(0, 1), (1, 2)])[:, 0, 1] - single)) <= 1e-14
    # point 1's invariance residual passes against its own scale max(1, |pi|)^2, not against point 0's
    sym1 = np.array([[1.0, 2, 0], [2, 0, 1], [0, 1, -1]])
    sym2 = np.array([[0.0, 0, 1], [0, 2, 0], [1, 0, -2]])
    anti = np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    u = np.stack([[sym1], [100 * sym1 + 1e-8 * anti]])
    v = np.stack([[sym2], [100 * sym2]])
    base = np.stack([np.eye(3)] * 2)
    loop = [groupnum.pi_q_projection(spec, TangentBivector(p, pu, pv)) for p, pu, pv in zip(base, u, v)]
    stacked = groupnum.pi_q_projection(spec, TangentBivector(base, u, v, 1))
    assert np.array_equal(stacked.u, np.stack([p.u for p in loop]))


# -- memory stays flat in the sample count ----------------------------------------------------


SL4_TRIG = dynr.DynamicalRFamily(sl_chevalley(4), "trig")


@pytest.mark.parametrize("run", [
    lambda samples: groupnum.stokes_report(3, samples, 5),
    lambda samples: groupnum.crosscheck_report("su", samples, 5),
    lambda samples: dynr.residual_scan(SL4_TRIG, samples, 5),  # the largest residual tensors
], ids=["stokes", "crosscheck-su", "residual-scan-sl4"])
def test_peak_memory_does_not_grow_with_the_sample_count(run, monkeypatch):
    monkeypatch.setattr(report, "BLOCK", 8)  # an eighth of the shipped size keeps the test quick
    run(2)  # builds and caches first, so both measurements see only the sampling
    peaks = []
    for blocks in (1, 4):
        tracemalloc.start()
        try:
            run(blocks * report.BLOCK)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks
