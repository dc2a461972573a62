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

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import _ad_defect, _max_ad_defect, _max_upper, alg_map, equivariance_check, map_rows
from poissonkit import dynr, groupnum, report
from poissonkit.groupnum import TOL_CROSS, TOL_MARKOFF, TOL_MEMBER, TOL_RANK, InvolutionSpec, TangentBivector
from poissonkit.liealg import sl_chevalley, transpose_antimorphism
from poissonkit.report import Report

# -- the per-sample loops ------------------------------------------------------------------


def _ref_rank(mat, thresh):
    return int(np.sum(np.linalg.svd(mat, compute_uv=False) > thresh)) if mat.size else 0


def _ref_image(mat, thresh):
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, s > thresh]


def _ref_plus_basis(spec, shape, dtype, thresh):
    """Orthonormal basis of the involution's +1 eigenspace in the sharp matrix's coordinates: the
    differential's matrix from pushed unit probes, realified for complex points, and an SVD."""
    units = np.eye(int(np.prod(shape))).reshape(-1, *shape)
    probes = np.concatenate([units, 1j * units]) if np.issubdtype(dtype, np.complexfloating) else units
    pushed = spec.apply(probes).reshape(len(probes), -1)
    p = (np.concatenate([pushed.real, pushed.imag], axis=1) if np.iscomplexobj(pushed) else pushed).T
    _, s, vt = np.linalg.svd(p - np.eye(len(p)))
    return vt[s <= thresh].T


def _ref_rank_relation(spec, pi, projected, thresh=TOL_RANK):
    image = _ref_image(pi.sharp_matrix(), thresh)
    plus = _ref_plus_basis(spec, pi.base.shape, pi.base.dtype, thresh)
    if image.shape[1] == 0 or plus.shape[1] == 0:
        dim_int = 0
    else:
        dim_int = image.shape[1] + plus.shape[1] - _ref_rank(np.concatenate([image, plus], axis=1), thresh)
    return _ref_rank(projected.sharp_matrix(), thresh) == dim_int


def _ref_tangency(pi):
    """The largest pairing of a sharp-matrix column with the constraint differentials of G*, over
    the scale max(1, |pi|)^2."""
    b, c = pi.base[0], pi.base[1]
    res = 0.0
    for col in pi.sharp_matrix().T:
        beta, gamma = col[:pi.base.size].reshape(pi.base.shape)
        diag = np.diag(beta) * np.diag(c) + np.diag(b) * np.diag(gamma)
        res = max(res, np.max(np.abs(np.tril(beta, -1))), np.max(np.abs(np.triu(gamma, 1))), np.max(np.abs(diag)))
    return float(res / max(1.0, pi.max_abs()) ** 2)


def _rng(seed, k):
    """Sample k's own generator of stream 0."""
    (rng,) = conftest.per_sample_rngs(seed, [k])
    return rng


def _ref_dyadic(rng):
    """The generator's next raw word as k/8: k is its last 4 bits less 8, with 1 added from 0 on."""
    k = int(rng.bit_generator.random_raw()) % 16 - 8
    return (k + (k >= 0)) / 8


def _ref_unit_upper(n, rng):
    u = np.eye(n)
    for a in range(n):
        for b in range(a + 1, n):
            u[a, b] = _ref_dyadic(rng)
    return u


def _ref_exponents(n, rng):
    """n distinct integers with sum 0, 0 among them for odd n only: entry j is the one at the position
    of the j-th smallest of the next n words, in ascending order."""
    values = [*range(-(n // 2), 0), *[0] * (n % 2), *range(1, n // 2 + 1)]
    words = [int(rng.bit_generator.random_raw()) for _ in range(n)]
    return [values[i] for i in sorted(range(n), key=words.__getitem__)]


def _ref_stokes_point(n, rng):
    s = _ref_unit_upper(n, rng)
    return np.stack([s, s.T])


def _ref_dual_point(n, rng):
    up, low = _ref_unit_upper(n, rng), _ref_unit_upper(n, rng).T
    for i, e in enumerate(_ref_exponents(n, rng)):
        up[i] *= 2.0 ** e
        low[i] /= 2.0 ** e
    return np.stack([up, low])


def _ref_fixed_point(kind, n, rng):
    u = _ref_unit_upper(n, rng)
    if kind == "sl":
        return u.T @ np.diag([2.0 ** e for e in _ref_exponents(n, rng)]) @ u
    skew = u - u.T
    v = np.linalg.inv(np.eye(n) + skew) @ (np.eye(n) - skew)
    z = [complex(1 - t * t, 2 * t) / (1 + t * t) for t in [_ref_dyadic(rng) for _ in range(n - 1)]]
    return v @ np.diag([*z, np.prod(z).conjugate()]) @ v.T


def _ref_stokes(samples, seed):
    n = 3
    kappa_predicted = 2.0  # {x, y} = 2 (xy - 2z), sign included
    group = groupnum.dual_group(n)
    psi = InvolutionSpec("pair-swap")
    max_resid = max_tangency = max_markoff = max_plus = largest = 0.0
    kappa = None
    rank_ok = True
    for k in range(samples):
        point = _ref_stokes_point(n, _rng(seed, k))
        b = point[0]
        if group.membership(point) > TOL_MEMBER:
            raise AssertionError("sampled point failed group membership")
        pi = groupnum.pl_bivector(group, point)
        max_tangency = max(max_tangency, _ref_tangency(pi))
        pi_q = groupnum.pi_q_projection(psi, pi)
        rank_ok = rank_ok and _ref_rank_relation(psi, pi, pi_q)
        legs = np.concatenate([pi_q.u, pi_q.v])
        max_plus = max(max_plus, float(np.max(np.abs(psi.apply(legs) - legs), initial=0.0)))
        x, y, z = (float(b[idx]) for idx in groupnum.STOKES_COORDS)
        chart = pi_q.bracket_matrix([(0, *idx) for idx in groupnum.STOKES_COORDS])
        for (p, q), rhs in zip(((0, 1), (1, 2), (2, 0)), (x * y - 2 * z, y * z - 2 * x, z * x - 2 * y)):
            lhs = float(chart[p, q])
            max_resid = max(max_resid, abs(lhs - kappa_predicted * rhs))
            if abs(rhs) > largest:  # kappa is the measured ratio at the largest target
                largest, kappa = abs(rhs), lhs / rhs
        grad = np.array([2 * x - y * z, 2 * y - x * z, 2 * z - x * y])
        max_markoff = max(max_markoff, float(np.max(np.abs(grad @ chart))))
    max_push = 0.0
    for k in range(samples):
        point = _ref_dual_point(n, _rng(seed, samples + k))
        pi = groupnum.dual_group_bivector(group, point)
        b, c = point
        pushed = pi.map_legs(lambda legs: legs[:, 0] @ c.T + b @ np.swapaxes(legs[:, 1], -1, -2), base=b @ c.T)
        x, y, z = pushed.base[0, 1], pushed.base[0, 2], pushed.base[1, 2]
        image = pushed.bracket_matrix(((0, 1), (0, 2), (1, 2)))
        for lhs, rhs in zip((image[0, 1], image[1, 2], image[2, 0]), (x * y - 2 * z, y * z - 2 * x, z * x - 2 * y)):
            max_push = max(max_push, abs(float(lhs) - 2.0 * kappa_predicted * float(rhs)))
    kappa_two_defect = abs(kappa - kappa_predicted)
    ok = (max_resid <= TOL_CROSS and kappa_two_defect <= TOL_CROSS and max_push <= TOL_CROSS
          and max_tangency <= TOL_CROSS and max_markoff <= TOL_MARKOFF and max_plus <= TOL_MEMBER and rank_ok)
    return Report(ok, {
        "kappa": kappa,
        "kappa_two_defect": kappa_two_defect,
        "max_dubrovin_residual": max_resid,
        "max_pushforward_residual": max_push,
        "max_tangency_residual": max_tangency,
        "max_markoff_defect": max_markoff,
        "max_plus_residual": max_plus,
        "rank_relation_ok": rank_ok,
    }, seed=seed, samples=samples)


def _ref_crosscheck(kind, samples, seed, n=3):
    group = groupnum.sl_group(n) if kind == "sl" else groupnum.su_group(n)
    spec = InvolutionSpec("transpose")
    max_diff = max_plus = 0.0
    rank_ok = True
    for k in range(samples):
        g = _ref_fixed_point(kind, n, _rng(seed, k))
        if group.membership(g) > TOL_MEMBER:
            raise AssertionError("sampled point failed group membership")
        pi = groupnum.pl_bivector(group, g)
        projected = groupnum.pi_q_projection(spec, pi)
        direct = groupnum.pi_q_formula(group, g)
        max_diff = max(max_diff, float(conftest.bracket_difference(projected, direct)))
        rank_ok = rank_ok and _ref_rank_relation(spec, pi, projected)
        legs = np.concatenate([projected.u, projected.v])
        max_plus = max(max_plus, float(np.max(np.abs(spec.apply(legs) - legs), initial=0.0)))
    values = {"group": group.name, "max_route_difference": max_diff, "max_plus_residual": max_plus,
              "rank_relation_ok": rank_ok}
    return Report(max_diff <= TOL_CROSS and max_plus <= TOL_MEMBER and rank_ok, values, seed=seed, samples=samples)


def _ref_residual_scan(family, samples, seed):
    C = dynr.structure_tensor(family.algebra)
    step = 1e-5
    first = None
    spread = invariance = deriv_defect = 0.0
    for idx in range(samples):
        lam = conftest._sample_lambda(family, seed, idx)
        res = conftest.dense_residual(family, lam)
        for m in range(family.rank):
            lp, lmn = lam.copy(), lam.copy()
            lp[m] += step
            lmn[m] -= step
            fd = (dynr.eval_r(family, lp) - dynr.eval_r(family, lmn)) * (1.0 / (2 * step))
            deriv_defect = max(deriv_defect, _max_upper(fd - dynr.r_derivative(family, lam, m), 2))
        if first is None:
            first = res
        spread = max(spread, _max_upper(res - first, 3))
        invariance = max(invariance, _max_upper(_ad_defect(C, res), 3))
    values = {"algebra": family.algebra.name, "family": family.kind, "spread": spread,
              "invariance_defect": invariance, "derivative_defect": deriv_defect, "tol": dynr.TOL_CDYBE}
    return Report(max(spread, invariance, deriv_defect) <= dynr.TOL_CDYBE, values, seed=seed, samples=samples)


def _ref_equivariance(family, s, samples, seed, tol=1e-10):
    S = np.array([[float(c.re) for c in row] for row in map_rows(s)])
    cartan = list(family.algebra.root_data.cartan)
    s_h = S[np.ix_(cartan, cartan)]
    defect = 0.0
    for idx in range(samples):
        lam = conftest._sample_lambda(family, seed, idx)
        rotated = S @ dynr.eval_r(family, lam) @ S.T
        defect = max(defect, _max_upper(rotated + dynr.eval_r(family, s_h.T @ lam), 2))
    return Report(defect <= tol, {"algebra": family.algebra.name, "defect": defect, "tol": tol},
                  seed=seed, samples=samples)


def _assert_agree(batched, loop):
    assert (batched.ok, batched.seed, batched.samples) == (loop.ok, loop.seed, loop.samples)
    assert list(batched.values) == list(loop.values)
    for key, want in loop.values.items():
        got = batched.values[key]
        assert type(got) is type(want), key
        if key == "derivative_defect":  # the same differences of the same doubles, bit for bit
            assert got == want, (key, got, want)
        elif isinstance(want, float):
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
    # loop, bit for bit, at seeds past 2^64 too and for a block that does not start at sample 0
    family = dynr.DynamicalRFamily(sl_chevalley(n), "trig")
    second_round = 0
    for seed in (0, 1, 5, 2**32, 2**64 + 7, 2**128 - 1):
        loop = np.stack([conftest._sample_lambda(family, seed, k) for k in range(130)])
        rounds = dynr._sample_lambdas(family, seed, range(130))
        assert rounds.shape == loop.shape and rounds.tobytes() == loop.tobytes()
        assert dynr._sample_lambdas(family, seed, range(64, 130)).tobytes() == loop[64:].tobytes()
        for k in range(130):
            first = _rng(seed, k).uniform(-2.0, 2.0, size=(dynr.LAMBDA_ROUND, family.rank))
            second_round += not (np.abs(family.pairings(first)) >= 0.5).all(axis=-1).any()
    if n == 4:
        assert second_round > 0  # some sample rejected its whole first round and drew another


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**128 - 1), start=st.integers(0, 2**34), stream=st.integers(0, 3))
def test_sample_words_are_each_samples_own_philox_words(seed, start, stream):
    # a block drawn at once gives every sample the words of its own one-sample draw, at its own
    # counter, whatever block it sits in; another stream gives other words
    ks = range(start, start + 5)
    block = report.sample_words(seed, ks, stream)
    assert block.shape == (len(ks), report.WORDS) and block.dtype == np.uint64
    for k, row in zip(ks, block, strict=True):
        # the counter steps once per 4 words, so sample k's 64 words start at 16 k
        one = np.random.Philox(key=seed, counter=(stream << 128) + 16 * k).random_raw(report.WORDS)
        assert np.array_equal(row, one)
        (rng,) = conftest.per_sample_rngs(seed, [k], stream)
        assert np.array_equal(row, rng.bit_generator.random_raw(report.WORDS))
    assert not np.array_equal(report.sample_words(seed, ks, 0), report.sample_words(seed, ks, 1))


@pytest.mark.parametrize("seed", [-1, 2**128, 2**160 + 5], ids=["-1", "2^128", "2^160+5"])
def test_sample_words_reject_a_seed_a_philox_key_cannot_hold(seed):
    with pytest.raises(report.InvalidInput, match=f"a seed must be between 0 and 2\\^128 - 1, got {seed}"):
        report.sample_words(seed, range(3))
    report.sample_words(2**128 - 1, range(3))


_POINT_DRAWS = {
    "stokes": (groupnum._stokes_points, _ref_stokes_point),
    "dual": (groupnum._dual_points, _ref_dual_point),
    "sl": (lambda n, words: groupnum._fixed_points("sl", n, words), lambda n, rng: _ref_fixed_point("sl", n, rng)),
    "su": (lambda n, words: groupnum._fixed_points("su", n, words), lambda n, rng: _ref_fixed_point("su", n, rng)),
}


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("kind", _POINT_DRAWS)
def test_drawn_points_match_the_per_sample_loop(kind, n):
    # a block of points, drawn at once from a block of words that does not start at sample 0, is
    # the points of the one-sample loop: the reports' values at dyadic points are too exact to
    # tell which points were drawn, so the points themselves are compared
    draw, ref = _POINT_DRAWS[kind]
    for seed in (1, 7, 2**64 + 3):
        ks = range(61, 70)
        stacked = draw(n, report.sample_words(seed, ks))
        loop = np.stack([ref(n, _rng(seed, k)) for k in ks])
        assert stacked.shape == loop.shape
        if kind == "su":  # a solve against the loop's inverse: equal to rounding
            np.testing.assert_allclose(stacked, loop, rtol=0, atol=1e-12)
        else:  # dyadic entries and products: exact
            assert np.array_equal(stacked, loop)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_max_ad_defect_matches_the_dense_reference(n):
    # random trivectors phi @ Q in the span of the residual's constant trivectors, not
    # ad-invariant, so the defect is of order 1; on sl2 that span is the multiples of
    # e ^ f ^ h, which is ad-invariant, so there it is rounding error.  phi @ AD holds every
    # nonzero [x_b, t] coefficient on an increasing triple, so sorted and padded with zeros it
    # is the dense reference's coefficients sorted
    family = dynr.DynamicalRFamily(sl_chevalley(n), "trig")
    C, (Q, AD) = dynr.structure_tensor(family.algebra), family._trivectors
    dim = C.shape[0]
    phi = np.random.default_rng(n).normal(size=(5, len(Q)))
    n_upper = np.zeros((5, dim, dim, dim))
    n_upper[(Ellipsis, *dynr._increasing(dim, 3))] = phi @ Q
    t = conftest._cyclic(n_upper)
    images = phi @ AD
    per_sample = [_max_upper(_ad_defect(C, sample), 3) for sample in t]
    assert min(per_sample) > 0.1 if n > 2 else max(per_sample) < 1e-12
    assert abs(_max_ad_defect(C, t) - max(per_sample)) <= 1e-12 * max(1.0, max(per_sample))
    for sample, image, want in zip(t, images, per_sample):
        assert abs(float(np.max(np.abs(image), initial=0.0)) - want) <= 1e-12 * max(1.0, want)
        dense = _ad_defect(C, sample)[(slice(None), *dynr._increasing(dim, 3))].ravel()
        padded = np.concatenate([image, np.zeros(dense.size - image.size)])
        assert np.max(np.abs(np.sort(padded) - np.sort(dense))) <= 1e-12 * max(1.0, want)


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


_DRAWS = {"fixed": ("_fixed_points", "_ref_fixed_point"), "stokes": ("_stokes_points", "_ref_stokes_point")}


def _corrupt_draw(monkeypatch, kind, corrupt):
    """The reports' draw of ``kind``'s points and the loops' alike, with fn applied to each drawn point
    equal to ``point``, for (point, fn) in corrupt, in a stack and a single draw alike.  The SL(n) and
    Stokes points are exact in binary floats, so both routes draw a sample's point bit for bit."""
    module = sys.modules[__name__]
    for owner, name in zip((groupnum, module), _DRAWS[kind]):
        def draw(*args, original=getattr(owner, name)):
            out = original(*args)
            for point, fn in corrupt:
                hit = _hits(out, point, point.ndim)
                out = np.where(hit.reshape(hit.shape + (1,) * point.ndim), fn(out), out)
            return out

        monkeypatch.setattr(owner, name, draw)


def test_non_fixed_point_raises_as_the_loop_does(monkeypatch):
    # in the third block of four, sample 9 is sheared off the symmetric locus (an error in the
    # projection) and sample 10 scaled off SL(3) (an error at the earlier membership check);
    # the loop fails at sample 9, and so must the blocks
    _set_block(monkeypatch, SMALL_BLOCK)
    shear = np.eye(3)
    shear[0, 1] = 0.3
    points = [_ref_fixed_point("sl", 3, _rng(2, k)) for k in (9, 10)]
    _corrupt_draw(monkeypatch, "fixed", [(points[0], lambda g: g @ shear), (points[1], lambda g: 1.01 * g)])
    loop = _raised(lambda: _ref_crosscheck("sl", 12, 2))
    assert loop[0] is ValueError
    assert _raised(lambda: groupnum.crosscheck_report("sl", 12, 2)) == loop
    assert _raised(lambda: _ref_crosscheck("sl", 10, 2)) == loop  # sample 9's error


def test_non_invariant_bivector_raises_as_the_loop_does(monkeypatch):
    # in the third block of four, the B legs of sample 9 are rescaled, which breaks invariance under
    # (B, C) -> (C^T, B^T), and sample 10's point is scaled off G* (an error at the earlier
    # membership check); the loop fails at sample 9, and so must the blocks
    _set_block(monkeypatch, SMALL_BLOCK)
    bad_point, factor = _ref_stokes_point(3, _rng(1, 9)), np.array([1.5, 1.0])[:, None, None]
    original = groupnum.pl_bivector

    def rescaled(group, g):
        pi = original(group, g)
        u = np.where(_hits(g, bad_point, 3)[..., None, None, None, None], pi.u * factor, pi.u)
        return TangentBivector(pi.base, u, pi.v, pi.batch_ndim)

    monkeypatch.setattr(groupnum, "pl_bivector", rescaled)
    _corrupt_draw(monkeypatch, "stokes", [(_ref_stokes_point(3, _rng(1, 10)), lambda g: 1.01 * g)])
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
    rows = map_rows(transpose_antimorphism(g))
    rows[c1][c0] = rows[c1][c1]
    s = alg_map(g, g, rows)
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
    _corrupt_draw(monkeypatch, "fixed", [(_ref_fixed_point("sl", 3, _rng(2, 10)), lambda g: 1.01 * g)])
    loop = _raised(lambda: _ref_crosscheck("sl", 12, 2))
    assert loop[0] is AssertionError
    assert _raised(lambda: groupnum.crosscheck_report("sl", 12, 2)) == loop


def test_stokes_membership_failure_raises_as_the_loop_does(monkeypatch):
    # only sample 10, the third point of its block, is scaled off G*; it stays fixed by the
    # involution, so the shared sampling step's membership check is what fails
    _set_block(monkeypatch, SMALL_BLOCK)
    _corrupt_draw(monkeypatch, "stokes", [(_ref_stokes_point(3, _rng(1, 10)), lambda g: 1.01 * g)])
    loop = _raised(lambda: _ref_stokes(12, 1))
    assert loop[0] is AssertionError
    assert _raised(lambda: groupnum.stokes_report(3, 12, 1)) == loop


def _fixed_stack(kind, n, samples=6, seed=3):
    """A group, its involution and a stack of sampled fixed points, as the reports draw them."""
    if kind == "dual":
        points = groupnum._stokes_points(n, report.sample_words(seed, range(samples)))
        return groupnum.dual_group(n), InvolutionSpec("pair-swap"), points
    group = groupnum.sl_group(n) if kind == "sl" else groupnum.su_group(n)
    points = groupnum._fixed_points(kind, n, report.sample_words(seed, range(samples)))
    return group, InvolutionSpec("transpose"), points


def _rank_relation_both_routes(spec, pi, projected):
    """``rank_relation_holds`` on the stack, and the joint-rank route point by point."""
    loop = [_ref_rank_relation(spec, TangentBivector(p, u, v), TangentBivector(p, pu, pv))
            for p, u, v, pu, pv in zip(pi.base, pi.u, pi.v, projected.u, projected.v)]
    return list(groupnum.rank_relation_holds(spec, pi, projected)), loop


@pytest.mark.parametrize("kind, n", [("sl", n) for n in range(2, 7)] + [("su", n) for n in range(2, 7)]
                         + [("dual", n) for n in range(2, 5)])
def test_rank_relation_matches_the_joint_rank_route(kind, n):
    group, spec, points = _fixed_stack(kind, n)
    pi = groupnum.pl_bivector(group, points)
    stacked, loop = _rank_relation_both_routes(spec, pi, groupnum.pi_q_projection(spec, pi))
    assert stacked == loop == [True] * len(points)


@pytest.mark.parametrize("legs", ["u", "v"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rank_relation_fails_where_a_point_keeps_unprojected_legs(n, legs):
    # only on sl(n), n >= 3: on sl2, su(n) and the dual group the unprojected legs keep the rank
    group, spec, points = _fixed_stack("sl", n)
    pi = groupnum.pl_bivector(group, points)
    projected = groupnum.pi_q_projection(spec, pi)
    kept = {"u": projected.u.copy(), "v": projected.v.copy()}
    kept[legs][2] = getattr(pi, legs)[2]
    stacked, loop = _rank_relation_both_routes(spec, pi, TangentBivector(points, kept["u"], kept["v"], 1))
    assert stacked == loop == [True, True, False, True, True, True]


def test_stacked_verdicts_are_per_point():
    spec = InvolutionSpec("transpose")
    group = groupnum.sl_group(3)
    g = np.stack([groupnum._fixed_points("sl", 3, report.sample_words(7, range(k, k + 1)))[0] for k in range(3)])
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
    lambda samples: dynr.residual_scan(SL4_TRIG, samples, 5),  # the most features and ad-images
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
