"""Numerical verification of classical dynamical r-matrices.

Families over the dual Cartan h* with coordinates lambda_m = lambda(h_m):

    r(lambda) = sum_a d_a * g( <alpha, lambda> / 2 ) e_a ^ f_a,

where the root pairing is evaluated on the coroot-type element of the
bracket relations,

    <alpha, lambda> = 2 lambda(h_alpha),     h_alpha = [e_alpha, f_alpha],

g = coth for the trigonometric family and g(x) = 1/x for its rational
degeneration.  This normalization is additive in the root and makes the
rank-one restriction to each root sl(2) read c_a = g(lambda(h_alpha)).

Convention note.  With the pair-sum Schouten bracket used across this
package, the verified identity is

    sum_m h_m ^ dr/dlambda_m + (1/2) [r, r] = constant, ad-invariant.

The sign of the [r, r] term is opposite to the way the compatibility
condition is usually typeset because Schouten conventions differ by a sign
on even-even brackets between sources; the sl(2) closed form pins both the
sign and the pairing: with c = coth(lambda(h_alpha)) = coth(lambda_1), the
combination c' + c^2 = 1 is constant, while c' - c^2 is not, and the
coefficient of the surviving constant lands on e ^ f ^ h exactly.  The
residual is treated as Lambda^3 g-valued.

Storage.  Bivectors and trivectors are dense antisymmetric float arrays
whose entry at i < j (< k) is the coefficient of x_i ^ x_j (^ x_k); the
structure constants are the real tensor C[i, j, k] = c_ij^k.  With
M_kbd = sum_ac C_ac^k R_ab R_cd, [r, r]_ijk = 2 (M_ijk + M_jki + M_kij), which
the test suite checks against ``liealg.alg_schouten``.  Reported statistics
range over strictly increasing index tuples.

Batching.  ``pairings``, ``eval_r``, ``r_derivative`` and ``cdybe_residual``
also take a stack of lambda, shape (..., rank), and return one result per
lambda; ``residual_scan`` runs its samples through them in blocks, by
``report.sample_blocks``.  A block draws lambda candidates in rounds of
LAMBDA_ROUND from each sample's own generator (``report.sample_rngs``) and
checks a round of every sample still without a lambda in one ``pairings``
call.  Each sample keeps its first accepted candidate, so the values, and the
stream each generator is drawn from, are those of drawing one candidate at a
time.  The block evaluates r(lambda) and every dr/dlambda_m once, r(lambda) in
the same ``eval_r`` call as the finite-difference points, and forms the
residual from them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exactalg import Scalar
from .liealg import LieAlgebraData
from .report import Report, sample_blocks, sample_rngs

__all__ = [
    "DynamicalRFamily",
    "NearSingular",
    "structure_tensor",
    "eval_r",
    "r_derivative",
    "cdybe_residual",
    "residual_scan",
]

SINGULAR_GUARD = 1e-3
# Each sample draws lambda until its every root pairing is at least 0.5 from 0, at most
# MAX_LAMBDA_TRIES times, in rounds of LAMBDA_ROUND draws; the round divides the cap.
MAX_LAMBDA_TRIES = 1000
LAMBDA_ROUND = 8


def _tanh(x: np.ndarray) -> np.ndarray:
    """math.tanh entrywise.  np.tanh rounds differently in the last bit, and the
    derivative check's central difference magnifies that by 1 / (2 step)."""
    return np.frompyfunc(math.tanh, 1, 1)(x).astype(float)


class NearSingular(ValueError):
    """lambda is within the guard distance of a singular hyperplane."""


@dataclass(frozen=True)
class DynamicalRFamily:
    """A coefficient family c_a(lambda) = d_a * g(<alpha, lambda>/2): kind 'trig'
    (g = coth), 'rational' (g(x) = 1/x) or 'tanh-corrupted' (coth replaced by
    tanh, a negative control)."""

    algebra: LieAlgebraData
    kind: str

    def __post_init__(self):
        if self.algebra.root_data is None:
            raise ValueError("algebra carries no root data")
        if self.kind not in ("trig", "rational", "tanh-corrupted"):
            raise ValueError(f"unknown family kind {self.kind!r}")

    @property
    def rank(self) -> int:
        return len(self.algebra.root_data.cartan)

    @functools.cached_property
    def structure(self) -> np.ndarray:
        """The algebra's ``structure_tensor``, built once per family; read-only."""
        C = structure_tensor(self.algebra)
        C.setflags(write=False)
        return C

    def _g(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "trig":
            return 1.0 / _tanh(x)
        if self.kind == "rational":
            return 1.0 / x
        return _tanh(x)  # deliberately wrong family for negative controls

    def _g_prime(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "trig":
            c = 1.0 / _tanh(x)
            return 1.0 - c * c
        if self.kind == "rational":
            return -1.0 / (x * x)
        t = _tanh(x)
        return 1.0 - t * t

    @functools.cached_property
    def _roots(self) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Per positive root: the rows h_coords as a float matrix, d as a float array,
        and the (row, column) indices of every (e_a, f_a) entry followed by every
        (f_a, e_a) entry.  The arrays are read-only, as every caller shares them."""
        roots = self.algebra.root_data.roots
        h = np.array([[float(c) for c in info.h_coords] for info in roots]).reshape(len(roots), self.rank)
        d = np.array([float(info.d) for info in roots])
        e = [info.e_index for info in roots]
        f = [info.f_index for info in roots]
        index = (np.array(e + f), np.array(f + e))
        for a in (h, d, *index):
            a.setflags(write=False)
        return h, d, index

    def pairings(self, lam: Sequence[float] | np.ndarray) -> np.ndarray:
        """<alpha, lambda> = 2 lambda(h_alpha) for every positive root, as an array
        of shape (..., roots) for lambda of shape (..., rank)."""
        lam = np.asarray(lam, dtype=float)
        if lam.shape[-1:] != (self.rank,):
            raise ValueError(f"lambda must have length {self.rank}")
        # summed in coordinate order rather than by matmul, whose BLAS kernel may
        # round differently, so the lambda that pass the sampling margin stay put
        return 2.0 * (self._roots[0] * lam[..., None, :]).sum(axis=-1)

    def guard(self, lam: Sequence[float] | np.ndarray) -> np.ndarray:
        """``pairings(lam)``, raising NearSingular if one is within the guard of 0;
        for a stack of lambda, the first such in C order (lambda by lambda, root by root)."""
        values = self.pairings(lam)
        near = np.ravel(np.abs(values) < SINGULAR_GUARD)
        if near.any():
            first = near.argmax()
            root = self.algebra.root_data.roots[first % values.shape[-1]]
            raise NearSingular(
                f"<alpha, lambda> = {np.ravel(values)[first]:.2e} for root {root.pair}; guard is {SINGULAR_GUARD}"
            )
        return values


def _real(c: Scalar, what: str) -> float:
    if c.im:
        raise ValueError(f"{what} is not real: {c}")
    return float(c.re)


def structure_tensor(g: LieAlgebraData) -> np.ndarray:
    """C[i, j, k] = c_ij^k as floats; raises on a non-real structure constant."""
    C = np.zeros((g.dim, g.dim, g.dim))
    for (i, j), entry in g.table.items():
        for k, c in entry.items():
            C[i, j, k] = _real(c, f"structure constant c_({i},{j})^{k}")
    return C


@functools.lru_cache(maxsize=None)
def _increasing(dim: int, degree: int) -> tuple[np.ndarray, ...]:
    """Index arrays, one per slot, of the strictly increasing degree-tuples below dim."""
    tuples = np.array(list(itertools.combinations(range(dim), degree)), dtype=int).reshape(-1, degree)
    tuples.setflags(write=False)  # cached, so shared by every caller
    return tuple(tuples.T)


def _max_upper(t: np.ndarray, degree: int) -> float:
    """Largest |entry| of an antisymmetric tensor (its last degree axes) on strictly increasing tuples."""
    return float(np.max(np.abs(t[(Ellipsis, *_increasing(t.shape[-1], degree))]), initial=0.0))


def _m_tensor(C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """M_kbd = sum_ac C_ac^k R_ab R_cd, so that [r, r] = sum_kbd M_kbd x_k ^ x_b ^ x_d;
    batched over the leading axes of R."""
    return np.einsum("...cbk,...cd->...kbd", np.einsum("ack,...ab->...cbk", C, R, optimize=True), R, optimize=True)


def _cyclic(n: np.ndarray) -> np.ndarray:
    """The antisymmetric trivector with entry n_ijk + n_jki + n_kij at i < j < k,
    batched over the leading axes of n.

    For n antisymmetric in its last two indices this is the trivector
    (1/2) sum_abc n_abc x_a ^ x_b ^ x_c.
    """
    i, j, k = _increasing(n.shape[-1], 3)
    values = n[..., i, j, k] + n[..., j, k, i] + n[..., k, i, j]
    t = np.zeros_like(n)
    for p, q, s in ((i, j, k), (j, k, i), (k, i, j)):
        t[..., p, q, s] = values
        t[..., q, p, s] = -values
    return t


def _max_ad_defect(C: np.ndarray, t: np.ndarray) -> float:
    """Largest |coefficient| of [x_b, t] over every basis element b and strictly
    increasing triple, over a stack of trivectors t.  One b at a time, with
    R_jkl = sum_i C_bi^l t_ijk the coefficient at i < j < k is R_jki + R_ijk + R_kij,
    so the dim^4 tensor of all [x_b, t] (0.4 MB a sample at dim 15) is never built.
    As t_ijk = t_jki, R is t read as a matrix with rows (j, k) and columns i, times
    C_b: one matrix product per b, from one reshape of the stack."""
    dim = t.shape[-1]
    i, j, k = _increasing(dim, 3)
    jki, ijk, kij = (np.ravel_multi_index(idx, (dim,) * 3) for idx in ((j, k, i), (i, j, k), (k, i, j)))
    rows = t.reshape(-1, dim)  # row (j, k) of each trivector
    worst = 0.0
    for cb in C:
        r = (rows @ cb).reshape(-1, dim ** 3)
        worst = max(worst, float(np.max(np.abs(r[:, jki] + r[:, ijk] + r[:, kij]), initial=0.0)))
    return worst


def _root_matrix(
    family: DynamicalRFamily, lam: Sequence[float] | np.ndarray, g: Callable[[np.ndarray], np.ndarray],
    factor: np.ndarray,
) -> np.ndarray:
    """The antisymmetric matrix with entry factor_a * g(<alpha, lambda>/2) at (e_a, f_a),
    one per lambda of a stack."""
    c = factor * g(0.5 * family.guard(lam))
    out = np.zeros((*c.shape[:-1], family.algebra.dim, family.algebra.dim))
    out[(Ellipsis, *family._roots[2])] = np.concatenate([c, -c], axis=-1)
    return out


def eval_r(family: DynamicalRFamily, lam: Sequence[float] | np.ndarray) -> np.ndarray:
    """r(lambda) as an antisymmetric dim x dim matrix (one per lambda of a stack)."""
    return _root_matrix(family, lam, family._g, family._roots[1])


def r_derivative(family: DynamicalRFamily, lam: Sequence[float] | np.ndarray, m: int) -> np.ndarray:
    """Analytic dr/dlambda_m as an antisymmetric dim x dim matrix (one per lambda of a stack)."""
    h, d, _ = family._roots
    return _root_matrix(family, lam, family._g_prime, d * h[:, m])


def _residual(family: DynamicalRFamily, r: np.ndarray, dr: np.ndarray) -> np.ndarray:
    """sum_m h_m ^ dr[..., m, :, :] + (1/2)[r, r] from r(lambda) and every dr/dlambda_m
    stacked on the third axis from the end, batched over the leading axes."""
    n = _m_tensor(family.structure, r)
    for m, h in enumerate(family.algebra.root_data.cartan):
        n[..., h, :, :] += dr[..., m, :, :]  # h_m ^ dr/dlambda_m
    return _cyclic(n)


def cdybe_residual(family: DynamicalRFamily, lam: Sequence[float] | np.ndarray) -> np.ndarray:
    """sum_m h_m ^ dr/dlambda_m + (1/2)[r, r], as an antisymmetric dim^3 tensor
    (one per lambda of a stack)."""
    r = eval_r(family, lam)
    return _residual(family, r, np.stack([r_derivative(family, lam, m) for m in range(family.rank)], axis=-3))


def _sample_lambdas(family: DynamicalRFamily, seed: int, ks: Sequence[int]) -> np.ndarray:
    """The lambda of each sample k of ks, one row each: the first of the draws of
    ``default_rng([seed, k])`` whose every root pairing is at least 0.5 from 0.

    The draws come LAMBDA_ROUND at a time, which gives the same doubles in the same
    order as one draw at a time; one ``pairings`` call checks a round of every sample
    still without a lambda."""
    rngs = sample_rngs(seed, ks)
    out = np.empty((len(rngs), family.rank))
    pending = np.arange(len(rngs))
    for _ in range(MAX_LAMBDA_TRIES // LAMBDA_ROUND):
        draws = np.stack([rngs[p].uniform(-2.0, 2.0, size=(LAMBDA_ROUND, family.rank)) for p in pending])
        ok = (np.abs(family.pairings(draws)) >= 0.5).all(axis=-1)
        found = ok.any(axis=-1)
        out[pending[found]] = draws[found, ok[found].argmax(axis=-1)]
        pending = pending[~found]
        if not pending.size:
            return out
    raise RuntimeError("could not sample lambda away from the singular set")


def residual_scan(family: DynamicalRFamily, samples: int = 10, seed: int = 0, tol: float = 1e-7) -> Report:
    """Constancy, ad-invariance, and gradient checks over seeded sample points.

    * spread: largest componentwise deviation of the residual across samples;
    * invariance defect: largest coefficient of [x_b, residual] over all
      basis elements;
    * derivative defect: analytic dr/dlambda vs a central finite difference
      with step 1e-5.

    The report passes iff all three are at most ``tol``.
    """
    g = family.algebra
    C = family.structure
    step = 1e-5
    # per sample: lambda, then lambda +- step along each coordinate, in the order
    # a per-sample loop evaluates r at them, so a sample raises the loop's NearSingular
    shifts = np.concatenate([np.zeros((1, family.rank)), np.repeat(np.eye(family.rank), 2, axis=0) * step])
    shifts[2::2] *= -1.0

    first = None  # sample 0's residual, which the spread is measured against

    def block(ks: range) -> tuple[float, float, float]:
        """The block's spread, invariance and derivative defects."""
        nonlocal first
        lam = _sample_lambdas(family, seed, ks)
        r = eval_r(family, lam[:, None, :] + shifts)
        analytic = np.stack([r_derivative(family, lam, m) for m in range(family.rank)], axis=1)
        res = _residual(family, r[:, 0], analytic)
        fd = (r[:, 1::2] - r[:, 2::2]) * (1.0 / (2 * step))
        if first is None:
            first = res[0].copy()
        return _max_upper(res - first, 3), _max_ad_defect(C, res), _max_upper(fd - analytic, 2)

    spread, invariance, deriv_defect = map(max, zip(*sample_blocks(range(samples), block)))
    values = {
        "algebra": g.name,
        "family": family.kind,
        "spread": spread,
        "invariance_defect": invariance,
        "derivative_defect": deriv_defect,
        "tol": tol,
    }
    return Report(max(spread, invariance, deriv_defect) <= tol, values, seed=seed, samples=samples)
