"""Numerical verification of classical dynamical r-matrices.

Families over the dual Cartan h* with coordinates lambda_m = lambda(h_m):

    r(lambda) = sum_a d_a * g( <alpha, lambda> / 2 ) e_a ^ f_a,

where the root pairing is evaluated on the coroot-type element of the
bracket relations,

    <alpha, lambda> = 2 lambda(h_alpha),     h_alpha = d_alpha [e_alpha, f_alpha],

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

Storage.  r(lambda) = sum_a c_a(lambda) E_a with E_a = e_a ^ f_a, so the scan
works in root coordinates: r is the array of coefficients c_a = d_a g(x_a),
x_a = <alpha, lambda>/2, and dr/dlambda_m the array dc[m, a] = (d_a h_am) g'(x_a).
``FAMILIES`` names the kinds of g; ``DynamicalRFamily._g`` gives g and g' of one
kind from one dispatch, and ``_evaluate`` both arrays from one call.
The residual is sum_f phi_f Q_f over the features phi = (c_a c_b for a <= b,
then dc[m, a]) with constant trivectors Q_aa = (1/2)[E_a, E_a], Q_ab = [E_a, E_b]
for a < b and Q_ma = h_m ^ E_a, bracketed exactly by ``liealg.alg_schouten``.
``DynamicalRFamily`` builds once, as floats, Q with one row per feature on the
strictly increasing triples, and AD, whose row f holds [x_b, Q_f] for every
basis element b in turn, from the real structure tensor C[i, j, k] = c_ij^k;
the residual is phi @ Q and its ad-images are phi @ AD.  ``eval_r``,
``r_derivative`` and ``cdybe_residual`` return dense antisymmetric arrays
whose entry at i < j (< k) is the coefficient of x_i ^ x_j (^ x_k); the test
suite checks them against a dense einsum route.  Reported statistics range
over root coordinates and strictly increasing triples.

Batching.  ``pairings``, ``eval_r``, ``r_derivative`` and ``cdybe_residual``
also take a stack of lambda, shape (..., rank), and return one result per
lambda; ``residual_scan`` runs its samples in blocks, by
``report.sample_blocks``.  A block draws lambda candidates in rounds of
LAMBDA_ROUND, round r from each sample's words of stream r
(``report.sample_words``), and checks a round of every sample still without
a lambda in one ``pairings`` call.  Each sample keeps its first accepted
candidate, so its lambda depends on its own words alone, not on its block.
The block evaluates c and dc at every lambda and its finite-difference points
by one ``guard`` and one ``_evaluate`` call, reads the analytic derivative off
dc at lambda, and forms the residual, a matrix product, from them.  The blocks'
defects fold by ndarray ``max``, which keeps a NaN, so a NaN fails the scan.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactalg import Scalar
from .liealg import AlgElement, LieAlgebraData, alg_schouten
from .report import Report, sample_blocks, sample_words

__all__ = [
    "TOL_CDYBE",
    "FAMILIES",
    "DynamicalRFamily",
    "NearSingular",
    "structure_tensor",
    "eval_r",
    "r_derivative",
    "cdybe_residual",
    "residual_scan",
]

TOL_CDYBE = 1e-7  # every defect of residual_scan
FAMILIES = ("trig", "rational", "tanh-corrupted")  # the kinds of DynamicalRFamily
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
    """A coefficient family c_a(lambda) = d_a * g(<alpha, lambda>/2), of a kind in
    ``FAMILIES``: 'trig' (g = coth), 'rational' (g(x) = 1/x) or 'tanh-corrupted'
    (coth replaced by tanh, a negative control from sl(3) on: tanh' + tanh^2 = 1 as
    for coth, so on sl(2), with one root, it passes)."""

    algebra: LieAlgebraData
    kind: str

    def __post_init__(self):
        if self.algebra.root_data is None:
            raise ValueError("algebra carries no root data")
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown family kind {self.kind!r}")

    @property
    def rank(self) -> int:
        return len(self.algebra.root_data.cartan)

    def _g(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g and g' entrywise at x."""
        if self.kind == "trig":
            c = 1.0 / _tanh(x)
            return c, 1.0 - c * c
        if self.kind == "rational":
            return 1.0 / x, -1.0 / (x * x)
        t = _tanh(x)  # deliberately wrong family for negative controls
        return t, 1.0 - t * t

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

    @functools.cached_property
    def _trivectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Q and AD of the module docstring, read-only: Q of shape (features, triples), and AD with
        one row per feature and one column per (b, triple) at which some [x_b, Q_f] is nonzero.

        Q comes from the exact brackets of the root bivectors.  AD replaces one slot p of each
        nonzero entry of Q by [x_b, x_p] = sum_l C[b, p, l] x_l and moves x_l to its place among
        the two other indices: past `below` of them from slot s, with sign (-1)^(below + s)."""
        g = self.algebra
        C = structure_tensor(g)
        roots = g.root_data.roots
        E = [AlgElement.from_terms(g, 2, [((info.e_index, info.f_index), Scalar(1))]) for info in roots]
        half = Scalar(Fraction(1, 2))
        rows = [alg_schouten(E[a], E[b]) * (half if a == b else Scalar(1))
                for a, b in zip(*np.triu_indices(len(roots)))]
        rows += [AlgElement.basis(g, h).wedge(e) for h in g.root_data.cartan for e in E]
        entries = [(f, idx, _real(c, "bracket of root bivectors")) for f, row in enumerate(rows)
                   for idx, c in row.comps.items()]
        feature = np.array([f for f, _, _ in entries], dtype=int)
        triple = np.array([idx for _, idx, _ in entries], dtype=int).reshape(-1, 3)
        value = np.array([v for _, _, v in entries])
        dim, T = g.dim, len(_increasing(g.dim, 3)[0])
        column = np.zeros((dim,) * 3, dtype=int)  # the column of a triple in any order
        for order in itertools.permutations(_increasing(dim, 3)):
            column[order] = np.arange(T)
        Q = np.zeros((len(rows), T))
        Q[feature, column[tuple(triple.T)]] = value
        new, slot = np.arange(dim), np.arange(3)[:, None]  # the index l of x_l, the slot s it enters
        stay = triple[:, [[1, 2], [0, 2], [0, 1]]]  # (entry, s, the two indices that stay, in order)
        below = (stay[..., None] < new).sum(axis=-2)
        sign = np.where((stay[..., None] == new).any(axis=-2), 0.0, (-1.0) ** (below + slot))
        weight = (value[:, None, None] * sign)[:, :, None, :] * C[:, triple, :].transpose(1, 2, 0, 3)
        entry, s, b, l = np.nonzero(weight)  # weight is indexed (entry, s, b, l)
        # one column per (b, triple) that some image reaches; the others are zero for every feature
        columns, where = np.unique(b * T + column[l, stay[entry, s, 0], stay[entry, s, 1]], return_inverse=True)
        AD = np.zeros((len(rows), len(columns)))
        np.add.at(AD, (feature[entry], where), weight[entry, s, b, l])
        for a in (Q, AD):
            a.setflags(write=False)
        return Q, AD

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


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def _root_matrix(family: DynamicalRFamily, c: np.ndarray) -> np.ndarray:
    """The antisymmetric matrix with entry c_a at (e_a, f_a), one per row of a stack of c."""
    out = np.zeros((*c.shape[:-1], family.algebra.dim, family.algebra.dim))
    out[(Ellipsis, *family._roots[2])] = np.concatenate([c, -c], axis=-1)
    return out


def _evaluate(family: DynamicalRFamily, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r and every dr/dlambda_m in root coordinates at x = <alpha, lambda>/2: c_a = d_a g(x_a),
    shape (..., roots), and dc[m, a] = (d_a h_am) g'(x_a), shape (..., rank, roots)."""
    h, d, _ = family._roots
    g, g_prime = family._g(x)
    return d * g, (d * h.T) * g_prime[..., None, :]


def eval_r(family: DynamicalRFamily, lam: Sequence[float] | np.ndarray) -> np.ndarray:
    """r(lambda) as an antisymmetric dim x dim matrix (one per lambda of a stack)."""
    return _root_matrix(family, _evaluate(family, 0.5 * family.guard(lam))[0])


def r_derivative(family: DynamicalRFamily, lam: Sequence[float] | np.ndarray, m: int) -> np.ndarray:
    """Analytic dr/dlambda_m as an antisymmetric dim x dim matrix (one per lambda of a stack)."""
    return _root_matrix(family, _evaluate(family, 0.5 * family.guard(lam))[1][..., m, :])


def _features(c: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """phi: c_a c_b for a <= b, then dc[m, a] m-major, batched over the leading axes."""
    a, b = np.triu_indices(c.shape[-1])
    return np.concatenate([c[..., a] * c[..., b], dc.reshape(*dc.shape[:-2], -1)], axis=-1)


def _residual(family: DynamicalRFamily, c: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """sum_m h_m ^ dr/dlambda_m + (1/2)[r, r] on the strictly increasing triples, from r and
    every dr/dlambda_m in root coordinates (``_evaluate``), batched over the leading axes."""
    return _features(c, dc) @ family._trivectors[0]


def cdybe_residual(family: DynamicalRFamily, lam: Sequence[float] | np.ndarray) -> np.ndarray:
    """sum_m h_m ^ dr/dlambda_m + (1/2)[r, r], as an antisymmetric dim^3 tensor
    (one per lambda of a stack)."""
    values = _residual(family, *_evaluate(family, 0.5 * family.guard(lam)))
    i, j, k = _increasing(family.algebra.dim, 3)
    out = np.zeros((*values.shape[:-1], *(family.algebra.dim,) * 3))
    for p, q, s in ((i, j, k), (j, k, i), (k, i, j)):
        out[..., p, q, s] = values
        out[..., q, p, s] = -values
    return out


def _sample_lambdas(family: DynamicalRFamily, seed: int, ks: range) -> np.ndarray:
    """The lambda of each sample k of ks, one row each: the first candidate whose every root
    pairing is at least 0.5 from 0.

    Round r reads LAMBDA_ROUND candidates from sample k's words of stream r, each coordinate
    uniform on [-2, 2) as numpy's ``uniform(-2, 2)`` maps a word w: -2 + 4 (w >> 11) 2^-53.  One
    ``pairings`` call checks a round of every sample still without a lambda."""
    out = np.empty((len(ks), family.rank))
    pending = np.arange(len(ks))
    for stream in range(MAX_LAMBDA_TRIES // LAMBDA_ROUND):
        words = sample_words(seed, ks, stream)[pending, :LAMBDA_ROUND * family.rank]
        draws = (-2.0 + 4.0 * ((words >> 11) * 2.0**-53)).reshape(len(pending), LAMBDA_ROUND, family.rank)
        ok = (np.abs(family.pairings(draws)) >= 0.5).all(axis=-1)
        found = ok.any(axis=-1)
        out[pending[found]] = draws[found, ok[found].argmax(axis=-1)]
        pending = pending[~found]
        if not pending.size:
            return out
    raise RuntimeError("could not sample lambda away from the singular set")


def residual_scan(family: DynamicalRFamily, samples: int = 10, seed: int = 0) -> Report:
    """Constancy, ad-invariance, and gradient checks over seeded sample points.

    * spread: largest componentwise deviation of the residual across samples;
    * invariance defect: largest coefficient of [x_b, residual] over all
      basis elements;
    * derivative defect: analytic dr/dlambda vs a central finite difference
      with step 1e-5.

    The report passes iff all three are at most TOL_CDYBE, printed as ``tol``.
    """
    g = family.algebra
    step = 1e-5
    # per sample: lambda, then lambda +- step along each coordinate, in the order
    # a per-sample loop evaluates r at them, so a sample raises the loop's NearSingular
    shifts = np.concatenate([np.zeros((1, family.rank)), np.repeat(np.eye(family.rank), 2, axis=0) * step])
    shifts[2::2] *= -1.0

    first = None  # sample 0's residual, which the spread is measured against

    def block(ks: range) -> tuple[float, float, float]:
        """The block's spread, invariance and derivative defects."""
        nonlocal first
        x = 0.5 * family.guard(_sample_lambdas(family, seed, ks)[:, None, :] + shifts)
        c, dc = _evaluate(family, x)
        analytic = dc[:, 0]
        res = _residual(family, c[:, 0], analytic)
        fd = (c[:, 1::2] - c[:, 2::2]) * (1.0 / (2 * step))
        if first is None:
            first = res[0].copy()
        ad = _features(c[:, 0], analytic) @ family._trivectors[1]
        return _max_abs(res - first), _max_abs(ad), _max_abs(fd - analytic)

    worst = np.array(sample_blocks(range(samples), block)).max(axis=0)
    spread, invariance, deriv_defect = worst.tolist()
    values = {
        "algebra": g.name,
        "family": family.kind,
        "spread": spread,
        "invariance_defect": invariance,
        "derivative_defect": deriv_defect,
        "tol": TOL_CDYBE,
    }
    return Report(bool(worst.max() <= TOL_CDYBE), values, seed=seed, samples=samples)
