"""Floating-point matrix-Lie-group layer.

Groups are represented by numpy matrices; elements of product groups such as
the double SL(n) x SL(n) are stacked arrays of shape (2, n, n), on which
matmul, inverse and determinant broadcast.  A bivector at a group point is a
finite sum of wedge pairs u_a ^ v_a of tangent matrices, with no preferred
basis; its legs are stored as two stacked arrays u, v of shape
(m, *base.shape), so the sharp map, entry brackets, involution pushforwards
and projections act on all wedge pairs in one array operation.  Maps applied
to legs (``map_legs``, ``InvolutionSpec.push``, the ``phi`` of
``pi_q_formula``) therefore broadcast over leading axes.  The functions of a
point also take a stack of points (batch, *point shape) and return one
result per point, which lets the reports run their samples in blocks; a
check on a stack raises for its first failing point.

Translation conventions: the right-invariant field of X is X^R(g) = X g, the
left-invariant field is X^L(g) = g X, and the coboundary Poisson-Lie tensor
is pi(g) = r_{g*} lambda(g) with lambda(g) = Ad_g r - r; right translation
is r_{g*} X = X g.

The induced-tensor formula for a fixed locus of the involution attached to
an anti-morphism phi reads, with r = sum_i e_i ^ f_i,

    pi_Q = 1/4 sum_i (e_i^L + (phi e_i)^R) ^ (f_i^L + (phi f_i)^R)
         - 1/4 sum_i (e_i^R + (phi e_i)^L) ^ (f_i^R + (phi f_i)^L).

The binding of the invariant-field arrows in that formula is fixed
empirically: with X^L(g) = gX it agrees with the projection route
(half-sum of each wedge leg with its involution image) to machine precision
on all sampled fixed points, while swapping the arrows does not.  The
rejected binding is kept accessible for the negative test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .liealg import LieAlgebraData, _sl_basis, sl_chevalley, standard_r_matrix, su_compact_basis
from .report import Report, sample_blocks, sample_rngs

__all__ = [
    "TOL_MEMBER",
    "TOL_CROSS",
    "MatrixGroup",
    "TangentBivector",
    "InvolutionSpec",
    "matrix_exp",
    "sl_group",
    "su_group",
    "dual_group",
    "cocycle_lambda",
    "pl_bivector",
    "xplus",
    "pi_q_projection",
    "pi_q_formula",
    "dual_group_bivector",
    "dual_tangency_residual",
    "rank_relation_holds",
    "stokes_report",
    "crosscheck_report",
]

TOL_MEMBER = 1e-9  # group membership and invariance residuals
TOL_CROSS = 1e-8  # cross-route bracket comparisons

# Calibration of the double's r-matrix, r = scale * sum_i D_i ^ xi^i, against
# the reference normalization of the standard dual-group structure.  Wedge
# and pairing conventions in the literature each move this by factors of 2;
# the value is pinned by the Stokes check, where the fitted multiplier
# against the target brackets (xy - 2z, ...) must come out +-2.  Every other
# verified identity (bracket shape, multiplier-2 pushforward, two-route
# agreement, rank relations) is invariant under this scalar.
DOUBLE_R_SCALE = 4.0

SAMPLE_SCALE = 0.5  # standard deviation of the normal draws behind every sampled point


def matrix_exp(x: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring via scipy), batched over leading axes."""
    return scipy.linalg.expm(np.asarray(x))


def _transpose(v: np.ndarray) -> np.ndarray:
    return np.swapaxes(v, -1, -2)


def _flat(x: np.ndarray, lead: int) -> np.ndarray:
    """x with every axis after the first ``lead`` flattened into one."""
    return x.reshape(*x.shape[:lead], math.prod(x.shape[lead:]))


def _vec(x: np.ndarray, lead: int = 1) -> np.ndarray:
    """Realified flattening of each leg of a stack of shape (*lead axes, *shape):
    a (*lead axes, 2 * prod(shape)) array, uniform for real and complex stacks."""
    flat = _flat(np.asarray(x), lead)
    return np.concatenate([np.real(flat), np.imag(flat)], axis=-1)


def _max_over(x: np.ndarray, ndim: int) -> np.ndarray:
    """Largest |entry| over the last ``ndim`` axes: one value per point of a stack."""
    return np.max(np.abs(x), axis=tuple(range(-ndim, 0)), initial=0.0)


def _first_failure(residual: np.ndarray, bound) -> float | None:
    """The residual of the first point whose residual exceeds its bound, or None."""
    over = np.ravel(residual > bound)
    return float(np.ravel(residual)[over.argmax()]) if over.any() else None


@dataclass
class MatrixGroup:
    """A matrix group together with a basis of its Lie algebra and an
    r-matrix decomposition r = sum of coeff * basis[i] ^ basis[j]."""

    name: str
    algebra: LieAlgebraData | None
    basis: list[np.ndarray]
    r_terms: list[tuple[int, int, float]]
    membership: Callable[[np.ndarray], np.ndarray]  # residual per point of a stack

    @property
    def dim(self) -> int:
        return len(self.basis)

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_i coeffs[..., i] basis[i], in basis order; one element per row of coeffs."""
        return sum(np.multiply.outer(coeffs[..., i], b) for i, b in enumerate(self.basis))

    def random_algebra_element(self, rng: np.random.Generator) -> np.ndarray:
        return self.combine(rng.normal(0.0, SAMPLE_SCALE, size=self.dim))

    @functools.cached_property
    def r_legs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The r-terms as stacks: left legs, right legs and coefficients."""
        i, j, c = (np.array(col) for col in zip(*self.r_terms))
        stack = np.stack(self.basis)
        return stack[i], stack[j], c.reshape(-1, *(1,) * self.basis[0].ndim)


class TangentBivector:
    """A bivector sum_a u_a ^ v_a at a group point, or one at each point of a stack.

    The legs are stored stacked: ``u`` and ``v`` have shape (m, *base.shape),
    with u[a] ^ v[a] the a-th wedge pair, and ``pairs`` lists them one by one.
    On a stack of points (``batch_ndim`` 1) they have shape (batch, m, *point
    shape), and every method but ``pairs`` returns one result per point.
    """

    def __init__(self, base: np.ndarray, pairs: Sequence[tuple[np.ndarray, np.ndarray]]):
        base = np.asarray(base)
        pairs = list(pairs)
        if pairs:
            u, v = (np.stack(legs) for legs in zip(*pairs))
        else:
            u = v = np.zeros((0, *base.shape), dtype=base.dtype)
        self._set(base, u, v, 0)

    @classmethod
    def from_legs(cls, base: np.ndarray, u: np.ndarray, v: np.ndarray, batch_ndim: int = 0) -> "TangentBivector":
        """The bivector sum_a u[a] ^ v[a] from two leg stacks of one shape; with
        ``batch_ndim`` 1, one such bivector per point of the stack ``base``."""
        out = cls.__new__(cls)
        out._set(np.asarray(base), np.asarray(u), np.asarray(v), batch_ndim)
        return out

    def _set(self, base: np.ndarray, u: np.ndarray, v: np.ndarray, batch_ndim: int) -> None:
        if u.shape != v.shape or u.shape[:batch_ndim] + u.shape[batch_ndim + 1:] != base.shape:
            raise ValueError(f"leg stacks {u.shape} and {v.shape} do not match base shape {base.shape}")
        self.base, self.u, self.v, self.batch_ndim = base, u, v, batch_ndim

    @property
    def point_shape(self) -> tuple[int, ...]:
        return self.base.shape[self.batch_ndim:]

    @property
    def pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return list(zip(self.u, self.v))

    def entry_bracket(self, idx1: tuple, idx2: tuple):
        """{A_idx1, A_idx2} = sum_a u_a[idx1] v_a[idx2] - u_a[idx2] v_a[idx1]."""
        u1, u2 = self.u[(Ellipsis, *idx1)], self.u[(Ellipsis, *idx2)]
        v1, v2 = self.v[(Ellipsis, *idx1)], self.v[(Ellipsis, *idx2)]
        return np.sum(u1 * v2 - u2 * v1, axis=-1)

    def bracket_matrix(self, entries: Sequence[tuple] | None = None) -> np.ndarray:
        """Brackets {A_p, A_q} of all matrix entries (flat order), or of the
        listed entries only: U^T V - V^T U on the flattened leg stacks."""
        lead = self.batch_ndim + 1
        u, v = _flat(self.u, lead), _flat(self.v, lead)
        if entries is not None:
            flat = [np.ravel_multi_index(idx, self.point_shape) for idx in entries]
            u, v = u[..., flat], v[..., flat]
        x = _transpose(u) @ v
        return x - _transpose(x)  # = U^T V - V^T U, and exactly antisymmetric

    def map_legs(self, fn: Callable[[np.ndarray], np.ndarray], base: np.ndarray | None = None) -> "TangentBivector":
        """Apply ``fn`` to both leg stacks; ``fn`` must broadcast over the leading axes."""
        return TangentBivector.from_legs(self.base if base is None else base, fn(self.u), fn(self.v), self.batch_ndim)

    def sharp_matrix(self) -> np.ndarray:
        """Realified matrix of the sharp map, U^T V - V^T U on the realified leg
        stacks; its column space is the image."""
        x = self._compact_sharp()
        pad = 0 if np.iscomplexobj(self.u) else x.shape[-1]
        return np.pad(x, [(0, 0)] * (x.ndim - 2) + [(0, pad)] * 2)

    def _compact_sharp(self) -> np.ndarray:
        """``sharp_matrix()`` less the all-zero rows and columns of the imaginary
        half for real legs: ranks, images and residuals are read from it."""
        lead = self.batch_ndim + 1
        u, v = (_vec(x, lead) if np.iscomplexobj(x) else _flat(x, lead) for x in (self.u, self.v))
        x = _transpose(u) @ v
        return x - _transpose(x)  # = U^T V - V^T U, and exactly antisymmetric

    @functools.cached_property
    def _sharp_svd(self) -> tuple[np.ndarray, np.ndarray]:
        """Left singular vectors and singular values of ``_compact_sharp()``: one SVD
        serves the tangency residual and the rank relation, each at its threshold."""
        u, s, _ = np.linalg.svd(self._compact_sharp(), full_matrices=False)
        return u, s

    def max_abs(self) -> float | np.ndarray:
        ndim = self.u.ndim - self.batch_ndim
        return np.maximum(_max_over(self.u, ndim), _max_over(self.v, ndim))


# ---------------------------------------------------------------------------
# group constructors
# ---------------------------------------------------------------------------


def _membership_sl(g: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.det(g) - 1.0)


def _membership_su(g: np.ndarray) -> np.ndarray:
    unitarity = _max_over(g @ _transpose(g.conj()) - np.eye(g.shape[-1]), 2)
    return np.maximum(unitarity, np.abs(np.linalg.det(g) - 1.0))


N_CAP = 6  # dual-basis solves are O(dim^3); keep the check suite quick


def _check_n(n: int) -> None:
    if not 2 <= n <= N_CAP:
        raise ValueError(f"n must be between 2 and {N_CAP}")


def sl_group(n: int) -> MatrixGroup:
    """SL(n, R) with the standard r-matrix sum of e_a ^ f_a over positive roots."""
    _check_n(n)
    alg = sl_chevalley(n)
    mats = [m.real.copy() for m in alg.numeric_matrices()]
    r = standard_r_matrix(alg)
    terms = [(idxs[0], idxs[1], float(c.re)) for idxs, c in r.comps.items()]
    return MatrixGroup(f"SL({n},R)", alg, mats, terms, _membership_sl)


def su_group(n: int) -> MatrixGroup:
    """SU(n) with the compact r-matrix sum of d_a/2 X_a ^ Y_a."""
    _check_n(n)
    alg, r_hat = su_compact_basis(n)
    mats = alg.numeric_matrices()
    terms = [(idxs[0], idxs[1], float(c.re)) for idxs, c in r_hat.comps.items()]
    return MatrixGroup(f"SU({n})", alg, mats, terms, _membership_su)


def _membership_dual(g: np.ndarray) -> np.ndarray:
    """(B, C) with B upper-, C lower-triangular, diag B diag C = 1, det = 1."""
    b, c = g[..., 0, :, :], g[..., 1, :, :]
    diag = np.diagonal(b, axis1=-2, axis2=-1) * np.diagonal(c, axis1=-2, axis2=-1) - 1.0
    return np.maximum.reduce([_max_over(np.tril(b, -1), 2), _max_over(np.triu(c, 1), 2), _max_over(diag, 1),
                              np.abs(np.linalg.det(b) - 1.0)])


def dual_group(n: int) -> MatrixGroup:
    """The dual group B+ * B- inside the double D = SL(n) x SL(n).

    sigma = sl(n) + sl(n) carries the pairing <(a,b),(c,d)> = tr(ac) - tr(bd);
    the diagonal is sl(n), and the dual sits as pairs (X+, X-) of upper/lower
    triangular matrices with opposite diagonals.  The r-matrix of the double
    is sum_i D_i ^ xi^i over a basis D_i of the diagonal and its dual basis
    xi^i of the dual; the dual basis comes from an exactly solvable linear
    system whose residual the tests check.
    """
    _check_n(n)
    sl_basis = [np.array([[float(c.re) for c in row] for row in m]) for m in _sl_basis(n)[1]]
    diag_basis = [np.stack([m, m]) for m in sl_basis]

    unit = np.eye(n * n).reshape(n * n, n, n)  # unit[n a + b] = E_ab
    zero = np.zeros((n, n))
    upper = [n * a + b for a in range(n) for b in range(a + 1, n)]
    gstar_basis = [np.stack([unit[k], zero]) for k in upper] + [np.stack([zero, unit[k].T]) for k in upper]
    gstar_basis += [np.stack([h, -h]) for h in (unit[(n + 1) * m] - unit[(n + 1) * (m + 1)] for m in range(n - 1))]

    dim = len(sl_basis)
    assert len(gstar_basis) == dim

    gram = np.array([[pair_trace(x, d) for d in diag_basis] for x in gstar_basis])
    dual_vectors = np.linalg.solve(gram.T, np.eye(dim))  # column i: coeffs of xi^i
    xi_basis = [sum(dual_vectors[a, i] * gstar_basis[a] for a in range(dim)) for i in range(dim)]

    basis = diag_basis + xi_basis
    r_terms = [(i, dim + i, DOUBLE_R_SCALE) for i in range(dim)]
    group = MatrixGroup(f"B+*B-({n})", None, basis, r_terms, _membership_dual)
    group.xi_basis = xi_basis
    group.diag_basis = diag_basis
    return group


def pair_trace(x: np.ndarray, y: np.ndarray) -> float:
    """<(a,b),(c,d)> = tr(ac) - tr(bd)."""
    return float(np.trace(x[0] @ y[0]) - np.trace(x[1] @ y[1]))


# ---------------------------------------------------------------------------
# Poisson-Lie bivectors
# ---------------------------------------------------------------------------


def adjoint_coordinate_matrix(group: MatrixGroup, g: np.ndarray) -> np.ndarray:
    """Matrix of Ad_g in the algebra basis (column j: the coefficients of
    g basis_j g^-1, by least squares, exact for elements of the span)."""
    g_inv = np.linalg.inv(g)
    flat = np.stack([b.reshape(-1) for b in group.basis], axis=1)
    return np.linalg.pinv(flat) @ np.stack([(g @ b @ g_inv).reshape(-1) for b in group.basis], axis=1)


def cocycle_lambda(group: MatrixGroup, g: np.ndarray) -> np.ndarray:
    """lambda(g) = Ad_g r - r as an antisymmetric coefficient matrix.

    A bivector sum of c e_i ^ e_j is stored as the matrix with (i, j) entry c
    and (j, i) entry -c; the cocycle identity then reads
    lambda(gh) = lambda(g) + A(g) lambda(h) A(g)^T with A the adjoint matrix.
    """
    dim = group.dim
    l0 = np.zeros((dim, dim), dtype=complex)
    for i, j, c in group.r_terms:
        l0[i, j] += c
        l0[j, i] -= c
    a = adjoint_coordinate_matrix(group, g)
    lam = a @ l0 @ a.T - l0
    if np.max(np.abs(lam.imag)) < 1e-12:
        lam = lam.real
    return lam


def _interleave(first: np.ndarray, second: np.ndarray, axis: int) -> np.ndarray:
    """Interleave [first[0], second[0], first[1], second[1], ...] along ``axis``."""
    shape = first.shape
    return np.stack([first, second], axis=axis + 1).reshape(*shape[:axis], 2 * shape[axis], *shape[axis + 1:])


def pl_bivector(group: MatrixGroup, g: np.ndarray) -> TangentBivector:
    """pi(g) = r_{g*} (Ad_g r - r): wedge pairs of tangent matrices at g,
    (c Ad_g(a) g, Ad_g(b) g) and (-c a g, b g) for each r-term c a ^ b."""
    a, b, c = group.r_legs
    lead = g.ndim - a.ndim + 1  # 1 for a stack of points
    gx, gx_inv = (np.expand_dims(x, lead) for x in (g, np.linalg.inv(g)))  # broadcast over the r-terms
    u = _interleave(c * (gx @ a @ gx_inv @ gx), -c * (a @ gx), lead)
    v = _interleave(gx @ b @ gx_inv @ gx, b @ gx, lead)
    return TangentBivector.from_legs(g, u, v, lead)


# ---------------------------------------------------------------------------
# involutions and fixed-locus tensors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvolutionSpec:
    """An entrywise-linear group involution and its differential.

    kind 'transpose' is g -> g^T on a single matrix group; 'pair-swap' is
    (B, C) -> (C^T, B^T) on a pair group.  Both broadcast over leading axes,
    so a stack of points or tangent vectors maps in one call."""

    kind: str

    def apply(self, g: np.ndarray) -> np.ndarray:
        if self.kind == "transpose":
            return _transpose(g)
        if self.kind == "pair-swap":
            return _transpose(g[..., ::-1, :, :])
        raise ValueError(f"unsupported involution kind {self.kind!r}")

    def push(self, v: np.ndarray) -> np.ndarray:
        """The differential; entrywise-linear maps are their own differential."""
        return self.apply(v)

    def fixed_residual(self, g: np.ndarray) -> np.ndarray:
        """max |Phi(g) - g|, one value per point of a stack."""
        return _max_over(self.apply(g) - g, 2 if self.kind == "transpose" else 3)


def xplus(spec: InvolutionSpec, g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v+ = (v + Phi_* v) / 2 at a fixed point of the involution; v may be a
    stack of tangent vectors, and g a stack of points."""
    res = _first_failure(spec.fixed_residual(g), TOL_MEMBER)
    if res is not None:
        raise ValueError(f"point is not fixed by the involution (residual {res:.2e})")
    return 0.5 * (v + spec.push(v))


def pi_q_projection(spec: InvolutionSpec, pi: TangentBivector) -> TangentBivector:
    """Project every wedge leg with (1 + Phi_*)/2; requires Phi_* pi = pi, with
    || Phi_* pi - pi || of the sharp matrices at each point's scale max(1, |pi|)^2."""
    invariance = _max_over(pi.map_legs(spec.push)._compact_sharp() - pi._compact_sharp(), 2)
    res = _first_failure(invariance, TOL_MEMBER * np.maximum(1.0, pi.max_abs()) ** 2)
    if res is not None:
        raise ValueError(f"bivector is not involution-invariant (residual {res:.2e})")
    g = pi.base
    return pi.map_legs(lambda v: xplus(spec, g, v))


def pi_q_formula(
    group: MatrixGroup,
    g: np.ndarray,
    phi: Callable[[np.ndarray], np.ndarray],
    swap_arrows: bool = False,
) -> TangentBivector:
    """Direct fixed-locus tensor for a coboundary group; see module docstring.

    ``phi`` maps a stack of algebra elements, so it must broadcast over the
    leading axis.  ``swap_arrows`` rebinds X^L <-> X^R; it is the
    experimentally rejected reading of the formula and exists only so tests
    can demonstrate that it disagrees with the projection route.
    """
    e, f, c = group.r_legs
    lead = g.ndim - e.ndim + 1  # 1 for a stack of points
    gx = np.expand_dims(g, lead)  # broadcast over the r-terms

    def left(x):
        return x @ gx if swap_arrows else gx @ x

    def right(x):
        return gx @ x if swap_arrows else x @ gx

    pe, pf = phi(e), phi(f)
    u = _interleave(0.25 * c * (left(e) + right(pe)), -0.25 * c * (right(e) + left(pe)), lead)
    v = _interleave(left(f) + right(pf), right(f) + left(pf), lead)
    return TangentBivector.from_legs(g, u, v, lead)


# ---------------------------------------------------------------------------
# the dual group of SL(n) and the Stokes chart
# ---------------------------------------------------------------------------


def dual_group_bivector(group: MatrixGroup, point: np.ndarray) -> TangentBivector:
    """pi_D at a point of G* inside the double, with membership enforced."""
    res = _first_failure(group.membership(point), TOL_MEMBER)
    if res is not None:
        raise ValueError(f"point is not in {group.name} (residual {res:.2e})")
    return pl_bivector(group, point)


def dual_tangency_residual(pi: TangentBivector) -> float | np.ndarray:
    """How far the sharp image of a bivector at (B, C) leaves T(B,C) G*.

    Individual wedge legs of the stored decomposition need not be tangent;
    the invariant statement is about the image of the sharp map, so each
    unit basis vector of the image is paired against the constraint
    differentials cutting out G*: strictly lower part of beta, strictly
    upper part of gamma, and the diagonal relation
    beta_ii C_ii + B_ii gamma_ii = 0.
    """
    b, c = (np.diagonal(pi.base[..., None, k, :, :], axis1=-2, axis2=-1) for k in (0, 1))
    image = _image_basis(pi, 1e-10)
    legs = _transpose(image[..., :math.prod(pi.point_shape), :]).reshape(*image.shape[:-2], image.shape[-1], *pi.point_shape)
    beta, gamma = legs[..., 0, :, :], legs[..., 1, :, :]
    diag = np.diagonal(beta, axis1=-2, axis2=-1) * c + b * np.diagonal(gamma, axis1=-2, axis2=-1)
    return np.maximum.reduce([_max_over(np.tril(beta, -1), 3), _max_over(np.triu(gamma, 1), 3), _max_over(diag, 2)])


def _image_basis(pi: TangentBivector, thresh: float) -> np.ndarray:
    """Orthonormal columns spanning the image of pi^# (singular values above thresh)
    at each point, padded with zero columns to the largest rank in the stack."""
    u, s = pi._sharp_svd
    keep = s > thresh
    return (u * keep[..., None, :])[..., :np.max(np.sum(keep, axis=-1), initial=0)]


def _rank(mat: np.ndarray) -> np.ndarray:
    """Numeric rank of each matrix of a stack: its singular values above TOL_CROSS."""
    return np.sum(np.linalg.svd(mat, compute_uv=False) > TOL_CROSS, axis=-1)


@functools.lru_cache(maxsize=None)
def _plus_eigenspace(spec: InvolutionSpec, shape: tuple[int, ...], dtype: np.dtype, thresh: float) -> np.ndarray:
    """Orthonormal basis of the +1 eigenspace of the realified differential at
    points of this shape and dtype; cached, so read-only.

    For real points the imaginary half of the realified space is phantom
    (the probes there push to zero), so it never enters the eigenspace.
    """
    size = 2 * math.prod(shape)
    probes = np.eye(size).reshape(size, 2, *shape)  # probes[k]: real and imaginary part of the k-th unit vector
    v = probes[:, 0] + 1j * probes[:, 1] if np.issubdtype(dtype, np.complexfloating) else probes[:, 0]
    p = _vec(spec.push(v)).T  # column k: the pushed k-th probe
    _, s, vt = np.linalg.svd(p - np.eye(size))
    basis = vt[s <= thresh].T
    basis.setflags(write=False)  # cached, so shared by every caller
    return basis


def rank_relation_holds(spec: InvolutionSpec, pi: TangentBivector, projected: TangentBivector) -> bool | np.ndarray:
    """rank pi_Q^# == dim( im pi^# intersect T_x Q ), by SVD at TOL_CROSS, per point;
    ``projected`` is ``pi_q_projection(spec, pi)``, which every caller already holds."""
    image = _image_basis(pi, TOL_CROSS)
    # for real points the imaginary half of the +1 eigenspace basis is zero, as is the image's
    plus = _plus_eigenspace(spec, pi.point_shape, pi.base.dtype, TOL_CROSS)[:image.shape[-2]]
    joint = np.concatenate([image, np.broadcast_to(plus, (*image.shape[:-1], plus.shape[1]))], axis=-1)
    dim_int = np.sum(pi._sharp_svd[1] > TOL_CROSS, axis=-1) + plus.shape[1] - _rank(joint)
    return _rank(projected._compact_sharp()) == dim_int


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _unipotent_points(n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Unipotent upper-triangular points, one per generator, which draws the
    strictly upper entries of the exponent row by row."""
    a, b = np.triu_indices(n, 1)
    x = np.zeros((len(rngs), n, n))
    x[:, a, b] = [rng.normal(0.0, SAMPLE_SCALE, size=len(a)) for rng in rngs]
    return matrix_exp(x)


def _dual_points(n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Generic points of G*, one per generator: exponentials of opposite-diagonal
    upper/lower-triangular pairs (X+, X-), drawn as the pairs (X+_ab, X-_ba),
    then the diagonal."""
    a, b = np.triu_indices(n, 1)
    draws = np.array([rng.normal(0.0, SAMPLE_SCALE, size=2 * len(a) + n) for rng in rngs])
    d = draws[:, 2 * len(a):] - draws[:, 2 * len(a):].mean(axis=1, keepdims=True)
    x = np.zeros((len(rngs), 2, n, n))
    x[:, 0, a, b], x[:, 1, b, a] = draws[:, 0:2 * len(a):2], draws[:, 1:2 * len(a):2]
    x[:, 0, range(n), range(n)], x[:, 1, range(n), range(n)] = d, -d
    return matrix_exp(x)


def _sample_dual_point(n: int, rng: np.random.Generator) -> np.ndarray:
    return _dual_points(n, [rng])[0]


CHART_N3 = ((0, 0, 1), (0, 0, 2), (0, 1, 2))  # x = B_12, y = B_13, z = B_23
CYCLIC = (Ellipsis, (0, 1, 2), (1, 2, 0))  # reads the brackets {x, y}, {y, z}, {z, x}


def _dubrovin_rhs(x, y, z) -> np.ndarray:
    return np.stack([x * y - 2 * z, y * z - 2 * x, z * x - 2 * y], axis=-1)


def stokes_report(n: int = 3, samples: int = 20, seed: int = 1, tol: float = 1e-8) -> Report:
    """Reproduce the Stokes-matrix Poisson structure from the dual group.

    Samples points (B, B^T) with B unipotent upper-triangular, projects the
    dual-group tensor to the fixed locus of (B, C) -> (C^T, B^T), reads the
    brackets of the entries (x, y, z) = (B_12, B_13, B_23) and fits the
    single scalar kappa against the target brackets
    (xy - 2z, yz - 2x, zx - 2y); |kappa| must come out 2.  Independently,
    the tensor at generic dual points is pushed along (B, C) -> B C^T and
    compared against 2 kappa times the same target at the image.

    The report passes iff the Dubrovin residual, the kappa-two defect and the
    pushforward residual are at most ``tol``, the tangency residual at most
    TOL_CROSS, the Markoff defect at most 1e-7, and the rank relation holds.
    """
    if n != 3:
        raise ValueError("the Dubrovin chart readout is specific to n = 3")
    group = dual_group(n)
    psi = InvolutionSpec("pair-swap")

    def fixed_block(ks: range):
        b = _unipotent_points(n, sample_rngs(seed, ks))
        point = np.stack([b, _transpose(b)], axis=1)
        pi = dual_group_bivector(group, point)
        tangency = float(np.max(dual_tangency_residual(pi)))
        pi_q = pi_q_projection(psi, pi)
        rank_ok = bool(np.all(rank_relation_holds(psi, pi, pi_q)))
        x, y, z = (point[(Ellipsis, *idx)] for idx in CHART_N3)
        chart_brackets = pi_q.bracket_matrix(CHART_N3)  # {v, w} for v, w in (x, y, z)
        # Markoff polynomial m = x^2 + y^2 + z^2 - xyz is constant along
        # Hamiltonian directions: {m, w} = sum_v dm/dv {v, w}
        grad = np.stack([2 * x - y * z, 2 * y - x * z, 2 * z - x * y], axis=-1)
        markoff = float(np.max(np.abs(grad[:, None, :] @ chart_brackets)))
        return chart_brackets[CYCLIC], _dubrovin_rhs(x, y, z), tangency, markoff, rank_ok

    brackets, targets, tangency, markoff, ranks = zip(*sample_blocks(range(samples), fixed_block))
    brackets, targets = np.concatenate(brackets), np.concatenate(targets)  # 6 floats a sample, for the fit
    max_tangency, max_markoff, rank_ok = max(tangency), max(markoff), all(ranks)

    # calibrate kappa once, at the most informative component of the first usable sample
    picked = np.arange(samples), np.argmax(np.abs(targets), axis=1)
    usable = np.flatnonzero(np.abs(targets[picked]) > 1e-6)
    if not usable.size:
        raise RuntimeError("no sample produced a usable calibration point")
    kappa = float(brackets[picked][usable[0]] / targets[picked][usable[0]])
    max_resid = float(np.max(np.abs(brackets - kappa * targets)))
    kappa_two_defect = abs(abs(kappa) - 2.0)

    def push_block(ks: range) -> float:
        point = _dual_points(n, sample_rngs(seed, ks))
        pi = dual_group_bivector(group, point)
        b, c = point[:, None, 0], point[:, None, 1]  # broadcast over the wedge pairs
        pushed = pi.map_legs(lambda legs: legs[:, :, 0] @ _transpose(c) + b @ _transpose(legs[:, :, 1]),
                             base=point[:, 0] @ _transpose(point[:, 1]))
        image = pushed.base
        target = _dubrovin_rhs(image[:, 0, 1], image[:, 0, 2], image[:, 1, 2])
        brackets = pushed.bracket_matrix(((0, 1), (0, 2), (1, 2)))[CYCLIC]
        return float(np.max(np.abs(brackets - 2.0 * kappa * target)))

    max_push = max(sample_blocks(range(samples, 2 * samples), push_block))

    ok = (
        max_resid <= tol
        and kappa_two_defect <= tol
        and max_push <= tol
        and max_tangency <= TOL_CROSS
        and max_markoff <= 1e-7
        and rank_ok
    )
    values = {
        "kappa": kappa,
        "kappa_two_defect": kappa_two_defect,
        "max_dubrovin_residual": max_resid,
        "max_pushforward_residual": max_push,
        "max_tangency_residual": max_tangency,
        "max_markoff_defect": max_markoff,
        "rank_relation_ok": rank_ok,
    }
    return Report(ok, values, seed=seed, samples=samples)


def _fixed_points(group: MatrixGroup, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Transpose-fixed group points exp((x + x^T)/2), one per generator, which draws
    the coefficients of x in the algebra basis.

    Both sl(n) and su(n) are stable under transposition, so the symmetrized
    element stays in the algebra and its exponential is a fixed group point.
    """
    x = group.combine(np.array([rng.normal(0.0, SAMPLE_SCALE, size=group.dim) for rng in rngs]))
    return matrix_exp(0.5 * (x + _transpose(x)))


def _sample_fixed_point(group: MatrixGroup, rng: np.random.Generator) -> np.ndarray:
    return _fixed_points(group, [rng])[0]


def _bracket_difference(a: TangentBivector, b: TangentBivector) -> float | np.ndarray:
    """Largest entrywise-bracket difference over all entry pairs, per point."""
    diff = np.abs(a.bracket_matrix() - b.bracket_matrix())
    return np.max(diff[(Ellipsis, *np.triu_indices(diff.shape[-1], 1))], axis=-1, initial=0.0)


def crosscheck_report(kind: str, samples: int = 10, seed: int = 2, tol: float = TOL_CROSS, n: int = 3) -> Report:
    """Two-route agreement at transpose-fixed points.

    kind 'sl' uses SL(n, R) and the split r-matrix; kind 'su' uses SU(n) and
    the compact one (the Bruhat-type fixed locus of symmetric unitaries).  The
    report passes iff the route difference is at most ``tol``, the projected
    legs leave the +1 eigenspace by at most TOL_MEMBER, and the rank relation
    holds.
    """
    if kind == "sl":
        group = sl_group(n)
    elif kind == "su":
        group = su_group(n)
    else:
        raise ValueError("kind must be 'sl' or 'su'")
    phi = _transpose  # the algebra anti-morphism in both realizations
    spec = InvolutionSpec("transpose")

    def block(ks: range):
        g = _fixed_points(group, sample_rngs(seed, ks))
        if np.any(group.membership(g) > TOL_MEMBER):
            raise AssertionError("sampled point failed group membership")
        pi = pl_bivector(group, g)
        projected = pi_q_projection(spec, pi)
        direct = pi_q_formula(group, g, phi)
        legs = np.concatenate([projected.u, projected.v], axis=1)  # must lie in the +1 eigenspace
        return (float(np.max(_bracket_difference(projected, direct))),
                float(np.max(np.abs(spec.push(legs) - legs), initial=0.0)),
                bool(np.all(rank_relation_holds(spec, pi, projected))))

    diffs, pluses, ranks = zip(*sample_blocks(range(samples), block))
    max_diff, max_plus, rank_ok = max(diffs), max(pluses), all(ranks)
    ok = max_diff <= tol and max_plus <= TOL_MEMBER and rank_ok
    values = {
        "group": group.name,
        "max_route_difference": max_diff,
        "max_plus_residual": max_plus,
        "rank_relation_ok": rank_ok,
    }
    return Report(ok, values, seed=seed, samples=samples)
