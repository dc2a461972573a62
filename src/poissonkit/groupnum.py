"""Floating-point matrix-Lie-group layer.

Groups are represented by numpy matrices; elements of product groups such as
the double SL(n) x SL(n) are stacked arrays of shape (2, n, n), on which
matmul, inverse and determinant broadcast.  A bivector at a group point is a
finite sum of wedge pairs u_a ^ v_a of tangent matrices, with no preferred
basis; its legs are stored as two stacked arrays u, v of shape
(m, *base.shape), so the sharp map, entry brackets, involution pushforwards
and projections act on all wedge pairs in one array operation.  Maps applied
to legs (``map_legs``, ``InvolutionSpec.apply``) therefore broadcast over
leading axes.  The functions of a point also take a stack of points (batch,
*point shape) and return one result per point, which lets the reports run
their samples in blocks; a check on a stack raises for its first failing
point.

Translation conventions: the right-invariant field of X is X^R(g) = X g, the
left-invariant field is X^L(g) = g X, and the coboundary Poisson-Lie tensor
is pi(g) = r_{g*} lambda(g) with lambda(g) = Ad_g r - r; right translation
is r_{g*} X = X g.

The induced-tensor formula for a fixed locus of the involution attached to
an anti-morphism phi reads, with r = sum_i e_i ^ f_i,

    pi_Q = 1/4 sum_i (e_i^L + (phi e_i)^R) ^ (f_i^L + (phi f_i)^R)
         - 1/4 sum_i (e_i^R + (phi e_i)^L) ^ (f_i^R + (phi f_i)^L).

The arrows bind as stated above, X^L(g) = gX and X^R(g) = Xg: so bound, the
formula agrees with the projection route (half-sum of each wedge leg with
its involution image) to machine precision at every sampled fixed point,
and with the arrows swapped it does not.

Stated conventions for the Stokes check: the double's pairing
<(a,b),(c,d)> = tr(ac) - tr(bd), its r-matrix r = DOUBLE_R_SCALE
sum_i D_i ^ xi^i and pi = r^L - r^R.  With them the induced bracket on the
Stokes matrices is predicted to be KAPPA times the Dubrovin brackets, sign
included; the report measures that constant, it does not fit it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import numpy.random  # noqa: F401  numpy 2 loads it lazily; here it is paid at import, not inside a command

# sl_chevalley is bound here only for perfbench's tracer test, which reads groupnum.sl_chevalley
from .liealg import _sl_basis, _su_basis, sl_chevalley  # noqa: F401
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

# The double's r-matrix is r = DOUBLE_R_SCALE * sum_i D_i ^ xi^i, a stated
# convention (README, Conventions).  Wedge and pairing conventions in the
# literature each move this scalar by factors of 2 or by its sign; with this
# one the Stokes bracket comes out as KAPPA times the Dubrovin brackets
# (xy - 2z, ...), and ``stokes_report`` fails when it does not.  The other
# verified identities (two-route agreement, rank relations, tangency) are
# invariant under this scalar.
DOUBLE_R_SCALE = 4.0
KAPPA = 2.0  # predicted Stokes constant, sign included: {x, y} = KAPPA (xy - 2z) and cyclically

SAMPLE_SCALE = 0.5  # standard deviation of the normal draws behind every sampled point


# The [13/13] Pade approximant of exp, and the 1-norm up to which its backward error stays
# below the unit roundoff (Higham 2005).  The coefficients b_0..b_13 are divided by b_0, so
# that V has constant term I and the exponential of 0 comes out exactly I.  Row 0 holds
# the even coefficients (those of V), row 1 the odd ones (those of U).
PADE13 = np.array([64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
                   129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
                   40840800, 960960, 16380, 182, 1]).reshape(7, 2).T / 64764752532480000
THETA13 = 5.371920351148152


def matrix_exp(x: np.ndarray) -> np.ndarray:
    """Matrix exponential, batched over leading axes: Pade-13 scaling and squaring
    (N. J. Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26 (2005)).

    Each matrix A is scaled by its own 2^-s, s = max(0, ceil(log2(|A|_1 / theta_13))),
    r = (V - U)^-1 (V + U) is the approximant at A / 2^s, and r is squared s times.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    a = x.reshape(-1, n, n)
    mantissa, exponent = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0) / THETA13)
    s = np.maximum(0, exponent - (mantissa == 0.5))  # ceil(log2), exact at powers of two
    a = a / np.ldexp(1.0, s)[:, None, None]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    powers = np.stack([np.broadcast_to(np.eye(n), a.shape), a2, a4, a6])
    # V = c_0 I + c_2 A^2 + c_4 A^4 + c_6 A^6 + A^6 (c_8 A^2 + c_10 A^4 + c_12 A^6), and U / A
    # alike from the odd coefficients, in one stacked evaluation
    low, high = np.tensordot(PADE13[:, :4], powers, axes=1), np.tensordot(PADE13[:, 4:], powers[1:], axes=1)
    v, u_over_a = low + a6 @ high
    u = a @ u_over_a
    r = np.linalg.solve(v - u, v + u)
    for i in range(s.max(initial=0)):
        still = s > i
        r[still] = r[still] @ r[still]
    return r.reshape(x.shape)


def _transpose(v: np.ndarray) -> np.ndarray:
    return np.swapaxes(v, -1, -2)


def _flat(x: np.ndarray, lead: int) -> np.ndarray:
    """x with every axis after the first ``lead`` flattened into one."""
    return x.reshape(*x.shape[:lead], math.prod(x.shape[lead:]))


def _real_flat(x: np.ndarray, lead: int = 1) -> np.ndarray:
    """x flattened as by ``_flat``; a complex x is realified, its real parts
    followed by its imaginary parts, and a real x stays prod(shape) long."""
    flat = _flat(np.asarray(x), lead)
    return np.concatenate([flat.real, flat.imag], axis=-1) if np.iscomplexobj(flat) else flat


def _wedge_matrix(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """U^T V - V^T U for flattened leg stacks of shape (..., m, size), exactly antisymmetric."""
    x = _transpose(u) @ v
    return x - _transpose(x)


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
    basis: list[np.ndarray]
    r_terms: list[tuple[int, int, float]]
    membership: Callable[[np.ndarray], np.ndarray]  # residual per point of a stack

    @property
    def dim(self) -> int:
        return len(self.basis)

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_i coeffs[..., i] basis[i], in basis order; one element per row of coeffs."""
        return sum(np.multiply.outer(coeffs[..., i], b) for i, b in enumerate(self.basis))

    @functools.cached_property
    def r_legs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The r-terms as stacks: left legs, right legs and coefficients."""
        i, j, c = (np.array(col) for col in zip(*self.r_terms))
        stack = np.stack(self.basis)
        return stack[i], stack[j], c.reshape(-1, *(1,) * self.basis[0].ndim)


class TangentBivector:
    """A bivector sum_a u_a ^ v_a at a group point, or one at each point of a stack.

    The legs are stored stacked: ``u`` and ``v`` have shape (m, *base.shape),
    with u[a] ^ v[a] the a-th wedge pair.  With ``batch_ndim`` 1, ``base`` is a
    stack of points, the legs have shape (batch, m, *point shape), and every
    method returns one result per point.
    """

    def __init__(self, base: np.ndarray, u: np.ndarray, v: np.ndarray, batch_ndim: int = 0):
        base, u, v = np.asarray(base), np.asarray(u), np.asarray(v)
        if u.shape != v.shape or u.shape[:batch_ndim] + u.shape[batch_ndim + 1:] != base.shape:
            raise ValueError(f"leg stacks {u.shape} and {v.shape} do not match base shape {base.shape}")
        self.base, self.u, self.v, self.batch_ndim = base, u, v, batch_ndim

    @property
    def point_shape(self) -> tuple[int, ...]:
        return self.base.shape[self.batch_ndim:]

    def bracket_matrix(self, entries: Sequence[tuple] | None = None) -> np.ndarray:
        """Brackets {A_p, A_q} of all matrix entries (flat order), or of the
        listed entries only, in their order: U^T V - V^T U on the flattened leg stacks."""
        lead = self.batch_ndim + 1
        u, v = _flat(self.u, lead), _flat(self.v, lead)
        if entries is not None:
            flat = [np.ravel_multi_index(idx, self.point_shape) for idx in entries]
            u, v = u[..., flat], v[..., flat]
        return _wedge_matrix(u, v)

    def map_legs(self, fn: Callable[[np.ndarray], np.ndarray], base: np.ndarray | None = None) -> "TangentBivector":
        """Apply ``fn`` to both leg stacks; ``fn`` must broadcast over the leading axes."""
        return TangentBivector(self.base if base is None else base, fn(self.u), fn(self.v), self.batch_ndim)

    def sharp_matrix(self) -> np.ndarray:
        """Matrix of the sharp map, U^T V - V^T U on the leg stacks flattened by
        ``_real_flat``; its column space is the image."""
        lead = self.batch_ndim + 1
        return _wedge_matrix(_real_flat(self.u, lead), _real_flat(self.v, lead))

    @functools.cached_property
    def _sharp_svd(self) -> tuple[np.ndarray, np.ndarray]:
        """Left singular vectors and singular values of ``sharp_matrix()``: one SVD
        serves the tangency residual and the rank relation, each at its threshold."""
        u, s, _ = np.linalg.svd(self.sharp_matrix(), full_matrices=False)
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


def _complex_matrices(mats: Sequence[Sequence[Sequence]]) -> list[np.ndarray]:
    """Exact matrices of Scalars as complex arrays."""
    return [np.array([[c.to_complex() for c in row] for row in m], dtype=complex) for m in mats]


N_CAP = 6  # dual-basis solves are O(dim^3); keep the check suite quick


def _check_n(n: int) -> None:
    if not 2 <= n <= N_CAP:
        raise ValueError(f"n must be between 2 and {N_CAP}")


def sl_group(n: int) -> MatrixGroup:
    """SL(n, R) with the standard r-matrix sum of e_a ^ f_a over positive roots."""
    _check_n(n)
    _, mats, root_data = _sl_basis(n)
    terms = [(info.e_index, info.f_index, float(info.d)) for info in root_data.roots]
    return MatrixGroup(f"SL({n},R)", [m.real.copy() for m in _complex_matrices(mats)], terms, _membership_sl)


def su_group(n: int) -> MatrixGroup:
    """SU(n) with the compact r-matrix sum of d_a/2 X_a ^ Y_a."""
    _check_n(n)
    _, mats, root_data = _su_basis(n)
    terms = [(info.e_index, info.f_index, float(info.d / 2)) for info in root_data.roots]
    return MatrixGroup(f"SU({n})", _complex_matrices(mats), terms, _membership_su)


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
    xi^i of the dual, the first and second halves of ``basis``; the dual
    basis comes from an exactly solvable linear system whose residual the
    tests check.
    """
    _check_n(n)
    sl_basis = [m.real.copy() for m in _complex_matrices(_sl_basis(n)[1])]
    diagonal = [np.stack([m, m]) for m in sl_basis]

    unit = np.eye(n * n).reshape(n * n, n, n)  # unit[n a + b] = E_ab
    zero = np.zeros((n, n))
    upper = [n * a + b for a in range(n) for b in range(a + 1, n)]
    gstar_basis = [np.stack([unit[k], zero]) for k in upper] + [np.stack([zero, unit[k].T]) for k in upper]
    gstar_basis += [np.stack([h, -h]) for h in (unit[(n + 1) * m] - unit[(n + 1) * (m + 1)] for m in range(n - 1))]

    dim = len(sl_basis)
    assert len(gstar_basis) == dim

    gram = np.array([[pair_trace(x, d) for d in diagonal] for x in gstar_basis])
    dual_vectors = np.linalg.solve(gram.T, np.eye(dim))  # column i: coeffs of xi^i
    xis = [sum(dual_vectors[a, i] * gstar_basis[a] for a in range(dim)) for i in range(dim)]

    r_terms = [(i, dim + i, DOUBLE_R_SCALE) for i in range(dim)]
    return MatrixGroup(f"B+*B-({n})", diagonal + xis, r_terms, _membership_dual)


def pair_trace(x: np.ndarray, y: np.ndarray) -> float:
    """<(a,b),(c,d)> = tr(ac) - tr(bd)."""
    return float(np.trace(x[0] @ y[0]) - np.trace(x[1] @ y[1]))


# ---------------------------------------------------------------------------
# Poisson-Lie bivectors
# ---------------------------------------------------------------------------


def _interleave(first: np.ndarray, second: np.ndarray, axis: int) -> np.ndarray:
    """Interleave [first[0], second[0], first[1], second[1], ...] along ``axis``."""
    shape = first.shape
    return np.stack([first, second], axis=axis + 1).reshape(*shape[:axis], 2 * shape[axis], *shape[axis + 1:])


def pl_bivector(group: MatrixGroup, g: np.ndarray) -> TangentBivector:
    """pi(g) = r^L(g) - r^R(g), the left- less the right-invariant extension of r.

    This is r_{g*} (Ad_g r - r), as r_{g*} Ad_g X = g X g^-1 g = g X: for each
    r-term c a ^ b the wedge pairs at g are (c g a, g b) and (-c a g, b g).
    """
    a, b, c = group.r_legs
    lead = g.ndim - a.ndim + 1  # 1 for a stack of points
    gx = np.expand_dims(g, lead)  # broadcast over the r-terms
    u = _interleave(c * (gx @ a), -c * (a @ gx), lead)
    v = _interleave(gx @ b, b @ gx, lead)
    return TangentBivector(g, u, v, lead)


# ---------------------------------------------------------------------------
# involutions and fixed-locus tensors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvolutionSpec:
    """An entrywise-linear group involution, which is its own differential.

    kind 'transpose' is g -> g^T on a single matrix group; 'pair-swap' is
    (B, C) -> (C^T, B^T) on a pair group.  ``apply`` maps points and tangent
    vectors alike and broadcasts over leading axes, so a stack maps in one call."""

    kind: str

    def apply(self, g: np.ndarray) -> np.ndarray:
        if self.kind == "transpose":
            return _transpose(g)
        if self.kind == "pair-swap":
            return _transpose(g[..., ::-1, :, :])
        raise ValueError(f"unsupported involution kind {self.kind!r}")

    def fixed_residual(self, g: np.ndarray) -> np.ndarray:
        """max |Phi(g) - g|, one value per point of a stack."""
        return _max_over(self.apply(g) - g, 2 if self.kind == "transpose" else 3)


def xplus(spec: InvolutionSpec, g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v+ = (v + Phi_* v) / 2 at a fixed point of the involution; v may be a
    stack of tangent vectors, and g a stack of points."""
    res = _first_failure(spec.fixed_residual(g), TOL_MEMBER)
    if res is not None:
        raise ValueError(f"point is not fixed by the involution (residual {res:.2e})")
    return 0.5 * (v + spec.apply(v))


def pi_q_projection(spec: InvolutionSpec, pi: TangentBivector) -> TangentBivector:
    """Project every wedge leg with (1 + Phi_*)/2; requires Phi_* pi = pi, with
    || Phi_* pi - pi || of the sharp matrices at each point's scale max(1, |pi|)^2."""
    invariance = _max_over(pi.map_legs(spec.apply).sharp_matrix() - pi.sharp_matrix(), 2)
    res = _first_failure(invariance, TOL_MEMBER * np.maximum(1.0, pi.max_abs()) ** 2)
    if res is not None:
        raise ValueError(f"bivector is not involution-invariant (residual {res:.2e})")
    g = pi.base
    return pi.map_legs(lambda v: xplus(spec, g, v))


def pi_q_formula(group: MatrixGroup, g: np.ndarray) -> TangentBivector:
    """Direct fixed-locus tensor for a coboundary group, with X^L(g) = gX and
    X^R(g) = Xg; see module docstring.

    phi is transposition, the algebra anti-morphism of both sl(n) and su(n).
    """
    e, f, c = group.r_legs
    lead = g.ndim - e.ndim + 1  # 1 for a stack of points
    gx = np.expand_dims(g, lead)  # broadcast over the r-terms
    pe, pf = _transpose(e), _transpose(f)
    u = _interleave(0.25 * c * (gx @ e + pe @ gx), -0.25 * c * (e @ gx + gx @ pe), lead)
    v = _interleave(gx @ f + pf @ gx, f @ gx + gx @ pf, lead)
    return TangentBivector(g, u, v, lead)


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
    """Orthonormal basis of the +1 eigenspace of the differential at points of
    this shape and dtype, in the coordinates of ``sharp_matrix()``: the
    flattened entries for real points, the realified ones for complex points.
    Cached, so read-only.
    """
    units = np.eye(math.prod(shape)).reshape(-1, *shape)
    probes = np.concatenate([units, 1j * units]) if np.issubdtype(dtype, np.complexfloating) else units
    p = _real_flat(spec.apply(probes)).T  # column k: the pushed k-th unit vector of the realified space
    _, s, vt = np.linalg.svd(p - np.eye(len(p)))
    basis = vt[s <= thresh].T
    basis.setflags(write=False)  # cached, so shared by every caller
    return basis


def rank_relation_holds(spec: InvolutionSpec, pi: TangentBivector, projected: TangentBivector) -> bool | np.ndarray:
    """rank pi_Q^# == dim( im pi^# intersect T_x Q ), by SVD at TOL_CROSS, per point;
    ``projected`` is ``pi_q_projection(spec, pi)``, which every caller already holds."""
    image = _image_basis(pi, TOL_CROSS)
    plus = _plus_eigenspace(spec, pi.point_shape, pi.base.dtype, TOL_CROSS)
    joint = np.concatenate([image, np.broadcast_to(plus, (*image.shape[:-1], plus.shape[1]))], axis=-1)
    dim_int = np.sum(pi._sharp_svd[1] > TOL_CROSS, axis=-1) + plus.shape[1] - _rank(joint)
    return _rank(projected.sharp_matrix()) == dim_int


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


def _fixed_locus_step(group: MatrixGroup, spec: InvolutionSpec, points: np.ndarray):
    """pi at a stack of sampled fixed points, its projection to the fixed locus,
    and whether the rank relation holds at every point.  The points are drawn
    on the group, so one off it is a sampling bug, raised as AssertionError."""
    if np.any(group.membership(points) > TOL_MEMBER):
        raise AssertionError("sampled point failed group membership")
    pi = pl_bivector(group, points)
    projected = pi_q_projection(spec, pi)
    return pi, projected, bool(np.all(rank_relation_holds(spec, pi, projected)))


CHART_N3 = ((0, 0, 1), (0, 0, 2), (0, 1, 2))  # x = B_12, y = B_13, z = B_23


def _dubrovin_target(x, y, z) -> np.ndarray:
    """The bracket matrix over (x, y, z) of {x, y} = xy - 2z, {y, z} = yz - 2x,
    {z, x} = zx - 2y, one per point."""
    xy, yz, zx, zero = x * y - 2 * z, y * z - 2 * x, z * x - 2 * y, np.zeros_like(x)
    return np.stack([np.stack(row, axis=-1) for row in ((zero, xy, -zx), (-xy, zero, yz), (zx, -yz, zero))], axis=-2)


def stokes_report(n: int = 3, samples: int = 20, seed: int = 1, tol: float = 1e-8) -> Report:
    """Reproduce the Stokes-matrix Poisson structure from the dual group.

    Samples points (B, B^T) with B unipotent upper-triangular, projects the
    dual-group tensor to the fixed locus of (B, C) -> (C^T, B^T), and compares
    the brackets of the entries (x, y, z) = (B_12, B_13, B_23) against the
    predicted KAPPA times the target brackets (xy - 2z, yz - 2x, zx - 2y).
    ``kappa`` is the measured ratio at the largest target entry over all
    samples.  Independently, the tensor at generic dual points is pushed
    along (B, C) -> B C^T and compared against 2 KAPPA times the same target
    at the image.

    The report passes iff the Dubrovin residual, |kappa - KAPPA| and the
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
        pi, pi_q, rank_ok = _fixed_locus_step(group, psi, point)
        x, y, z = (point[(Ellipsis, *idx)] for idx in CHART_N3)
        brackets, target = pi_q.bracket_matrix(CHART_N3), _dubrovin_target(x, y, z)
        largest = np.argmax(np.abs(target))  # flat index, the first of the block's largest entries
        # Markoff polynomial m = x^2 + y^2 + z^2 - xyz is constant along
        # Hamiltonian directions: {m, w} = sum_v dm/dv {v, w}
        grad = np.stack([2 * x - y * z, 2 * y - x * z, 2 * z - x * y], axis=-1)
        return (float(np.max(np.abs(brackets - KAPPA * target))), abs(float(target.flat[largest])),
                float(brackets.flat[largest] / target.flat[largest]), float(np.max(dual_tangency_residual(pi))),
                float(np.max(np.abs(grad[:, None, :] @ brackets))), rank_ok)

    def push_block(ks: range) -> float:
        point = _dual_points(n, sample_rngs(seed, ks))
        pi = dual_group_bivector(group, point)
        b, c = point[:, None, 0], point[:, None, 1]  # broadcast over the wedge pairs
        pushed = pi.map_legs(lambda legs: legs[:, :, 0] @ _transpose(c) + b @ _transpose(legs[:, :, 1]),
                             base=point[:, 0] @ _transpose(point[:, 1]))
        image = pushed.base
        target = _dubrovin_target(image[:, 0, 1], image[:, 0, 2], image[:, 1, 2])
        return float(np.max(np.abs(pushed.bracket_matrix(((0, 1), (0, 2), (1, 2))) - 2.0 * KAPPA * target)))

    resids, largest, ratios, tangency, markoff, ranks = zip(*sample_blocks(range(samples), fixed_block))
    kappa = ratios[int(np.argmax(largest))]
    values = {
        "kappa": kappa,
        "kappa_two_defect": abs(kappa - KAPPA),
        "max_dubrovin_residual": max(resids),
        "max_pushforward_residual": max(sample_blocks(range(samples, 2 * samples), push_block)),
        "max_tangency_residual": max(tangency),
        "max_markoff_defect": max(markoff),
        "rank_relation_ok": all(ranks),
    }
    ok = (all(values[key] <= tol for key in ("max_dubrovin_residual", "kappa_two_defect", "max_pushforward_residual"))
          and values["max_tangency_residual"] <= TOL_CROSS and values["max_markoff_defect"] <= 1e-7
          and values["rank_relation_ok"])
    return Report(ok, values, seed=seed, samples=samples)


def _fixed_points(group: MatrixGroup, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Transpose-fixed group points exp((x + x^T)/2), one per generator, which draws
    the coefficients of x in the algebra basis.

    Both sl(n) and su(n) are stable under transposition, so the symmetrized
    element stays in the algebra and its exponential is a fixed group point.
    """
    x = group.combine(np.array([rng.normal(0.0, SAMPLE_SCALE, size=group.dim) for rng in rngs]))
    return matrix_exp(0.5 * (x + _transpose(x)))


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
    spec = InvolutionSpec("transpose")

    def block(ks: range):
        g = _fixed_points(group, sample_rngs(seed, ks))
        _, projected, rank_ok = _fixed_locus_step(group, spec, g)
        legs = np.concatenate([projected.u, projected.v], axis=1)  # must lie in the +1 eigenspace
        return (float(np.max(_bracket_difference(projected, pi_q_formula(group, g)))),
                float(np.max(np.abs(spec.apply(legs) - legs), initial=0.0)), rank_ok)

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
