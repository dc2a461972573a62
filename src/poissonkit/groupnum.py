"""Floating-point matrix-Lie-group layer.

Groups are represented by numpy matrices; elements of product groups such as
the double SL(n) x SL(n) are stacked arrays of shape (2, n, n), on which
matmul, inverse and determinant broadcast.  A bivector at a group point is a
finite sum of wedge pairs u_a ^ v_a of tangent matrices, with no preferred
basis; its legs are stored as two stacked arrays u, v of shape
(m, *base.shape), so the sharp map, entry brackets, involution pushforwards
and projections act on all wedge pairs in one array operation.  Maps applied
to legs (``map_legs``, ``InvolutionSpec.push``, the ``phi`` of
``pi_q_formula``) therefore broadcast over leading axes.

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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .liealg import LieAlgebraData, _sl_basis, sl_chevalley, standard_r_matrix, su_compact_basis

__all__ = [
    "TOL_LINALG",
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
    "StokesReport",
    "CrossRouteReport",
]

TOL_LINALG = 1e-12  # pure linear-algebra identities
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


def matrix_exp(x: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring via scipy), batched over
    leading axes."""
    x = np.asarray(x)
    if x.ndim == 2:
        return scipy.linalg.expm(x)
    return np.stack([scipy.linalg.expm(m) for m in x])


def _transpose(v: np.ndarray) -> np.ndarray:
    return np.swapaxes(v, -1, -2)


def _flat(x: np.ndarray) -> np.ndarray:
    """Each leg of a stack of shape (m, *shape) flattened: an (m, prod(shape)) array."""
    return x.reshape(x.shape[0], math.prod(x.shape[1:]))


def _vec(x: np.ndarray) -> np.ndarray:
    """Realified flattening of each leg of a stack of shape (m, *shape): an
    (m, 2 * prod(shape)) array, uniform for real and complex stacks."""
    flat = _flat(np.asarray(x))
    return np.concatenate([np.real(flat), np.imag(flat)], axis=1)


@dataclass
class MatrixGroup:
    """A matrix group together with a basis of its Lie algebra and an
    r-matrix decomposition r = sum of coeff * basis[i] ^ basis[j]."""

    name: str
    algebra: LieAlgebraData | None
    basis: list[np.ndarray]
    r_terms: list[tuple[int, int, float]]
    membership: Callable[[np.ndarray], float]
    _coord_pinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stacked = np.stack([b.reshape(-1) for b in self.basis], axis=1)
        self._coord_pinv = np.linalg.pinv(stacked)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of x in the Lie-algebra basis (least squares, exact
        for elements of the span)."""
        return self._coord_pinv @ np.asarray(x).reshape(-1)

    def ad(self, g: np.ndarray, x: np.ndarray) -> np.ndarray:
        return g @ x @ np.linalg.inv(g)

    def random_algebra_element(self, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
        coeffs = rng.normal(0.0, scale, size=self.dim)
        total = np.zeros_like(self.basis[0])
        for c, b in zip(coeffs, self.basis):
            total = total + c * b
        return total

    @functools.cached_property
    def r_legs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The r-terms as stacks: left legs, right legs and coefficients."""
        i, j, c = (np.array(col) for col in zip(*self.r_terms))
        stack = np.stack(self.basis)
        return stack[i], stack[j], c.reshape(-1, *(1,) * self.basis[0].ndim)


class TangentBivector:
    """A bivector sum_a u_a ^ v_a at a group point.

    The legs are stored stacked: ``u`` and ``v`` have shape (m, *base.shape),
    with u[a] ^ v[a] the a-th wedge pair.  ``pairs`` lists them one by one.
    """

    def __init__(self, base: np.ndarray, pairs: Sequence[tuple[np.ndarray, np.ndarray]]):
        base = np.asarray(base)
        pairs = list(pairs)
        if pairs:
            u, v = (np.stack(legs) for legs in zip(*pairs))
        else:
            u = v = np.zeros((0, *base.shape), dtype=base.dtype)
        self._set(base, u, v)

    @classmethod
    def from_legs(cls, base: np.ndarray, u: np.ndarray, v: np.ndarray) -> "TangentBivector":
        """The bivector sum_a u[a] ^ v[a] from two leg stacks of one shape."""
        out = cls.__new__(cls)
        out._set(np.asarray(base), np.asarray(u), np.asarray(v))
        return out

    def _set(self, base: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
        if u.shape != v.shape or u.shape[1:] != base.shape:
            raise ValueError(f"leg stacks {u.shape} and {v.shape} do not match base shape {base.shape}")
        self.base, self.u, self.v = base, u, v

    @property
    def pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return list(zip(self.u, self.v))

    def entry_bracket(self, idx1: tuple, idx2: tuple):
        """{A_idx1, A_idx2} = sum_a u_a[idx1] v_a[idx2] - u_a[idx2] v_a[idx1]."""
        u1, u2 = self.u[(slice(None), *idx1)], self.u[(slice(None), *idx2)]
        v1, v2 = self.v[(slice(None), *idx1)], self.v[(slice(None), *idx2)]
        return u1 @ v2 - u2 @ v1

    def bracket_matrix(self, entries: Sequence[tuple] | None = None) -> np.ndarray:
        """Brackets {A_p, A_q} of all matrix entries (flat order), or of the
        listed entries only: U^T V - V^T U on the flattened leg stacks."""
        u, v = _flat(self.u), _flat(self.v)
        if entries is not None:
            flat = [np.ravel_multi_index(idx, self.base.shape) for idx in entries]
            u, v = u[:, flat], v[:, flat]
        x = u.T @ v
        return x - x.T  # = U^T V - V^T U, and exactly antisymmetric

    def map_legs(self, fn: Callable[[np.ndarray], np.ndarray], base: np.ndarray | None = None) -> "TangentBivector":
        """Apply ``fn`` to both leg stacks; ``fn`` must broadcast over the leading axis."""
        return TangentBivector.from_legs(self.base if base is None else base, fn(self.u), fn(self.v))

    def sharp_matrix(self) -> np.ndarray:
        """Realified matrix of the sharp map, U^T V - V^T U on the realified leg
        stacks; its column space is the image."""
        x = _vec(self.u).T @ _vec(self.v)
        return x - x.T  # = U^T V - V^T U, and exactly antisymmetric

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.u), initial=0.0), np.max(np.abs(self.v), initial=0.0)))


# ---------------------------------------------------------------------------
# group constructors
# ---------------------------------------------------------------------------


def _membership_sl(g: np.ndarray) -> float:
    return float(abs(np.linalg.det(g) - 1.0))


def _membership_su(g: np.ndarray) -> float:
    unitarity = float(np.max(np.abs(g @ g.conj().T - np.eye(g.shape[0]))))
    return max(unitarity, float(abs(np.linalg.det(g) - 1.0)))


N_CAP = 6  # dual-basis solves are O(dim^3); keep the check suite quick


def _check_n(n: int) -> None:
    if not 2 <= n <= N_CAP:
        raise ValueError(f"n must be between 2 and {N_CAP}")


def sl_group(n: int, real: bool = True) -> MatrixGroup:
    """SL(n) with the standard r-matrix sum of e_a ^ f_a over positive roots."""
    _check_n(n)
    alg = sl_chevalley(n)
    mats = alg.numeric_matrices()
    if real:
        mats = [m.real.copy() for m in mats]
    r = standard_r_matrix(alg)
    terms = [(idxs[0], idxs[1], float(c.re)) for idxs, c in r.comps.items()]
    return MatrixGroup(f"SL({n},{'R' if real else 'C'})", alg, mats, terms, _membership_sl)


def su_group(n: int) -> MatrixGroup:
    """SU(n) with the compact r-matrix sum of d_a/2 X_a ^ Y_a."""
    _check_n(n)
    alg, r_hat = su_compact_basis(n)
    mats = alg.numeric_matrices()
    terms = [(idxs[0], idxs[1], float(c.re)) for idxs, c in r_hat.comps.items()]
    return MatrixGroup(f"SU({n})", alg, mats, terms, _membership_su)


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack([a, b])


def _membership_dual(g: np.ndarray) -> float:
    """(B, C) with B upper-, C lower-triangular, diag B diag C = 1, det = 1."""
    b, c = g[0], g[1]
    n = b.shape[0]
    res = float(np.max(np.abs(np.tril(b, -1))))
    res = max(res, float(np.max(np.abs(np.triu(c, 1)))))
    res = max(res, float(np.max(np.abs(np.diag(b) * np.diag(c) - 1.0))))
    res = max(res, float(abs(np.linalg.det(b) - 1.0)))
    return res


def dual_group(n: int) -> MatrixGroup:
    """The dual group B+ * B- inside the double D = SL(n) x SL(n).

    sigma = sl(n) + sl(n) carries the pairing <(a,b),(c,d)> = tr(ac) - tr(bd);
    the diagonal is sl(n), and the dual sits as pairs (X+, X-) of upper/lower
    triangular matrices with opposite diagonals.  The r-matrix of the double
    is sum_i D_i ^ xi^i over a basis D_i of the diagonal and its dual basis
    xi^i of the dual; the dual basis comes from an exactly solvable linear
    system whose residual is checked at TOL_LINALG by the callers' tests.
    """
    _check_n(n)
    sl_basis = [np.array([[float(c.re) for c in row] for row in m]) for m in _sl_basis(n)[1]]
    diag_basis = [_pair(m, m) for m in sl_basis]

    gstar_basis: list[np.ndarray] = []
    zero = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            e = np.zeros((n, n))
            e[a, b] = 1.0
            gstar_basis.append(_pair(e, zero))
    for a in range(n):
        for b in range(a + 1, n):
            e = np.zeros((n, n))
            e[b, a] = 1.0
            gstar_basis.append(_pair(zero, e))
    for m in range(n - 1):
        h = np.zeros((n, n))
        h[m, m] = 1.0
        h[m + 1, m + 1] = -1.0
        gstar_basis.append(_pair(h, -h))

    dim = len(sl_basis)
    assert len(gstar_basis) == dim

    gram = np.array([[pair_trace(x, d) for d in diag_basis] for x in gstar_basis])
    dual_vectors = np.linalg.solve(gram.T, np.eye(dim))  # column i: coeffs of xi^i
    xi_basis = []
    for i in range(dim):
        total = np.zeros((2, n, n))
        for a in range(dim):
            total += dual_vectors[a, i] * gstar_basis[a]
        xi_basis.append(total)

    basis = diag_basis + xi_basis
    r_terms = [(i, dim + i, DOUBLE_R_SCALE) for i in range(dim)]
    group = MatrixGroup(f"B+*B-({n})", None, basis, r_terms, _membership_dual)
    group.diag_dim = dim
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
    """Matrix of Ad_g in the algebra basis (column j: coords of Ad_g basis_j)."""
    cols = [group.coords(group.ad(g, b)) for b in group.basis]
    return np.stack(cols, axis=1)


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


def _interleave(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Stack [first[0], second[0], first[1], second[1], ...] along axis 0."""
    return np.stack([first, second], axis=1).reshape(-1, *first.shape[1:])


def pl_bivector(group: MatrixGroup, g: np.ndarray) -> TangentBivector:
    """pi(g) = r_{g*} (Ad_g r - r): wedge pairs of tangent matrices at g,
    (c Ad_g(a) g, Ad_g(b) g) and (-c a g, b g) for each r-term c a ^ b."""
    a, b, c = group.r_legs
    g_inv = np.linalg.inv(g)
    u = _interleave(c * (g @ a @ g_inv @ g), -c * (a @ g))
    v = _interleave(g @ b @ g_inv @ g, b @ g)
    return TangentBivector.from_legs(g, u, v)


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

    def fixed_residual(self, g: np.ndarray) -> float:
        return float(np.max(np.abs(self.apply(g) - g)))


def xplus(spec: InvolutionSpec, g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v+ = (v + Phi_* v) / 2 at a fixed point of the involution; v may be a
    stack of tangent vectors."""
    res = spec.fixed_residual(g)
    if res > TOL_MEMBER:
        raise ValueError(f"point is not fixed by the involution (residual {res:.2e})")
    return 0.5 * (v + spec.push(v))


def invariance_residual(spec: InvolutionSpec, pi: TangentBivector) -> float:
    """|| Phi_* pi - pi || via the realified sharp matrices."""
    pushed = pi.map_legs(spec.push)
    return float(np.max(np.abs(pushed.sharp_matrix() - pi.sharp_matrix())))


def pi_q_projection(spec: InvolutionSpec, pi: TangentBivector) -> TangentBivector:
    """Project every wedge leg with (1 + Phi_*)/2; requires Phi_* pi = pi."""
    res = invariance_residual(spec, pi)
    scale = max(1.0, pi.max_abs()) ** 2
    if res > TOL_MEMBER * scale:
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

    def left(x):
        return x @ g if swap_arrows else g @ x

    def right(x):
        return g @ x if swap_arrows else x @ g

    e, f, c = group.r_legs
    pe, pf = phi(e), phi(f)
    u = _interleave(0.25 * c * (left(e) + right(pe)), -0.25 * c * (right(e) + left(pe)))
    v = _interleave(left(f) + right(pf), right(f) + left(pf))
    return TangentBivector.from_legs(g, u, v)


# ---------------------------------------------------------------------------
# the dual group of SL(n) and the Stokes chart
# ---------------------------------------------------------------------------


def dual_group_bivector(group: MatrixGroup, point: np.ndarray) -> TangentBivector:
    """pi_D at a point of G* inside the double, with membership enforced."""
    res = group.membership(point)
    if res > TOL_MEMBER:
        raise ValueError(f"point is not in {group.name} (residual {res:.2e})")
    return pl_bivector(group, point)


def dual_tangency_residual(pi: TangentBivector) -> float:
    """How far the sharp image of a bivector at (B, C) leaves T(B,C) G*.

    Individual wedge legs of the stored decomposition need not be tangent;
    the invariant statement is about the image of the sharp map, so each
    unit basis vector of the image is paired against the constraint
    differentials cutting out G*: strictly lower part of beta, strictly
    upper part of gamma, and the diagonal relation
    beta_ii C_ii + B_ii gamma_ii = 0.
    """
    b, c = pi.base[0], pi.base[1]
    half = pi.base.size
    image = _column_basis(pi.sharp_matrix(), 1e-10)
    legs = image[:half].T.reshape(-1, *pi.base.shape)
    beta, gamma = legs[:, 0], legs[:, 1]
    diag = np.diagonal(beta, axis1=1, axis2=2) * np.diag(c) + np.diag(b) * np.diagonal(gamma, axis1=1, axis2=2)
    return float(max(
        np.max(np.abs(np.tril(beta, -1)), initial=0.0),
        np.max(np.abs(np.triu(gamma, 1)), initial=0.0),
        np.max(np.abs(diag), initial=0.0),
    ))


def _numeric_rank(mat: np.ndarray, thresh: float) -> int:
    if mat.size == 0:
        return 0
    svals = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(svals > thresh))


def _column_basis(mat: np.ndarray, thresh: float) -> np.ndarray:
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0))
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, s > thresh]


def _plus_eigenspace(spec: InvolutionSpec, template: np.ndarray, thresh: float) -> np.ndarray:
    """Orthonormal basis of the +1 eigenspace of the realified differential.

    For real templates the imaginary half of the realified space is phantom
    (the probes there push to zero), so it never enters the eigenspace.
    """
    half = template.size
    size = 2 * half
    probes = np.eye(size)  # row k is the k-th realified unit vector
    re = probes[:, :half].reshape(size, *template.shape)
    im = probes[:, half:].reshape(size, *template.shape)
    v = re + 1j * im if np.iscomplexobj(template) else re
    p = _vec(spec.push(v)).T  # column k: the pushed k-th probe
    _, s, vt = np.linalg.svd(p - np.eye(size))
    return vt[s <= thresh].T


def rank_relation_holds(spec: InvolutionSpec, pi: TangentBivector, projected: TangentBivector,
                        thresh: float = TOL_CROSS) -> bool:
    """rank pi_Q^# == dim( im pi^# intersect T_x Q ), by SVD at the threshold;
    ``projected`` is ``pi_q_projection(spec, pi)``, which every caller already holds."""
    m_ambient = pi.sharp_matrix()
    m_induced = projected.sharp_matrix()
    rank_induced = _numeric_rank(m_induced, thresh)

    image = _column_basis(m_ambient, thresh)
    plus = _plus_eigenspace(spec, pi.base, thresh)
    if image.shape[1] == 0 or plus.shape[1] == 0:
        dim_int = 0
    else:
        joint = np.concatenate([image, plus], axis=1)
        dim_int = image.shape[1] + plus.shape[1] - _numeric_rank(joint, thresh)
    return rank_induced == dim_int


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _sample_unipotent(n: int, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    x = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            x[a, b] = rng.normal(0.0, scale)
    return matrix_exp(x)


def _sample_dual_point(n: int, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """A generic point of G*: exponentials of opposite-diagonal triangular
    algebra elements."""
    up = np.zeros((n, n))
    low = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            up[a, b] = rng.normal(0.0, scale)
            low[b, a] = rng.normal(0.0, scale)
    d = rng.normal(0.0, scale, size=n)
    d -= d.mean()
    up += np.diag(d)
    low -= np.diag(d)
    return np.stack([matrix_exp(up), matrix_exp(low)])


@dataclass(frozen=True)
class StokesReport:
    n: int
    samples: int
    seed: int
    tol: float
    kappa: float
    max_dubrovin_residual: float
    kappa_two_defect: float
    max_pushforward_residual: float
    max_tangency_residual: float
    max_markoff_defect: float
    rank_relation_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.max_dubrovin_residual <= self.tol
            and self.kappa_two_defect <= self.tol
            and self.max_pushforward_residual <= self.tol
            and self.max_tangency_residual <= TOL_CROSS
            and self.max_markoff_defect <= 1e-7
            and self.rank_relation_ok
        )

    def __bool__(self) -> bool:
        return self.ok

    def lines(self) -> list[str]:
        return [
            f"kappa={self.kappa!r}",
            f"kappa_two_defect={self.kappa_two_defect!r}",
            f"max_dubrovin_residual={self.max_dubrovin_residual!r}",
            f"max_pushforward_residual={self.max_pushforward_residual!r}",
            f"max_tangency_residual={self.max_tangency_residual!r}",
            f"max_markoff_defect={self.max_markoff_defect!r}",
            f"rank_relation_ok={self.rank_relation_ok}",
            f"pass={self.ok}",
        ]


CHART_N3 = ((0, 0, 1), (0, 0, 2), (0, 1, 2))  # x = B_12, y = B_13, z = B_23


def _dubrovin_rhs(x: float, y: float, z: float) -> tuple[float, float, float]:
    return (x * y - 2 * z, y * z - 2 * x, z * x - 2 * y)


def stokes_report(n: int = 3, samples: int = 20, seed: int = 1, tol: float = 1e-8) -> StokesReport:
    """Reproduce the Stokes-matrix Poisson structure from the dual group.

    Samples points (B, B^T) with B unipotent upper-triangular, projects the
    dual-group tensor to the fixed locus of (B, C) -> (C^T, B^T), reads the
    brackets of the entries (x, y, z) = (B_12, B_13, B_23) and fits the
    single scalar kappa against the target brackets
    (xy - 2z, yz - 2x, zx - 2y); |kappa| must come out 2.  Independently,
    the tensor at generic dual points is pushed along (B, C) -> B C^T and
    compared against 2 kappa times the same target at the image.
    """
    if n != 3:
        raise ValueError("the Dubrovin chart readout is specific to n = 3")
    group = dual_group(n)
    psi = InvolutionSpec("pair-swap")

    collected = []
    max_tangency = 0.0
    max_markoff = 0.0
    rank_ok = True
    for k in range(samples):
        rng = np.random.default_rng([seed, k])
        b = _sample_unipotent(n, rng)
        point = np.stack([b, b.T])
        pi = dual_group_bivector(group, point)
        max_tangency = max(max_tangency, dual_tangency_residual(pi))
        pi_q = pi_q_projection(psi, pi)
        rank_ok = rank_ok and rank_relation_holds(psi, pi, pi_q)

        x, y, z = (float(point[idx]) for idx in CHART_N3)
        chart_brackets = pi_q.bracket_matrix(CHART_N3)  # {v, w} for v, w in (x, y, z)
        brackets = tuple(float(chart_brackets[p, q]) for p, q in ((0, 1), (1, 2), (2, 0)))
        collected.append((brackets, _dubrovin_rhs(x, y, z)))

        # Markoff polynomial m = x^2 + y^2 + z^2 - xyz is constant along
        # Hamiltonian directions: {m, w} = sum_v dm/dv {v, w}
        grad = np.array([2 * x - y * z, 2 * y - x * z, 2 * z - x * y])
        max_markoff = max(max_markoff, float(np.max(np.abs(grad @ chart_brackets))))

    # calibrate kappa once, at the most informative sampled component
    kappa = None
    for brackets, target in collected:
        pick = int(np.argmax(np.abs(target)))
        if abs(target[pick]) > 1e-6:
            kappa = brackets[pick] / target[pick]
            break
    if kappa is None:
        raise RuntimeError("no sample produced a usable calibration point")
    max_resid = 0.0
    for brackets, target in collected:
        for lhs, rhs in zip(brackets, target):
            max_resid = max(max_resid, abs(lhs - kappa * rhs))
    kappa_two_defect = abs(abs(kappa) - 2.0)

    max_push = 0.0
    for k in range(samples):
        rng = np.random.default_rng([seed, samples + k])
        point = _sample_dual_point(n, rng)
        pi = dual_group_bivector(group, point)
        b, c = point[0], point[1]
        image = b @ c.T

        def df(legs: np.ndarray) -> np.ndarray:
            return legs[:, 0] @ c.T + b @ _transpose(legs[:, 1])

        pushed = pi.map_legs(df, base=image)
        x, y, z = image[0, 1], image[0, 2], image[1, 2]
        target = _dubrovin_rhs(x, y, z)
        image_brackets = pushed.bracket_matrix(((0, 1), (0, 2), (1, 2)))
        brackets = (image_brackets[0, 1], image_brackets[1, 2], image_brackets[2, 0])
        for lhs, rhs in zip(brackets, target):
            max_push = max(max_push, abs(float(lhs) - 2.0 * kappa * float(rhs)))

    return StokesReport(
        n, samples, seed, tol, kappa, max_resid, kappa_two_defect, max_push,
        max_tangency, max_markoff, rank_ok,
    )


@dataclass(frozen=True)
class CrossRouteReport:
    group: str
    samples: int
    seed: int
    tol: float
    max_route_difference: float
    max_plus_residual: float
    rank_relation_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.max_route_difference <= self.tol
            and self.max_plus_residual <= TOL_MEMBER
            and self.rank_relation_ok
        )

    def __bool__(self) -> bool:
        return self.ok

    def lines(self) -> list[str]:
        return [
            f"group={self.group}",
            f"max_route_difference={self.max_route_difference!r}",
            f"max_plus_residual={self.max_plus_residual!r}",
            f"rank_relation_ok={self.rank_relation_ok}",
            f"pass={self.ok}",
        ]


def _sample_fixed_point(group: MatrixGroup, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """A transpose-fixed group point: exp of a symmetric algebra element.

    Both sl(n) and su(n) are stable under transposition, so the symmetrized
    element stays in the algebra and its exponential is a fixed group point.
    """
    x = group.random_algebra_element(rng, scale)
    return matrix_exp(0.5 * (x + _transpose(x)))


def _bracket_difference(a: TangentBivector, b: TangentBivector) -> float:
    """Largest entrywise-bracket difference over all entry pairs."""
    diff = np.abs(a.bracket_matrix() - b.bracket_matrix())
    return float(np.max(diff[np.triu_indices(a.base.size, 1)], initial=0.0))


def crosscheck_report(kind: str, samples: int = 10, seed: int = 2, tol: float = TOL_CROSS, n: int = 3) -> CrossRouteReport:
    """Two-route agreement at transpose-fixed points.

    kind 'sl' uses SL(n, R) and the split r-matrix; kind 'su' uses SU(n) and
    the compact one (the Bruhat-type fixed locus of symmetric unitaries).
    """
    if kind == "sl":
        group = sl_group(n, real=True)
    elif kind == "su":
        group = su_group(n)
    else:
        raise ValueError("kind must be 'sl' or 'su'")
    phi = _transpose  # the algebra anti-morphism in both realizations
    spec = InvolutionSpec("transpose")

    max_diff = 0.0
    max_plus = 0.0
    rank_ok = True
    for k in range(samples):
        rng = np.random.default_rng([seed, k])
        g = _sample_fixed_point(group, rng)
        if group.membership(g) > TOL_MEMBER:
            raise AssertionError("sampled point failed group membership")
        pi = pl_bivector(group, g)
        projected = pi_q_projection(spec, pi)
        direct = pi_q_formula(group, g, phi)
        max_diff = max(max_diff, _bracket_difference(projected, direct))
        rank_ok = rank_ok and rank_relation_holds(spec, pi, projected)

        # projected legs must lie in the +1 eigenspace
        legs = np.concatenate([projected.u, projected.v])
        max_plus = max(max_plus, float(np.max(np.abs(spec.push(legs) - legs), initial=0.0)))

    return CrossRouteReport(group.name, samples, seed, tol, max_diff, max_plus, rank_ok)
