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

Sampled points are built in closed form on their locus from each sample's raw
words (``report.sample_words``), with small dyadic entries k/8 and no matrix
exponential: unit triangular factors, diagonals of powers of 2 and, for SU(n),
a Cayley transform.  The SL(n) and Stokes points are exact in binary floats.

Every group report runs one sampled check, ``_fixed_locus_blocks``: per block
of fixed points, membership, pi = r^L - r^R and its projection, the route
residual of the projected entry brackets against the report's target (the
formula for crosscheck and bruhat, KAPPA times the Dubrovin brackets for
stokes), the +1-eigenspace residual of the projected legs, the rank relation.

Stated conventions for the Stokes check: the double's pairing
<(a,b),(c,d)> = tr(ac) - tr(bd), its r-matrix r = liealg.DOUBLE_R_SCALE
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
from .liealg import _double_basis, _sl_basis, _su_basis, sl_chevalley  # noqa: F401
from .report import Report, sample_blocks, sample_words

__all__ = [
    "TOL_MEMBER",
    "TOL_CROSS",
    "TOL_MARKOFF",
    "TOL_RANK",
    "MatrixGroup",
    "TangentBivector",
    "InvolutionSpec",
    "sl_group",
    "su_group",
    "dual_group",
    "pl_bivector",
    "pi_q_projection",
    "pi_q_formula",
    "dual_group_bivector",
    "dual_tangency_residual",
    "rank_relation_holds",
    "stokes_report",
    "crosscheck_report",
]

TOL_MEMBER = 1e-9  # group membership and invariance residuals
TOL_CROSS = 1e-8  # cross-route bracket comparisons: the route gates of every report, and tangency
TOL_MARKOFF = 1e-7  # the Markoff polynomial's change along the sampled Stokes brackets
TOL_RANK = 1e-8  # singular values above it count toward a numeric rank

KAPPA = 2.0  # predicted Stokes constant, sign included: {x, y} = KAPPA (xy - 2z) and cyclically

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


def _require(residual: np.ndarray, bound, failure: str) -> None:
    """Raise ValueError, naming ``failure`` and the residual, at the first point whose residual exceeds its bound."""
    over = np.ravel(residual > bound)
    if over.any():
        raise ValueError(f"{failure} (residual {float(np.ravel(residual)[over.argmax()]):.2e})")


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
        ``_real_flat``; its column space is the image.  Formed once per bivector,
        so read-only."""
        return self._sharp

    @functools.cached_property
    def _sharp(self) -> np.ndarray:
        lead = self.batch_ndim + 1
        sharp = _wedge_matrix(_real_flat(self.u, lead), _real_flat(self.v, lead))
        sharp.setflags(write=False)
        return sharp

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


def _from_exact(name: str, shape: tuple, matrices: Sequence[dict], r_terms: Sequence, membership: Callable) -> MatrixGroup:
    """The MatrixGroup on exact basis matrices of ``shape``, (n, n) or (2, n, n) for pairs, each given by its
    nonzero entries {index: value}, and exact r-terms (i, j, c): the one place an exact basis becomes dense.
    Its basis is real when no entry has an imaginary part, and complex otherwise."""
    basis = np.zeros((len(matrices), *shape), dtype=complex)
    for k, entries in enumerate(matrices):
        for idx, v in entries.items():
            basis[(k, *idx)] = v.to_complex()
    if not basis.imag.any():
        basis = basis.real.copy()
    return MatrixGroup(name, list(basis), [(i, j, float(c)) for i, j, c in r_terms], membership)


def sl_group(n: int) -> MatrixGroup:
    """SL(n, R) with the standard r-matrix sum of e_a ^ f_a over positive roots."""
    _check_n(n)
    _, mats, root_data = _sl_basis(n)
    return _from_exact(f"SL({n},R)", (n, n), mats, root_data.r_terms, _membership_sl)


def su_group(n: int) -> MatrixGroup:
    """SU(n) with the compact r-matrix sum of d_a/2 X_a ^ Y_a."""
    _check_n(n)
    _, mats, root_data = _su_basis(n)
    return _from_exact(f"SU({n})", (n, n), mats, root_data.r_terms, _membership_su)


def _membership_dual(g: np.ndarray) -> np.ndarray:
    """(B, C) with B upper-, C lower-triangular, diag B diag C = 1, det = 1."""
    b, c = g[..., 0, :, :], g[..., 1, :, :]
    diag = np.diagonal(b, axis1=-2, axis2=-1) * np.diagonal(c, axis1=-2, axis2=-1) - 1.0
    return np.maximum.reduce([_max_over(np.tril(b, -1), 2), _max_over(np.triu(c, 1), 2), _max_over(diag, 1),
                              np.abs(np.linalg.det(b) - 1.0)])


def dual_group(n: int) -> MatrixGroup:
    """The dual group B+ * B- inside the double D = SL(n) x SL(n), on the exact basis and
    r-terms of ``liealg._double_basis``: the diagonal D_i, then the dual basis xi^i of pairs
    (X+, X-) of upper/lower triangular matrices with opposite diagonals, and
    r = DOUBLE_R_SCALE sum_i D_i ^ xi^i.
    """
    _check_n(n)
    return _from_exact(f"B+*B-({n})", (2, n, n), *_double_basis(n), _membership_dual)


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


def pi_q_projection(spec: InvolutionSpec, pi: TangentBivector) -> TangentBivector:
    """Project every wedge leg v to v+ = (v + Phi_* v)/2.  Requires Phi_* pi = pi, read as S
    permuted on both axes by ``_permutation`` against pi's sharp matrix S, at each point's
    scale max(1, |pi|)^2, and then base points fixed by the involution."""
    sharp, perm = pi.sharp_matrix(), _permutation(spec, pi.point_shape, pi.u.dtype)
    invariance = _max_over(sharp[..., perm[:, None], perm] - sharp, 2)
    _require(invariance, TOL_MEMBER * np.maximum(1.0, pi.max_abs()) ** 2, "bivector is not involution-invariant")
    _require(spec.fixed_residual(pi.base), TOL_MEMBER, "point is not fixed by the involution")
    return pi.map_legs(lambda v: 0.5 * (v + spec.apply(v)))


def _permutation(spec: InvolutionSpec, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """The differential in ``sharp_matrix()``'s coordinates, the permutation with (Phi_* v)[k] =
    v[perm[k]]; complex legs' real and imaginary halves move alike."""
    size = math.prod(shape)
    perm = spec.apply(np.arange(size).reshape(shape)).ravel()
    if np.issubdtype(dtype, np.complexfloating):
        perm = np.concatenate([perm, perm + size])
    return perm


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
    _require(group.membership(point), TOL_MEMBER, f"point is not in {group.name}")
    return pl_bivector(group, point)


def dual_tangency_residual(pi: TangentBivector) -> float | np.ndarray:
    """How far the sharp image of a bivector at (B, C) leaves T(B,C) G*, per point.

    Wedge legs need not be tangent; the image of the sharp map, spanned by the columns of
    ``sharp_matrix()``, must be.  So every column is paired against the constraint
    differentials cutting out G*: strictly lower beta, strictly upper gamma, and
    beta_ii C_ii + B_ii gamma_ii.  The largest pairing is divided by the point's scale
    max(1, |pi|)^2, as in ``pi_q_projection``."""
    b, c = (np.diagonal(pi.base[..., None, k, :, :], axis1=-2, axis2=-1) for k in (0, 1))
    columns = _transpose(pi.sharp_matrix())[..., :math.prod(pi.point_shape)]
    beta, gamma = np.moveaxis(columns.reshape(*columns.shape[:-1], *pi.point_shape), -3, 0)
    diag = np.diagonal(beta, axis1=-2, axis2=-1) * c + b * np.diagonal(gamma, axis1=-2, axis2=-1)
    worst = np.maximum.reduce([_max_over(np.tril(beta, -1), 3), _max_over(np.triu(gamma, 1), 3), _max_over(diag, 2)])
    return worst / np.maximum(1.0, pi.max_abs()) ** 2


def _rank(mat: np.ndarray) -> np.ndarray:
    """Numeric rank of each matrix of a stack: its singular values above TOL_RANK."""
    return np.sum(np.linalg.svd(mat, compute_uv=False) > TOL_RANK, axis=-1)


def _plus_eigenspace(spec: InvolutionSpec, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """Orthonormal basis of the +1 eigenspace of the differential, in the coordinates of
    ``sharp_matrix()``: one column per orbit of ``_permutation``, e_k for a fixed coordinate k
    and (e_k + e_perm(k))/sqrt(2) for a swapped pair."""
    perm = _permutation(spec, shape, dtype)
    first = np.flatnonzero(np.arange(len(perm)) <= perm)  # the least coordinate of each orbit
    basis, cols = np.zeros((len(perm), len(first))), np.arange(len(first))
    basis[first, cols] = basis[perm[first], cols] = np.where(perm[first] == first, 1.0, math.sqrt(0.5))
    return basis


def rank_relation_holds(spec: InvolutionSpec, pi: TangentBivector, projected: TangentBivector) -> bool | np.ndarray:
    """rank pi_Q^# == dim( im pi^# intersect T_x Q ), both by SVD at TOL_RANK, per point;
    ``projected`` is ``pi_q_projection(spec, pi)``, which every caller already holds.

    That projection checked Phi_* pi = pi, so im pi^# is stable under Phi's differential, a
    permutation of ``sharp_matrix()``'s coordinates: the image is the sum of its +1 and -1
    parts, and the +1 part, the intersection, is its projection to the +1 eigenspace.  So the
    intersection has the rank of P^T S, P the orbit basis of ``_plus_eigenspace`` and S pi's
    sharp matrix.  rank pi_Q^# comes from the projected legs, so a broken projection fails."""
    plus = _plus_eigenspace(spec, pi.point_shape, pi.u.dtype)
    return _rank(projected.sharp_matrix()) == _rank(plus.T @ pi.sharp_matrix())


# ---------------------------------------------------------------------------
# sampled points and reports
# ---------------------------------------------------------------------------


def _dyadic(words: np.ndarray) -> np.ndarray:
    """One k/8 per word, k in -8..-1, 1..8, read off the word's last 4 bits."""
    k = (words % 16).astype(int) - 8
    return (k + (k >= 0)) / 8


def _unit_upper(words: np.ndarray, n: int) -> np.ndarray:
    """Unit upper-triangular matrices, one per row of words, with the ``_dyadic`` strictly upper
    entries of the row's first n(n - 1)/2 words, row by row."""
    a, b = np.triu_indices(n, 1)
    out = np.broadcast_to(np.eye(n), (len(words), n, n)).copy()
    out[:, a, b] = _dyadic(words[:, :len(a)])
    return out


def _exponents(words: np.ndarray, n: int) -> np.ndarray:
    """Distinct integers with sum 0, -(n // 2)..n // 2 and 0 left out for even n, one row per row of
    words, permuted as the row's first n words sort."""
    values = np.array([e for e in range(-(n // 2), n // 2 + 1) if e or n % 2])
    return values[np.argsort(words[:, :n], axis=1)]


def _stokes_points(n: int, words: np.ndarray) -> np.ndarray:
    """Points (S, S^T) of G* fixed by (B, C) -> (C^T, B^T), S = ``_unit_upper``, one per row of words."""
    s = _unit_upper(words, n)
    return np.stack([s, _transpose(s)], axis=1)


def _dual_points(n: int, words: np.ndarray) -> np.ndarray:
    """Generic points (D U+, D^-1 U-) of G*, one per row of words: U+ and U-^T are ``_unit_upper``
    on the row's first and next n(n - 1)/2 words, and D = diag(2^e), e the ``_exponents`` of the
    words after them."""
    m = n * (n - 1) // 2
    d = np.ldexp(1.0, _exponents(words[:, 2 * m:], n))[..., None]
    return np.stack([d * _unit_upper(words, n), _transpose(_unit_upper(words[:, m:], n)) / d], axis=1)


def _fixed_points(kind: str, n: int, words: np.ndarray) -> np.ndarray:
    """Transpose-fixed points of SL(n, R) (kind 'sl') or SU(n) ('su'), one per row of words, whose
    first n(n - 1)/2 words give a U = ``_unit_upper`` and whose next ones a diagonal D of det 1.

    SL(n): h D h^T, h = U^T, D = diag(2^e) with e the ``_exponents``.  SU(n): V D V^T, with V =
    (I + K)^-1 (I - K) orthogonal, the Cayley transform of the skew K = U - U^T, and D the unit
    complex numbers (1 - t^2 + 2it)/(1 + t^2), t ``_dyadic``, the last one the conjugate of the
    others' product.
    """
    m = n * (n - 1) // 2
    u = _unit_upper(words, n)
    if kind == "sl":
        return (_transpose(u) * np.ldexp(1.0, _exponents(words[:, m:], n))[:, None, :]) @ u
    t = _dyadic(words[:, m:m + n - 1])
    z = (1 - t * t + 2j * t) / (1 + t * t)
    d = np.concatenate([z, np.prod(z, axis=1, keepdims=True).conj()], axis=1)
    skew = u - _transpose(u)
    v = np.linalg.solve(np.eye(n) + skew, np.eye(n) - skew)
    return (v * d[:, None, :]) @ _transpose(v)


def _fixed_locus_blocks(group: MatrixGroup, spec: InvolutionSpec, samples: int, seed: int,
                        draw: Callable[[np.ndarray], np.ndarray], target: Callable[[np.ndarray], np.ndarray],
                        entries: Sequence[tuple] | None = None, readout: Callable[..., tuple] = lambda *_: ()):
    """The sampled check of every group report (module docstring), at the points ``draw`` builds
    from each block's ``sample_words``; a point drawn off the group is a sampling bug, raised as
    AssertionError.  Returns the largest route and +1 residuals, whether every rank relation held,
    and the columns of the report's ``readout(points, pi, brackets, expected)``, ``expected`` the
    block's ``target(points)``."""

    def block(ks: range) -> tuple:
        points = draw(sample_words(seed, ks))
        if np.any(group.membership(points) > TOL_MEMBER):
            raise AssertionError("sampled point failed group membership")
        pi = pl_bivector(group, points)
        projected = pi_q_projection(spec, pi)
        brackets, expected = projected.bracket_matrix(entries), target(points)
        legs = np.concatenate([projected.u, projected.v], axis=1)
        return (float(np.max(np.abs(brackets - expected))),
                float(np.max(np.abs(spec.apply(legs) - legs), initial=0.0)),
                bool(np.all(rank_relation_holds(spec, pi, projected))), *readout(points, pi, brackets, expected))

    route, plus, ranks, *readouts = zip(*sample_blocks(range(samples), block))
    return max(route), max(plus), all(ranks), readouts


STOKES_COORDS = ((0, 1), (0, 2), (1, 2))  # the Stokes coordinates (x, y, z) = (S_12, S_13, S_23)


def _dubrovin_target(s: np.ndarray) -> np.ndarray:
    """The bracket matrix over the Stokes coordinates of {x, y} = xy - 2z, {y, z} = yz - 2x,
    {z, x} = zx - 2y, one per unipotent matrix of a stack."""
    x, y, z = (s[..., i, j] for i, j in STOKES_COORDS)
    xy, yz, zx, zero = x * y - 2 * z, y * z - 2 * x, z * x - 2 * y, np.zeros_like(x)
    return np.stack([np.stack(row, axis=-1) for row in ((zero, xy, -zx), (-xy, zero, yz), (zx, -yz, zero))], axis=-2)


def stokes_report(n: int = 3, samples: int = 20, seed: int = 1) -> Report:
    """Reproduce the Stokes-matrix Poisson structure from the dual group.

    Samples points (B, B^T) with B unipotent upper-triangular, projects the
    dual-group tensor to the fixed locus of (B, C) -> (C^T, B^T), and compares
    the brackets of B's Stokes coordinates (x, y, z), ``STOKES_COORDS``, against
    the predicted KAPPA times the target brackets (xy - 2z, yz - 2x, zx - 2y).
    ``kappa`` is the measured ratio at the largest target entry over all
    samples.  Independently, the tensor at generic dual points is pushed
    along (B, C) -> B C^T and compared against 2 KAPPA times the same target
    at the image.

    The report passes iff the Dubrovin residual, |kappa - KAPPA|, the
    pushforward residual and the tangency residual are at most TOL_CROSS, the
    Markoff defect at most TOL_MARKOFF, the +1 residual at most TOL_MEMBER,
    and the rank relation holds.
    """
    if n != 3:
        raise ValueError("the Dubrovin chart readout is specific to n = 3")
    group = dual_group(n)

    def readout(point, pi, brackets, expected):
        target = expected / KAPPA  # the Dubrovin brackets themselves, exactly, as KAPPA is 2
        largest = np.argmax(np.abs(target))  # flat index, the first of the block's largest entries
        # Markoff polynomial m = x^2 + y^2 + z^2 - xyz is constant along Hamiltonian directions:
        # {m, w} = sum_v dm/dv {v, w}; the target is {x, y} = -dm/dz cyclically, so it holds dm/dv
        grad = -target[:, (1, 2, 0), (2, 0, 1)]
        return (abs(float(target.flat[largest])), float(brackets.flat[largest] / target.flat[largest]),
                float(np.max(dual_tangency_residual(pi))), float(np.max(np.abs(grad[:, None, :] @ brackets))))

    def push_block(ks: range) -> float:
        point = _dual_points(n, sample_words(seed, ks))
        pi = dual_group_bivector(group, point)
        b, c = point[:, None, 0], point[:, None, 1]  # broadcast over the wedge pairs
        pushed = pi.map_legs(lambda legs: legs[:, :, 0] @ _transpose(c) + b @ _transpose(legs[:, :, 1]),
                             base=point[:, 0] @ _transpose(point[:, 1]))
        target = 2.0 * KAPPA * _dubrovin_target(pushed.base)
        return float(np.max(np.abs(pushed.bracket_matrix(STOKES_COORDS) - target)))

    resid, max_plus, rank_ok, (largest, ratios, tangency, markoff) = _fixed_locus_blocks(
        group, InvolutionSpec("pair-swap"), samples, seed, lambda words: _stokes_points(n, words),
        lambda point: KAPPA * _dubrovin_target(point[:, 0]), [(0, *ij) for ij in STOKES_COORDS], readout)
    kappa = ratios[int(np.argmax(largest))]
    values = {
        "kappa": kappa,
        "kappa_two_defect": abs(kappa - KAPPA),
        "max_dubrovin_residual": resid,
        "max_pushforward_residual": max(sample_blocks(range(samples, 2 * samples), push_block)),
        "max_tangency_residual": max(tangency),
        "max_markoff_defect": max(markoff),
        "max_plus_residual": max_plus,
        "rank_relation_ok": rank_ok,
    }
    ok = (all(values[key] <= TOL_CROSS for key in ("max_dubrovin_residual", "kappa_two_defect",
                                                   "max_pushforward_residual", "max_tangency_residual"))
          and values["max_markoff_defect"] <= TOL_MARKOFF and max_plus <= TOL_MEMBER and rank_ok)
    return Report(ok, values, seed=seed, samples=samples)


def crosscheck_report(kind: str, samples: int = 10, seed: int = 2, n: int = 3) -> Report:
    """Two-route agreement at transpose-fixed points.

    kind 'sl' uses SL(n, R) and the split r-matrix; kind 'su' uses SU(n) and
    the compact one (the Bruhat-type fixed locus of symmetric unitaries).  The
    report passes iff the route difference is at most TOL_CROSS, the projected
    legs leave the +1 eigenspace by at most TOL_MEMBER, and the rank relation
    holds.
    """
    groups = {"sl": sl_group, "su": su_group}  # read at call time, so a traced binding is the one called
    if kind not in groups:
        raise ValueError("kind must be 'sl' or 'su'")
    group = groups[kind](n)
    max_diff, max_plus, rank_ok, _ = _fixed_locus_blocks(
        group, InvolutionSpec("transpose"), samples, seed, lambda words: _fixed_points(kind, n, words),
        lambda g: pi_q_formula(group, g).bracket_matrix())
    values = {"group": group.name, "max_route_difference": max_diff, "max_plus_residual": max_plus,
              "rank_relation_ok": rank_ok}
    return Report(max_diff <= TOL_CROSS and max_plus <= TOL_MEMBER and rank_ok, values, seed=seed, samples=samples)
