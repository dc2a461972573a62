"""Aligned Dirac-submanifold criteria and induced Poisson structures.

A submanifold is handled in the chart-aligned normal form Q = {y = 0} with
the complement spanned by the d/dy's.  Writing phi_ij = {x_i, x_j} and
lambda_ij = {x_i, y_j}, the submanifold is Dirac in this presentation iff

    lambda_ij(x, 0) = 0   and   d phi_ij / d y_l (x, 0) = 0

identically, in which case pi_Q = phi_ij(x, 0) is a Poisson structure on Q.
The bracket condition (d phi / d y) is decided before the anchor condition
(lambda).  Linear involutions reach this one criterion through their (+1, -1)
eigenbasis, affine subspaces of Lie-Poisson duals through adapted coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations_with_replacement
from typing import Sequence

from . import linalg
from .exactalg import SCALAR_ONE, SCALAR_ZERO, Poly, PolyMultiVec, Scalar, schouten
from .liealg import lie_poisson_chart
from .poisson import PoissonChart, _not_poisson, jacobiator
from .report import InvalidInput, Report

__all__ = [
    "AlignedSubmanifold",
    "LinearInvolution",
    "check_aligned_dirac",
    "fixed_locus_symbolic",
    "affine_lie_poisson_dirac",
    "transverse_from_reductive",
    "leaf_slice_obstruction",
]


@dataclass(frozen=True)
class AlignedSubmanifold:
    """Q = {y = 0} inside a chart, with V_Q = span of the d/dy's.

    ``zero_y`` substitutes y = 0 and stays on the chart; ``to_q`` substitutes
    y = 0 onto Q's coordinates, the x's in the order of ``x_indices``.  Both
    are image lists for ``Poly.compose``.
    """

    chart: PoissonChart
    x_indices: tuple[int, ...]
    y_indices: tuple[int, ...]
    zero_y: tuple[Poly, ...] = field(init=False, repr=False)
    to_q: tuple[Poly, ...] = field(init=False, repr=False)

    def __post_init__(self):
        xs, ys = tuple(self.x_indices), tuple(self.y_indices)
        n, k = self.chart.dim, len(xs)
        if sorted(xs + ys) != list(range(n)):
            raise InvalidInput("x_indices and y_indices must partition the coordinates")
        object.__setattr__(self, "x_indices", xs)
        object.__setattr__(self, "y_indices", ys)
        zero_y = [Poly.var(n, i) if i in xs else Poly.zero(n) for i in range(n)]
        to_q = [Poly.var(k, xs.index(i)) if i in xs else Poly.zero(k) for i in range(n)]
        object.__setattr__(self, "zero_y", tuple(zero_y))
        object.__setattr__(self, "to_q", tuple(to_q))


@dataclass(frozen=True)
class LinearInvolution:
    """An exact linear map S with S^2 = I on chart coordinates, by its nonzero entries:
    ``columns[j]`` holds the pairs (i, c) of S e_j, c its nonzero i-coefficient, in strictly
    ascending i, one column per coordinate.  Columns of any other form, or S^2 != I, raise
    InvalidInput."""

    columns: tuple[linalg.Vector, ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "LinearInvolution":
        """The involution whose matrix has the dense rows ``rows``, read into its columns."""
        m = [[Scalar.coerce(v) for v in row] for row in rows]
        if any(len(row) != len(m) for row in m):
            raise InvalidInput("involution matrix must be square")
        return LinearInvolution(tuple(tuple((i, row[j]) for i, row in enumerate(m) if row[j]) for j in range(len(m))))

    def __post_init__(self):
        n = self.dim
        if not linalg.is_columns(self.columns, n):
            raise InvalidInput(f"involution columns must be (index in range({n}), nonzero) pairs, "
                               "each in strictly ascending index")
        if not linalg.is_involution(self.columns):
            raise InvalidInput("matrix is not an involution (S^2 != I)")

    @property
    def dim(self) -> int:
        return len(self.columns)


def _aligned_criterion(q: AlignedSubmanifold) -> Report:
    """The aligned criterion on a chart already known to be Poisson: d phi_ij / d y_l (x, 0) = 0,
    then lambda_ij(x, 0) = 0, then the induced chart (see ``check_aligned_dirac``)."""
    chart = q.chart
    ys = q.y_indices
    for a, i in enumerate(q.x_indices):
        for j in q.x_indices[a + 1 :]:
            phi = chart.pi.component((i, j))
            for l in ys:
                dphi = phi.diff(l).compose(q.zero_y)
                if not dphi.is_zero():
                    return Report(False, reason=f"d phi_({i},{j}) / d y_{l} nonzero on Q", witness=((i, j), dphi))
    for i in q.x_indices:
        for j in ys:
            lam = chart.pi.component((i, j)).compose(q.zero_y)
            if not lam.is_zero():
                return Report(False, reason=f"lambda_({i},{j}) = {{x_{i}, y_{j}}} nonzero on Q", witness=((i, j), lam))
    chart_q = PoissonChart(len(q.x_indices), tuple(chart.coords[i] for i in q.x_indices),
                           chart.pi.project(q.x_indices, q.to_q))
    if not jacobiator(chart_q).is_zero():
        raise AssertionError("induced structure failed the Jacobi identity; this is a bug")
    return Report(True, {"induced": chart_q})


def check_aligned_dirac(q: AlignedSubmanifold) -> Report:
    """Decide the aligned criterion; on failure the witness is the offending
    symbol as ((i, j), polynomial on the chart).

    It says that A = V_Q-perp = span{dx_i} along Q is a Lie subalgebroid of T*P
    (anchor pi^#, bracket [df, dg] = d{f, g}), the infinitesimal form of a
    symplectic subgroupoid (Moerdijk and Mrcun, Adv. Math. 204, 2006).  As
    f dx_i adds only multiples of dx: pi^#(dx_i) is tangent to Q iff
    lambda_ij(x, 0) = 0, and d phi_ij lies in A iff d phi_ij / d y_l (x, 0) = 0.

    A chart that is not Poisson fails first, with the first nonzero component
    of its Jacobiator, (index triple, polynomial), as witness.  On success
    ``values["induced"]`` is the induced chart (Q, pi_Q), pi_Q = phi_ij(x, 0).
    """
    failed = _not_poisson(q.chart)
    return _aligned_criterion(q) if failed is None else failed


def _pushforward(mv: PolyMultiVec, a: Sequence[linalg.Vector], a_inv: Sequence[linalg.Vector]) -> PolyMultiVec:
    """A_* X along x -> A x, for a field X of any degree: (A_* X)(x) = A X(A^-1 x),
    each component composed with A^-1 and each leg d_k carried to the column
    A d_k = sum_i a_ik d_i by ``Wedge.carry``.  A and A^-1 are given by their
    columns, as sparse vectors.  The caller passes A^-1, as it holds it
    already: an involution S is its own inverse, so S_* pi is
    ``_pushforward(pi, S, S)``, and the eigenbasis change built P."""
    n = mv.dim
    # x_i <- (A^-1 x)_i = sum_j b_ij x_j: coefficient b_ij on the exponent of x_j
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    back = [Poly(n, {units[j]: b for j, b in row}) for row in linalg.transpose(a_inv, n)]
    moved = PolyMultiVec._new(n, mv.degree, {idxs: p.compose(back) for idxs, p in mv.comps.items()})
    return moved.carry(n, a)


def _eigenspace(rows: Sequence[linalg.Vector], e: Scalar) -> list[linalg.Vector]:
    """A basis of the e-eigenspace of the matrix with these sparse rows: the kernel of S - e I."""
    shifted = ({**dict(row), i: dict(row).get(i, SCALAR_ZERO) - e} for i, row in enumerate(rows))
    return linalg.nullspace([{j: v for j, v in row.items() if v} for row in shifted], len(rows))


def fixed_locus_symbolic(chart: PoissonChart, s: LinearInvolution) -> Report:
    """Induced Poisson structure on the fixed locus of a linear involution.

    Fails if S is not Poisson, with the first nonzero component of
    S_* pi - pi, ((i, j), polynomial), as witness.  Then fails if the chart is
    not Poisson, with the first nonzero component of the input chart's
    Jacobiator, (index triple, polynomial), as witness, in the input
    coordinates.  A linear change of coordinates keeps a chart Poisson,
    [P^* pi, P^* pi] = P^* [pi, pi], so this one Jacobiator decides it for
    the eigen-chart too, and none is formed there.  Otherwise changes
    coordinates to the (+1, -1) eigenbasis of S (exact, since the eigenvalues
    are known), forms Q = {minus-block = 0}, and returns the report of the
    aligned criterion of ``check_aligned_dirac`` on it with the aligned
    submanifold added as ``values["submanifold"]`` and the change of basis as
    ``values["eigenbasis"]``: the columns of P, as sparse vectors, the kernel
    bases of S - I and then of S + I, so that x = P z and the z's are the
    coordinates of the submanifold's chart.
    """
    if s.dim != chart.dim:
        raise InvalidInput("involution dimension does not match the chart")
    residual = _pushforward(chart.pi, s.columns, s.columns) - chart.pi
    if not residual.is_zero():
        return Report(False, reason="S is not a Poisson involution", witness=sorted(residual.comps.items())[0])
    failed = _not_poisson(chart)
    if failed is not None:
        return failed

    n = chart.dim
    rows = linalg.transpose(s.columns, n)
    plus, minus = _eigenspace(rows, SCALAR_ONE), _eigenspace(rows, -SCALAR_ONE)
    if len(plus) + len(minus) != n:
        raise AssertionError("eigenspaces of an involution must span")
    p = plus + minus  # the columns of P; the map z -> x = P z straightens S
    pi_z = _pushforward(chart.pi, linalg.inverse(p), p)

    names = tuple(f"z{k+1}" for k in range(n))
    chart_z = PoissonChart(n, names, pi_z)
    sub = AlignedSubmanifold(chart_z, tuple(range(len(plus))), tuple(range(len(plus), n)))
    verdict = _aligned_criterion(sub)
    return replace(verdict, values={"submanifold": sub, "eigenbasis": p, **verdict.values})


# ---------------------------------------------------------------------------
# affine subspaces of Lie-Poisson spaces
# ---------------------------------------------------------------------------


def _as_vectors(g, elems) -> list[linalg.Vector]:
    """Labels, basis indices and coefficient lists as sparse vectors of g."""
    out = []
    for e in elems:
        if isinstance(e, str):
            if e not in g.labels:
                raise InvalidInput(f"unknown label {e!r}; the algebra has {', '.join(g.labels)}")
            e = g.labels.index(e)
        coeffs = ([SCALAR_ONE if i == e else SCALAR_ZERO for i in range(g.dim)] if isinstance(e, int)
                  else [Scalar.coerce(c) for c in e])
        if len(coeffs) != g.dim:
            raise InvalidInput(f"a vector of the algebra needs {g.dim} coefficients")
        out.append(tuple((i, c) for i, c in enumerate(coeffs) if c))
    return out


def affine_lie_poisson_dirac(g, l_basis, m_basis, mu) -> Report:
    """Decide whether mu + m-perp is a Dirac submanifold of g* (constant V_Q).

    The aligned criterion on g*'s Lie-Poisson chart in the coordinates
    x_a = <xi, l_a>, y_b = <xi - mu, m_b>, with Q = {y = 0}: its bracket
    condition says that l is a subalgebra, and a lambda_ab that fails says
    that [l_a, m_b] has an l-part (lambda non-constant) or that mu does not
    kill it (constant).  On success ``values["induced"]`` is the induced
    structure, the Lie-Poisson chart of l*.
    """
    lv = _as_vectors(g, l_basis)
    mv = _as_vectors(g, m_basis)
    if len(lv) + len(mv) != g.dim:
        raise InvalidInput("l and m have the wrong total dimension")
    n, k = g.dim, len(lv)
    a = linalg.transpose(lv + mv, n)  # the columns of A, whose rows are the l's and m's: the coordinates A xi
    a_inv = linalg.inverse(a)
    if a_inv is None:
        raise InvalidInput("l_basis and m_basis do not form a basis of g")
    mu = [Scalar.coerce(c) for c in mu]
    if len(mu) != g.dim:
        raise InvalidInput("mu has the wrong length")

    # y_b <- y_b + <mu, m_b>, so that mu + m-perp is {y = 0}
    offset = [SCALAR_ZERO] * k + [sum((mu[i] * c for i, c in row), SCALAR_ZERO) for row in mv]
    shift = [Poly.var(n, i) + offset[i] for i in range(n)]
    pi = _pushforward(lie_poisson_chart(g).pi, a, a_inv).project(range(n), shift)
    names = tuple(f"l{i+1}" for i in range(k)) + tuple(f"m{b+1}" for b in range(n - k))
    verdict = _aligned_criterion(AlignedSubmanifold(PoissonChart(n, names, pi), tuple(range(k)), tuple(range(k, n))))
    if verdict.ok:
        return verdict
    (i, j), lam = verdict.witness
    if j < k:
        return Report(False, reason=f"l is not a subalgebra: [l_{i}, l_{j}] leaves l")
    if any(any(e) for e in lam.terms):
        return Report(False, reason=f"[l, m] not contained in m: [l_{i}, m_{j - k}] has an l-part")
    return Report(False, reason=f"ad*-condition fails: <mu, [l_{i}, m_{j - k}]> = {lam.constant_value()}")


def transverse_from_reductive(g, l_basis, m_basis, mu) -> Report:
    """Transverse Poisson structure at mu through a reductive split.

    Fails unless l sits inside the isotropy algebra of mu (ad*_l mu = 0) and
    ``affine_lie_poisson_dirac`` passes on the split; the reason says which.
    On success ``values["induced"]`` is the Lie-Poisson structure on l*.
    """
    lv = _as_vectors(g, l_basis)
    mu_s = [Scalar.coerce(c) for c in mu]
    if len(mu_s) != g.dim:
        raise InvalidInput("mu has the wrong length")
    # isotropy: <mu, [l_a, x_b]> = 0 for every basis element x_b of g
    for a, u in enumerate(lv):
        for b in range(g.dim):
            w = g._bracket_supports(u, ((b, SCALAR_ONE),))
            if not sum((mu_s[c] * v for c, v in w.items()), SCALAR_ZERO).is_zero():
                return Report(False, reason=f"l is not contained in the isotropy algebra of mu (element {a})")
    return affine_lie_poisson_dirac(g, l_basis, m_basis, mu)


# ---------------------------------------------------------------------------
# leaf-slice obstruction (degree-bounded coboundary solve)
# ---------------------------------------------------------------------------


def _monomials_up_to(nvars: int, degree: int) -> list[tuple]:
    """Exponent tuples of total degree <= degree, in graded order."""
    monos = (tuple(combo.count(i) for i in range(nvars))
             for d in range(degree + 1) for combo in combinations_with_replacement(range(nvars), d))
    return sorted(monos, key=lambda e: (sum(e), e))


def leaf_slice_obstruction(chart: PoissonChart, t_indices: Sequence[int], t0: Sequence, degree_bound: int) -> Report:
    """Solve d pi/d t_i at t0 = -[X_i, pi_0] for polynomial fields X_i on the slice.

    ``chart`` holds a bivector family on coordinates (x, t) whose components
    involve only x-directions.  The slice bivector pi_0 at t = t0 must be
    Poisson: if not, the report fails with the first nonzero component of its
    Jacobiator as witness, (index triple, polynomial on the slice).  The X_i
    are sought with coefficients of total degree at most ``degree_bound``; on
    success the witness is the tuple of solved fields X_i, on the slice
    coordinates.  An unsolvable report at one bound is not a proof of
    non-existence at higher bounds.
    """
    ts = list(t_indices)
    if len(set(ts)) != len(ts):
        raise InvalidInput("t coordinates must be distinct")
    xs = [i for i in range(chart.dim) if i not in ts]
    t0 = [Scalar.coerce(v) for v in t0]
    if len(t0) != len(ts):
        raise InvalidInput("t0 must list one value per t-coordinate")

    for (i, j) in chart.pi.comps:
        if i in ts or j in ts:
            raise InvalidInput("family bivector must have components along the slice only")

    nx = len(xs)
    # t = t0, onto the x-chart
    frozen = [Poly.const(nx, t0[ts.index(i)]) if i in ts else Poly.var(nx, xs.index(i)) for i in range(chart.dim)]
    pi0 = chart.pi.project(xs, frozen)
    failed = _not_poisson(PoissonChart(nx, tuple(chart.coords[i] for i in xs), pi0))
    if failed is not None:
        return replace(failed, reason="slice bivector at t0 is not Poisson")

    monos = _monomials_up_to(nx, degree_bound)
    unknowns = [(m, j) for m in monos for j in range(nx)]

    # image coordinates: bivector components indexed by (pair, monomial)
    def bivec_rows(mv: PolyMultiVec) -> dict[tuple, Scalar]:
        rows = {}
        for idxs, poly in mv.comps.items():
            for exps, coeff in poly.terms.items():
                rows[(idxs, exps)] = coeff
        return rows

    # one elimination: a column per unknown and a right-hand-side column per t, over their rows
    images = [bivec_rows(schouten(PolyMultiVec.monomial(nx, (j,), Poly(nx, {m: Scalar(1)})), pi0))
              for m, j in unknowns]
    rhs = [bivec_rows(-chart.pi.diff(ti).project(xs, frozen)) for ti in ts]
    sol = linalg.solve(*linalg.sparse_system(images, rhs))
    if sol is None:
        return Report(False, reason=f"unsolvable up to degree {degree_bound} (not a proof of non-existence)")
    witnesses = []
    for c in range(len(ts)):
        field = PolyMultiVec.zero(nx, 1)
        for u, row in sol.items():
            if c in row:
                m, j = unknowns[u]
                field = field + PolyMultiVec.monomial(nx, (j,), Poly(nx, {m: row[c]}))
        witnesses.append(field)
    return Report(True, witness=tuple(witnesses))
