"""Aligned Dirac-submanifold criteria and induced Poisson structures.

A submanifold is handled in the chart-aligned normal form Q = {y = 0} with
the complement spanned by the d/dy's.  Writing phi_ij = {x_i, x_j} and
lambda_ij = {x_i, y_j}, the submanifold is Dirac in this presentation iff

    lambda_ij(x, 0) = 0   and   d phi_ij / d y_l (x, 0) = 0

identically, in which case pi_Q = phi_ij(x, 0) is a Poisson structure on Q.
Linear involutions are reduced to this normal form by an exact change of
coordinates to their (+1, -1) eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from . import linalg
from .exactalg import Poly, PolyMultiVec, Scalar, schouten, wedge
from .poisson import PoissonChart, jacobiator
from .report import InvalidInput, Report

__all__ = [
    "AlignedSubmanifold",
    "LinearInvolution",
    "check_aligned_dirac",
    "fixed_locus_symbolic",
    "fixed_locus_projection",
    "pushforward_linear",
    "affine_lie_poisson_dirac",
    "transverse_from_reductive",
    "leaf_slice_obstruction",
]


@dataclass(frozen=True)
class AlignedSubmanifold:
    """Q = {y = 0} inside a chart, with V_Q = span of the d/dy's."""

    chart: PoissonChart
    x_indices: tuple[int, ...]
    y_indices: tuple[int, ...]

    def __post_init__(self):
        xs, ys = self.x_indices, self.y_indices
        if sorted(xs + ys) != list(range(self.chart.dim)):
            raise InvalidInput("x_indices and y_indices must partition the coordinates")
        object.__setattr__(self, "x_indices", tuple(xs))
        object.__setattr__(self, "y_indices", tuple(ys))

    @property
    def x_names(self) -> tuple[str, ...]:
        return tuple(self.chart.coords[i] for i in self.x_indices)


@dataclass(frozen=True)
class LinearInvolution:
    """An exact matrix S with S^2 = I acting on chart coordinates."""

    matrix: tuple[tuple[Scalar, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "LinearInvolution":
        m = tuple(tuple(Scalar.coerce(v) for v in row) for row in rows)
        return LinearInvolution(m)

    def __post_init__(self):
        m = [list(row) for row in self.matrix]
        n = len(m)
        if any(len(row) != n for row in m):
            raise InvalidInput("involution matrix must be square")
        if not linalg.mat_eq(linalg.mat_mul(m, m), linalg.identity(n)):
            raise InvalidInput("matrix is not an involution (S^2 != I)")

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def rows(self) -> linalg.Matrix:
        return [list(row) for row in self.matrix]


def _induced_chart(pi: PolyMultiVec, q: AlignedSubmanifold) -> PoissonChart:
    """Q with the x-x components of the bivector pi at y = 0, in the coordinates of Q."""
    xs, ys = list(q.x_indices), list(q.y_indices)
    comps = {}
    for a, i in enumerate(xs):
        for b in range(a + 1, len(xs)):
            poly = pi.component((i, xs[b])).set_vars_zero(ys).restrict(xs)
            if not poly.is_zero():
                comps[(a, b)] = poly
    return PoissonChart(len(xs), q.x_names, PolyMultiVec(len(xs), 2, comps))


def check_aligned_dirac(q: AlignedSubmanifold) -> Report:
    """Decide the aligned criterion; on failure the witness is the offending
    symbol as ((i, j), polynomial on the chart).

    A chart that is not Poisson fails first, with the first nonzero component
    of its Jacobiator, (index triple, polynomial), as witness.  On success
    ``values["induced"]`` is the induced chart (Q, pi_Q), pi_Q = phi_ij(x, 0).
    """
    chart = q.chart
    jac = jacobiator(chart)
    if not jac.is_zero():
        return Report(False, reason="chart is not Poisson", witness=sorted(jac.comps.items())[0])
    ys = list(q.y_indices)
    for i in q.x_indices:
        for j in ys:
            lam = chart.pi.component((i, j)).set_vars_zero(ys)
            if not lam.is_zero():
                return Report(False, reason=f"lambda_({i},{j}) = {{x_{i}, y_{j}}} nonzero on Q", witness=((i, j), lam))
    for a, i in enumerate(q.x_indices):
        for j in q.x_indices[a + 1 :]:
            phi = chart.pi.component((i, j))
            for l in ys:
                dphi = phi.diff(l).set_vars_zero(ys)
                if not dphi.is_zero():
                    return Report(False, reason=f"d phi_({i},{j}) / d y_{l} nonzero on Q", witness=((i, j), dphi))
    chart_q = _induced_chart(chart.pi, q)
    if not jacobiator(chart_q).is_zero():
        raise AssertionError("induced structure failed the Jacobi identity; this is a bug")
    return Report(True, {"induced": chart_q})


def pushforward_linear(mv: PolyMultiVec, a: linalg.Matrix) -> PolyMultiVec:
    """Pushforward of a multivector field along the invertible map x -> A x."""
    n = mv.dim
    a_inv = linalg.inverse(a)
    if a_inv is None:
        raise ValueError("pushforward matrix is singular")
    out = PolyMultiVec.zero(n, mv.degree)
    for idxs, poly in mv.comps.items():
        moved = poly.compose_linear(a_inv)
        # transform the wedge d_{i1}^...^d_{ik} by rows of A
        acc = None
        for i in idxs:
            leg = PolyMultiVec.from_terms(n, 1, [((r,), Poly.const(n, a[r][i])) for r in range(n)])
            acc = leg if acc is None else wedge(acc, leg)
        if acc is None:
            acc = PolyMultiVec.function(Poly.const(n, 1))
        out = out + acc * moved
    return out


def fixed_locus_symbolic(chart: PoissonChart, s: LinearInvolution) -> Report:
    """Induced Poisson structure on the fixed locus of a linear involution.

    Fails if S is not Poisson, with the first nonzero component of
    S_* pi - pi, ((i, j), polynomial), as witness.  Otherwise changes
    coordinates to the (+1, -1) eigenbasis of S (exact, since the eigenvalues
    are known), forms Q = {minus-block = 0}, and returns the report of
    ``check_aligned_dirac`` on it with the aligned submanifold added as
    ``values["submanifold"]``.
    """
    if s.dim != chart.dim:
        raise InvalidInput("involution dimension does not match the chart")
    residual = pushforward_linear(chart.pi, s.rows()) - chart.pi
    if not residual.is_zero():
        return Report(False, reason="S is not a Poisson involution", witness=sorted(residual.comps.items())[0])

    srows = s.rows()
    n = chart.dim
    plus = linalg.nullspace(linalg.mat_sub(srows, linalg.identity(n)))
    minus = linalg.nullspace(linalg.mat_add(srows, linalg.identity(n)))
    if len(plus) + len(minus) != n:
        raise AssertionError("eigenspaces of an involution must span")
    # columns of P are the eigenbasis; the map z -> x = P z straightens S
    p_mat = [[plus[j][i] for j in range(len(plus))] + [minus[j][i] for j in range(len(minus))] for i in range(n)]
    p_inv = linalg.inverse(p_mat)
    pi_z = pushforward_linear(chart.pi, p_inv)

    names = tuple(f"z{k+1}" for k in range(n))
    chart_z = PoissonChart(n, names, pi_z)
    sub = AlignedSubmanifold(chart_z, tuple(range(len(plus))), tuple(range(len(plus), n)))
    verdict = check_aligned_dirac(sub)
    return replace(verdict, values={"submanifold": sub, **verdict.values})


def fixed_locus_projection(chart: PoissonChart, s: LinearInvolution) -> PoissonChart:
    """Same induced structure via the plus-projection of every wedge leg.

    Works in the eigen-chart of S, decomposes pi into wedge terms, replaces
    each leg X by (X + S_* X)/2, restricts to the fixed block and drops the
    complement.  Route-agreement with ``fixed_locus_symbolic`` is part of the
    verification suite.  S must be a Poisson involution of a Poisson chart.
    """
    verdict = fixed_locus_symbolic(chart, s)
    if not verdict:
        raise ValueError(verdict.reason)
    sub = verdict.values["submanifold"]
    chart_z = sub.chart
    n = chart_z.dim
    signs = [1 if i in sub.x_indices else -1 for i in range(n)]

    half = Scalar(Fraction(1, 2))
    flip = [[Scalar.coerce(signs[r] if r == c else 0) for c in range(n)] for r in range(n)]

    def leg_plus(leg: PolyMultiVec) -> PolyMultiVec:
        out = PolyMultiVec.zero(n, 1)
        for (i,), poly in leg.comps.items():
            flipped = poly.compose_linear(flip)
            pushed = flipped if signs[i] == 1 else -flipped
            out = out + PolyMultiVec.from_terms(n, 1, [((i,), (poly + pushed) * half)])
        return out

    total = PolyMultiVec.zero(n, 2)
    for (i, j), poly in chart_z.pi.comps.items():
        left = PolyMultiVec.from_terms(n, 1, [((i,), poly)])
        right = PolyMultiVec.basis(n, j)
        total = total + wedge(leg_plus(left), leg_plus(right))
    return _induced_chart(total, sub)


# ---------------------------------------------------------------------------
# affine subspaces of Lie-Poisson spaces
# ---------------------------------------------------------------------------


def _as_vectors(g, elems) -> list[list[Scalar]]:
    out = []
    for e in elems:
        if isinstance(e, str):
            if e not in g.labels:
                raise InvalidInput(f"unknown label {e!r}; the algebra has {', '.join(g.labels)}")
            e = g.labels.index(e)
        if isinstance(e, int):
            v = [Scalar(0)] * g.dim
            v[e] = Scalar(1)
            out.append(v)
        else:
            out.append([Scalar.coerce(c) for c in e])
    return out


def affine_lie_poisson_dirac(g, l_basis, m_basis, mu) -> Report:
    """Decide whether mu + m-perp is a Dirac submanifold of g* (constant V_Q).

    Checks, in order: l is a subalgebra, [l, m] stays in m, and mu kills
    [l, m].  On success ``values["induced"]`` is the induced structure, the
    Lie-Poisson chart of l*.
    """
    from .liealg import LieAlgebraData, lie_poisson_chart

    lv = _as_vectors(g, l_basis)
    mv = _as_vectors(g, m_basis)
    if len(lv) + len(mv) != g.dim:
        raise InvalidInput("l and m have the wrong total dimension")
    basis_mat = linalg.transpose(lv + mv)  # columns are the basis vectors
    if linalg.rank(basis_mat) != g.dim:
        raise InvalidInput("l_basis and m_basis do not form a basis of g")
    inv = linalg.inverse(basis_mat)
    mu = [Scalar.coerce(c) for c in mu]
    if len(mu) != g.dim:
        raise InvalidInput("mu has the wrong length")

    k = len(lv)

    def coords(vec: list[Scalar]) -> list[Scalar]:
        return linalg.mat_vec(inv, vec)

    # (i) l is a subalgebra, recording its structure constants on the fly
    l_struct = {}
    for a in range(k):
        for b in range(a + 1, k):
            w = coords(g.bracket_vectors(lv[a], lv[b]))
            if any(not c.is_zero() for c in w[k:]):
                return Report(False, reason=f"l is not a subalgebra: [l_{a}, l_{b}] leaves l")
            l_struct[(a, b)] = w[:k]
    # (ii) [l, m] contained in m
    for a in range(k):
        for b in range(len(mv)):
            w = coords(g.bracket_vectors(lv[a], mv[b]))
            if any(not c.is_zero() for c in w[:k]):
                return Report(False, reason=f"[l, m] not contained in m: [l_{a}, m_{b}] has an l-part")
    # (iii) mu vanishes on [l, m]
    for a in range(k):
        for b in range(len(mv)):
            w = g.bracket_vectors(lv[a], mv[b])
            pairing = sum((mu[i] * w[i] for i in range(g.dim)), Scalar(0))
            if not pairing.is_zero():
                return Report(False, reason=f"ad*-condition fails: <mu, [l_{a}, m_{b}]> = {pairing}")

    sub = LieAlgebraData.from_brackets(
        [f"l{a+1}" for a in range(k)],
        {pair: {c: coeff for c, coeff in enumerate(w) if not coeff.is_zero()} for pair, w in l_struct.items()},
    )
    return Report(True, {"induced": lie_poisson_chart(sub)})


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
    # isotropy: <mu, [l_a, X]> = 0 for every basis element X of g
    for a, u in enumerate(lv):
        for x in _as_vectors(g, range(g.dim)):
            w = g.bracket_vectors(u, x)
            if not sum((m * c for m, c in zip(mu_s, w)), Scalar(0)).is_zero():
                return Report(False, reason=f"l is not contained in the isotropy algebra of mu (element {a})")
    return affine_lie_poisson_dirac(g, l_basis, m_basis, mu)


# ---------------------------------------------------------------------------
# leaf-slice obstruction (degree-bounded coboundary solve)
# ---------------------------------------------------------------------------


def _monomials_up_to(nvars: int, degree: int) -> list[tuple]:
    """Exponent tuples of total degree <= degree, in graded order."""
    out: list[tuple] = []

    def rec(prefix, remaining, pos):
        if pos == nvars:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, pos + 1)

    rec([], degree, 0)
    return sorted(out, key=lambda e: (sum(e), e))


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

    def freeze(poly: Poly) -> Poly:
        # substitute t = t0, then restrict to the x-chart
        out = Poly.zero(len(xs))
        for exps, coeff in poly.terms.items():
            factor = coeff
            for pos, ti in enumerate(ts):
                factor = factor * t0[pos] ** exps[ti]
            key = tuple(exps[i] for i in xs)
            out = out + Poly(len(xs), {key: factor})
        return out

    nx = len(xs)
    pi0 = PolyMultiVec(nx, 2, {
        tuple(xs.index(i) for i in idxs): freeze(poly) for idxs, poly in chart.pi.comps.items()
    })
    slice_chart = PoissonChart(nx, tuple(chart.coords[i] for i in xs), pi0)
    jac = jacobiator(slice_chart)
    if not jac.is_zero():
        return Report(False, reason="slice bivector at t0 is not Poisson", witness=sorted(jac.comps.items())[0])

    monos = _monomials_up_to(nx, degree_bound)
    unknowns = [(m, j) for m in monos for j in range(nx)]

    # image coordinates: bivector components indexed by (pair, monomial)
    def bivec_rows(mv: PolyMultiVec) -> dict[tuple, Scalar]:
        rows = {}
        for idxs, poly in mv.comps.items():
            for exps, coeff in poly.terms.items():
                rows[(idxs, exps)] = coeff
        return rows

    columns = []
    row_keys: set[tuple] = set()
    for m, j in unknowns:
        xvec = PolyMultiVec.monomial(nx, (j,), Poly(nx, {m: Scalar(1)}))
        img = schouten(xvec, pi0)
        col = bivec_rows(img)
        columns.append(col)
        row_keys.update(col)

    witnesses = []
    for pos, ti in enumerate(ts):
        rhs_mv = PolyMultiVec(nx, 2, {
            tuple(xs.index(i) for i in idxs): freeze(poly.diff(ti)) for idxs, poly in chart.pi.comps.items()
        })
        rhs = bivec_rows(-rhs_mv)
        keys = sorted(row_keys | set(rhs))
        a_mat = [[col.get(kk, Scalar(0)) for col in columns] for kk in keys]
        b_vec = [rhs.get(kk, Scalar(0)) for kk in keys]
        sol = linalg.solve(a_mat, b_vec)
        if sol is None:
            return Report(False, reason=f"unsolvable up to degree {degree_bound} (not a proof of non-existence)")
        field = PolyMultiVec.zero(nx, 1)
        for (m, j), coeff in zip(unknowns, sol):
            if not coeff.is_zero():
                field = field + PolyMultiVec.monomial(nx, (j,), Poly(nx, {m: coeff}))
        witnesses.append(field)
    return Report(True, witness=tuple(witnesses))
