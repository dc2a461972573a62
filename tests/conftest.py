"""The seeded random source for the property tests (the generators it feeds
are in ``poissonkit.oracle``), the environment for tests that start a
Python subprocess, a call counter for a module's functions, random Lie
algebra elements for the group tests, the adjoint matrix and r-matrix
cocycle of a matrix group and the fixed-locus formula with its invariant-field
arrows swapped (the rejected binding), which only the tests use, the largest
entry-bracket difference of two bivectors over the entry pairs p < q, the
reference for the group reports' route residual, and the
leg-by-leg pushforward of an exact multivector along a linear map, the
reference for the pushforward of ``poissonkit.dirac``.

For ``poissonkit.liealg``: the abelian algebra, a structure constant read
from the table, the dense image of a coefficient vector and the canonical
pairing of a Drinfeld double, which only the tests use, the wedge of the
images leg by leg, the reference for ``LinearAlgMap.apply``, and the
triple-by-triple Jacobi check that ``validate_lie``'s sparse sweep must agree
with.

For ``poissonkit.report``: the per-sample generators ``default_rng([seed, k])``,
the reference for the block-hashed ``sample_rngs``.

For ``poissonkit.dynr``: [r, r] and every [x_b, t] on dense arrays, the
references for the exact ``alg_schouten`` and the scan's invariance defect,
the one-sample-at-a-time lambda sampler, the reference for the scan's
round-by-round one, and the sampled equivariance check of a family under an
anti-morphism, which no command runs.
For ``poissonkit.linalg``: a matrix of Scalars from rows of numbers, and the
rank of an exact matrix, which only the tests use.

For ``poissonkit.exactalg``: the exact value of a polynomial, or of every
component of a multivector, at a point, by ``Poly.compose``.

For ``poissonkit.poisson``: the full contraction of a multivector with
exact differentials, by a cofactor expansion, the bracket {f, g} summed
pair by pair over the components of pi, the reference for ``bracket``, and
pi^# of a covector contracted component by component, the reference for
``hamiltonian_vf``."""

import math
import os
import random
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

import poissonkit
from poissonkit import dynr, linalg, report
from poissonkit.dynr import DynamicalRFamily
from poissonkit.exactalg import SCALAR_ZERO, Poly, PolyMultiVec, Scalar, wedge
from poissonkit.liealg import AlgElement, LieAlgebraData
from poissonkit.poisson import PoissonChart
from poissonkit.report import Report


def subprocess_env():
    """os.environ with the directory holding this poissonkit first on PYTHONPATH."""
    src = str(Path(poissonkit.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def with_bound(monkeypatch, module, name, run):
    """``check(tol)`` for ``assert_pass_rule``: ``run()`` with the bound ``module.name`` set to tol."""
    def check(tol):
        monkeypatch.setattr(module, name, tol)
        return run()
    return check


def assert_pass_rule(check, bounded, seed, samples):
    """``check(tol)`` runs a sampled check with its bound at tol.  With t the largest of the
    values named in ``bounded``, the ones that bound reads, the report passes at tol = t and
    fails just below it.  It records its seed and sample count, and every value is a bool, float
    or str whose ``str`` is its ``repr`` unless it is a str, so its porcelain text is
    the value's own."""
    rep = check(1.0)
    assert (rep.seed, rep.samples) == (seed, samples)
    for key, value in rep.values.items():
        assert type(value) in (bool, float, str), key
        assert type(value) is str or str(value) == repr(value), key
    t = max(rep.values[key] for key in bounded)
    assert check(t).ok
    assert not check(math.nextafter(t, 0.0)).ok


def counted_calls(monkeypatch, module, names):
    """Count the calls of module.<name> for each name, including calls from inside the module."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _fn=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return counts


def make_rng(seed):
    return random.Random(seed)


@pytest.fixture
def rng():
    return make_rng(20240811)


def algebra_element(group, rng):
    """A random element of the group's Lie algebra, drawn as the numeric reports
    draw their sampled points: normal coefficients in the basis."""
    from poissonkit.groupnum import SAMPLE_SCALE

    return group.combine(rng.normal(0.0, SAMPLE_SCALE, size=group.dim))


def adjoint_coordinate_matrix(group, g: np.ndarray) -> np.ndarray:
    """Matrix of Ad_g in the algebra basis (column j: the coefficients of
    g basis_j g^-1, by least squares, exact for elements of the span)."""
    g_inv = np.linalg.inv(g)
    flat = np.stack([b.reshape(-1) for b in group.basis], axis=1)
    return np.linalg.pinv(flat) @ np.stack([(g @ b @ g_inv).reshape(-1) for b in group.basis], axis=1)


def cocycle_lambda(group, g: np.ndarray) -> np.ndarray:
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


def pi_q_formula_swapped(group, g: np.ndarray):
    """``groupnum.pi_q_formula`` with the invariant-field arrows swapped, X^L(g) = Xg and
    X^R(g) = gX: the rejected reading of the formula, at a point or a stack of points."""
    from poissonkit.groupnum import TangentBivector

    u, v = [], []
    for i, j, c in group.r_terms:
        e, f = group.basis[i], group.basis[j]
        u += [0.25 * c * (e @ g + g @ e.T), -0.25 * c * (g @ e + e.T @ g)]
        v += [f @ g + g @ f.T, g @ f + f.T @ g]
    return TangentBivector(g, np.stack(u, axis=-3), np.stack(v, axis=-3), g.ndim - 2)


def bracket_difference(a, b):
    """Largest entry-bracket difference of two bivectors over the entry pairs p < q, per point.
    Both bracket matrices are exactly antisymmetric, so this is also the largest over all pairs."""
    diff = np.abs(a.bracket_matrix() - b.bracket_matrix())
    return np.max(diff[(Ellipsis, *np.triu_indices(diff.shape[-1], 1))], axis=-1, initial=0.0)


def pushforward_linear(mv: PolyMultiVec, a) -> PolyMultiVec:
    """Pushforward of a multivector field along the invertible map x -> A x,
    each wedge leg d_i carried to the column A d_i and each component composed
    with A^-1."""
    n = mv.dim
    a_inv = linalg.inverse(a)
    if a_inv is None:
        raise ValueError("pushforward matrix is singular")
    # x_i <- sum_j (A^-1)_ij x_j
    inv_images = [sum((Poly.var(n, j) * c for j, c in enumerate(row)), Poly.zero(n)) for row in a_inv]
    out = PolyMultiVec.zero(n, mv.degree)
    for idxs, poly in mv.comps.items():
        moved = poly.compose(inv_images)
        # transform the wedge d_{i1}^...^d_{ik} by rows of A
        acc = None
        for i in idxs:
            leg = PolyMultiVec.from_terms(n, 1, [((r,), Poly.const(n, a[r][i])) for r in range(n)])
            acc = leg if acc is None else wedge(acc, leg)
        if acc is None:
            acc = PolyMultiVec.function(Poly.const(n, 1))
        out = out + acc * moved
    return out


def mat(rows: Sequence[Sequence]) -> linalg.Matrix:
    """An exact matrix from rows of numbers."""
    return [[Scalar.coerce(v) for v in row] for row in rows]


def rank(a: linalg.Matrix) -> int:
    """The rank of an exact matrix: its number of pivots."""
    return len(linalg.rref(a)[1]) if a else 0


def abelian(dim: int) -> LieAlgebraData:
    return LieAlgebraData.from_brackets([f"a{k+1}" for k in range(dim)], {}, name=f"abelian{dim}")


def structure_constant(g: LieAlgebraData, i: int, j: int, k: int):
    """c_ij^k, the coefficient of x_k in [x_i, x_j]."""
    return g.table.get((i, j), {}).get(k, SCALAR_ZERO)


def apply_vector(phi, coeffs):
    """The image phi(u) of a coefficient vector, as a dense coefficient vector."""
    out = [SCALAR_ZERO] * phi.target.dim
    for i, c in phi._apply_support([(j, c) for j, c in enumerate(coeffs) if c]).items():
        out[i] = c
    return out


def apply_by_wedges(phi, elem):
    """phi(elem) as the sum over the components of elem of the coefficient times the wedge
    of the images of the legs, formed one leg at a time from the columns of phi's matrix:
    the reference for ``LinearAlgMap.apply``."""
    total = AlgElement.zero(phi.target, elem.degree)
    for idxs, coeff in elem.comps.items():
        acc = AlgElement(phi.target, 0, {(): coeff})
        for j in idxs:
            acc = acc.wedge(AlgElement(phi.target, 1, {(i,): row[j] for i, row in enumerate(phi.matrix) if row[j]}))
        total = total + acc
    return total


def double_pairing(double, u, v):
    """Canonical pairing <X + xi, Y + eta> = xi(Y) + eta(X) of two coefficient
    vectors on a Drinfeld double."""
    total = SCALAR_ZERO
    for a, ua in enumerate(u):
        vb = v[double.dual_index(a)]
        if ua and vb:
            total = total + ua * vb
    return total


def validate_lie_reference(g: LieAlgebraData) -> Report:
    """``validate_lie`` triple by triple: the antisymmetry pass, then for each
    i < j < k the sum of [[x_a, x_b], x_c] over the cyclic rotations (a, b, c),
    by table lookups; the witness is the first failing triple."""
    for (i, j), entry in g.table.items():
        if i == j and any(not c.is_zero() for c in entry.values()):
            return Report(False, reason=f"[x_{i}, x_{i}] != 0", witness=(i, i))
        mirror = g.table.get((j, i), {})
        for k in set(entry) | set(mirror):
            if entry.get(k, SCALAR_ZERO) != -mirror.get(k, SCALAR_ZERO):
                reason = f"antisymmetry fails: c_({i},{j})^{k} != -c_({j},{i})^{k}"
                return Report(False, reason=reason, witness=(i, j, k))

    def iterated(i, j, k, acc):
        for m, c in g.table.get((i, j), {}).items():
            for l, c2 in g.table.get((m, k), {}).items():
                acc[l] = acc.get(l, SCALAR_ZERO) + c * c2

    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                acc = {}
                iterated(i, j, k, acc)
                iterated(j, k, i, acc)
                iterated(k, i, j, acc)
                if any(not c.is_zero() for c in acc.values()):
                    return Report(False, reason="Jacobi identity fails", witness=(i, j, k))
    return Report(True)


def rr_bracket(C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """[r, r] for the bivector with antisymmetric matrix R, as an antisymmetric dim^3 tensor."""
    return 2.0 * dynr._cyclic(dynr._m_tensor(C, R))


def _ad_defect(C: np.ndarray, t: np.ndarray) -> np.ndarray:
    """[x_b, t] for every basis element b, stacked on the first axis (t an antisymmetric trivector).

    ad_{x_b} acts as a derivation; by the antisymmetry of t its second- and
    third-slot terms are cyclic transposes of the first-slot term.
    """
    first = np.einsum("bil,ijk->bljk", C, t)
    return first + first.transpose(0, 2, 3, 1) + first.transpose(0, 3, 1, 2)


def per_sample_rngs(seed: int, ks) -> list[np.random.Generator]:
    """``default_rng([seed, k])`` built one sample at a time: the reference for
    ``report.sample_rngs``, which hashes a block's seed sequences at once."""
    return [np.random.default_rng([seed, k]) for k in ks]


def _sample_lambda(family: DynamicalRFamily, seed: int, index: int) -> np.ndarray:
    """Sample ``index``: a lambda whose every root pairing is at least 0.5 from 0."""
    (rng,) = per_sample_rngs(seed, [index])
    for _ in range(1000):
        lam = rng.uniform(-2.0, 2.0, size=family.rank)
        if (np.abs(family.pairings(lam)) >= 0.5).all():
            return lam
    raise RuntimeError("could not sample lambda away from the singular set")


def equivariance_check(family, s, samples: int = 10, seed: int = 0, tol: float = 1e-10) -> Report:
    """max over samples of || (Lambda^2 s) r(lambda) + r(s_h* lambda) ||, as
    ``values["defect"]``; the report passes iff it is at most ``tol``.

    s must preserve the Cartan; for the root-swapping anti-morphism the
    induced map on h* is the identity and the condition reduces to
    s(r(lambda)) = -r(lambda).  The samples run in blocks, by
    ``report.sample_blocks``.
    """
    g = family.algebra
    if s.source is not g or s.target is not g:
        raise ValueError("s must be an endomorphism of the family's algebra")
    S = np.array([[dynr._real(c, "entry of s") for c in row] for row in s.matrix])
    cartan = list(g.root_data.cartan)
    if np.any(np.delete(S[:, cartan], cartan, axis=0)):
        raise ValueError("s does not preserve the Cartan subalgebra")
    s_h = S[np.ix_(cartan, cartan)]  # restriction of s to the Cartan, on lambda-coordinates

    def block(ks: range) -> float:
        lam = np.stack([_sample_lambda(family, seed, idx) for idx in ks])
        moved = lam @ s_h  # (s_h)* lambda in coordinates, one row per sample
        return dynr._max_upper(S @ dynr.eval_r(family, lam) @ S.T + dynr.eval_r(family, moved), 2)

    defect = max(report.sample_blocks(range(samples), block))
    values = {"algebra": g.name, "defect": defect, "tol": tol}
    return Report(defect <= tol, values, seed=seed, samples=samples)


def contract_forms(mv: PolyMultiVec, functions) -> Poly:
    """mv(df_1, ..., df_k): full contraction with exact differentials."""
    k = mv.degree
    if len(functions) != k:
        raise ValueError("need exactly deg(mv) functions")
    grads = [[f.diff(i) for i in range(mv.dim)] for f in functions]
    total = Poly.zero(mv.dim)
    for idxs, poly in mv.comps.items():
        det = _det([[grads[a][idxs[b]] for b in range(k)] for a in range(k)], mv.dim)
        total = total + poly * det
    return total


def _det(rows: list[list[Poly]], nvars: int) -> Poly:
    n = len(rows)
    if n == 0:
        return Poly.const(nvars, 1)
    if n == 1:
        return rows[0][0]
    total = Poly.zero(nvars)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * _det(minor, nvars)
        total = total + term if j % 2 == 0 else total - term
    return total


def poly_at(p: Poly, point) -> Scalar:
    """The exact value of p at a point: composition onto the chart of no variables."""
    return p.compose([Poly.const(0, v) for v in point]).constant_value()


def multivec_at(mv: PolyMultiVec, point) -> dict[tuple, Scalar]:
    """The exact value of every component of mv at a point, zero values dropped."""
    if len(point) != mv.dim:
        raise ValueError(f"point length {len(point)} != dim {mv.dim}")
    values = ((k, poly_at(p, point)) for k, p in mv.comps.items())
    return {k: v for k, v in values if not v.is_zero()}


def bracket_by_pairs(chart, f: Poly, g: Poly) -> Poly:
    """{f, g} = sum over the components p_ij of pi (i < j) of p_ij (d_i f d_j g - d_j f d_i g)."""
    if f.nvars != chart.dim or g.nvars != chart.dim:
        raise ValueError("variable-count mismatch with the chart")
    total = Poly.zero(chart.dim)
    for (i, j), poly in chart.pi.comps.items():
        total = total + poly * (f.diff(i) * g.diff(j) - f.diff(j) * g.diff(i))
    return total


def sharp(chart: PoissonChart, covector: Sequence[Poly]) -> PolyMultiVec:
    """pi^#(alpha) for a covector with polynomial components."""
    if len(covector) != chart.dim:
        raise ValueError("covector has wrong length")
    # pi = sum p_ij d_i ^ d_j gives pi^#(alpha) = sum p_ij (alpha_i d_j - alpha_j d_i)
    zero = Poly.zero(chart.dim)
    out: dict[tuple, Poly] = {}
    for (i, j), poly in chart.pi.comps.items():
        if covector[i]:
            out[(j,)] = out.get((j,), zero) + poly * covector[i]
        if covector[j]:
            out[(i,)] = out.get((i,), zero) - poly * covector[j]
    return PolyMultiVec(chart.dim, 1, out)
