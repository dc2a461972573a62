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
from the table, an algebra's brackets on the pairs i < j, to build changed
copies from, a ``LinearAlgMap`` from the dense rows of its matrix and those
rows read back off its columns, a basis matrix given by its nonzero entries
as a dense matrix, the dense image of a coefficient vector and the canonical
pairing of a Drinfeld double, which only the tests use, the wedge of the
images leg by leg, the reference for ``LinearAlgMap.apply``, and the
triple-by-triple Jacobi check that ``validate_lie``'s Lie-Poisson chart route
must agree with.

For ``poissonkit.report``: each sample's own Philox generator, the reference
for the block-drawn ``sample_words``.

For ``poissonkit.dynr``: the dense einsum route, [r, r], the CDYBE residual and
every [x_b, t] on dense arrays, the references for the exact ``alg_schouten``
and for the scan's root-coordinate residual and invariance defect,
the one-sample-at-a-time lambda sampler, the reference for the scan's
round-by-round one, and the sampled equivariance check of a family under an
anti-morphism, which no command runs.
For ``poissonkit.linalg``: the dense first-nonzero Gaussian elimination and
its readers (solve, nullspace, inverse), the reference route for the sparse
kernel ``linalg.rref`` and its readers, a matrix of Scalars from rows of
numbers, the identity and the dense product, the rank of an exact matrix by
that dense elimination, a matrix times a vector, the transpose, and the
converters from dense matrices to sparse rows and columns and from sparse
vectors back to dense lists, which only the tests use.

For ``poissonkit.dirac``: the three conditions on a split g = l + m, on dense
coefficient vectors with the bracket summed over every table entry (the dense
reference for ``LieAlgebraData._bracket_supports``), the reference for
``affine_lie_poisson_dirac``, and the Lie-Poisson chart of gl(n)* with the
involutions X -> +-X^T of its coordinates.

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
from poissonkit.exactalg import SCALAR_ONE, SCALAR_ZERO, Poly, PolyMultiVec, Scalar, wedge
from poissonkit.liealg import AlgElement, LieAlgebraData, LinearAlgMap, lie_poisson_chart
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
    fails at the next float below it, which is negative where t is 0.  It records its seed and
    sample count, and every value is a bool, float or str whose ``str`` is its ``repr`` unless it
    is a str, so its porcelain text is the value's own."""
    rep = check(1.0)
    assert (rep.seed, rep.samples) == (seed, samples)
    for key, value in rep.values.items():
        assert type(value) in (bool, float, str), key
        assert type(value) is str or str(value) == repr(value), key
    t = max(rep.values[key] for key in bounded)
    assert check(t).ok
    assert not check(math.nextafter(t, -math.inf)).ok


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
    """A random element of the group's Lie algebra: normal coefficients in the basis, of standard
    deviation 0.5.  Its exponential (``scipy.linalg.expm``) is a generic group point, off the
    fixed loci the reports sample."""
    return sum(c * b for c, b in zip(rng.normal(0.0, 0.5, size=len(group.basis)), group.basis))


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
    dim = len(group.basis)
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
    a_inv = reference_inverse(a)
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


Matrix = list[list[Scalar]]  # a dense exact matrix: its rows


def mat(rows: Sequence[Sequence]) -> Matrix:
    """An exact matrix from rows of numbers."""
    return [[Scalar.coerce(v) for v in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[SCALAR_ONE if i == j else SCALAR_ZERO for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The dense product A B, each entry a row of A times a column of B."""
    return [[sum((x * y for x, y in zip(row, col)), SCALAR_ZERO) for col in zip(*b)] for row in a]


def sparse_rows(a: Matrix) -> list[dict]:
    """The rows of a dense matrix as ``{column: nonzero}`` dicts, the rows ``linalg.rref`` reads."""
    return [{j: v for j, v in enumerate(row) if v} for row in a]


def sparse_columns(a: Matrix) -> list[tuple]:
    """The columns of a dense matrix as sparse vectors: the (row, nonzero) pairs of each, in ascending row."""
    return [tuple((i, row[j]) for i, row in enumerate(a) if row[j]) for j in range(len(a[0]) if a else 0)]


def densify(vectors, size: int) -> Matrix:
    """Sparse vectors, (index, nonzero) pairs or ``{index: nonzero}`` dicts, as dense lists of ``size`` entries."""
    return [[dict(v).get(j, SCALAR_ZERO) for j in range(size)] for v in vectors]


# -- the dense elimination: a reference route for linalg's sparse one ---------------------


def reference_rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form by dense Gaussian elimination, first nonzero pivot; returns (R, pivot columns)."""
    r = [row[:] for row in a]
    nrows = len(r)
    ncols = len(r[0]) if nrows else 0
    pivots: list[int] = []
    lead = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(lead, nrows) if not r[i][col].is_zero()), None)
        if pivot_row is None:
            continue
        r[lead], r[pivot_row] = r[pivot_row], r[lead]
        inv = SCALAR_ONE / r[lead][col]
        r[lead] = [x * inv for x in r[lead]]
        for i in range(nrows):
            if i != lead and not r[i][col].is_zero():
                factor = r[i][col]
                r[i] = [x - factor * y for x, y in zip(r[i], r[lead])]
        pivots.append(col)
        lead += 1
        if lead == nrows:
            break
    return r, pivots


def reference_solve(a: Matrix, b: Sequence) -> list | None:
    """``linalg.solve``'s answer for dense A and B, free variables zero, from one dense elimination of [A | B]."""
    ncols = len(a[0]) if a else 0
    columns = bool(b) and isinstance(b[0], (list, tuple))
    rhs = [[Scalar.coerce(v) for v in row] for row in b] if columns else [[Scalar.coerce(v)] for v in b]
    r, pivots = reference_rref([row[:] + extra for row, extra in zip(a, rhs)])
    if pivots and pivots[-1] >= ncols:
        return None
    x = [[SCALAR_ZERO] * (len(rhs[0]) if rhs else 1) for _ in range(ncols)]
    for i, col in enumerate(pivots):
        x[col] = r[i][ncols:]
    return x if columns else [row[0] for row in x]


def reference_nullspace(a: Matrix) -> list[list[Scalar]]:
    """A kernel basis of A, one vector per free column, read off the dense R."""
    if not a:
        return []
    r, pivots = reference_rref(a)
    basis = []
    for j in (j for j in range(len(a[0])) if j not in pivots):
        v = [SCALAR_ZERO] * len(a[0])
        v[j] = SCALAR_ONE
        for i, col in enumerate(pivots):
            v[col] = -r[i][j]
        basis.append(v)
    return basis


def reference_inverse(a: Matrix) -> Matrix | None:
    n = len(a)
    r, pivots = reference_rref([row[:] + ident for row, ident in zip(a, identity(n))])
    return [row[n:] for row in r] if pivots == list(range(n)) else None


def rank(a: Matrix) -> int:
    """The rank of an exact matrix: its number of pivots, by the dense reference elimination."""
    return len(reference_rref(a)[1]) if a else 0


def mat_vec(a: Matrix, v: Sequence[Scalar]) -> list[Scalar]:
    return [sum((aij * vj for aij, vj in zip(row, v)), SCALAR_ZERO) for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def _dense_vectors(g: LieAlgebraData, elems) -> Matrix:
    """Labels, basis indices and coefficient lists as dense coefficient vectors of g."""
    out = []
    for e in elems:
        e = g.labels.index(e) if isinstance(e, str) else e
        out.append([Scalar(int(i == e)) for i in range(g.dim)] if isinstance(e, int)
                   else [Scalar.coerce(c) for c in e])
    return out


def bracket_vectors(g: LieAlgebraData, u: Sequence[Scalar], v: Sequence[Scalar]) -> list[Scalar]:
    """[u, v] of two dense coefficient vectors, summed over every table entry: the dense reference
    for ``LieAlgebraData._bracket_supports``."""
    out = [SCALAR_ZERO] * g.dim
    for (i, j), entry in g.table.items():
        for k, c in entry.items():
            out[k] = out[k] + u[i] * v[j] * c
    return out


def affine_lie_reference(g: LieAlgebraData, l_basis, m_basis, mu) -> Report:
    """Whether mu + m-perp is Dirac in g*, by three conditions on the split: l is a
    subalgebra (over every pair of l first), then, pair by pair, [l_a, m_b] has no l-part
    and mu kills it, with the reasons of ``dirac.affine_lie_poisson_dirac``.  On success
    ``values["induced"]`` is the Lie-Poisson chart of l*, built from l's structure constants."""
    lv, mv = _dense_vectors(g, l_basis), _dense_vectors(g, m_basis)
    inv = reference_inverse(transpose(lv + mv))  # the columns are the basis vectors
    k = len(lv)
    l_struct = {}
    for a in range(k):
        for b in range(a + 1, k):
            w = mat_vec(inv, bracket_vectors(g, lv[a], lv[b]))
            if any(not c.is_zero() for c in w[k:]):
                return Report(False, reason=f"l is not a subalgebra: [l_{a}, l_{b}] leaves l")
            l_struct[(a, b)] = w[:k]
    for a, u in enumerate(lv):
        for b, v in enumerate(mv):
            w = bracket_vectors(g, u, v)
            if any(not c.is_zero() for c in mat_vec(inv, w)[:k]):
                return Report(False, reason=f"[l, m] not contained in m: [l_{a}, m_{b}] has an l-part")
            pairing = sum((Scalar.coerce(m) * c for m, c in zip(mu, w)), SCALAR_ZERO)
            if not pairing.is_zero():
                return Report(False, reason=f"ad*-condition fails: <mu, [l_{a}, m_{b}]> = {pairing}")
    sub = LieAlgebraData([f"l{a+1}" for a in range(k)], {pair: dict(enumerate(w)) for pair, w in l_struct.items()})
    return Report(True, {"induced": lie_poisson_chart(sub)})


def gl_chart(n):
    """The Lie-Poisson chart of gl(n)*, {x_ij, x_kl} = d_jk x_il - d_li x_kj, coordinates row by row."""
    m = n * n
    entries = [(i, j) for i in range(n) for j in range(n)]
    comps = {}
    for a, (i, j) in enumerate(entries):
        for b in range(a + 1, m):
            k, l = entries[b]
            poly = Poly.zero(m)
            if j == k:
                poly = poly + Poly.var(m, i * n + l)
            if l == i:
                poly = poly - Poly.var(m, k * n + j)
            if poly:
                comps[(a, b)] = poly
    return PoissonChart(m, tuple(f"x{i + 1}{j + 1}" for i, j in entries), PolyMultiVec(m, 2, comps))


def transpose_rows(n, sign):
    """X -> sign X^T on the coordinates of ``gl_chart(n)``."""
    m = n * n
    rows = [[0] * m for _ in range(m)]
    for i in range(n):
        for j in range(n):
            rows[j * n + i][i * n + j] = sign
    return rows


def abelian(dim: int) -> LieAlgebraData:
    return LieAlgebraData([f"a{k+1}" for k in range(dim)], {}, name=f"abelian{dim}")


def structure_constant(g: LieAlgebraData, i: int, j: int, k: int):
    """c_ij^k, the coefficient of x_k in [x_i, x_j]."""
    return g.table.get((i, j), {}).get(k, SCALAR_ZERO)


def pair_brackets(g: LieAlgebraData) -> dict:
    """g's brackets on the pairs i < j, copied, in the form ``LieAlgebraData`` takes."""
    return {(i, j): dict(entry) for (i, j), entry in g.table.items() if i < j}


def alg_map(source: LieAlgebraData, target: LieAlgebraData, rows: Sequence[Sequence]) -> LinearAlgMap:
    """The map whose matrix has the dense rows ``rows``: row i holds the i-coefficients of the
    images of the source basis.  A shape that does not match the dimensions raises ValueError."""
    if len(rows) != target.dim or any(len(row) != source.dim for row in rows):
        raise ValueError("matrix shape does not match source/target dimensions")
    rows = mat(rows)
    return LinearAlgMap(source, target, tuple(tuple((i, row[j]) for i, row in enumerate(rows) if row[j])
                                               for j in range(source.dim)))


def map_rows(phi: LinearAlgMap) -> Matrix:
    """The dense rows of phi's matrix, read off its columns: rows[i][j] is the i-coefficient of phi x_j."""
    rows = [[SCALAR_ZERO] * phi.source.dim for _ in range(phi.target.dim)]
    for j, column in enumerate(phi.columns):
        for i, c in column:
            rows[i][j] = c
    return rows


def dense(entries: dict, shape: tuple[int, ...]) -> list:
    """A basis matrix given by its nonzero entries {index: value} as nested lists of Scalars of ``shape``."""
    out = np.full(shape, SCALAR_ZERO, dtype=object)
    for idx, v in entries.items():
        out[idx] = v
    return out.tolist()


def apply_vector(phi, coeffs):
    """The image phi(u) of a coefficient vector, as a dense coefficient vector."""
    out = [SCALAR_ZERO] * phi.target.dim
    for i, c in linalg.apply(phi.columns, [(j, c) for j, c in enumerate(coeffs) if c]).items():
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
            acc = acc.wedge(AlgElement(phi.target, 1, {(i,): c for i, c in phi.columns[j]}))
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


def _max_upper(t: np.ndarray, degree: int) -> float:
    """Largest |entry| of an antisymmetric tensor (its last degree axes) on strictly increasing tuples."""
    return float(np.max(np.abs(t[(Ellipsis, *dynr._increasing(t.shape[-1], degree))]), initial=0.0))


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
    i, j, k = dynr._increasing(n.shape[-1], 3)
    values = n[..., i, j, k] + n[..., j, k, i] + n[..., k, i, j]
    t = np.zeros_like(n)
    for p, q, s in ((i, j, k), (j, k, i), (k, i, j)):
        t[..., p, q, s] = values
        t[..., q, p, s] = -values
    return t


def rr_bracket(C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """[r, r] for the bivector with antisymmetric matrix R, as an antisymmetric dim^3 tensor."""
    return 2.0 * _cyclic(_m_tensor(C, R))


def dense_residual(family: DynamicalRFamily, lam) -> np.ndarray:
    """sum_m h_m ^ dr/dlambda_m + (1/2)[r, r] from the dense matrices r(lambda) and
    dr/dlambda_m by the einsum route, as an antisymmetric dim^3 tensor: the reference for
    the root-coordinate residual of ``dynr``."""
    n = _m_tensor(dynr.structure_tensor(family.algebra), dynr.eval_r(family, lam))
    for m, h in enumerate(family.algebra.root_data.cartan):
        n[..., h, :, :] += dynr.r_derivative(family, lam, m)  # h_m ^ dr/dlambda_m
    return _cyclic(n)


def _ad_defect(C: np.ndarray, t: np.ndarray) -> np.ndarray:
    """[x_b, t] for every basis element b, stacked on the first axis (t an antisymmetric trivector).

    ad_{x_b} acts as a derivation; by the antisymmetry of t its second- and
    third-slot terms are cyclic transposes of the first-slot term.
    """
    first = np.einsum("bil,ijk->bljk", C, t)
    return first + first.transpose(0, 2, 3, 1) + first.transpose(0, 3, 1, 2)


def _max_ad_defect(C: np.ndarray, t: np.ndarray) -> float:
    """Largest |coefficient| of [x_b, t] over every basis element b and strictly
    increasing triple, over a stack of trivectors t.  One b at a time, with
    R_jkl = sum_i C_bi^l t_ijk the coefficient at i < j < k is R_jki + R_ijk + R_kij,
    so the dim^4 tensor of all [x_b, t] (0.4 MB a sample at dim 15) is never built.
    As t_ijk = t_jki, R is t read as a matrix with rows (j, k) and columns i, times
    C_b: one matrix product per b, from one reshape of the stack."""
    dim = t.shape[-1]
    i, j, k = dynr._increasing(dim, 3)
    jki, ijk, kij = (np.ravel_multi_index(idx, (dim,) * 3) for idx in ((j, k, i), (i, j, k), (k, i, j)))
    rows = t.reshape(-1, dim)  # row (j, k) of each trivector
    worst = 0.0
    for cb in C:
        r = (rows @ cb).reshape(-1, dim ** 3)
        worst = max(worst, float(np.max(np.abs(r[:, jki] + r[:, ijk] + r[:, kij]), initial=0.0)))
    return worst


def per_sample_rngs(seed: int, ks, stream: int = 0) -> list[np.random.Generator]:
    """Each sample k's own generator, built one sample at a time: Philox keyed by ``seed``, its
    256-bit counter given as four 64-bit words, least significant first.  The low 128 bits hold
    sample k's start, k WORDS / 4 as the counter steps once per 4 words, and the high 128 bits
    the stream.  The reference for ``report.sample_words``, which draws a block at once."""
    starts = [k * report.WORDS // 4 for k in ks]
    return [np.random.Generator(np.random.Philox(key=seed, counter=np.array(
        [start % 2**64, start >> 64, stream % 2**64, stream >> 64], dtype=np.uint64))) for start in starts]


def _sample_lambda(family: DynamicalRFamily, seed: int, index: int) -> np.ndarray:
    """Sample ``index``: the first lambda, one candidate at a time, whose every root pairing is at
    least 0.5 from 0; round r draws its LAMBDA_ROUND candidates from stream r's generator."""
    for stream in range(dynr.MAX_LAMBDA_TRIES // dynr.LAMBDA_ROUND):
        (rng,) = per_sample_rngs(seed, [index], stream)
        for _ in range(dynr.LAMBDA_ROUND):
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
    S = np.array([[dynr._real(c, "entry of s") for c in row] for row in map_rows(s)])
    cartan = list(g.root_data.cartan)
    if np.any(np.delete(S[:, cartan], cartan, axis=0)):
        raise ValueError("s does not preserve the Cartan subalgebra")
    s_h = S[np.ix_(cartan, cartan)]  # restriction of s to the Cartan, on lambda-coordinates

    def block(ks: range) -> float:
        lam = np.stack([_sample_lambda(family, seed, idx) for idx in ks])
        moved = lam @ s_h  # (s_h)* lambda in coordinates, one row per sample
        return _max_upper(S @ dynr.eval_r(family, lam) @ S.T + dynr.eval_r(family, moved), 2)

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
