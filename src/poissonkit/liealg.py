"""Exact Lie-algebra infrastructure.

Structure constants are stored exactly.  The matrix constructors
(``sl_chevalley``, ``su_compact_basis``) are guarded by the expansion
residual in ``_coordinates``: every commutator must expand back exactly in
the basis.  ``so3`` is written out by hand.  The test suite runs
``validate_lie`` on all of them; algebra files and doubles run it when they
are built.  Chevalley bases of sl(n) use elementary matrices, so the trace
form gives (e_a, f_a) = 1 for every positive root; compact real forms su(n)
are stored over real rational structure constants by construction.
``_double_basis`` holds the exact data of the double sl(n) + sl(n) from
which ``groupnum`` builds G* = B+ * B-: the diagonal, its dual basis in
b+ + b- from one exact solve against the Gram matrix of the pairing, and
the r-terms at ``DOUBLE_R_SCALE``, the one source of that convention.

The algebraic Schouten bracket on wedge powers of g is the pair-sum formula

    [u_1^...^u_p, v_1^...^v_q]
        = sum_{i,j} (-1)^(i+j) [u_i, v_j] ^ u_1..^..u_p ^ v_1..^..v_q,

the same convention as the chart-level bracket: mapping X in g to the
Hamiltonian vector field of its linear function on g* intertwines the two
(that identification is exercised by the test suite).

Drinfeld doubles use the mixed bracket [X, xi] = ad*_X xi - ad*_xi X with
coadjoints defined by <ad*_X xi, Y> = -<xi, [X, Y]>; the exact Jacobi sweep
and the invariance of the canonical pairing pin this convention.

The kernels visit only nonzero entries.  ``validate_lie`` sums each
Jacobiator in one sweep over the nonzero products c_ab^m c_mc^l, adding the
raw real and imaginary parts (int or ``Fraction``) and building no
intermediate ``Scalar``.  The matrix builds form commutators and the
expansion residual on the nonzero matrix entries.  ``AlgElement`` is an
``exactalg.Wedge`` on g with ``Scalar`` coefficients: its validating public
constructor, its trusted ``_new``, its arithmetic and its linear-map action
(``Wedge.carry``, which ``LinearAlgMap.apply`` calls) are the ones
``PolyMultiVec`` uses.  ``alg_schouten`` sums the pair-sum terms in its own
loop and builds its result with ``_new`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .exactalg import Poly, PolyMultiVec, SCALAR_I, SCALAR_ONE, SCALAR_ZERO, Scalar, Wedge, sort_with_parity
from .report import Report

__all__ = [
    "LieAlgebraData",
    "AlgElement",
    "LinearAlgMap",
    "RootInfo",
    "RootData",
    "DrinfeldDouble",
    "validate_lie",
    "sl_chevalley",
    "su_compact_basis",
    "so3",
    "builtin_algebra",
    "BUILTIN_ALGEBRAS",
    "lie_poisson_chart",
    "alg_schouten",
    "coboundary_check",
    "symmetric_bialgebra_check",
    "drinfeld_double",
    "chi_check",
]


def _support(vec: Sequence) -> list[tuple[int, object]]:
    """The nonzero entries (index, coefficient) of a coefficient vector."""
    return [(i, c) for i, c in enumerate(vec) if c]


@dataclass(frozen=True)
class RootInfo:
    """One positive root: indices of its raising/lowering basis elements.

    For compact forms the same record points at the (X_a, Y_a) pair instead
    of (e_a, f_a).  ``h_coords`` are the coordinates of h_a = d_a [e_a, f_a]
    in the Cartan basis (for the compact form, of t_a = d_a [X_a, Y_a] / 2);
    on the elementary-matrix bases of sl(n) and su(n), d_a = 1.
    """

    pair: tuple[int, int]
    e_index: int
    f_index: int
    d: Fraction
    h_coords: tuple[int, ...]


@dataclass(frozen=True)
class RootData:
    """Positive roots, Cartan indices and the terms (i, j, c) of the standard r-matrix."""

    roots: tuple[RootInfo, ...]
    cartan: tuple[int, ...]
    r_terms: tuple[tuple[int, int, Fraction], ...]


class LieAlgebraData:
    """Basis labels plus exact structure constants, with optional extras.  The
    table never changes after construction; ``oracle`` memoises on that."""

    def __init__(
        self,
        labels: Sequence[str],
        table: Mapping[tuple[int, int], Mapping[int, Scalar]],
        matrices: list[linalg.Matrix] | None = None,
        root_data: RootData | None = None,
        name: str = "",
    ):
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.table = {pair: dict(entry) for pair, entry in table.items()}
        self.matrices = matrices
        self.root_data = root_data
        self.name = name

    @staticmethod
    def from_brackets(
        labels: Sequence[str],
        brackets: Mapping[tuple[int, int], Mapping[int, Scalar]],
        matrices: list[linalg.Matrix] | None = None,
        root_data: RootData | None = None,
        name: str = "",
    ) -> "LieAlgebraData":
        """Build from brackets given on pairs i < j; antisymmetry is filled in."""
        table: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (i, j), entry in brackets.items():
            if i == j:
                raise ValueError("diagonal brackets must be omitted (they vanish)")
            clean = {k: Scalar.coerce(c) for k, c in entry.items() if not Scalar.coerce(c).is_zero()}
            if not clean:
                continue
            if (i, j) in table or (j, i) in table:
                raise ValueError(f"bracket ({i}, {j}) given twice")
            table[(i, j)] = clean
            table[(j, i)] = {k: -c for k, c in clean.items()}
        return LieAlgebraData(labels, table, matrices, root_data, name)

    def bracket_basis(self, i: int, j: int) -> "AlgElement":
        entry = self.table.get((i, j), {})
        return AlgElement(self, 1, {(k,): c for k, c in entry.items()})

    def bracket_vectors(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> list[Scalar]:
        """Bracket of two coefficient vectors, returned as a coefficient vector."""
        out = [SCALAR_ZERO] * self.dim
        for k, c in self._bracket_supports(_support(u), _support(v)).items():
            out[k] = c
        return out

    def _bracket_supports(self, u: list, v: list) -> dict[int, Scalar]:
        """``bracket_vectors`` on the nonzero entries of u and v (see ``_support``), as {index: nonzero}."""
        out: dict[int, Scalar] = {}
        for i, ci in u:
            for j, cj in v:
                cij = ci * cj
                for k, c in self.table.get((i, j), {}).items():
                    out[k] = out.get(k, SCALAR_ZERO) + cij * c
        return {k: c for k, c in out.items() if c}

    def __repr__(self) -> str:
        return f"LieAlgebraData({self.name or self.labels}, dim={self.dim})"


class AlgElement(Wedge):
    """An element of the k-th wedge power of g: ``Scalar`` coefficients on
    increasing tuples of basis indices of ``algebra``.

    Exact only: any other coefficient type raises ``TypeError``.  Numeric
    wedge elements (``dynr``) are dense numpy arrays instead.
    """

    __slots__ = ()
    _ring = Scalar

    @property
    def algebra(self) -> LieAlgebraData:
        """The Lie algebra g: a read-only view of ``space``."""
        return self.space

    @staticmethod
    def _dim(algebra: LieAlgebraData) -> int:
        return algebra.dim

    @staticmethod
    def _const(algebra: LieAlgebraData, value) -> Scalar:
        return Scalar.coerce(value)

    def _basis_name(self, j: int) -> str:
        return self.space.labels[j]


def validate_lie(g: LieAlgebraData) -> Report:
    """Exact antisymmetry and Jacobi check; on failure the witness is the index
    tuple of the first violation (for Jacobi, the smallest failing i < j < k)."""
    for (i, j), entry in g.table.items():
        if i == j and any(not c.is_zero() for c in entry.values()):
            return Report(False, reason=f"[x_{i}, x_{i}] != 0", witness=(i, i))
        mirror = g.table.get((j, i), {})
        keys = set(entry) | set(mirror)
        for k in keys:
            if entry.get(k, SCALAR_ZERO) != -mirror.get(k, SCALAR_ZERO):
                reason = f"antisymmetry fails: c_({i},{j})^{k} != -c_({j},{i})^{k}"
                return Report(False, reason=reason, witness=(i, j, k))
    # The Jacobiator of i < j < k sums [[x_a, x_b], x_c] over the cyclic rotations (a, b, c)
    # of (i, j, k): one sweep adds each product c_ab^m c_mc^l, in raw parts, to its triple.
    rows: dict[int, list] = {}  # m -> [(c, [(l, re, im) of c_mc^l])]
    for (m, c), entry in g.table.items():
        rows.setdefault(m, []).append((c, [(l, v.re, v.im) for l, v in entry.items()]))
    jacobiators: dict[tuple, dict[int, list]] = {}
    for (a, b), entry in g.table.items():
        for m, v in entry.items():
            vr, vi = v.re, v.im
            for c, terms in rows.get(m, ()):
                if a < b < c:
                    key = (a, b, c)
                elif b < c < a:
                    key = (b, c, a)
                elif c < a < b:
                    key = (c, a, b)
                else:  # not a cyclic rotation of its sorted triple, or an index repeats
                    continue
                acc = jacobiators.setdefault(key, {})
                for l, wr, wi in terms:
                    part = acc.setdefault(l, [0, 0])
                    part[0] += vr * wr - vi * wi
                    part[1] += vr * wi + vi * wr
    failing = [t for t, acc in jacobiators.items() if any(re or im for re, im in acc.values())]
    if failing:
        return Report(False, reason="Jacobi identity fails", witness=min(failing))
    return Report(True)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _elementary(n: int, a: int, b: int) -> linalg.Matrix:
    m = linalg.zeros(n, n)
    m[a][b] = SCALAR_ONE
    return m


def _entries(m: linalg.Matrix) -> list[tuple[int, int, Scalar]]:
    """The nonzero entries (row, column, value) of a matrix."""
    return [(r, c, v) for r, row in enumerate(m) for c, v in enumerate(row) if v]


def _bracket_entries(xs: list, ys: list) -> dict[tuple[int, int], Scalar]:
    """XY - YX as {(row, column): nonzero}, from the nonzero entries of X and Y (see ``_entries``)."""
    out: dict[tuple[int, int], Scalar] = {}
    for r, k, a in xs:
        for s, c, b in ys:
            if k == s:  # (XY)_rc += x_rk y_kc
                out[(r, c)] = out.get((r, c), SCALAR_ZERO) + a * b
            if c == r:  # (YX)_sk += y_sr x_rk
                out[(s, k)] = out.get((s, k), SCALAR_ZERO) - b * a
    return {rc: v for rc, v in out.items() if v}


def _coordinates(matrices: list[linalg.Matrix], targets: list[dict]) -> linalg.Matrix:
    """X with B X = V: column p holds the coordinates of targets[p] in the basis ``matrices``.

    Each target is given by its nonzero entries {(row, column): value}.  One
    elimination solves B X = V, where the columns of B are the flattened basis
    matrices and the columns of V the flattened targets.  A target outside the
    span of the basis, or a nonzero residual B X - V (formed on the nonzero
    entries of the basis matrices and of X), is a construction bug and raises.
    """
    n = len(matrices[0])
    basis_cols = [[m[r][c] for m in matrices] for r in range(n) for c in range(n)]
    rhs = [[t.get((r, c), SCALAR_ZERO) for t in targets] for r in range(n) for c in range(n)]
    coords = linalg.solve(basis_cols, rhs)
    if coords is None:
        raise AssertionError("a matrix left the span of the basis")
    basis = [_entries(m) for m in matrices]
    for target, column in zip(targets, zip(*coords)):
        image: dict[tuple[int, int], Scalar] = {}
        for k, x in enumerate(column):
            if x:
                for r, c, b in basis[k]:
                    image[(r, c)] = image.get((r, c), SCALAR_ZERO) + b * x
        if {rc: v for rc, v in image.items() if v} != target:
            raise AssertionError("inconsistent expansion")
    return coords


def _expand_table(matrices: list[linalg.Matrix]) -> dict:
    """Structure constants by expanding the commutators [m_i, m_j], i < j, in the given matrix basis."""
    basis = [_entries(m) for m in matrices]
    pairs = [(i, j) for i in range(len(matrices)) for j in range(i + 1, len(matrices))]
    coords = _coordinates(matrices, [_bracket_entries(basis[i], basis[j]) for i, j in pairs])
    entries = ({k: row[p] for k, row in enumerate(coords) if row[p]} for p in range(len(pairs)))
    return {pair: entry for pair, entry in zip(pairs, entries) if entry}


def _sl_basis(n: int) -> tuple[list[str], list[linalg.Matrix], RootData]:
    """Labels, matrices and root data of the Chevalley basis of sl(n)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    pos = [(a, b) for a in range(n) for b in range(a + 1, n)]
    labels = [f"e{a+1}{b+1}" for a, b in pos] + [f"f{a+1}{b+1}" for a, b in pos] + [
        f"h{m+1}" for m in range(n - 1)
    ]
    mats = [_elementary(n, a, b) for a, b in pos] + [_elementary(n, b, a) for a, b in pos] + [
        linalg.mat_sub(_elementary(n, m, m), _elementary(n, m + 1, m + 1)) for m in range(n - 1)
    ]
    nroots = len(pos)
    roots = []
    for r, (a, b) in enumerate(pos):
        # [E_ab, E_ba] = E_aa - E_bb = h_a + h_(a+1) + ... + h_(b-1)
        h_coords = tuple(1 if a <= m < b else 0 for m in range(n - 1))
        roots.append(RootInfo((a, b), r, nroots + r, Fraction(1), h_coords))
    r_terms = tuple((info.e_index, info.f_index, info.d) for info in roots)
    return labels, mats, RootData(tuple(roots), tuple(range(2 * nroots, 2 * nroots + n - 1)), r_terms)


# The double's r-matrix is r = DOUBLE_R_SCALE * sum_i D_i ^ xi^i, a stated
# convention (README, Conventions).  Wedge and pairing conventions in the
# literature each move this scalar by factors of 2 or by its sign; with this
# one the Stokes bracket comes out as groupnum.KAPPA times the Dubrovin
# brackets (xy - 2z, ...), and ``groupnum.stokes_report`` fails when it does
# not.  The other verified identities (two-route agreement, rank relations,
# tangency) are invariant under this scalar.
DOUBLE_R_SCALE = Fraction(4)


def _trace_product(a: linalg.Matrix, b: linalg.Matrix) -> Scalar:
    """tr(ab), over the nonzero entries of a."""
    return sum((v * b[c][r] for r, c, v in _entries(a)), SCALAR_ZERO)


def _double_basis(n: int) -> tuple[list[tuple[linalg.Matrix, linalg.Matrix]], tuple[tuple[int, int, Fraction], ...]]:
    """Basis pairs and r-terms of the double sl(n) + sl(n), paired by <(a,b),(c,d)> = tr(ac) - tr(bd).

    The basis is the diagonal D_i = (m_i, m_i) over ``_sl_basis(n)``, then its dual basis xi^i in
    b+ + b-, spanned by the pairs x_a = (E_ab, 0), (0, E_ba) over a < b and (h, -h) over the Cartan.
    With G_aj = <x_a, D_j> the Gram matrix, xi^i = sum_a (G^-T)_ai x_a, so the flattened xi^i are
    the rows of G^-1 B, B the flattened x_a: one exact solve.  The r-terms (i, dim + i,
    DOUBLE_R_SCALE) make r = DOUBLE_R_SCALE sum_i D_i ^ xi^i; the scale is read at call time.
    """
    _, mats, roots = _sl_basis(n)
    zero = linalg.zeros(n, n)
    borel = ([(mats[root.e_index], zero) for root in roots.roots] + [(zero, mats[root.f_index]) for root in roots.roots]
             + [(mats[h], linalg.mat_scale(mats[h], -1)) for h in roots.cartan])
    gram = [[_trace_product(x, d) - _trace_product(y, d) for d in mats] for x, y in borel]
    flat = linalg.solve(gram, [[v for half in x for row in half for v in row] for x in borel])
    duals = [tuple([xi[(h * n + r) * n:(h * n + r + 1) * n] for r in range(n)] for h in (0, 1)) for xi in flat]
    return [(m, m) for m in mats] + duals, tuple((i, len(mats) + i, DOUBLE_R_SCALE) for i in range(len(mats)))


def sl_chevalley(n: int) -> LieAlgebraData:
    """sl(n) in the elementary-matrix Chevalley basis, with root data.

    Basis order: e_(a,b) for positive roots (a < b, lexicographic), then the
    matching f_(a,b), then the Cartan h_1 .. h_(n-1).  The trace form gives
    d_a = (e_a, f_a) = 1 throughout.
    """
    labels, mats, root_data = _sl_basis(n)
    return LieAlgebraData.from_brackets(labels, _expand_table(mats), mats, root_data, name=f"sl{n}")


def _su_basis(n: int) -> tuple[list[str], list[linalg.Matrix], RootData]:
    """Labels, matrices and root data of the compact basis X_a = e_a - f_a,
    Y_a = i(e_a + f_a), t_m = i h_m of su(n); the root records point at (X_a, Y_a),
    and the r-terms make the compact r-matrix, sum of d_a/2 X_a ^ Y_a."""
    _, sl_mats, sl_roots = _sl_basis(n)
    pos = [info.pair for info in sl_roots.roots]
    nroots = len(pos)
    mats = []
    labels = []
    for r, (a, b) in enumerate(pos):
        e_mat, f_mat = sl_mats[r], sl_mats[nroots + r]
        mats.append(linalg.mat_sub(e_mat, f_mat))
        labels.append(f"X{a+1}{b+1}")
    for r, (a, b) in enumerate(pos):
        e_mat, f_mat = sl_mats[r], sl_mats[nroots + r]
        mats.append(linalg.mat_scale(linalg.mat_add(e_mat, f_mat), SCALAR_I))
        labels.append(f"Y{a+1}{b+1}")
    for m in range(n - 1):
        mats.append(linalg.mat_scale(sl_mats[2 * nroots + m], SCALAR_I))
        labels.append(f"t{m+1}")
    r_terms = tuple((i, j, d / 2) for i, j, d in sl_roots.r_terms)
    return labels, mats, RootData(sl_roots.roots, sl_roots.cartan, r_terms)


def su_compact_basis(n: int) -> LieAlgebraData:
    """su(n) on the basis X_a = e_a - f_a, Y_a = i(e_a + f_a), t_m = i h_m.

    Structure constants come out real rational and are stored that way; the
    root data carry the compact r-matrix, sum of d_a/2 X_a ^ Y_a.
    """
    labels, mats, roots = _su_basis(n)
    brackets = _expand_table(mats)
    for entry in brackets.values():
        for coeff in entry.values():
            if coeff.im != 0:
                raise AssertionError("compact real form produced a non-real constant")
    return LieAlgebraData.from_brackets(labels, brackets, mats, roots, name=f"su{n}")


def so3() -> LieAlgebraData:
    """so(3): [x1, x2] = x3 and cyclic."""
    return LieAlgebraData.from_brackets(
        ["x1", "x2", "x3"],
        {(0, 1): {2: SCALAR_ONE}, (1, 2): {0: SCALAR_ONE}, (0, 2): {1: -SCALAR_ONE}},
        name="so3",
    )


def builtin_algebra(name: str) -> LieAlgebraData:
    """Programmatic built-ins: sl2, sl3, sl4, su2, su3, so3."""
    try:
        factory = BUILTIN_ALGEBRAS[name]
    except KeyError:
        raise ValueError(f"unknown built-in algebra {name!r}; have {sorted(BUILTIN_ALGEBRAS)}") from None
    return factory()


BUILTIN_ALGEBRAS = {
    "sl2": lambda: sl_chevalley(2),
    "sl3": lambda: sl_chevalley(3),
    "sl4": lambda: sl_chevalley(4),
    "su2": lambda: su_compact_basis(2),
    "su3": lambda: su_compact_basis(3),
    "so3": so3,
}


def standard_r_matrix(g: LieAlgebraData) -> AlgElement:
    """The r-matrix of the root data: sum of d_a e_a ^ f_a over the positive
    roots of sl(n), and of d_a/2 X_a ^ Y_a on su(n)."""
    if g.root_data is None:
        raise ValueError("algebra carries no root data")
    return AlgElement(g, 2, {(i, j): Scalar(c) for i, j, c in g.root_data.r_terms})


def transpose_antimorphism(g: LieAlgebraData) -> "LinearAlgMap":
    """phi(X) = X^T, expanded in the algebra's matrix basis.

    Transposition reverses products, so it is an involutive anti-morphism of
    every matrix Lie algebra closed under it.  On the Chevalley basis of sl(n)
    it swaps e_a with f_a and fixes the Cartan; on the compact basis of su(n)
    it sends X_a to -X_a and fixes Y_a and t_m.
    """
    if g.matrices is None:
        raise ValueError("algebra carries no matrix basis")
    transposes = [{(c, r): v for r, c, v in _entries(m)} for m in g.matrices]
    return LinearAlgMap.from_rows(g, g, _coordinates(g.matrices, transposes))


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearAlgMap:
    """A linear map between algebras; matrix[i][j] is the i-coefficient of the
    image of basis element j."""

    source: LieAlgebraData
    target: LieAlgebraData
    matrix: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if len(self.matrix) != self.target.dim or any(len(row) != self.source.dim for row in self.matrix):
            raise ValueError("matrix shape does not match source/target dimensions")
        # per source basis element j, the nonzero entries (i, matrix[i][j]) of its image
        support = [[(i, row[j]) for i, row in enumerate(self.matrix) if row[j]] for j in range(self.source.dim)]
        object.__setattr__(self, "_column_support", support)

    @staticmethod
    def from_rows(source, target, rows) -> "LinearAlgMap":
        return LinearAlgMap(source, target, tuple(tuple(Scalar.coerce(v) for v in row) for row in rows))

    def rows(self) -> linalg.Matrix:
        return [list(row) for row in self.matrix]

    def _apply_support(self, coeffs) -> dict[int, Scalar]:
        """The image of the vector with nonzero entries (index, coefficient) ``coeffs``, as {index: nonzero}."""
        out: dict[int, Scalar] = {}
        for j, cj in coeffs:
            for i, mij in self._column_support[j]:
                out[i] = out.get(i, SCALAR_ZERO) + cj * mij
        return {i: c for i, c in out.items() if c}

    def apply(self, elem: AlgElement) -> AlgElement:
        """Wedge-power action on an element of Lambda^k(source)."""
        if elem.algebra is not self.source:
            raise ValueError("element does not live in the source algebra")
        return elem.carry(self.target, self._column_support)

    def is_involution(self) -> bool:
        if self.source is not self.target:
            return False
        m = self.rows()
        return linalg.mat_eq(linalg.mat_mul(m, m), linalg.identity(self.source.dim))


# ---------------------------------------------------------------------------
# algebraic Schouten bracket and r-matrix checks
# ---------------------------------------------------------------------------


def alg_schouten(a: AlgElement, b: AlgElement) -> AlgElement:
    """Graded bracket on wedge powers of g via the pair-sum formula."""
    a._check(b)
    g = a.algebra
    out: dict[tuple, Scalar] = {}
    for ia, ca in a.comps.items():
        for ib, cb in b.comps.items():
            cab = ca * cb
            for pi, bi in enumerate(ia):
                rest_a = ia[:pi] + ia[pi + 1 :]
                for pj, bj in enumerate(ib):
                    entry = g.table.get((bi, bj))
                    if not entry:
                        continue
                    rest_b = ib[:pj] + ib[pj + 1 :]
                    sign = -1 if (pi + pj) % 2 else 1
                    for k, c in entry.items():
                        sp = sort_with_parity((k,) + rest_a + rest_b)
                        if sp is None:
                            continue
                        key, s2 = sp
                        coeff = cab * c
                        out[key] = out.get(key, SCALAR_ZERO) + (coeff if sign * s2 > 0 else -coeff)
    return AlgElement._new(g, max(a.degree + b.degree - 1, 0), {k: c for k, c in out.items() if c})


def _failures_report(failures: list[str]) -> Report:
    """Passes iff there are no failures; else they are the witness, and the reason their "; "-join."""
    return Report(not failures, reason="; ".join(failures), witness=tuple(failures) if failures else None)


def _check_bivector(g: LieAlgebraData, r: AlgElement) -> None:
    """Raise ValueError unless r is an element of Lambda^2 g (a zero of any degree counts)."""
    if r.algebra is not g:
        raise ValueError("r does not live in g")
    if r.degree != 2 and not r.is_zero():
        raise ValueError("r must be a bivector")


def coboundary_check(g: LieAlgebraData, r: AlgElement) -> Report:
    """Verify that [r, r] is ad-invariant: [x_b, [r, r]] = 0 for all b."""
    _check_bivector(g, r)
    cyb = alg_schouten(r, r)
    failures = []
    for b in range(g.dim):
        defect = alg_schouten(AlgElement.basis(g, b), cyb)
        if not defect.is_zero():
            failures.append(f"[{g.labels[b]}, [r, r]] = {defect}")
    return _failures_report(failures)


def _antimorphism_failures(g: LieAlgebraData, phi: LinearAlgMap, i: int) -> list[int]:
    """The j > i with phi [x_i, x_j] != -[phi x_i, phi x_j]."""
    images = phi._column_support
    failures = []
    for j in range(i + 1, g.dim):
        lhs = phi._apply_support(g.table.get((i, j), {}).items())  # [x_i, x_j] is a table entry
        rhs = g._bracket_supports(images[i], images[j])
        if lhs != {k: -c for k, c in rhs.items()}:
            failures.append(j)
    return failures


def symmetric_bialgebra_check(g: LieAlgebraData, r: AlgElement, phi: LinearAlgMap) -> Report:
    """phi is an involutive anti-morphism with phi r = -r.

    It checks only what phi adds to the bialgebra: whether r is an r-matrix
    is ``coboundary_check``'s question, which the caller asks once.
    """
    _check_bivector(g, r)
    if phi.source is not g or phi.target is not g:
        raise ValueError("phi must be an endomorphism of g")
    failures = []
    if not phi.is_involution():
        failures.append("phi^2 != id")
    for i in range(g.dim):
        for j in _antimorphism_failures(g, phi, i):
            failures.append(f"anti-morphism fails on ({g.labels[i]}, {g.labels[j]})")
    if not (phi.apply(r) + r).is_zero():
        failures.append("phi r != -r")
    return _failures_report(failures)


# ---------------------------------------------------------------------------
# Drinfeld double
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DrinfeldDouble:
    sigma: LieAlgebraData
    base: LieAlgebraData
    r_sigma: AlgElement = field(repr=False)

    @property
    def n(self) -> int:
        return self.base.dim

    def dual_index(self, a: int) -> int:
        """The basis element of sigma paired with basis element a: X_i <-> xi^i."""
        return a + self.n if a < self.n else a - self.n


def drinfeld_double(g: LieAlgebraData, r: AlgElement) -> DrinfeldDouble:
    """The double sigma = g + g* of the coboundary bialgebra (g, delta = [., r]).

    sigma is a Lie algebra exactly when delta is a Lie bialgebra, that is,
    when [r, r] is ad-invariant (Drinfeld; Chari-Pressley, A Guide to Quantum
    Groups, 2.1).  So the exhaustive Jacobi sweep of sigma is a second route
    to ``coboundary_check``, and only a failed sweep runs that check, to tell
    the two causes apart: an r that is not an r-matrix raises ValueError, and
    an r-matrix whose double fails is a convention bug (AssertionError).
    """
    _check_bivector(g, r)
    n = g.dim
    labels = list(g.labels) + [f"{name}*" for name in g.labels]

    # gamma[k][(i, j)]: the X_i ^ X_j coefficient of delta(x_k) = [x_k, r], i < j, read from its comps once
    gamma = [alg_schouten(AlgElement.basis(g, k), r).comps for k in range(n)]
    # from_brackets drops the zero coefficients and the empty entries
    brackets = {(i, j): entry for (i, j), entry in g.table.items() if i < j}
    for k, delta in enumerate(gamma):
        for (i, j), c in delta.items():
            brackets.setdefault((n + i, n + j), {})[n + k] = c
    # [X_i, xi^j] = -sum_k c_ik^j xi^k + sum_m gamma_i^{jm} X_m
    for (i, k), entry in g.table.items():
        for j, c in entry.items():
            brackets.setdefault((i, n + j), {})[n + k] = -c
    for i, delta in enumerate(gamma):
        for (a, b), c in delta.items():
            brackets.setdefault((i, n + a), {})[b] = c
            brackets.setdefault((i, n + b), {})[a] = -c

    sigma = LieAlgebraData.from_brackets(labels, brackets, name=f"double({g.name or 'g'})")
    verdict = validate_lie(sigma)
    if not verdict:
        report = coboundary_check(g, r)
        if not report:
            raise ValueError(f"r is not an r-matrix: {report.reason}")
        raise AssertionError(f"double failed validate_lie ({verdict.reason}); convention bug")

    r_sigma = AlgElement.from_terms(sigma, 2, [((i, n + i), SCALAR_ONE) for i in range(n)])
    double = DrinfeldDouble(sigma, g, r_sigma)

    # <[a, b], c> + <b, [a, c]> = 0 for all basis triples.  With
    # <x_m, x_c> = 1 exactly when m = dual(c), the identity reads
    # [a, b]_dual(c) + [a, c]_dual(b) = 0, and a triple where both terms
    # vanish holds trivially; every other triple is reached from a nonzero
    # table entry (a, b) -> m with c = dual(m).
    dual = double.dual_index
    for (a, b), ab in sigma.table.items():
        for m, coeff in ab.items():
            c = dual(m)
            if not (coeff + sigma.table.get((a, c), {}).get(dual(b), SCALAR_ZERO)).is_zero():
                raise AssertionError("canonical pairing is not invariant; convention bug")
    return double


def chi_map(double: DrinfeldDouble, phi: LinearAlgMap) -> LinearAlgMap:
    """chi(X + xi) = phi X - phi* xi on the double."""
    n = double.n
    mat = linalg.zeros(2 * n, 2 * n)
    for i in range(n):
        for j in range(n):
            mat[i][j] = phi.matrix[i][j]
            mat[n + i][n + j] = -phi.matrix[j][i]
    return LinearAlgMap(double.sigma, double.sigma, tuple(tuple(row) for row in mat))


def chi_check(double: DrinfeldDouble, phi: LinearAlgMap) -> Report:
    """chi is an involutive anti-morphism of the double that flips the pairing."""
    sigma = double.sigma
    chi = chi_map(double, phi)
    failures = []
    if not chi.is_involution():
        failures.append("chi^2 != id")
    images = chi._column_support
    dual = double.dual_index
    # <chi x_i, chi x_j> = sum_a (chi x_i)_a (chi x_j)_dual(a), so besides j = dual(i),
    # where <x_i, x_j> = 1, only a j whose image reaches some dual(a) can fail
    reached: dict[int, list] = {}  # row b -> [(j, (chi x_j)_b)]
    for j, image in enumerate(images):
        for b, v in image:
            reached.setdefault(b, []).append((j, v))
    for i in range(sigma.dim):
        for j in _antimorphism_failures(sigma, chi, i):
            failures.append(f"chi anti-morphism fails on ({sigma.labels[i]}, {sigma.labels[j]})")
        flip = {dual(i): SCALAR_ONE}  # <chi x_i, chi x_j> + <x_i, x_j>, by j
        for a, ua in images[i]:
            for j, vb in reached.get(dual(a), ()):
                flip[j] = flip.get(j, SCALAR_ZERO) + ua * vb
        for j in sorted(j for j, c in flip.items() if c):
            failures.append(f"pairing flip fails on ({sigma.labels[i]}, {sigma.labels[j]})")
    return _failures_report(failures)


def lie_poisson_chart(g: LieAlgebraData):
    """The Lie-Poisson chart on g*: {x_i, x_j} = sum_k c_ij^k x_k."""
    from .poisson import PoissonChart

    verdict = validate_lie(g)
    if not verdict:
        raise ValueError(f"structure constants invalid: {verdict.reason}")
    comps = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            entry = g.table.get((i, j), {})
            poly = Poly(g.dim, {tuple(int(a == k) for a in range(g.dim)): c for k, c in entry.items()})
            if not poly.is_zero():
                comps[(i, j)] = poly
    pi = PolyMultiVec(g.dim, 2, comps)
    return PoissonChart(g.dim, tuple(g.labels), pi)
