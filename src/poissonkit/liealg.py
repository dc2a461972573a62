"""Exact Lie-algebra infrastructure.

Structure constants are stored exactly, and built one way: ``LieAlgebraData``
takes the brackets on pairs and fills in the antisymmetric table, with no
zero constants, indices in range and distinct labels.  The matrix constructors
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
coadjoints defined by <ad*_X xi, Y> = -<xi, [X, Y]>; the exact Jacobi check
and the invariance of the canonical pairing pin this convention.

``validate_lie`` decides Jacobi only, as the Poisson condition of g*'s
Lie-Poisson chart, with ``poisson._not_poisson``, the one kernel that decides
every chart; each ``LieAlgebraData`` forms that chart once, from its constants
on the pairs i < j, and ``lie_poisson_chart`` returns it.  An exact matrix is
kept as its nonzero entries only: a basis matrix as {(row, column): value}, a
pair of the double as {(half, row, column): value}, a ``LinearAlgMap`` as the
(index, coefficient) pairs of each column.  So every kernel visits only
nonzero entries, and only ``groupnum._from_exact`` makes a basis dense, in
numpy.  ``AlgElement`` is an ``exactalg.Wedge`` on g with ``Scalar``
coefficients: its validating public constructor, its trusted ``_new``, its
arithmetic and its linear-map action (``Wedge.carry``, which
``LinearAlgMap.apply`` calls) are the ones ``PolyMultiVec`` uses.
``alg_schouten`` sums the pair-sum terms in its own loop and builds its result
with ``_new`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from . import linalg
from .exactalg import PolyMultiVec, SCALAR_I, SCALAR_ONE, SCALAR_ZERO, Scalar, Wedge, _poly, sort_with_parity
from .poisson import PoissonChart, _not_poisson
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
    """Basis labels plus exact structure constants, with optional extras.

    The brackets are given on pairs: ``brackets[(i, j)]`` holds the constants
    c_ij^k of [x_i, x_j], and the table gives (j, i) their negatives.  A
    diagonal pair, a pair given twice or an index outside range(dim) raises
    ValueError, and so do repeated labels, which name the coordinates of the
    Lie-Poisson chart.  So the table is antisymmetric, holds no zero constant,
    indexes the basis only and never changes after construction; ``oracle``
    memoises on that, and the Lie-Poisson chart that ``validate_lie`` decides
    is formed once.  ``matrices``, if given, are the basis by nonzero entries {(row, column): value}."""

    def __init__(
        self,
        labels: Sequence[str],
        brackets: Mapping[tuple[int, int], Mapping[int, Scalar]],
        matrices: list[dict[tuple[int, int], Scalar]] | None = None,
        root_data: RootData | None = None,
        name: str = "",
    ):
        self.labels = list(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        self.dim = len(self.labels)
        self.table: dict[tuple[int, int], dict[int, Scalar]] = {}
        for (i, j), entry in brackets.items():
            if i == j:
                raise ValueError("diagonal brackets must be omitted (they vanish)")
            if not all(0 <= x < self.dim for x in (i, j, *entry)):
                raise ValueError(f"bracket ({i}, {j}) has an index outside range({self.dim})")
            clean = {k: c for k, c in ((k, Scalar.coerce(c)) for k, c in entry.items()) if c}
            if not clean:
                continue
            if (i, j) in self.table:
                raise ValueError(f"bracket ({i}, {j}) given twice")
            self.table[(i, j)] = clean
            self.table[(j, i)] = {k: -c for k, c in clean.items()}
        self.matrices = matrices
        self.root_data = root_data
        self.name = name

    def bracket_basis(self, i: int, j: int) -> "AlgElement":
        entry = self.table.get((i, j), {})
        return AlgElement(self, 1, {(k,): c for k, c in entry.items()})

    def _bracket_supports(self, u, v) -> dict[int, Scalar]:
        """The bracket [u, v] of the vectors with nonzero entries (index, coefficient) u and v, as {index: nonzero}."""
        out: dict[int, Scalar] = {}
        for i, ci in u:
            for j, cj in v:
                cij = ci * cj
                for k, c in self.table.get((i, j), {}).items():
                    out[k] = out.get(k, SCALAR_ZERO) + cij * c
        return {k: c for k, c in out.items() if c}

    @cached_property
    def _lie_poisson_chart(self) -> PoissonChart:
        """The Lie-Poisson chart on g*, read off the constants c_ij^k, i < j, which
        are nonzero by construction, and formed once, like its Jacobiator:
        ``lie_poisson_chart`` returns it."""
        n = self.dim
        units = [tuple(int(a == k) for a in range(n)) for k in range(n)]  # the exponents of x_k
        comps = {(i, j): _poly(n, {units[k]: c for k, c in self.table[(i, j)].items()})
                 for i, j in sorted(pair for pair in self.table if pair[0] < pair[1])}
        return PoissonChart(n, tuple(self.labels), PolyMultiVec._new(n, 2, comps))

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
    """Exact Jacobi check; on failure the witness is the smallest failing
    index triple i < j < k.

    Jacobi is the Poisson condition of g*'s Lie-Poisson chart: the (i, j, k)
    component of its [pi, pi] is a nonzero multiple of the Jacobiator of x_i,
    x_j, x_k, so ``poisson._not_poisson`` decides it.  The chart reads the
    pairs i < j only, which is enough: ``LieAlgebraData`` holds an
    antisymmetric table by construction."""
    failed = _not_poisson(g._lie_poisson_chart)
    if failed is None:
        return Report(True)
    return Report(False, reason="Jacobi identity fails", witness=failed.witness[0])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _bracket_entries(xs: dict, ys: dict) -> dict[tuple[int, int], Scalar]:
    """XY - YX as {(row, column): nonzero}, from the nonzero entries of X and Y."""
    out: dict[tuple[int, int], Scalar] = {}
    for (r, k), a in xs.items():
        for (s, c), b in ys.items():
            if k == s:  # (XY)_rc += x_rk y_kc
                out[(r, c)] = out.get((r, c), SCALAR_ZERO) + a * b
            if c == r:  # (YX)_sk += y_sr x_rk
                out[(s, k)] = out.get((s, k), SCALAR_ZERO) - b * a
    return {rc: v for rc, v in out.items() if v}


def _coordinates(basis: list[dict], targets: list[dict]) -> list[dict[int, Scalar]]:
    """The coordinates of each target in the matrix basis, as {basis index: nonzero}.

    Each basis matrix and each target is given by its nonzero entries
    {(row, column): value}.  One sparse
    elimination solves B X = V, where the columns of B are the flattened basis
    matrices and the columns of V the flattened targets.  A target outside the
    span of the basis, or a nonzero residual B X - V (formed on the nonzero
    entries of the basis matrices and of X), is a construction bug and raises.
    """
    solution = linalg.solve(*linalg.sparse_system(basis, targets))
    if solution is None:
        raise AssertionError("a matrix left the span of the basis")
    coords: list[dict[int, Scalar]] = [{} for _ in targets]
    for k, row in solution.items():
        for p, x in row.items():
            coords[p][k] = x
    for target, column in zip(targets, coords):
        image: dict[tuple[int, int], Scalar] = {}
        for k, x in column.items():
            for rc, b in basis[k].items():
                image[rc] = image.get(rc, SCALAR_ZERO) + b * x
        if {rc: v for rc, v in image.items() if v} != target:
            raise AssertionError("inconsistent expansion")
    return coords


def _expand_table(basis: list[dict]) -> dict:
    """Structure constants by expanding the commutators [m_i, m_j], i < j, in the given matrix basis,
    each matrix given by its nonzero entries {(row, column): value}."""
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    coords = _coordinates(basis, [_bracket_entries(basis[i], basis[j]) for i, j in pairs])
    return {pair: entry for pair, entry in zip(pairs, coords) if entry}


def _sl_basis(n: int) -> tuple[list[str], list[dict], RootData]:
    """Labels, matrices {(row, column): nonzero} and root data of the Chevalley basis of sl(n)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    pos = [(a, b) for a in range(n) for b in range(a + 1, n)]
    labels = [f"e{a+1}{b+1}" for a, b in pos] + [f"f{a+1}{b+1}" for a, b in pos] + [
        f"h{m+1}" for m in range(n - 1)
    ]
    mats = [{(a, b): SCALAR_ONE} for a, b in pos] + [{(b, a): SCALAR_ONE} for a, b in pos] + [
        {(m, m): SCALAR_ONE, (m + 1, m + 1): -SCALAR_ONE} for m in range(n - 1)
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


def _trace_product(a: dict, b: dict) -> Scalar:
    """tr(ab), over the nonzero entries {(row, column): value} of a and b."""
    return sum((v * b[(c, r)] for (r, c), v in a.items() if (c, r) in b), SCALAR_ZERO)


def _double_basis(n: int) -> tuple[list[dict], tuple[tuple[int, int, Fraction], ...]]:
    """Basis pairs and r-terms of the double sl(n) + sl(n), paired by <(a,b),(c,d)> = tr(ac) - tr(bd).

    Each pair (a, b) is given by its nonzero entries {(half, row, column): value}, half 0 for a and
    1 for b.  The basis is the diagonal D_i = (m_i, m_i) over ``_sl_basis(n)``, then its dual basis
    xi^i in b+ + b-, spanned by the pairs x_a = (E_ab, 0), (0, E_ba) over a < b and (h, -h) over the
    Cartan.  With G_aj = <x_a, D_j> the Gram matrix, xi^i = sum_a (G^-T)_ai x_a, so the flattened
    xi^i are the rows of G^-1 B, B the flattened x_a: one exact solve.  The r-terms (i, dim + i,
    DOUBLE_R_SCALE) make r = DOUBLE_R_SCALE sum_i D_i ^ xi^i; the scale is read at call time.
    """
    _, mats, roots = _sl_basis(n)
    halves = ([(mats[root.e_index], {}) for root in roots.roots] + [({}, mats[root.f_index]) for root in roots.roots]
              + [(mats[h], {rc: -v for rc, v in mats[h].items()}) for h in roots.cartan])
    gram = [{j: v for j, d in enumerate(mats) if (v := _trace_product(x, d) - _trace_product(y, d))} for x, y in halves]
    cells = [(h, r, c) for h in (0, 1) for r in range(n) for c in range(n)]  # (h, r, c) flattened is its place here
    flat = linalg.solve(gram, [{(h * n + r) * n + c: v for h, half in enumerate(pair) for (r, c), v in half.items()}
                               for pair in halves])
    diagonal = [{(h, r, c): v for h in (0, 1) for (r, c), v in m.items()} for m in mats]
    duals = [{cells[k]: v for k, v in xi.items()} for xi in flat.values()]
    return diagonal + duals, tuple((i, len(mats) + i, DOUBLE_R_SCALE) for i in range(len(mats)))


def sl_chevalley(n: int) -> LieAlgebraData:
    """sl(n) in the elementary-matrix Chevalley basis, with root data.

    Basis order: e_(a,b) for positive roots (a < b, lexicographic), then the
    matching f_(a,b), then the Cartan h_1 .. h_(n-1).  The trace form gives
    d_a = (e_a, f_a) = 1 throughout.
    """
    labels, mats, root_data = _sl_basis(n)
    return LieAlgebraData(labels, _expand_table(mats), mats, root_data, name=f"sl{n}")


def _su_basis(n: int) -> tuple[list[str], list[dict], RootData]:
    """Labels, matrices {(row, column): nonzero} and root data of the compact basis X_a = e_a - f_a,
    Y_a = i(e_a + f_a), t_m = i h_m of su(n); the root records point at (X_a, Y_a),
    and the r-terms make the compact r-matrix, sum of d_a/2 X_a ^ Y_a."""
    _, _, sl_roots = _sl_basis(n)
    pos = [info.pair for info in sl_roots.roots]
    labels = [f"X{a+1}{b+1}" for a, b in pos] + [f"Y{a+1}{b+1}" for a, b in pos] + [f"t{m+1}" for m in range(n - 1)]
    mats = ([{(a, b): SCALAR_ONE, (b, a): -SCALAR_ONE} for a, b in pos]
            + [{(a, b): SCALAR_I, (b, a): SCALAR_I} for a, b in pos]
            + [{(m, m): SCALAR_I, (m + 1, m + 1): -SCALAR_I} for m in range(n - 1)])
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
    return LieAlgebraData(labels, brackets, mats, roots, name=f"su{n}")


def so3() -> LieAlgebraData:
    """so(3): [x1, x2] = x3 and cyclic."""
    return LieAlgebraData(
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
    images = _coordinates(g.matrices, [{(c, r): v for (r, c), v in m.items()} for m in g.matrices])
    return LinearAlgMap(g, g, tuple(tuple(sorted(image.items())) for image in images))


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearAlgMap:
    """A linear map between algebras, by its nonzero entries: ``columns[j]`` holds the pairs
    (i, c) of the image of basis element j, c its nonzero i-coefficient, in strictly ascending
    i, one column per source basis element; any other columns raise ValueError."""

    source: LieAlgebraData
    target: LieAlgebraData
    columns: tuple[linalg.Vector, ...]

    def __post_init__(self):
        dim = self.target.dim
        if not (len(self.columns) == self.source.dim and linalg.is_columns(self.columns, dim)):
            raise ValueError(f"columns must be {self.source.dim} tuples of (index in range({dim}), nonzero) pairs, "
                             "each in strictly ascending index")

    def apply(self, elem: AlgElement) -> AlgElement:
        """Wedge-power action on an element of Lambda^k(source)."""
        if elem.algebra is not self.source:
            raise ValueError("element does not live in the source algebra")
        return elem.carry(self.target, self.columns)

    def is_involution(self) -> bool:
        return self.source is self.target and linalg.is_involution(self.columns)


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
    images = phi.columns
    failures = []
    for j in range(i + 1, g.dim):
        lhs = linalg.apply(phi.columns, g.table.get((i, j), {}).items())  # [x_i, x_j] is a table entry
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
    Groups, 2.1).  So ``validate_lie`` on sigma, the Poisson check of the
    Lie-Poisson chart of sigma*, is a second route to ``coboundary_check``, and
    only a failed check runs ``coboundary_check``, to tell the two causes
    apart: an r that is not an r-matrix raises ValueError, and an r-matrix
    whose double fails is a convention bug (AssertionError).  sigma keeps
    that chart and its Jacobiator.
    """
    _check_bivector(g, r)
    n = g.dim
    labels = list(g.labels) + [f"{name}*" for name in g.labels]

    # gamma[k][(i, j)]: the X_i ^ X_j coefficient of delta(x_k) = [x_k, r], i < j, read from its comps once
    gamma = [alg_schouten(AlgElement.basis(g, k), r).comps for k in range(n)]
    # the constructor drops the zero coefficients and the empty entries
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

    sigma = LieAlgebraData(labels, brackets, name=f"double({g.name or 'g'})")
    verdict = validate_lie(sigma)
    if not verdict:
        report = coboundary_check(g, r)
        if not report:
            raise ValueError(f"r is not an r-matrix: {report.reason}")
        raise AssertionError(f"double failed validate_lie ({verdict.reason}); convention bug")

    double = DrinfeldDouble(sigma, g)

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
    """chi(X + xi) = phi X - phi* xi on the double: column j < n is phi's own, and column
    n + j is row j of phi, negated and shifted by n."""
    if phi.source is not double.base or phi.target is not double.base:
        raise ValueError("phi must be an endomorphism of the double's base")
    n = double.n
    negated = tuple(tuple((n + i, -v) for i, v in row) for row in linalg.transpose(phi.columns, n))
    return LinearAlgMap(double.sigma, double.sigma, phi.columns + negated)


def chi_check(double: DrinfeldDouble, phi: LinearAlgMap) -> Report:
    """chi is an involutive anti-morphism of the double that flips the pairing."""
    sigma = double.sigma
    chi = chi_map(double, phi)
    failures = []
    if not chi.is_involution():
        failures.append("chi^2 != id")
    images = chi.columns
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


def lie_poisson_chart(g: LieAlgebraData) -> PoissonChart:
    """The Lie-Poisson chart on g*: {x_i, x_j} = sum_k c_ij^k x_k, the one ``validate_lie`` decides."""
    verdict = validate_lie(g)
    if not verdict:
        raise ValueError(f"structure constants invalid: {verdict.reason}")
    return g._lie_poisson_chart
