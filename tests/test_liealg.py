"""Structure constants, Chevalley bases, r-matrices, doubles, and chi."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    abelian,
    apply_by_wedges,
    apply_vector,
    counted_calls,
    double_pairing,
    make_rng,
    structure_constant,
    validate_lie_reference,
)
from poissonkit import liealg
from poissonkit.cli import run_command
from poissonkit.exactalg import Poly, PolyMultiVec, Scalar, schouten
from poissonkit.oracle import alg_schouten_oracle, rand_alg_element
from poissonkit.liealg import (
    AlgElement,
    LieAlgebraData,
    alg_schouten,
    chi_check,
    coboundary_check,
    drinfeld_double,
    lie_poisson_chart,
    sl_chevalley,
    so3,
    standard_r_matrix,
    su_compact_basis,
    symmetric_bialgebra_check,
    transpose_antimorphism,
    validate_lie,
)
from poissonkit.poisson import is_casimir, jacobiator
from poissonkit.report import Report


# -- validation -----------------------------------------------------------------


def test_validate_so3():
    assert validate_lie(so3()).ok


def test_validate_antisymmetry_failure():
    # a raw table with c_12^3 = c_21^3 = 1 breaks antisymmetry
    table = {(0, 1): {2: Scalar(1)}, (1, 0): {2: Scalar(1)}}
    g = LieAlgebraData(["a", "b", "c"], table)
    verdict = validate_lie(g)
    assert not verdict.ok
    assert "antisymmetry" in verdict.reason


def test_validate_jacobi_failure_perturbed_sl2():
    g = sl_chevalley(2)
    table = {pair: dict(entry) for pair, entry in g.table.items()}
    e, f, h = g.labels.index("e12"), g.labels.index("f12"), g.labels.index("h1")
    table[(h, e)][e] = Scalar(3)  # was 2
    table[(e, h)][e] = Scalar(-3)
    bad = LieAlgebraData(g.labels, table)
    verdict = validate_lie(bad)
    assert not verdict.ok
    assert "Jacobi" in verdict.reason
    assert verdict.witness == (e, f, h)


# -- Chevalley bases --------------------------------------------------------------


def test_sl2_relations():
    g = sl_chevalley(2)
    e, f, h = g.labels.index("e12"), g.labels.index("f12"), g.labels.index("h1")
    assert g.bracket_basis(h, e) == AlgElement(g, 1, {(e,): Scalar(2)})
    assert g.bracket_basis(h, f) == AlgElement(g, 1, {(f,): Scalar(-2)})
    assert g.bracket_basis(e, f) == AlgElement(g, 1, {(h,): Scalar(1)})


def test_sl3_counts():
    g = sl_chevalley(3)
    assert g.dim == 8
    assert len(g.root_data.roots) == 3
    assert validate_lie(g).ok


def test_sl_trace_pairing_is_one():
    for n in (2, 3, 4):
        g = sl_chevalley(n)
        assert all(info.d == Fraction(1) for info in g.root_data.roots)
        assert validate_lie(g).ok


def test_su2_relations():
    g = su_compact_basis(2)
    assert validate_lie(g).ok
    x, y, t = g.labels.index("X12"), g.labels.index("Y12"), g.labels.index("t1")
    # [t, X] = 2Y, [t, Y] = -2X, [X, Y] = 2t
    assert g.bracket_basis(t, x) == AlgElement(g, 1, {(y,): Scalar(2)})
    assert g.bracket_basis(t, y) == AlgElement(g, 1, {(x,): Scalar(-2)})
    assert g.bracket_basis(x, y) == AlgElement(g, 1, {(t,): Scalar(2)})


def test_su_r_hat_single_root():
    g = su_compact_basis(2)
    x, y = g.labels.index("X12"), g.labels.index("Y12")
    assert standard_r_matrix(g) == AlgElement(g, 2, {(x, y): Scalar(Fraction(1, 2))})


def test_su_constants_are_real_rationals():
    g = su_compact_basis(3)
    assert validate_lie(g).ok
    for entry in g.table.values():
        for coeff in entry.values():
            assert coeff.im == 0


# -- Lie-Poisson charts ------------------------------------------------------------


def test_lie_poisson_so3():
    chart = lie_poisson_chart(so3())
    assert chart.pi.comps[(0, 1)] == Poly.var(3, 2)
    assert jacobiator(chart).is_zero()


def test_lie_poisson_abelian_zero():
    chart = lie_poisson_chart(abelian(4))
    assert chart.pi.is_zero()


def test_lie_poisson_sl2_trace_casimir():
    g = sl_chevalley(2)
    chart = lie_poisson_chart(g)
    e, f, h = g.labels.index("e12"), g.labels.index("f12"), g.labels.index("h1")
    quad = 4 * (Poly.var(3, e) * Poly.var(3, f)) + Poly.var(3, h) ** 2
    assert is_casimir(chart, quad).ok


# -- algebraic Schouten bracket ------------------------------------------------------


def test_alg_schouten_degree_one_is_bracket():
    g = sl_chevalley(2)
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = alg_schouten(AlgElement.basis(g, i), AlgElement.basis(g, j))
            assert lhs == g.bracket_basis(i, j)


def test_alg_schouten_r_r_sl2():
    # [e^f, e^f] = 2 e^f^h in the wedge order (e, f, h)
    g = sl_chevalley(2)
    r = standard_r_matrix(g)
    w = alg_schouten(r, r)
    e, f, h = g.labels.index("e12"), g.labels.index("f12"), g.labels.index("h1")
    assert w == AlgElement(g, 3, {(e, f, h): Scalar(2)})


@pytest.mark.parametrize("coeff", [1.0, 1 + 0j, 1, Fraction(1)])
def test_alg_element_rejects_inexact_and_plain_coefficients(coeff):
    g = sl_chevalley(2)
    with pytest.raises(TypeError):
        AlgElement(g, 1, {(0,): coeff})
    with pytest.raises(TypeError):
        AlgElement.basis(g, 0) * 0.5


def test_wedge_collects_repeated_terms():
    g = sl_chevalley(2)
    e, f = AlgElement.basis(g, g.labels.index("e12")), AlgElement.basis(g, g.labels.index("f12"))
    assert (e + f).wedge(e + f).is_zero()
    assert (e + f).wedge(e - f) == e.wedge(f) * Scalar(-2)
    assert AlgElement.from_terms(g, 2, [((0, 1), Scalar(1)), ((1, 0), Scalar(3))]) == e.wedge(f) * Scalar(-2)


def test_cobracket_is_ad_of_r():
    # delta(x_k) = [x_k, r] = ad_{x_k} r, as drinfeld_double forms it, against the independent
    # oracle; the double's dual block [xi^i, xi^j] = sum_k delta(x_k)^{ij} xi^k reads it back
    for g in (sl_chevalley(2), sl_chevalley(3), su_compact_basis(2)):
        r = standard_r_matrix(g)
        n = g.dim
        sigma = drinfeld_double(g, r).sigma
        for k in range(n):
            x = AlgElement.basis(g, k)
            delta = alg_schouten(x, r)
            assert delta == alg_schouten_oracle(x, r), (g.name, k)
            dual = {(i, j): sigma.table.get((n + i, n + j), {}).get(n + k) for i, j in combinations(range(n), 2)}
            assert {ij: c for ij, c in dual.items() if c} == delta.comps, (g.name, k)


# -- r-matrix checks ------------------------------------------------------------------


def test_coboundary_sl2_sl3():
    for n in (2, 3):
        g = sl_chevalley(n)
        assert coboundary_check(g, standard_r_matrix(g)).ok


def test_coboundary_zero_r():
    g = sl_chevalley(2)
    assert coboundary_check(g, AlgElement.zero(g, 2)).ok


def test_symmetric_bialgebra_sl_and_su():
    for g in (sl_chevalley(2), sl_chevalley(3), su_compact_basis(2), su_compact_basis(3)):
        assert symmetric_bialgebra_check(g, standard_r_matrix(g), transpose_antimorphism(g)).ok


def test_symmetric_fails_for_identity_map():
    from poissonkit.liealg import LinearAlgMap
    from poissonkit import linalg

    g = sl_chevalley(2)
    ident = LinearAlgMap(g, g, tuple(tuple(row) for row in linalg.identity(g.dim)))
    rep = symmetric_bialgebra_check(g, standard_r_matrix(g), ident)
    assert not rep.ok
    assert any("anti-morphism" in msg for msg in rep.witness)


def test_phi_fixes_cartan_pointwise():
    for g in (sl_chevalley(2), sl_chevalley(3)):
        phi = transpose_antimorphism(g)
        for h_idx in g.root_data.cartan:
            col = [phi.matrix[i][h_idx] for i in range(g.dim)]
            assert col[h_idx] == Scalar(1)
            assert all(c.is_zero() for i, c in enumerate(col) if i != h_idx)


def _ref_phi_table(g, compact):
    """The transpose anti-morphism coded per basis: on the Chevalley basis it swaps e_a with
    f_a and fixes the Cartan; on the compact basis it sends X_a to -X_a and fixes Y_a and t_m."""
    mat = [[Scalar(1) if i == j else Scalar(0) for j in range(g.dim)] for i in range(g.dim)]
    for info in g.root_data.roots:
        if compact:
            mat[info.e_index][info.e_index] = Scalar(-1)
        else:
            mat[info.e_index][info.e_index] = mat[info.f_index][info.f_index] = Scalar(0)
            mat[info.e_index][info.f_index] = mat[info.f_index][info.e_index] = Scalar(1)
    return tuple(tuple(row) for row in mat)


def test_transpose_antimorphism_matches_basis_table():
    cases = [(sl_chevalley(n), False) for n in (2, 3, 4)] + [(su_compact_basis(n), True) for n in (2, 3)]
    for g, compact in cases:
        phi = transpose_antimorphism(g)
        assert phi.matrix == _ref_phi_table(g, compact), g.name
        assert phi.is_involution(), g.name


def test_transpose_antimorphism_needs_a_matrix_basis():
    with pytest.raises(ValueError, match="no matrix basis"):
        transpose_antimorphism(so3())


# -- Drinfeld double --------------------------------------------------------------------


def test_double_abelian():
    g = abelian(2)
    dd = drinfeld_double(g, AlgElement.zero(g, 2))
    assert dd.sigma.dim == 4
    assert not dd.sigma.table  # abelian double
    assert validate_lie(dd.sigma).ok


def test_double_sl2():
    g = sl_chevalley(2)
    dd = drinfeld_double(g, standard_r_matrix(g))
    assert dd.sigma.dim == 6
    assert validate_lie(dd.sigma).ok
    # r_sigma = sum X_i ^ xi^i
    assert dd.r_sigma.comps == {(i, 3 + i): Scalar(1) for i in range(3)}


def test_double_pairing_invariance_sweep():
    g = sl_chevalley(2)
    dd = drinfeld_double(g, standard_r_matrix(g))
    dim = dd.sigma.dim
    basis = [[Scalar(1) if a == i else Scalar(0) for a in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = double_pairing(dd, dd.sigma.bracket_vectors(basis[i], basis[j]), basis[k])
                rhs = double_pairing(dd, basis[j], dd.sigma.bracket_vectors(basis[i], basis[k]))
                assert (Scalar.coerce(lhs) + Scalar.coerce(rhs)).is_zero()


def test_double_dual_block_jacobi():
    # the dual structure constants inside sigma satisfy Jacobi on their own:
    # restrict the validated double to the g* block
    g = sl_chevalley(2)
    dd = drinfeld_double(g, standard_r_matrix(g))
    n = g.dim
    table = {}
    for (i, j), entry in dd.sigma.table.items():
        if i >= n and j >= n:
            sub_entry = {k - n: c for k, c in entry.items() if k >= n}
            if any(k < n for k in entry):
                raise AssertionError("dual block is not closed")
            if sub_entry:
                table[(i - n, j - n)] = sub_entry
    dual = LieAlgebraData([f"{x}*" for x in g.labels], table)
    assert validate_lie(dual).ok


# the double is a Lie algebra exactly when [r, r] is ad-invariant; on sl2, su2 and so3 every
# r in Lambda^2 g is an r-matrix (Lambda^3 g is the invariant line), on sl3 most sparse r are not
_R_ALGEBRAS = {name: (g, standard_r_matrix(g))
               for name, g in (("sl2", sl_chevalley(2)), ("sl3", sl_chevalley(3)), ("su2", su_compact_basis(2)))}
_R_ALGEBRAS.update(so3=(so3(), None))  # (algebra, standard r); so3 has none
_GAUSSIAN_INTEGERS = [Scalar(1), Scalar(-1), Scalar(2), Scalar(0, 1), Scalar(1, -1), Scalar(-3, 2)]


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(_R_ALGEBRAS)), kind=st.sampled_from(["zero", "standard", "sparse"]),
       data=st.data())
def test_double_raises_exactly_when_r_is_not_an_r_matrix(name, kind, data):
    g, standard = _R_ALGEBRAS[name]
    if kind == "zero":
        r = AlgElement.zero(g, 2)
    elif kind == "standard" and standard is not None:
        r = standard * data.draw(st.sampled_from(_GAUSSIAN_INTEGERS))
    else:
        keys = data.draw(st.lists(st.sampled_from(list(combinations(range(g.dim), 2))), min_size=1, max_size=3,
                                  unique=True))
        r = AlgElement(g, 2, {key: data.draw(st.sampled_from(_GAUSSIAN_INTEGERS)) for key in keys})
    cob = coboundary_check(g, r)
    if cob.ok:
        assert validate_lie(drinfeld_double(g, r).sigma).ok
    else:
        with pytest.raises(ValueError) as err:
            drinfeld_double(g, r)
        assert str(err.value) == f"r is not an r-matrix: {cob.reason}"


def test_double_of_a_non_r_matrix_raises_value_error():
    g = sl_chevalley(3)
    r = AlgElement(g, 2, {(g.labels.index("e12"), g.labels.index("f12")): Scalar(1)})
    cob = coboundary_check(g, r)
    assert not cob.ok
    with pytest.raises(ValueError) as err:
        drinfeld_double(g, r)
    assert str(err.value) == f"r is not an r-matrix: {cob.reason}"


def test_double_rejects_r_that_is_not_a_bivector_of_g():
    g = sl_chevalley(2)
    with pytest.raises(ValueError, match="^r does not live in g$"):
        drinfeld_double(g, standard_r_matrix(sl_chevalley(2)))
    with pytest.raises(ValueError, match="^r must be a bivector$"):
        drinfeld_double(g, AlgElement(g, 3, {(0, 1, 2): Scalar(1)}))


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "su2", "su3"])
def test_lie_bialgebra_checks_the_r_matrix_once(name, monkeypatch, capsys):
    # the double's Jacobi sweep is the second route to the r-matrix condition, so only the handler
    # runs coboundary_check; alg_schouten runs for [r, r], its dim ad-actions and the dim cobrackets
    counts = counted_calls(monkeypatch, liealg, ("coboundary_check", "alg_schouten"))
    code, report = run_command(["lie", "bialgebra", "--algebra", name])
    assert code == 0 and "pass" in capsys.readouterr().out
    dim = report.values["double_dim"] // 2
    assert counts == {"coboundary_check": 1, "alg_schouten": 2 * dim + 1}


@pytest.mark.parametrize("name, double_dim", [("sl2", 6), ("sl3", 16), ("sl4", 30), ("su2", 6), ("su3", 16)])
def test_lie_bialgebra_porcelain_is_pinned(name, double_dim, capsys):
    # the handler reads every algebra's r-matrix from its root data, su(n) included
    assert run_command(["--porcelain", "lie", "bialgebra", "--algebra", name])[0] == 0
    assert capsys.readouterr().out == (
        f"algebra={name}\ncoboundary=True\nsymmetric=True\ndouble_dim={double_dim}\nchi=True\npass=True\n")


# -- chi -----------------------------------------------------------------------------


def test_chi_sl2_sl3():
    for n in (2, 3):
        g = sl_chevalley(n)
        dd = drinfeld_double(g, standard_r_matrix(g))
        assert chi_check(dd, transpose_antimorphism(g)).ok


def test_chi_abelian_negated_identity():
    from poissonkit.liealg import LinearAlgMap

    g = abelian(2)
    dd = drinfeld_double(g, AlgElement.zero(g, 2))
    rows = [[Scalar(-1) if i == j else Scalar(0) for j in range(2)] for i in range(2)]
    phi = LinearAlgMap(g, g, tuple(tuple(r) for r in rows))
    assert chi_check(dd, phi).ok


def test_chi_su_doubles():
    for n in (2, 3):
        g = su_compact_basis(n)
        dd = drinfeld_double(g, standard_r_matrix(g))
        assert chi_check(dd, transpose_antimorphism(g)).ok


# -- one elimination per algebra, sparse sweeps ---------------------------------------


def _per_pair_expand(matrices):
    """Reference route: dense commutators, one linalg.solve per bracket pair, then a dense residual."""
    from poissonkit import linalg

    dim, n = len(matrices), len(matrices[0])
    basis_cols = [[m[r][c] for m in matrices] for r in range(n) for c in range(n)]
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            x, y = matrices[i], matrices[j]
            comm = linalg.mat_sub(linalg.mat_mul(x, y), linalg.mat_mul(y, x))
            vec = [comm[r][c] for r in range(n) for c in range(n)]
            coords = linalg.solve(basis_cols, vec)
            assert coords is not None
            for row in range(len(vec)):
                assert sum((basis_cols[row][k] * coords[k] for k in range(dim)), Scalar(0)) == vec[row]
            entry = {k: c for k, c in enumerate(coords) if not c.is_zero()}
            if entry:
                brackets[(i, j)] = entry
    return brackets


def _as_text(brackets):
    return {pair: {k: str(c) for k, c in entry.items()} for pair, entry in brackets.items()}


def test_expand_table_matches_per_pair_solves():
    from poissonkit.liealg import _expand_table

    algebras = [sl_chevalley(n) for n in (2, 3, 4, 5)] + [su_compact_basis(n) for n in (2, 3, 4)]
    for g in algebras:
        reference = _as_text(_per_pair_expand(g.matrices))
        assert _as_text(_expand_table(g.matrices)) == reference, g.name
        assert _as_text({(i, j): e for (i, j), e in g.table.items() if i < j}) == reference, g.name


def test_expand_table_rejects_a_basis_that_misses_commutators():
    from poissonkit.liealg import _expand_table

    g = sl_chevalley(2)
    e, f = g.labels.index("e12"), g.labels.index("f12")
    # span{e, f} does not contain [e, f] = h
    with pytest.raises(AssertionError, match="left the span"):
        _expand_table([g.matrices[e], g.matrices[f]])


def _dense_chi_failures(double, phi):
    """chi_check as dense sweeps over full coefficient vectors (reference route)."""
    from poissonkit.liealg import chi_map

    sigma, n = double.sigma, double.n
    dim = sigma.dim
    zero = Scalar(0)

    def bracket(u, v):
        out = [zero] * dim
        for i in range(dim):
            for j in range(dim):
                for k, c in sigma.table.get((i, j), {}).items():
                    out[k] = out[k] + u[i] * v[j] * c
        return out

    def pairing(u, v):
        return sum((u[a] * v[n + a] + u[n + a] * v[a] for a in range(n)), zero)

    chi = chi_map(double, phi)
    failures = [] if chi.is_involution() else ["chi^2 != id"]
    for i in range(dim):
        vi = [chi.matrix[a][i] for a in range(dim)]
        ei = [Scalar(int(a == i)) for a in range(dim)]
        for j in range(i + 1, dim):
            vj = [chi.matrix[a][j] for a in range(dim)]
            ej = [Scalar(int(a == j)) for a in range(dim)]
            bij = bracket(ei, ej)
            lhs = [sum((chi.matrix[a][b] * bij[b] for b in range(dim)), zero) for a in range(dim)]
            if lhs != [-c for c in bracket(vi, vj)]:
                failures.append(f"chi anti-morphism fails on ({sigma.labels[i]}, {sigma.labels[j]})")
        for j in range(dim):
            vj = [chi.matrix[a][j] for a in range(dim)]
            ej = [Scalar(int(a == j)) for a in range(dim)]
            if not (pairing(vi, vj) + pairing(ei, ej)).is_zero():
                failures.append(f"pairing flip fails on ({sigma.labels[i]}, {sigma.labels[j]})")
    return tuple(failures)


def test_chi_check_negative_controls_match_dense_sweep():
    from poissonkit import linalg
    from poissonkit.liealg import LinearAlgMap

    g = sl_chevalley(3)
    dd = drinfeld_double(g, standard_r_matrix(g))
    ident = linalg.identity(g.dim)
    failures = {}
    for name, rows in (("identity", ident), ("twice", linalg.mat_scale(ident, 2))):
        phi = LinearAlgMap(g, g, tuple(tuple(row) for row in rows))
        failures[name] = chi_check(dd, phi).witness
        assert failures[name] == _dense_chi_failures(dd, phi)
    # the identity is an involutive morphism: only the anti-morphism identity fails
    assert failures["identity"] and all("anti-morphism" in msg for msg in failures["identity"])
    kinds = {msg.split(" fails")[0] for msg in failures["twice"]}
    assert kinds == {"chi^2 != id", "chi anti-morphism", "pairing flip"}
    phi = transpose_antimorphism(g)
    assert chi_check(dd, phi).ok and _dense_chi_failures(dd, phi) == ()


def test_sparse_vector_routines_match_dense_formulas():
    from poissonkit import linalg
    from poissonkit.liealg import LinearAlgMap

    rng = random.Random(7)
    g = sl_chevalley(3)
    dd = drinfeld_double(g, standard_r_matrix(g))
    n, dim = g.dim, dd.sigma.dim

    def vec(size):
        return [Scalar(rng.choice((0, 0, 1, -2, 3))) for _ in range(size)]

    rows = [vec(n) for _ in range(n)]
    phi = LinearAlgMap(g, g, tuple(map(tuple, rows)))
    for _ in range(20):
        u, v = vec(n), vec(n)
        assert apply_vector(phi, u) == linalg.mat_vec(rows, u)
        dense = [Scalar(0)] * n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    dense[k] = dense[k] + u[i] * v[j] * structure_constant(g, i, j, k)
        assert g.bracket_vectors(u, v) == dense
        x, y = vec(dim), vec(dim)
        assert double_pairing(dd, x, y) == sum((x[a] * y[n + a] + x[n + a] * y[a] for a in range(n)), Scalar(0))


def test_sparse_supports_drop_cancelled_entries():
    # the anti-morphism sweep compares these dicts, so a cancelled entry must not linger as a zero
    from poissonkit.liealg import LinearAlgMap

    g = sl_chevalley(2)
    e, f, h = (g.labels.index(k) for k in ("e12", "f12", "h1"))
    one = Scalar(1)
    assert g._bracket_supports([(e, one), (f, one)], [(e, one), (f, one)]) == {}
    rows = [[Scalar(int(i == j)) for j in range(g.dim)] for i in range(g.dim)]
    rows[e][f] = Scalar(-1)  # f -> f - e
    phi = LinearAlgMap(g, g, tuple(map(tuple, rows)))
    assert phi._apply_support([(e, one), (f, one)]) == {f: one}


def test_double_pairing_sweep_catches_a_tampered_mixed_bracket(monkeypatch):
    from poissonkit import liealg

    g = sl_chevalley(2)
    r = standard_r_matrix(g)
    build = LieAlgebraData.from_brackets

    def tampered(labels, brackets, *args, **kwargs):
        if kwargs.get("name", "").startswith("double"):
            n = len(labels) // 2
            key = min(pair for pair in brackets if pair[0] < n <= pair[1])
            entry = dict(brackets[key])
            m = min(entry)
            entry[m] = entry[m] + 1
            brackets = {**brackets, key: entry}
        return build(labels, brackets, *args, **kwargs)

    monkeypatch.setattr(LieAlgebraData, "from_brackets", staticmethod(tampered))
    with pytest.raises(AssertionError):
        drinfeld_double(g, r)
    # with the Jacobi sweep out of the way, the pairing sweep alone must catch it
    monkeypatch.setattr(liealg, "validate_lie", lambda alg: Report(True))
    with pytest.raises(AssertionError, match="pairing is not invariant"):
        drinfeld_double(g, r)
    monkeypatch.setattr(LieAlgebraData, "from_brackets", staticmethod(build))
    assert drinfeld_double(g, r).sigma.dim == 6


# -- sparse kernels against today's routes ---------------------------------------------

_SL2 = sl_chevalley(2)
_SL3 = sl_chevalley(3)
_PERTURBED = {
    "sl2": _SL2,
    "sl3": _SL3,
    "su2": su_compact_basis(2),
    "su3": su_compact_basis(3),
    "double(sl3)": drinfeld_double(_SL3, standard_r_matrix(_SL3)).sigma,
}
_DELTAS = [Scalar(1), Scalar(-2), Scalar(Fraction(1, 2)), Scalar(0, 1), Scalar(1, -1)]


_MAP_ENTRIES = [Scalar(0)] * 4 + [Scalar(1), Scalar(-1), Scalar(2), Scalar(Fraction(1, 2)), Scalar(0, 1)]


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(["sl3", "su3"]), degree=st.integers(0, 3), transpose=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_apply_matches_the_wedge_of_images(name, degree, transpose, seed):
    # LinearAlgMap.apply carries the legs in one pass; the reference wedges the images of the legs one
    # at a time, on the transpose and on random invertible maps (unit lower times unit upper triangular)
    from poissonkit import linalg
    from poissonkit.liealg import LinearAlgMap

    g = _PERTURBED[name]
    rng = make_rng(seed)
    if transpose:
        phi = transpose_antimorphism(g)
    else:
        lower = [[Scalar(1) if r == c else rng.choice(_MAP_ENTRIES) if r > c else Scalar(0)
                  for c in range(g.dim)] for r in range(g.dim)]
        upper = linalg.transpose([[Scalar(1) if r == c else rng.choice(_MAP_ENTRIES) if r > c else Scalar(0)
                                   for c in range(g.dim)] for r in range(g.dim)])
        phi = LinearAlgMap.from_rows(g, g, linalg.mat_mul(lower, upper))
    elem = rand_alg_element(rng, g, degree, 0.3)
    assert phi.apply(elem) == apply_by_wedges(phi, elem)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_PERTURBED)), data=st.data())
def test_sparse_jacobi_sweep_matches_the_triple_loop(name, data):
    # one antisymmetric pair c_ij^k, c_ji^k moves by +-delta (mostly), or c_ij^k alone;
    # a moved constant may become zero, and a pair that was absent appears
    g = _PERTURBED[name]
    i, j = sorted(data.draw(st.lists(st.integers(0, g.dim - 1), min_size=2, max_size=2, unique=True)))
    k = data.draw(st.integers(0, g.dim - 1))
    old = structure_constant(g, i, j, k)
    delta = data.draw(st.sampled_from(_DELTAS + ([-old] if old else [])))
    table = {pair: dict(entry) for pair, entry in g.table.items()}
    table.setdefault((i, j), {})[k] = old + delta
    if data.draw(st.integers(0, 4)):
        table.setdefault((j, i), {})[k] = -(old + delta)
    bad = LieAlgebraData(g.labels, table)
    got, want = validate_lie(bad), validate_lie_reference(bad)
    assert (got.ok, got.reason, got.witness) == (want.ok, want.reason, want.witness)


def test_sparse_jacobi_sweep_passes_every_builtin_and_double():
    for g in _PERTURBED.values():
        assert validate_lie(g).ok and validate_lie_reference(g).ok, g.name


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_coordinates_residual_catches_a_changed_coordinate(monkeypatch, position):
    from poissonkit import linalg

    solve = linalg.solve

    def off_by_one(a, b):
        x = solve(a, b)
        row = {"first": 0, "middle": len(x) // 2, "last": len(x) - 1}[position]
        col = {"first": 0, "middle": len(x[row]) // 2, "last": len(x[row]) - 1}[position]
        x[row][col] = x[row][col] + 1
        return x

    monkeypatch.setattr(linalg, "solve", off_by_one)
    with pytest.raises(AssertionError, match="inconsistent expansion"):
        sl_chevalley(3)


@settings(max_examples=60, deadline=None)
@given(entries=st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)]), min_size=9, max_size=9))
def test_chi_check_matches_the_dense_sweep_for_any_phi(entries):
    # the pairing flip is checked only where the dual index reaches; every failing pair must still be listed
    from poissonkit.liealg import LinearAlgMap

    dd = drinfeld_double(_SL2, standard_r_matrix(_SL2))
    phi = LinearAlgMap.from_rows(_SL2, _SL2, [entries[3 * i : 3 * i + 3] for i in range(3)])
    assert (chi_check(dd, phi).witness or ()) == _dense_chi_failures(dd, phi)


_SU2 = su_compact_basis(2)
_COEFFS = [Scalar(0), Scalar(1), Scalar(-1), Scalar(2), Scalar(Fraction(-1, 2)), Scalar(0, 1), Scalar(1, 1)]
# the other wedge type: multivector fields on the chart of 3 coordinates, with polynomial components
_CHART = 3
_X = [Poly.var(_CHART, j) for j in range(_CHART)]
_POLY_COEFFS = [Poly.const(_CHART, c) for c in _COEFFS] + [_X[0], _X[1] * Scalar(0, 1) - _X[2], _X[0] * _X[2] + 1]


def _elements(g, degrees=st.integers(0, 3)):
    """Wedge elements through the public constructor: AlgElements of an algebra g, or
    PolyMultiVecs on the chart of g coordinates.  One coefficient per increasing index
    tuple drawn, zeros among them, so zero elements of every degree occur."""
    chart = isinstance(g, int)
    dim = g if chart else g.dim

    def build(degree):
        keys = list(combinations(range(dim), degree))
        coeffs = st.lists(st.sampled_from(_POLY_COEFFS if chart else _COEFFS), min_size=len(keys), max_size=len(keys))
        return coeffs.map(lambda cs: (PolyMultiVec if chart else AlgElement)(g, degree, dict(zip(keys, cs))))

    return degrees.flatmap(build)


@settings(max_examples=200, deadline=None)
@given(g=st.sampled_from([_SL2, _CHART]), data=st.data())
def test_alg_element_equal_elements_hash_equal(g, data):
    a, b = data.draw(_elements(g)), data.draw(_elements(g))
    if a == b:
        assert hash(a) == hash(b)
    assert (a == b) == (a.comps == b.comps)


def test_zeros_of_every_degree_are_one_set_member():
    g = _SL2
    zeros = {AlgElement.zero(g, d) for d in range(4)} | {AlgElement.basis(g, 0) - AlgElement.basis(g, 0)}
    assert len(zeros) == 1


@settings(max_examples=150, deadline=None)
@given(g=st.sampled_from([_SL2, _SU2, _CHART]), data=st.data())
def test_internal_results_are_valid_alg_elements(g, data):
    a = data.draw(_elements(g))
    b = data.draw(_elements(g, st.just(a.degree)))
    c = data.draw(st.sampled_from(_COEFFS + [0, 3, Fraction(2, 3)]))
    bracket = schouten if g is _CHART else alg_schouten
    results = [a.wedge(b), bracket(a, b), a + b, a - b, -a, a + a, a - a, a * c, c * b]
    results.append(type(a).from_terms(g, a.degree, [(idxs[::-1], coeff) for idxs, coeff in a.comps.items()]))
    if g is _CHART:
        # the chart type's own operations: a polynomial factor, d/dx_j, and the projection onto
        # the coordinates ``keep``, the others frozen at 1
        keep = data.draw(st.permutations(range(_CHART)))[: data.draw(st.integers(1, _CHART))]
        images = [Poly.var(len(keep), keep.index(i)) if i in keep else Poly.const(len(keep), 1) for i in range(_CHART)]
        results += [bracket(a, a), a * _X[1], a.diff(data.draw(st.integers(0, _CHART - 1))), a.project(keep, images)]
    for x in results:
        assert all(isinstance(coeff, type(x)._ring) and coeff for coeff in x.comps.values())
        assert type(x)(x.space, x.degree, x.comps) == x
