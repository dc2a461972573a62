"""Aligned Dirac criterion, fixed loci, affine Lie-Poisson subspaces, slices."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import abelian, counted_calls, make_rng, poly_at, pushforward_linear, rank
from poissonkit import linalg
from poissonkit.cli import run_command
from poissonkit.dirac import (
    AlignedSubmanifold,
    LinearInvolution,
    affine_lie_poisson_dirac,
    check_aligned_dirac,
    fixed_locus_symbolic,
    leaf_slice_obstruction,
    transverse_from_reductive,
)
from poissonkit.exactalg import Poly, PolyMultiVec, Scalar, schouten
from poissonkit.liealg import builtin_algebra, lie_poisson_chart, transpose_antimorphism
from poissonkit.dirac import _monomials_up_to, _pushforward
from poissonkit.oracle import rand_multivec, rand_poly
from poissonkit import dirac
from poissonkit.poisson import PoissonChart, bracket, jacobiator, modular_vf


def product_chart():
    pi = PolyMultiVec(4, 2, {(0, 1): Poly.const(4, 1), (2, 3): Poly.const(4, 1)})
    return PoissonChart(4, ("x1", "x2", "x3", "x4"), pi)


def aligned(chart, xs):
    ys = tuple(i for i in range(chart.dim) if i not in xs)
    return AlignedSubmanifold(chart, tuple(xs), ys)


# -- aligned criterion ---------------------------------------------------------


def test_aligned_pass_symplectic_complement():
    sub = aligned(product_chart(), (0, 1))
    assert check_aligned_dirac(sub).ok
    assert check_aligned_dirac(sub).values["induced"].pi.comps == {(0, 1): Poly.const(2, 1)}


def test_aligned_fail_isotropic_complement():
    # pairing x1 with x4 splits both symplectic blocks: {x1, x2} = 1 survives
    sub = aligned(product_chart(), (0, 3))
    verdict = check_aligned_dirac(sub)
    assert not verdict.ok
    assert verdict.witness == ((0, 1), Poly.const(4, 1))


def test_aligned_so3_axis():
    chart = lie_poisson_chart(builtin_algebra("so3"))
    sub = aligned(chart, (2,))
    assert check_aligned_dirac(sub).ok
    ind = check_aligned_dirac(sub).values["induced"]
    assert ind.dim == 1 and ind.pi.is_zero()


def test_aligned_whole_chart_and_point():
    chart = product_chart()
    whole = aligned(chart, (0, 1, 2, 3))
    assert check_aligned_dirac(whole).ok
    assert check_aligned_dirac(whole).values["induced"].pi == chart.pi
    point = aligned(chart, ())
    assert check_aligned_dirac(point).ok
    assert check_aligned_dirac(point).values["induced"].dim == 0


def test_aligned_rejects_non_poisson_chart():
    pi = PolyMultiVec(3, 2, {(0, 1): Poly.var(3, 2), (1, 2): Poly.var(3, 1)})
    chart = PoissonChart(3, ("x1", "x2", "x3"), pi)
    verdict = check_aligned_dirac(aligned(chart, (0, 1)))
    assert not verdict.ok and "not Poisson" in verdict.reason
    assert verdict.witness == ((0, 1, 2), Poly.var(3, 2) + Poly.var(3, 2))


def test_aligned_dphi_condition():
    # {x1, x2} = 1 + y^2 passes; {x1, x2} = 1 + y fails the derivative test
    for power, expect in ((2, True), (1, False)):
        pi = PolyMultiVec(3, 2, {(0, 1): Poly.const(3, 1) + Poly.var(3, 2) ** power})
        chart = PoissonChart(3, ("x1", "x2", "y"), pi)
        assert check_aligned_dirac(aligned(chart, (0, 1))).ok is expect


def test_induced_always_poisson():
    # whenever the criterion passes, the induced chart satisfies Jacobi
    cases = [
        (product_chart(), (0, 1)),
        (lie_poisson_chart(builtin_algebra("so3")), (2,)),
        (lie_poisson_chart(builtin_algebra("sl2")), (2,)),
    ]
    pi = PolyMultiVec(4, 2, {(0, 1): Poly.const(4, 1), (2, 3): Poly.var(4, 2) * Poly.var(4, 3)})
    cases.append((PoissonChart(4, ("x1", "x2", "y1", "y2"), pi), (0, 1)))
    for chart, xs in cases:
        sub = aligned(chart, xs)
        if check_aligned_dirac(sub).ok:
            assert jacobiator(check_aligned_dirac(sub).values["induced"]).is_zero()


# -- rank relation (exact) -------------------------------------------------------


def _sharp_matrix_at(chart, point):
    n = chart.dim
    mat = [[Scalar(0)] * n for _ in range(n)]
    for (i, j), poly in chart.pi.comps.items():
        val = poly_at(poly, point)
        mat[i][j] = mat[i][j] + val
        mat[j][i] = mat[j][i] - val
    return mat


def test_rank_relation_exact_points():
    # rank pi_Q^#(x) == dim( pi^#(T*P) intersect span of the x-block )
    cases = [
        (product_chart(), (0, 1)),
        (lie_poisson_chart(builtin_algebra("so3")), (2,)),
    ]
    pi = PolyMultiVec(4, 2, {(0, 1): Poly.const(4, 1), (2, 3): Poly.var(4, 2) * Poly.var(4, 3)})
    cases.append((PoissonChart(4, ("x1", "x2", "y1", "y2"), pi), (0, 1)))
    rng = make_rng(55)
    for chart, xs in cases:
        sub = aligned(chart, xs)
        ind = check_aligned_dirac(sub).values["induced"]
        for _ in range(12):
            point = [Scalar(rng.randint(-3, 3)) for _ in range(chart.dim)]
            for y in sub.y_indices:  # points of Q
                point[y] = Scalar(0)
            amb = _sharp_matrix_at(chart, point)
            q_point = [point[i] for i in sub.x_indices]
            ind_rank = rank(_sharp_matrix_at(ind, q_point))
            # columns of the ambient sharp, joined with the x-block axes
            image_cols = [[amb[i][j] for i in range(chart.dim)] for j in range(chart.dim)]
            x_axes = [
                [Scalar(1) if i == x else Scalar(0) for i in range(chart.dim)]
                for x in sub.x_indices
            ]
            rank_img = rank(linalg.transpose(image_cols))
            rank_join = rank(linalg.transpose(image_cols + x_axes))
            dim_intersect = rank_img + len(x_axes) - rank_join
            assert ind_rank == dim_intersect


# -- linear involutions ----------------------------------------------------------


def test_involution_validation():
    with pytest.raises(ValueError):
        LinearInvolution.from_rows([[1, 1], [0, 1]])


def fixed_locus(chart, s):
    """(aligned submanifold, induced chart) of a passing ``fixed_locus_symbolic``."""
    verdict = fixed_locus_symbolic(chart, s)
    assert verdict.ok, verdict.reason
    return verdict.values["submanifold"], verdict.values["induced"]


def test_fixed_locus_identity():
    chart = product_chart()
    s = LinearInvolution.from_rows(linalg.identity(4))
    sub, ind = fixed_locus(chart, s)
    assert len(sub.x_indices) == 4
    # the eigen-chart of the identity is a permutation of the original
    assert not ind.pi.is_zero()
    assert jacobiator(ind).is_zero()


def test_fixed_locus_plane_reflection():
    # S(x, y) = (x, -y) preserves pi = y d1^d2; the fixed chart is the
    # x-axis, one-dimensional, so the induced structure vanishes
    chart = PoissonChart(2, ("x", "y"), PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 1)))
    s = LinearInvolution.from_rows([[1, 0], [0, -1]])
    sub, ind = fixed_locus(chart, s)
    assert len(sub.x_indices) == 1
    assert ind.pi.is_zero()


def test_fixed_locus_rejects_anti_poisson_reflection():
    # the same reflection is anti-Poisson for the constant symplectic
    # structure: S_* pi = -pi, so the invariance precondition fails
    chart = PoissonChart(2, ("x", "y"), PolyMultiVec.monomial(2, (0, 1), Poly.const(2, 1)))
    s = LinearInvolution.from_rows([[1, 0], [0, -1]])
    verdict = fixed_locus_symbolic(chart, s)
    assert not verdict.ok and "not a Poisson involution" in verdict.reason
    assert verdict.witness == ((0, 1), Poly.const(2, -2))  # S_* pi - pi = -2 d1^d2


def test_fixed_locus_so3():
    chart = lie_poisson_chart(builtin_algebra("so3"))
    s = LinearInvolution.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    pushed = pushforward_linear(chart.pi, s.rows())
    assert pushed == chart.pi  # S_* pi = pi, termwise
    sub, ind = fixed_locus(chart, s)
    assert len(sub.x_indices) == 1
    assert ind.pi.is_zero()


def test_fixed_locus_rejects_non_invariant():
    chart = lie_poisson_chart(builtin_algebra("so3"))
    s = LinearInvolution.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    verdict = fixed_locus_symbolic(chart, s)
    assert not verdict.ok and "not a Poisson involution" in verdict.reason
    assert verdict.witness == ((0, 1), Poly.var(3, 2) * Poly.const(3, -2))  # {x1, x2} = x3 flips sign


def test_fixed_locus_rejects_non_poisson_chart_in_input_coordinates():
    # S = diag(-1, -1, 1) preserves x3 d1^d2 + x2 d2^d3, which is not Poisson; the witness is the
    # input chart's Jacobiator component, as check_aligned_dirac gives it, not the eigen-chart's
    pi = PolyMultiVec(3, 2, {(0, 1): Poly.var(3, 2), (1, 2): Poly.var(3, 1)})
    chart = PoissonChart(3, ("x1", "x2", "x3"), pi)
    verdict = fixed_locus_symbolic(chart, LinearInvolution.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]))
    assert not verdict.ok and verdict.reason == "chart is not Poisson"
    assert verdict.witness == ((0, 1, 2), Poly.var(3, 2) + Poly.var(3, 2))
    assert verdict.witness == check_aligned_dirac(aligned(chart, (0, 1))).witness


def _gl_chart(n):
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


def _transpose_rows(n, sign):
    """X -> sign X^T on the coordinates of ``_gl_chart(n)``."""
    m = n * n
    rows = [[0] * m for _ in range(m)]
    for i in range(n):
        for j in range(n):
            rows[j * n + i][i * n + j] = sign
    return rows


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fixed_locus_of_minus_transpose_on_gl_is_so(n):
    # X -> -X^T is an automorphism of gl(n), so its dual is a Poisson involution of gl(n)*; the fixed
    # locus is the skew matrices, so(n)* of dimension n(n-1)/2, unimodular.  X -> X^T reverses
    # brackets, so it is anti-Poisson and fails the invariance check.  The eigenbasis pairs x_ij
    # with x_ji, so P^-1 has the halves that run the kernel on Fractions
    chart = _gl_chart(n)
    verdict = fixed_locus_symbolic(chart, LinearInvolution.from_rows(_transpose_rows(n, -1)))
    assert verdict.ok, verdict.reason
    induced = verdict.values["induced"]
    assert len(verdict.values["submanifold"].x_indices) == induced.dim == n * (n - 1) // 2
    assert modular_vf(induced).is_zero()
    assert jacobiator(induced).is_zero()
    if n > 2:  # so(2)* is a line, with the zero bracket
        assert not induced.pi.is_zero()
    control = fixed_locus_symbolic(chart, LinearInvolution.from_rows(_transpose_rows(n, 1)))
    assert not control.ok and control.reason == "S is not a Poisson involution"


def test_fixed_locus_forms_no_jacobiator_on_the_eigen_chart(monkeypatch):
    # [P^* pi, P^* pi] = P^* [pi, pi]: the input chart's Jacobiator decides Poisson-ness, and the
    # only other one is the induced chart's assertion
    seen = []

    def recording(chart):
        seen.append(chart)
        return jacobiator(chart)

    monkeypatch.setattr(dirac, "jacobiator", recording)
    chart = _gl_chart(3)
    verdict = fixed_locus_symbolic(chart, LinearInvolution.from_rows(_transpose_rows(3, -1)))
    assert verdict.ok
    assert len(seen) == 2 and seen[0] is chart and seen[1] is verdict.values["induced"]
    # the aligned criterion alone still checks its own chart first
    seen.clear()
    sub = aligned(product_chart(), (0, 1))
    assert check_aligned_dirac(sub).ok and seen[0] is sub.chart and len(seen) == 2


def _eigenbasis(verdict, s):
    """The change of basis P of a passing ``fixed_locus_symbolic``, read from its values, and the
    count k of its +1 eigenvectors.  Both routes agree for any invertible P, so P is pinned here:
    S P = P diag(I_k, -I) and P is invertible."""
    p, k = verdict.values["eigenbasis"], len(verdict.values["submanifold"].x_indices)
    n = len(s)
    signs = [[Scalar(1 if i == j < k else -1 if i == j else 0) for j in range(n)] for i in range(n)]
    assert linalg.mat_eq(linalg.mat_mul(s, p), linalg.mat_mul(p, signs))
    assert linalg.inverse(p) is not None
    return p, k


def _involution_eigenbasis(s):
    """``_eigenbasis`` of S, read from ``fixed_locus_symbolic`` on the zero chart, which every S preserves."""
    n = len(s)
    zero = PoissonChart(n, tuple(f"x{i + 1}" for i in range(n)), PolyMultiVec.zero(n, 2))
    return _eigenbasis(fixed_locus_symbolic(zero, LinearInvolution.from_rows(s)), s)


def _linear_forms(rows, nvars):
    """The linear polynomials sum_j rows[i][j] x_j, one per row."""
    return [sum((Poly.var(nvars, j) * c for j, c in enumerate(row)), Poly.zero(nvars)) for row in rows]


def _bracket_route(chart, p, k):
    """pi_Q from the brackets of the S-invariant coordinates z_a = (P^-1 x)_a, a in the +1
    eigenspace: {z_a, z_b} by ``poisson.bracket`` on the input chart, composed onto Q by
    x = P (z+, 0).  No pushforward and no leg is formed.  The components a < b, on Q."""
    z = _linear_forms(linalg.inverse(p)[:k], chart.dim)
    onto_q = _linear_forms([row[:k] for row in p], k)
    return {(a, b): bracket(chart, z[a], z[b]).compose(onto_q) for a in range(k) for b in range(a + 1, k)}


def _assert_routes_agree(chart, s):
    verdict = fixed_locus_symbolic(chart, LinearInvolution.from_rows(s))
    assert verdict.ok, verdict.reason
    ind = verdict.values["induced"]
    route = _bracket_route(chart, *_eigenbasis(verdict, s))
    assert set(ind.pi.comps) <= set(route)
    assert {idx: ind.pi.component(idx) for idx in route} == route


def test_fixed_locus_two_routes_agree():
    # the pushforward to the eigen-chart restricted to Q, against the brackets of the invariant
    # coordinates on the input chart
    sl3 = builtin_algebra("sl3")
    charts = [
        (lie_poisson_chart(builtin_algebra("so3")), [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
        (PoissonChart(2, ("x", "y"), PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 1))), [[1, 0], [0, -1]]),
        (product_chart(), [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]),
        (lie_poisson_chart(sl3), [[-c for c in row] for row in linalg.transpose(transpose_antimorphism(sl3).matrix)]),
    ]
    for chart, rows in charts:
        _assert_routes_agree(chart, [[Scalar.coerce(c) for c in row] for row in rows])


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
def test_fixed_locus_two_routes_agree_on_random_involutions(dim, seed):
    # an S-invariant chart f d_u ^ d_v for each involution drawn; Q carries a nonzero bracket in
    # about one draw in three
    rng = make_rng(seed)
    s = _random_involution(rng, dim)
    _assert_routes_agree(_invariant_chart(rng, s), s)


def test_fixed_locus_rotated_eigenbasis():
    # S swaps x1 and x2: eigenvectors are diagonal, exercising the change of
    # coordinates; pi = d1^d2 is S-invariant... S_* (d1^d2) = d2^d1 = -d1^d2,
    # so use the invariant x3-coupled structure instead
    pi = PolyMultiVec(3, 2, {(0, 2): Poly.const(3, 1), (1, 2): Poly.const(3, 1)})
    chart = PoissonChart(3, ("x1", "x2", "x3"), pi)
    s = LinearInvolution.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    sub, ind = fixed_locus(chart, s)
    assert len(sub.x_indices) == 2
    assert jacobiator(ind).is_zero()
    _assert_routes_agree(chart, s.rows())


def _random_involution(rng, dim):
    """An exact involution: diagonal blocks +-1, [[0, s], [s, 0]] with s = +-1, and
    [[1, a], [0, -1]] or its transpose with a rational, conjugated by a random permutation."""
    m = [[Scalar(0)] * dim for _ in range(dim)]
    i = 0
    while i < dim:
        kind = rng.choice(("sign", "swap", "shear", "shear_t") if i + 1 < dim else ("sign",))
        if kind == "sign":
            m[i][i] = Scalar(rng.choice((1, -1)))
            i += 1
            continue
        a, s = Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.choice((1, -1))
        block = {"swap": [[0, s], [s, 0]], "shear": [[1, a], [0, -1]], "shear_t": [[1, 0], [a, -1]]}[kind]
        for r in range(2):
            for c in range(2):
                m[i + r][i + c] = Scalar(block[r][c])
        i += 2
    perm = list(range(dim))
    rng.shuffle(perm)
    return LinearInvolution.from_rows([[m[perm[r]][perm[c]] for c in range(dim)] for r in range(dim)]).rows()


def _random_invertible(rng, dim):
    """A rational unit-lower times unit-upper triangular matrix: invertible, and generic."""
    def entry():
        return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    lower = [[Scalar(1) if r == c else entry() if r > c else Scalar(0) for c in range(dim)] for r in range(dim)]
    upper = [[Scalar(1) if r == c else entry() if r < c else Scalar(0) for c in range(dim)] for r in range(dim)]
    return linalg.mat_mul(lower, upper)


def _invariant_chart(rng, s):
    """f d_u ^ d_v for eigenvectors u, v of S, with f(Sx) = e_u e_v f(x), e_u and e_v their
    eigenvalues: Poisson, as a function times the wedge of two commuting fields, and S-invariant."""
    n = len(s)
    p, k = _involution_eigenbasis(s)

    def eigenvector(sides):
        side, eigenvalue = rng.choice([(side, e) for side, e in sides if side])
        coeffs = {a: rng.choice((-2, -1, 1, 2)) for a in side}
        return [sum((p[i][a] * c for a, c in coeffs.items()), Scalar(0)) for i in range(n)], eigenvalue

    # u from the +1 eigenspace when there is one, and v three times in four, so that Q often
    # carries a nonzero bracket
    (u, e_u), (v, e_v) = eigenvector([(range(k), 1)] if k else [(range(n), -1)]), eigenvector(
        [(range(k), 1)] * 3 + [(range(k, n), -1)])
    g = rand_poly(rng, n, max_deg=3, max_terms=4)
    f = (g + g.compose(_linear_forms(s, n)) * (e_u * e_v)) * Fraction(1, 2)
    comps = {(i, j): f * (u[i] * v[j] - u[j] * v[i]) for i in range(n) for j in range(i + 1, n)}
    return PoissonChart(n, tuple(f"x{i + 1}" for i in range(n)), PolyMultiVec(n, 2, comps))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 4), degree=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_pushforward_matches_leg_wedge_reference(dim, degree, seed):
    # the carried legs against the leg-by-leg wedge of the columns of A, on random
    # Gaussian-rational fields of degree 0-3: along involutions, passed as their own inverse as
    # fixed_locus_symbolic passes them, and along generic invertible maps
    rng = make_rng(seed)
    mv = rand_multivec(rng, dim, degree)
    s = _random_involution(rng, dim)
    assert _pushforward(mv, s, s) == pushforward_linear(mv, s)
    a = _random_invertible(rng, dim)
    assert _pushforward(mv, a, linalg.inverse(a)) == pushforward_linear(mv, a)


def test_fixed_locus_runs_three_eliminations_and_one_inverse(monkeypatch, capsys):
    # the two eigenspaces take one elimination each and P^-1 the third; S is its own inverse,
    # and P is already held, so neither is inverted
    counts = counted_calls(monkeypatch, linalg, ("rref", "inverse"))
    assert run_command(["dirac", "fixed-locus", "so3.chart", "--matrix=-1,0,0;0,-1,0;0,0,1"])[0] == 0
    assert "fixed_dim" in capsys.readouterr().out
    assert counts == {"rref": 3, "inverse": 1}


def test_affine_lie_runs_one_elimination(monkeypatch, capsys):
    # the inverse of the basis matrix also decides that the vectors form a basis
    counts = counted_calls(monkeypatch, linalg, ("rref",))
    assert run_command(["dirac", "affine-lie", "--algebra", "so3", "--l", "x3", "--m", "x1,x2", "--mu", "0,0,1"])[0] == 0
    assert counts == {"rref": 1}
    counts["rref"] = 0
    assert run_command(["dirac", "affine-lie", "--algebra", "so3", "--l", "x1", "--m", "x1,x2", "--mu", "0,0,1"])[0] == 2
    assert "do not form a basis" in capsys.readouterr().err
    assert counts == {"rref": 1}


# -- affine subspaces of Lie-Poisson duals ----------------------------------------


def test_affine_so3_axis_passes():
    g = builtin_algebra("so3")
    verdict = affine_lie_poisson_dirac(g, ["x3"], ["x1", "x2"], [0, 0, 1])
    assert verdict.ok
    assert verdict.values["induced"].dim == 1 and verdict.values["induced"].pi.is_zero()


def test_affine_so3_not_subalgebra():
    g = builtin_algebra("so3")
    verdict = affine_lie_poisson_dirac(g, ["x1", "x2"], ["x3"], [0, 0, 1])
    assert not verdict.ok
    assert "subalgebra" in verdict.reason


def test_affine_sl2_cartan():
    g = builtin_algebra("sl2")
    mu = [0, 0, 1]  # the h-coordinate covector
    verdict = affine_lie_poisson_dirac(g, ["h1"], ["e12", "f12"], mu)
    assert verdict.ok
    assert verdict.values["induced"].dim == 1


def test_affine_ad_condition_fails():
    # mu = e* : <mu, [h, e]> = 2 != 0 breaks the ad* condition
    g = builtin_algebra("sl2")
    verdict = affine_lie_poisson_dirac(g, ["h1"], ["e12", "f12"], [1, 0, 0])
    assert not verdict.ok
    assert "ad*" in verdict.reason


def test_affine_checks_l_m_before_the_ad_condition():
    # m = (f, e + h): [h, f] = -2f breaks the ad* condition for mu = f* at the first pair, and
    # [h, e + h] = 2e = 2(e + h) - 2h has an l-part at the second; [l, m] in m is decided first
    g = builtin_algebra("sl2")
    verdict = affine_lie_poisson_dirac(g, ["h1"], ["f12", [1, 0, 1]], [0, 1, 0])
    assert verdict.reason == "[l, m] not contained in m: [l_0, m_1] has an l-part" and not verdict.ok
    verdict = affine_lie_poisson_dirac(g, ["h1"], ["f12", "e12"], [0, 1, 0])
    assert verdict.reason == "ad*-condition fails: <mu, [l_0, m_0]> = -2" and not verdict.ok


def test_affine_rejects_non_basis():
    g = builtin_algebra("so3")
    with pytest.raises(ValueError):
        affine_lie_poisson_dirac(g, ["x1"], ["x1", "x2"], [0, 0, 1])


def test_transverse_so3():
    g = builtin_algebra("so3")
    chart = transverse_from_reductive(g, ["x3"], ["x1", "x2"], [0, 0, 1]).values["induced"]
    assert chart.dim == 1 and chart.pi.is_zero()


def test_transverse_abelian_full():
    g = abelian(3)
    chart = transverse_from_reductive(g, [0, 1, 2], [], [1, 2, 3]).values["induced"]
    assert chart.dim == 3 and chart.pi.is_zero()


def test_transverse_sl2():
    g = builtin_algebra("sl2")
    chart = transverse_from_reductive(g, ["h1"], ["e12", "f12"], [0, 0, 1]).values["induced"]
    assert chart.dim == 1


def test_transverse_rejects_non_isotropy():
    g = builtin_algebra("so3")
    verdict = transverse_from_reductive(g, ["x3"], ["x1", "x2"], [1, 0, 0])
    assert not verdict.ok
    assert verdict.reason == "l is not contained in the isotropy algebra of mu (element 0)"


# -- leaf-slice obstruction --------------------------------------------------------


def slice_chart():
    # pi_t = (1 + t) d1^d2 on coordinates (x1, x2, t)
    pi = PolyMultiVec(3, 2, {(0, 1): Poly.const(3, 1) + Poly.var(3, 2)})
    return PoissonChart(3, ("x1", "x2", "t"), pi)


def test_slice_t_independent_gives_zero():
    pi = PolyMultiVec(3, 2, {(0, 1): Poly.var(3, 0)})
    chart = PoissonChart(3, ("x1", "x2", "t"), pi)
    rep = leaf_slice_obstruction(chart, (2,), [0], 1)
    assert rep.ok
    assert all(w.is_zero() for w in rep.witness)


def test_slice_solvable_at_degree_one():
    rep = leaf_slice_obstruction(slice_chart(), (2,), [0], 1)
    assert rep.ok
    (w,) = rep.witness
    assert not w.is_zero()
    # defining property, re-checked through the Schouten bracket:
    # d pi/dt|_0 + [X, pi_0] = 0 exactly
    pi0 = PolyMultiVec(2, 2, {(0, 1): Poly.const(2, 1)})
    dpi = PolyMultiVec(2, 2, {(0, 1): Poly.const(2, 1)})
    assert (dpi + schouten(w, pi0)).is_zero()


def test_slice_unsolvable_at_degree_zero():
    rep = leaf_slice_obstruction(slice_chart(), (2,), [0], 0)
    assert not rep.ok
    assert rep.witness is None


@pytest.mark.parametrize("nvars", range(5))
def test_slice_monomials_are_every_exponent_in_graded_order(nvars):
    # the unknowns' order decides which solution the elimination returns, so it is pinned: the
    # exponents of total degree <= d, by degree, then lexicographically
    for degree in range(4):
        every = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
        assert _monomials_up_to(nvars, degree) == sorted(every, key=lambda e: (sum(e), e))


def _freeze(chart, index, value):
    """The chart with coordinate ``index`` dropped and set to ``value`` in every component."""
    keep = [i for i in range(chart.dim) if i != index]
    images = [Poly.const(len(keep), value) if i == index else Poly.var(len(keep), keep.index(i))
              for i in range(chart.dim)]
    return PoissonChart(len(keep), tuple(chart.coords[i] for i in keep), chart.pi.project(keep, images))


@pytest.mark.parametrize("degree, solvable", [(1, False), (2, True)])
def test_slice_solves_every_t_in_one_elimination(degree, solvable):
    # pi = (1 + s + t x1) d1^d2 on (x1, x2, s, t), at s = 1/2, t = 0: d pi/ds needs a field of
    # degree 1, d pi/dt one of degree 2.  The reference solves each t on its own, with the other
    # frozen at its t0, which leaves that t at index 2 of a three-coordinate chart
    pi = PolyMultiVec(4, 2, {(0, 1): Poly.const(4, 1) + Poly.var(4, 2) + Poly.var(4, 3) * Poly.var(4, 0)})
    chart, t0 = PoissonChart(4, ("x1", "x2", "s", "t"), pi), [Fraction(1, 2), 0]
    rep = leaf_slice_obstruction(chart, (2, 3), t0, degree)
    per_t = [leaf_slice_obstruction(_freeze(chart, other, t0[other - 2]), (2,), [t0[ti - 2]], degree)
             for ti, other in ((2, 3), (3, 2))]
    assert [r.ok for r in per_t] == [True, solvable]
    assert rep.ok == solvable and rep.reason == per_t[1].reason
    if solvable:
        assert rep.witness == tuple(w for r in per_t for w in r.witness)
        frozen = [Poly.var(2, 0), Poly.var(2, 1), Poly.const(2, t0[0]), Poly.const(2, t0[1])]
        pi0 = chart.pi.project([0, 1], frozen)
        for ti, w in zip((2, 3), rep.witness):  # d pi/dt_i + [X_i, pi_0] = 0
            assert not w.is_zero() and (chart.pi.diff(ti).project([0, 1], frozen) + schouten(w, pi0)).is_zero()


def test_slice_rejects_non_poisson_slice():
    pi = PolyMultiVec(4, 2, {(0, 1): Poly.var(4, 2), (1, 2): Poly.var(4, 1)})
    chart = PoissonChart(4, ("x1", "x2", "x3", "t"), pi)
    # a failed report, not an error: the witness is the first Jacobiator component of the slice
    rep = leaf_slice_obstruction(chart, (3,), [0], 1)
    assert not rep.ok and rep.reason == "slice bivector at t0 is not Poisson"
    assert rep.witness == ((0, 1, 2), Poly.var(3, 2) + Poly.var(3, 2))
