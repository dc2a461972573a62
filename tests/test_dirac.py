"""Aligned Dirac criterion, fixed loci, affine Lie-Poisson subspaces, slices."""

import pytest

from conftest import make_rng
from poissonkit import linalg
from poissonkit.dirac import (
    AlignedSubmanifold,
    LinearInvolution,
    affine_lie_poisson_dirac,
    check_aligned_dirac,
    fixed_locus_projection,
    fixed_locus_symbolic,
    leaf_slice_obstruction,
    pushforward_linear,
    transverse_from_reductive,
)
from poissonkit.exactalg import Poly, PolyMultiVec, Scalar, schouten
from poissonkit.liealg import abelian, builtin_algebra, lie_poisson_chart
from poissonkit.poisson import PoissonChart, jacobiator


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
        val = poly.eval(point)
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
            ind_rank = linalg.rank(_sharp_matrix_at(ind, q_point))
            # columns of the ambient sharp, joined with the x-block axes
            image_cols = [[amb[i][j] for i in range(chart.dim)] for j in range(chart.dim)]
            x_axes = [
                [Scalar(1) if i == x else Scalar(0) for i in range(chart.dim)]
                for x in sub.x_indices
            ]
            rank_img = linalg.rank(linalg.transpose(image_cols))
            rank_join = linalg.rank(linalg.transpose(image_cols + x_axes))
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


def test_fixed_locus_two_routes_agree():
    charts = [
        (lie_poisson_chart(builtin_algebra("so3")),
         LinearInvolution.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])),
        (PoissonChart(2, ("x", "y"), PolyMultiVec.monomial(2, (0, 1), Poly.const(2, 1))),
         LinearInvolution.from_rows([[1, 0], [0, -1]])),
        (product_chart(), LinearInvolution.from_rows(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])),
    ]
    for chart, s in charts:
        verdict = fixed_locus_symbolic(chart, s)
        if not verdict.ok:
            continue
        assert fixed_locus_projection(chart, s).pi == verdict.values["induced"].pi


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
    proj = fixed_locus_projection(chart, s)
    assert proj.pi == ind.pi


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


def test_slice_rejects_non_poisson_slice():
    pi = PolyMultiVec(4, 2, {(0, 1): Poly.var(4, 2), (1, 2): Poly.var(4, 1)})
    chart = PoissonChart(4, ("x1", "x2", "x3", "t"), pi)
    # a failed report, not an error: the witness is the first Jacobiator component of the slice
    rep = leaf_slice_obstruction(chart, (3,), [0], 1)
    assert not rep.ok and rep.reason == "slice bivector at t0 is not Poisson"
    assert rep.witness == ((0, 1, 2), Poly.var(3, 2) + Poly.var(3, 2))
