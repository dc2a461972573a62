"""Dirac-submanifold criteria in aligned charts.

Covers: the local criterion for Q = {y = 0}, induced structures, fixed loci
of linear Poisson involutions (two independent routes), affine subspaces of
Lie-Poisson duals, the leaf-slice obstruction, and the relative modular
identity.

Run as: python demos/dirac_submanifolds.py
"""

from poissonkit.chartio import emit_chart
from poissonkit.dirac import (
    AlignedSubmanifold,
    LinearInvolution,
    affine_lie_poisson_dirac,
    check_aligned_dirac,
    fixed_locus_projection,
    fixed_locus_symbolic,
    leaf_slice_obstruction,
)
from poissonkit.exactalg import Poly, PolyMultiVec
from poissonkit.liealg import builtin_algebra, lie_poisson_chart
from poissonkit.poisson import PoissonChart, relative_modular

# Two symplectic blocks on R^4.  The plane {x3 = x4 = 0} keeps a whole
# block transverse to it, so the criterion passes; pairing x1 with x4
# splits both blocks and the leftover bracket {x1, x2} = 1 is the witness.
pi = PolyMultiVec(4, 2, {(0, 1): Poly.const(4, 1), (2, 3): Poly.const(4, 1)})
chart = PoissonChart(4, ("x1", "x2", "x3", "x4"), pi)

good = AlignedSubmanifold(chart, (0, 1), (2, 3))
verdict = check_aligned_dirac(good)
print("symplectic complement:", verdict.ok)
print(emit_chart(verdict.values["induced"]))

bad = AlignedSubmanifold(chart, (0, 3), (1, 2))
verdict = check_aligned_dirac(bad)
print("isotropic complement: ", verdict.ok, "--", verdict.reason)

# The x3-axis in so(3)*: both lambda symbols are +-x1, +-x2, which vanish
# on the axis, so the line is a Dirac submanifold (with zero structure).
so3_chart = lie_poisson_chart(builtin_algebra("so3"))
axis = AlignedSubmanifold(so3_chart, (2,), (0, 1))
print("\nso(3) axis passes:", check_aligned_dirac(axis).ok)

# Fixed locus of the linear Poisson involution S = diag(-1, -1, 1) on
# so(3)*: computed once by an exact eigenbasis change of coordinates, and
# once by projecting every wedge leg with (1 + S_*)/2.  The routes agree.
s = LinearInvolution.from_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
fixed = fixed_locus_symbolic(so3_chart, s).values
projected = fixed_locus_projection(so3_chart, s)
print("fixed locus dim:", len(fixed["submanifold"].x_indices), "| routes agree:", projected.pi == fixed["induced"].pi)

# Affine subspaces mu + m-perp of a Lie-Poisson dual: the criterion is a
# reductive decomposition plus an ad* condition on mu.
so3 = builtin_algebra("so3")
print("\naffine, l = span(x3):", affine_lie_poisson_dirac(so3, ["x3"], ["x1", "x2"], [0, 0, 1]).ok)
print("affine, l not closed:", affine_lie_poisson_dirac(so3, ["x1", "x2"], ["x3"], [0, 0, 1]).reason)

# A slice family pi_t = (1 + t) d1^d2: the t-derivative must be a coboundary
# [X, pi_0] for the slice to be Dirac.  Degree-1 fields suffice; constants
# do not (their bracket with a constant bivector vanishes).
fam = PoissonChart(3, ("x1", "x2", "t"), PolyMultiVec(3, 2, {(0, 1): Poly.const(3, 1) + Poly.var(3, 2)}))
for d in (1, 0):
    rep = leaf_slice_obstruction(fam, (2,), [0], d)
    print(f"slice obstruction, degree {d}:", "solvable" if rep.ok else "unsolvable at this bound")

# The relative modular field on Q = {y = 0} for pi = y dx^dy, computed from
# its definition, equals pr nu_P - nu_Q exactly.
rel_chart = PoissonChart(2, ("x", "y"), PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 1)))
rep = relative_modular(rel_chart, AlignedSubmanifold(rel_chart, (0,), (1,)))
print("\nrelative modular:", rep.nu_r, "= pr nu_P - nu_Q:", rep.relation_holds)
