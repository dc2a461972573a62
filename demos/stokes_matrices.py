"""The Stokes-matrix Poisson structure from the dual group B+ * B-.

The double D = SL(3) x SL(3) carries the pairing <(a,b),(c,d)> = tr(ac)
- tr(bd); the diagonal copy of sl(3) and the triangular pairs with opposite
diagonals are dual isotropic halves.  The coboundary tensor built from
r = sum D_i ^ xi^i restricts to the dual group G* = {(B, C)}, and the fixed
locus of the involution (B, C) -> (C^T, B^T) is the space of Stokes
matrices (B, B^T), B unipotent upper-triangular.

Projecting the tensor to that fixed locus and reading the brackets of the
entries (x, y, z) = (B_12, B_13, B_23) reproduces

    {x, y} = kappa (xy - 2z),  {y, z} = kappa (yz - 2x),  {z, x} = kappa (zx - 2y)

for a single global constant kappa = 2, and pushing the tensor
along (B, C) -> B C^T gives exactly twice the induced structure at the
image: the Poisson-map-up-to-multiplier-2 statement.

Run as: python demos/stokes_matrices.py
"""

import numpy as np

from poissonkit.groupnum import (
    InvolutionSpec,
    crosscheck_report,
    dual_group,
    dual_group_bivector,
    dual_tangency_residual,
    pi_q_projection,
    stokes_report,
)

# One sample point, spelled out.
group = dual_group(3)
b = np.array([[1.0, 0.3, -0.2], [0, 1.0, 0.5], [0, 0, 1.0]])
point = np.stack([b, b.T])

pi = dual_group_bivector(group, point)
print("tangency of pi_D to G*:", f"{dual_tangency_residual(pi):.2e}")

psi = InvolutionSpec("pair-swap")
pi_q = pi_q_projection(psi, pi)

x, y, z = b[0, 1], b[0, 2], b[1, 2]
brackets = pi_q.bracket_matrix([(0, 0, 1), (0, 0, 2), (0, 1, 2)])  # {v, w} for v, w in (x, y, z)
xy, yz, zx = brackets[0, 1], brackets[1, 2], brackets[2, 0]
print(f"{{x, y}} = {xy:+.6f}   target 2(xy - 2z) = {2 * (x * y - 2 * z):+.6f}")
print(f"{{y, z}} = {yz:+.6f}   target 2(yz - 2x) = {2 * (y * z - 2 * x):+.6f}")
print(f"{{z, x}} = {zx:+.6f}   target 2(zx - 2y) = {2 * (z * x - 2 * y):+.6f}")

# The full seeded report: bracket shape, predicted kappa, the multiplier-2
# pushforward along (B, C) -> B C^T, Markoff conservation, rank relation.
rep = stokes_report(3, samples=20, seed=1)
print("\nstokes report:")
for line in rep.lines(True, "group stokes"):
    print(" ", line)

# The same fixed-locus machinery on the group side: the induced tensor on
# symmetric matrices in SL(3, R), and on symmetric unitaries in SU(3),
# computed by leg projection and by the direct invariant-field formula.
for kind in ("sl", "su"):
    rep = crosscheck_report(kind, samples=10, seed=2)
    v = rep.values
    print(f"\n{v['group']}: two-route difference {v['max_route_difference']:.2e}, "
          f"rank relation {v['rank_relation_ok']}")
