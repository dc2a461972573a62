"""Symmetric Lie bialgebras, Drinfeld doubles, and dynamical r-matrices.

Everything on the algebra side is exact; the dynamical families are checked
numerically at seeded sample points.

Run as: python demos/bialgebras_and_doubles.py
"""

from poissonkit.dynr import DynamicalRFamily, cdybe_residual, residual_scan
from poissonkit.liealg import (
    chi_check,
    coboundary_check,
    drinfeld_double,
    sl_chevalley,
    standard_r_matrix,
    su_compact_basis,
    symmetric_bialgebra_check,
    transpose_antimorphism,
    validate_lie,
)

# sl(3) in the elementary-matrix Chevalley basis: 6 root vectors, 2 Cartan
# elements, integer structure constants, trace pairing (e_a, f_a) = 1.
g = sl_chevalley(3)
print("sl3 validates:", validate_lie(g).ok, "| dim", g.dim)

# The split r-matrix r = sum e_a ^ f_a.  [r, r] is nonzero but ad-invariant,
# so r is an r-matrix; the transpose map phi (e <-> f, h fixed) is an
# involutive anti-morphism with phi r = -r: a symmetric Lie bialgebra.
r = standard_r_matrix(g)
print("[r, r] ad-invariant:", coboundary_check(g, r).ok)
phi = transpose_antimorphism(g)
print("symmetric bialgebra:", symmetric_bialgebra_check(g, r, phi).ok)

# The double sigma = g + g* with the mixed coadjoint bracket passes an
# exhaustive exact Jacobi sweep, and chi(X + xi) = phi X - phi* xi is an
# involutive anti-morphism of sigma flipping the canonical pairing.
dd = drinfeld_double(g, r)
print("double dim:", dd.sigma.dim, "| chi conditions:", chi_check(dd, phi).ok)

# The compact form su(3): basis X_a = e_a - f_a, Y_a = i(e_a + f_a),
# t_m = i h_m with real rational constants, and the compact r-matrix
# sum d_a/2 X_a ^ Y_a, which its root data carry.
k = su_compact_basis(3)
r_hat = standard_r_matrix(k)
print("\nsu3 validates:", validate_lie(k).ok)
# symmetric_bialgebra_check checks only what phi adds; the r-matrix condition is coboundary_check's.
phi_k = transpose_antimorphism(k)
print("su3 symmetric bialgebra:", bool(coboundary_check(k, r_hat) and symmetric_bialgebra_check(k, r_hat, phi_k)))

# Dynamical r-matrices over the dual Cartan: the trigonometric family uses
# coth, its rational degeneration 1/x.  The compatibility residual
# sum h_m ^ dr/dlambda_m + (1/2)[r, r] must be a constant, ad-invariant
# element of the third wedge power -- here checked at seeded sample points.
for fam in (DynamicalRFamily(g, "trig"), DynamicalRFamily(g, "rational")):
    rep = residual_scan(fam, samples=10, seed=0)
    v = rep.values
    print(f"\n{fam.kind} family: spread {v['spread']:.2e}, "
          f"invariance {v['invariance_defect']:.2e}, gradient {v['derivative_defect']:.2e}")

# For sl(2) the residual has a closed form: with c = coth(lambda(h_alpha)),
# c' + c^2 = 1, so the residual is exactly e ^ f ^ h.
g2 = sl_chevalley(2)
res = cdybe_residual(DynamicalRFamily(g2, "trig"), [0.8])  # a dense antisymmetric dim^3 array
e, f, h = (g2.label_index(k) for k in ("e12", "f12", "h1"))
print(f"\nsl2 trig residual: {float(res[e, f, h]):.12f} * e12^f12^h1")

# Replacing coth by tanh breaks constancy at rank >= 2 (at rank 1 the two
# functions satisfy the same differential equation, so sl2 cannot tell).
bad = residual_scan(DynamicalRFamily(g, "tanh-corrupted"), samples=6, seed=0)
print("tanh corruption on sl3 fails:", not bad.ok, f"(spread {bad.values['spread']:.2e})")
