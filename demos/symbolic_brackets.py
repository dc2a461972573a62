"""Tour of the exact symbolic layer: polynomials, Schouten calculus,
Jacobi verification, Casimirs, and modular vector fields.

Run as: python demos/symbolic_brackets.py
"""

from poissonkit import Poly, PolyMultiVec, parse_poly, print_poly, schouten, wedge
from poissonkit.poisson import (
    PoissonChart,
    bracket,
    hamiltonian_vf,
    is_casimir,
    jacobiator,
    modular_vf,
)

# Polynomials are exact: coefficients live in Q(i), and nothing is ever
# rounded.  Expressions are parsed against a declared coordinate list.
coords = ["x", "y", "z"]
p = parse_poly("(1/2)*x^2 + i*y - 2*z", coords)
print("parsed:", print_poly(p, coords))
print("d/dx:  ", print_poly(p.diff(0), coords))

# Multivector fields are sparse maps from increasing index tuples to
# polynomials.  The wedge product and the Schouten bracket are exact.
d1, d2, d3 = (PolyMultiVec.basis(3, k) for k in range(3))
a = PolyMultiVec.monomial(3, (0,), parse_poly("x", coords))  # x d/dx
print("\n[x d1, d2 ^ d3] =", schouten(a, wedge(d2, d3)))
print("[d1, x]        =", schouten(d1, PolyMultiVec.function(parse_poly("x", coords))))

# The bracket on Stokes-matrix entries for 3x3 unipotent matrices.  The
# chart stores a degree-2 multivector; jacobiator(chart) = [pi, pi] vanishes
# exactly, so the bracket satisfies the Jacobi identity.
chart = PoissonChart.from_brackets(
    coords, {(0, 1): "x*y - 2*z", (1, 2): "y*z - 2*x", (0, 2): "-(z*x - 2*y)"}
)
print("\nJacobiator of the Stokes chart:", jacobiator(chart))
print("{x, y} =", print_poly(bracket(chart, chart.parse("x"), chart.parse("y")), coords))
# At a point the bivector evaluates exactly: at (x, y, z) = (1, 2, 3),
# {x, y} = xy - 2z = -4, {y, z} = yz - 2x = 4, {x, z} = -(zx - 2y) = 1.
at_point = chart.pi.eval([1, 2, 3])
print("pi at (1, 2, 3):", ", ".join(f"{idxs}: {value}" for idxs, value in sorted(at_point.items())))

# The Markoff polynomial is a Casimir: its Hamiltonian vector field is zero.
markoff = chart.parse("x^2 + y^2 + z^2 - x*y*z")
print("X_markoff =", hamiltonian_vf(chart, markoff))
print("is_casimir:", is_casimir(chart, markoff).ok)

# Modular vector fields measure the failure of an invariant volume.  For
# pi = x1 d1^d2 the modular field is -d2; for so(3) it vanishes
# (the algebra is unimodular).
lin = PoissonChart(2, ("x1", "x2"), PolyMultiVec.monomial(2, (0, 1), Poly.var(2, 0)))
print("\nmodular field of x1 d1^d2:", modular_vf(lin))
so3 = PoissonChart.from_brackets(
    ("x1", "x2", "x3"), {(0, 1): "x3", (1, 2): "x1", (0, 2): "-x2"}
)
print("modular field of so(3)*:  ", modular_vf(so3))
