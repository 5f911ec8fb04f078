"""Exact polynomial differential forms: d, star, delta, and quadrature.

The smooth side of the package is a tiny computer algebra layer for
polynomial forms on the plane, so every interpolation and every error
norm can be computed to near machine precision.
"""

import numpy as np

from declab import (
    Poly2,
    PolyForm,
    codifferential,
    exterior_derivative,
    hodge_laplacian,
    hodge_star,
    manufactured_solution,
    triangle_rule,
)

x = Poly2.monomial(1, 0)
y = Poly2.monomial(0, 1)

# -- the operator zoo ----------------------------------------------------------

f = PolyForm(0, (x * x + y * y,))
df = exterior_derivative(f)
print("d(x^2 + y^2) components:", df.components[0](1.0, 2.0), df.components[1](1.0, 2.0))

w = PolyForm(1, (x, y * y))
print("star(x dx + y^2 dy) at (2, 3):",
      hodge_star(w).components[0](2.0, 3.0), hodge_star(w).components[1](2.0, 3.0))
print("delta(x dx + y^2 dy) at (2, 3):", codifferential(w).components[0](2.0, 3.0))
print("laplacian(x^2 + y^2) =", hodge_laplacian(f).components[0](0.0, 0.0))

# d o d vanishes identically, coefficient by coefficient
ddf = exterior_derivative(df)
print("d(d f) is the zero 2-form:", not ddf.components[0].coeffs.any())

# -- quadrature ----------------------------------------------------------------

# the collapsed-product triangle rule integrates total degree d exactly;
# reference check against a! b! / (a+b+2)!
rule = triangle_rule(5)
got = rule.weights @ (x**3 * y**2)(rule.points[:, 0], rule.points[:, 1])
print("int x^3 y^2 over the reference triangle =", got, " (exact 1/420 =", 1 / 420, ")")

# -- the manufactured solution --------------------------------------------------

u, f_rhs = manufactured_solution(0)
print("\nmanufactured scalar solution: degree", u.poly_degree,
      "; source degree", f_rhs.poly_degree)
centroid = (0.5, np.sqrt(3.0) / 6.0)
print("u(centroid) =", u.components[0](*centroid), " (= 1e8 / 3^15)")
# the fifth power of the barycentric product gives five vanishing
# derivatives on the boundary, so both sets of boundary terms drop out
print("u on the bottom edge:", u.components[0](0.37, 0.0))
