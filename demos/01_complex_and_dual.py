"""Build a simplicial complex, inspect its boundary operators, and pair it
with the circumcentric dual.

Run:  python3 demos/01_complex_and_dual.py
"""

import numpy as np

from declab import build_complex, build_dual, check_centroid_condition, symmetric_mesh

# -- a tiny complex by hand ---------------------------------------------------

vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9], [1.5, 0.9]])
K = build_complex(vertices, [[0, 1, 2], [1, 3, 2]])

print("two-triangle complex")
for k in range(3):
    print(f"  {K.n_simplices(k)} simplices of dimension {k}")
print("  edges:", [tuple(e) for e in K.simplices(1)])
print("  boundary edges:", [tuple(e) for e in K.simplices(1)[K.is_boundary(1)]])

# the coboundary matrices are the signed incidence operators; D1 @ D0 = 0
D0 = K.coboundary_matrix(0)
D1 = K.coboundary_matrix(1)
print("\nD0 (edges x vertices):")
print(D0.toarray())
print("D1 (triangles x edges):")
print(D1.toarray())
print("max |D1 @ D0| =", abs((D1 @ D0).toarray()).max())

# -- circumcentric dual on the structured mesh --------------------------------

K = symmetric_mesh(2)
dual = build_dual(K)
print(f"\nsymmetric mesh, level 2: {K.n_simplices(2)} triangles, h = {K.mesh_size()}")

interior = ~K.is_boundary(1)
ratios = dual.hodge_ratio_a[1]
print("interior |*e|/|e| ratios are all 1/sqrt(3):",
      np.allclose(ratios[interior], 1 / np.sqrt(3)))

# dual 2-cells tile the domain: their areas a_0 |v| sum to the domain area
print("sum of vertex dual areas =", (dual.hodge_ratio_a[0] * K.volumes(0)).sum(),
      " (domain area =", np.sqrt(3) / 4, ")")

# every dual cell of this mesh family is centred on its primal simplex
for k in range(3):
    ok, dev = check_centroid_condition(K, dual, k)
    print(f"centroid condition for k={k}: {'PASS' if ok else 'FAIL'} (max dev {dev:.2e})")
