# Discrete operators on a well-centered mesh: diagonal Hodge stars, the
# codifferential and its flux form, the Hodge-Laplacian, and Whitney
# reconstruction of cochains.

import numpy as np

from declab import (
    Poly2,
    PolyForm,
    build_dual,
    codifferential_matrix,
    de_rham,
    discrete_inner,
    hodge_laplacian_matrix,
    star_matrix,
    symmetric_mesh,
    whitney_evaluate,
)

K = symmetric_mesh(2)
dual = build_dual(K)

# -- codifferential: S^-1 D^T S, read as a flux form -----------------------------

# row v of delta_1 collects b_v * sign(v, e) * a_e over the edges e at v
delta1 = codifferential_matrix(K, dual, 1)
v = int(np.flatnonzero(~K.is_boundary(0))[0])
signs = K.coboundary_matrix(0)[:, [v]].toarray().ravel()
flux = dual.hodge_ratio_b[0][v] * signs * dual.hodge_ratio_a[1]
print("interior vertex row of delta_1 vs flux form: max gap =",
      abs(delta1[[v]].toarray().ravel() - flux).max())

# -- adjointness of d and delta -------------------------------------------------

rng = np.random.default_rng(0)
a = rng.standard_normal(K.n_simplices(0))
b = rng.standard_normal(K.n_simplices(1))
lhs = discrete_inner(dual, 1, K.coboundary_matrix(0) @ a, b)
rhs = discrete_inner(dual, 0, a, delta1 @ b)
print(f"[[d a, b]] = {lhs:.12f}   [[a, delta b]] = {rhs:.12f}")

# -- the scalar Laplacian stencil ------------------------------------------------

# on the uniform mesh with edge length l, an interior vertex row reduces to
# the classical 6-point stencil scaled by 2 / (3 l^2)
L0 = hodge_laplacian_matrix(K, dual, 0)
row = L0[[v]].toarray().ravel()
print("interior vertex row: diagonal", row[v], " expected", 6 * 2.0 / (3 * 0.25**2))

# the symmetrized system matrix S L is what the solver sees
M = (star_matrix(dual, 0) @ L0).toarray()
print("S L symmetric to", abs(M - M.T).max())

# -- Whitney reconstruction -------------------------------------------------------

# sample the lowest-order reconstruction of the cochain of x dy; Whitney
# 1-forms reproduce constant fields exactly inside each triangle
form = PolyForm(1, (Poly2.zero(), Poly2.constant(1.0)))
cochain = de_rham(K, form)
t = 5
centroid = K.vertices[K.simplices(2)[t]].mean(axis=0)
print("reconstructed field at a centroid:", whitney_evaluate(K, 1, cochain, t, centroid)[0])
