# Discrete operators on a well-centered mesh: diagonal Hodge stars, the
# codifferential and its flux form, and the Hodge-Laplacian.

import numpy as np

from declab import (
    build_dual,
    codifferential_matrix,
    hodge_laplacian_matrix,
    star_matrix,
    symmetric_mesh,
)

K = symmetric_mesh(2)
dual = build_dual(K)

# -- codifferential: S^-1 D^T S, read as a flux form -----------------------------

# row v of delta_1 collects (1 / a_v) * sign(v, e) * a_e over the edges e at v
delta1 = codifferential_matrix(K, dual, 1)
v = int(np.flatnonzero(~K.is_boundary(0))[0])
signs = K.coboundary_matrix(0)[:, [v]].toarray().ravel()
flux = (1.0 / dual.hodge_ratio_a[0][v]) * signs * dual.hodge_ratio_a[1]
print("interior vertex row of delta_1 vs flux form: max gap =",
      abs(delta1[[v]].toarray().ravel() - flux).max())

# -- adjointness of d and delta -------------------------------------------------

rng = np.random.default_rng(0)
a = rng.standard_normal(K.n_simplices(0))
b = rng.standard_normal(K.n_simplices(1))
# the cochain inner product [[u, v]]_k = sum a_sigma u_sigma v_sigma
a0, a1 = dual.hodge_ratio_a[0], dual.hodge_ratio_a[1]
lhs = np.sum(a1 * (K.coboundary_matrix(0) @ a) * b)
rhs = np.sum(a0 * a * (delta1 @ b))
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
