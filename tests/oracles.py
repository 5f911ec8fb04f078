"""Independent reference constructions that the tests compare the library
against.  They are deliberately written differently from the production
code paths and are not part of the public API."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from declab import DualComplex, SimplicialComplex


def codifferential_matrix_stencil(
    K: SimplicialComplex, dual: DualComplex, k: int
) -> sp.csr_matrix:
    """delta_k assembled row by row from coface stencils.

    Independent of the transpose construction: row sigma collects
    b_sigma * sign(sigma, tau) * a_tau over the cofaces tau of sigma,
    read from column sigma of the coboundary D_{k-1}.
    """
    if not 1 <= k <= K.dim:
        raise ValueError(f"codifferential is defined for 1 <= k <= {K.dim}")
    a = dual.hodge_ratio_a[k]
    b = dual.hodge_ratio_b[k - 1]
    cofaces = K.coboundary_matrix(k - 1).tocsc()
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for sigma in range(K.n_simplices(k - 1)):
        lo, hi = cofaces.indptr[sigma], cofaces.indptr[sigma + 1]
        for tau, sign in zip(cofaces.indices[lo:hi], cofaces.data[lo:hi]):
            rows.append(sigma)
            cols.append(tau)
            vals.append(b[sigma] * (sign * a[tau]))
    mat = sp.csr_matrix(
        (vals, (rows, cols)),
        shape=(K.n_simplices(k - 1), K.n_simplices(k)),
    )
    mat.sort_indices()
    return mat


def poly2_dense_horner(coeffs: np.ndarray, x, y):
    """sum_{i,j} coeffs[i, j] x^i y^j by Horner over the full grid.

    Every row runs through all of its columns, leading zeros included, in
    np.longdouble with fresh temporaries at each step; returns float64 (a
    float for scalar x and y).  Poly2.__call__ must match it bit for bit
    at finite points.
    """
    xl = np.asarray(x, dtype=np.longdouble)
    yl = np.asarray(y, dtype=np.longdouble)
    shape = np.broadcast(xl, yl).shape
    c = np.asarray(coeffs, dtype=np.longdouble)
    acc = np.zeros(shape, dtype=np.longdouble)
    for i in range(c.shape[0] - 1, -1, -1):
        row = np.full(shape, c[i, -1], dtype=np.longdouble)
        for j in range(c.shape[1] - 2, -1, -1):
            row = row * yl + c[i, j]
        acc = acc * xl + row
    out = np.asarray(acc, dtype=np.float64)
    if np.isscalar(x) and np.isscalar(y):
        return float(out)
    return out
