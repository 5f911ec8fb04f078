"""Discrete Hodge star, codifferential, Laplacian, and interpolants.

With the circumcentric volume ratios a_sigma = |*sigma| / |sigma| (and
b_sigma = 1 / a_sigma) the diagonal Hodge star on k-cochains is
S_k = diag(a_sigma).  The discrete codifferential and Hodge Laplacian are

    delta_k = S_{k-1}^{-1} D_{k-1}^T S_k            (k >= 1)
    L_k     = D_{k-1} delta_k + delta_{k+1} D_k     (terms dropped at k = 0, n)

where D_k is the coboundary matrix.  delta is the adjoint of d in the
cochain inner product  [[u, v]]_k = sum_sigma a_sigma u_sigma v_sigma.

Equivalently, row sigma of delta_k reads off the cofaces of sigma:

    (delta_k u)_sigma = b_sigma * sum_{tau > sigma} sign(sigma, tau)
                                                  * a_tau * u_tau ,

the flux form of the operator on the dual complex.  The test suite
assembles that stencil row by row as an oracle and compares it with the
transpose construction entry by entry.  It keeps the composition for L_k
as an oracle too: the library assembles L_k once, as the symmetric system
S_k L_k of :func:`dec_system`, and ``hodge_laplacian_matrix`` is S_k^-1
times it.

Boundary conditions are imposed implicitly: the transpose construction
never references dual cells of boundary simplices "from outside", which is
exactly the zero-boundary subspace the scheme solves in.  No explicit
boundary rows exist anywhere.

The dual-averaging interpolant J takes a smooth k-form to the cochain

    (J omega)_sigma = b_sigma * integral over *sigma of (star omega) ,

and agrees with the de Rham map Pi on constant forms.  The difference
Pi - J vanishes on piecewise-linear forms exactly when every simplex's
centroid coincides with its dual cell's centroid — the source of the
extra order of convergence on the symmetric meshes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .complex import SimplicialComplex, _is_int
from .dual import DualComplex
from .forms import (
    PolyForm,
    codifferential,
    de_rham,
    de_rham_dual,
    hodge_star,
)

__all__ = [
    "star_matrix",
    "star_inverse_matrix",
    "codifferential_matrix",
    "hodge_laplacian_matrix",
    "discrete_norm",
    "j_interpolant",
    "pi_minus_j",
    "commuting_j_check",
]


def _at_degree(ratios: list, k: int) -> np.ndarray:
    """ratios[k], raising ValueError for a degree with no cochains rather
    than indexing from the end."""
    if not _is_int(k) or not 0 <= k < len(ratios):
        raise ValueError(f"no {k}-cochains on a {len(ratios) - 1}-complex")
    return ratios[k]


def star_matrix(dual: DualComplex, k: int) -> sp.csr_matrix:
    """Diagonal Hodge star S_k = diag(|*sigma| / |sigma|)."""
    return sp.diags(_at_degree(dual.hodge_ratio_a, k), format="csr")


def star_inverse_matrix(dual: DualComplex, k: int) -> sp.csr_matrix:
    """S_k^{-1} = diag(1 / a_sigma), the S^-1 of :func:`dec_system`."""
    return sp.diags(1.0 / _at_degree(dual.hodge_ratio_a, k), format="csr")


def codifferential_matrix(
    K: SimplicialComplex, dual: DualComplex, k: int
) -> sp.csr_matrix:
    """delta_k = S_{k-1}^{-1} D_{k-1}^T S_k mapping k-cochains to (k-1)-cochains."""
    if not _is_int(k) or not 1 <= k <= K.dim:
        raise ValueError(f"codifferential is defined for 1 <= k <= {K.dim}")
    a = dual.hodge_ratio_a
    return _scaled(K.coboundary_matrix(k - 1).T.tocsr(), 1.0 / a[k - 1], a[k])


def hodge_laplacian_matrix(
    K: SimplicialComplex, dual: DualComplex, k: int
) -> sp.csr_matrix:
    """L_k = S_k^{-1} (S_k L_k) on k-cochains, S_k L_k from :func:`dec_system`."""
    return (star_inverse_matrix(dual, k) @ dec_system(K, dual.hodge_ratio_a, k)).tocsr()


def dec_system(K: SimplicialComplex, stars, k: int) -> sp.csr_matrix:
    """S_k L_k = G S_{k-1}^-1 G^T + D_k^T S_{k+1} D_k, G = S_k D_{k-1}, from
    the star ratios (a_0, a_1, a_2): symmetric by construction.

    The stars scale the entries of the cached coboundaries, so the two
    sparse products are the only ones; their sum is made canonical CSR
    (sorted rows, no duplicates), the order CG and the smoother sum rows in.
    M and M^T differ by at most 2 eps of an entry, the rounding of
    a_i / a_l * a_j in two orders; the result is marked
    _symmetric_by_construction, and cg_solve does not check it again."""
    products = []
    if k >= 1:
        G = _scaled(K.coboundary_matrix(k - 1), row=stars[k])
        products.append(_scaled(G, col=1.0 / stars[k - 1]) @ G.T)
    if k <= K.dim - 1:
        D = K.coboundary_matrix(k)
        products.append(D.T @ _scaled(D, row=stars[k + 1]))
    M = sum(products[1:], products[0]).tocsr()
    M.sum_duplicates()  # sorts; the products and their sum store no zeros
    M._symmetric_by_construction = True
    return M


def _scaled(D: sp.csr_matrix, row=None, col=None) -> sp.csr_matrix:
    """diag(row) D diag(col), D in CSR, as D's entries times row[i] and then
    col[j].  The result shares D's index arrays (copying them raised peak
    memory by 14 MB at level 8), so editing either one in place changes the
    other; the products that take it do not, and D, a cached coboundary,
    is canonical already."""
    data = D.data
    if row is not None:
        data = data * np.repeat(row, np.diff(D.indptr))
    if col is not None:
        data = data * col[D.indices]
    return sp.csr_matrix((data, D.indices, D.indptr), D.shape)


def discrete_norm(dual: DualComplex, k: int, u: np.ndarray) -> float:
    """Cochain norm sqrt([[u, u]]_k) = sqrt(sum a_sigma u_sigma^2)."""
    a = _at_degree(dual.hodge_ratio_a, k)
    if np.shape(u) != a.shape:
        raise ValueError(f"a {k}-cochain needs shape {a.shape}, got {np.shape(u)}")
    return float(np.sqrt(np.sum(a * u * u)))


def j_interpolant(
    K: SimplicialComplex, dual: DualComplex, form: PolyForm
) -> np.ndarray:
    """Dual-averaging interpolant (J omega)_sigma = b_sigma int_{*sigma} star omega."""
    k = form.degree
    b = 1.0 / dual.hodge_ratio_a[k]
    return b * de_rham_dual(K, dual, hodge_star(form))


def pi_minus_j(
    K: SimplicialComplex, dual: DualComplex, form: PolyForm
) -> np.ndarray:
    """Difference between the de Rham map and the dual-averaging interpolant."""
    return de_rham(K, form) - j_interpolant(K, dual, form)


def commuting_j_check(
    K: SimplicialComplex, dual: DualComplex, form: PolyForm
) -> float:
    """Residual norm of delta_h (J omega) = J (delta omega), interior rows.

    Evaluated over interior (k-1)-simplices only: rows attached to the
    boundary integrate over truncated dual cells and pick up the boundary
    term of the smooth integration by parts, so the identity holds there
    only for forms whose tangential star-trace vanishes on the boundary
    (as the manufactured solutions' does).  On interior rows it is a pure
    consequence of Stokes' theorem on closed dual cells and holds for
    every smooth form.
    """
    k = form.degree
    if k < 1:
        raise ValueError("the commuting identity needs a form of degree >= 1")
    lhs = codifferential_matrix(K, dual, k) @ j_interpolant(K, dual, form)
    rhs = j_interpolant(K, dual, codifferential(form))
    return discrete_norm(dual, k - 1, np.where(K.is_boundary(k - 1), 0.0, lhs - rhs))
