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
transpose construction entry by entry.

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

from .complex import SimplicialComplex
from .dual import DualComplex, _cross2
from .forms import (
    PolyForm,
    codifferential,
    de_rham,
    de_rham_dual,
    hodge_star,
    triangle_rule,
)

__all__ = [
    "star_matrix",
    "star_inverse_matrix",
    "codifferential_matrix",
    "hodge_laplacian_matrix",
    "discrete_inner",
    "discrete_norm",
    "j_interpolant",
    "pi_minus_j",
    "commuting_j_check",
    "whitney_evaluate",
    "l2_norm_whitney",
]


def star_matrix(dual: DualComplex, k: int) -> sp.csr_matrix:
    """Diagonal Hodge star S_k = diag(|*sigma| / |sigma|)."""
    return sp.diags(dual.hodge_ratio_a[k], format="csr")


def star_inverse_matrix(dual: DualComplex, k: int) -> sp.csr_matrix:
    """S_k^{-1} = diag(|sigma| / |*sigma|)."""
    return sp.diags(dual.hodge_ratio_b[k], format="csr")


def codifferential_matrix(
    K: SimplicialComplex, dual: DualComplex, k: int
) -> sp.csr_matrix:
    """delta_k = S_{k-1}^{-1} D_{k-1}^T S_k mapping k-cochains to (k-1)-cochains."""
    if not 1 <= k <= K.dim:
        raise ValueError(f"codifferential is defined for 1 <= k <= {K.dim}")
    d = K.coboundary_matrix(k - 1)
    return (
        star_inverse_matrix(dual, k - 1) @ (d.T.tocsr() @ star_matrix(dual, k))
    ).tocsr()


def hodge_laplacian_matrix(
    K: SimplicialComplex, dual: DualComplex, k: int
) -> sp.csr_matrix:
    """L_k = D_{k-1} delta_k + delta_{k+1} D_k on k-cochains."""
    if not 0 <= k <= K.dim:
        raise ValueError(f"no {k}-cochains on a {K.dim}-complex")
    n = K.n_simplices(k)
    L = sp.csr_matrix((n, n))
    if k >= 1:
        L = L + K.coboundary_matrix(k - 1) @ codifferential_matrix(K, dual, k)
    if k <= K.dim - 1:
        L = L + codifferential_matrix(K, dual, k + 1) @ K.coboundary_matrix(k)
    return L.tocsr()


def discrete_inner(dual: DualComplex, k: int, u: np.ndarray, v: np.ndarray) -> float:
    """Cochain inner product [[u, v]]_k = sum a_sigma u_sigma v_sigma."""
    if len(u) != len(v):
        raise ValueError("cochain lengths differ")
    return float(np.sum(dual.hodge_ratio_a[k] * u * v))


def discrete_norm(dual: DualComplex, k: int, u: np.ndarray) -> float:
    return float(np.sqrt(np.sum(dual.hodge_ratio_a[k] * u * u)))


def j_interpolant(
    K: SimplicialComplex, dual: DualComplex, form: PolyForm
) -> np.ndarray:
    """Dual-averaging interpolant (J omega)_sigma = b_sigma int_{*sigma} star omega."""
    k = form.degree
    return dual.hodge_ratio_b[k] * de_rham_dual(K, dual, hodge_star(form))


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
    diff = lhs - rhs
    interior = ~K.is_boundary(k - 1)
    w = dual.hodge_ratio_a[k - 1][interior] * diff[interior] ** 2
    return float(np.sqrt(w.sum()))


# ---------------------------------------------------------------------------
# Whitney reconstruction
# ---------------------------------------------------------------------------


def _triangle_frames(K: SimplicialComplex, t: np.ndarray):
    """Origins (T, 2), barycentric gradients (T, 3, 2) and signed
    determinants (T,) of the triangles with indices t."""
    pts = K.vertices[K.simplices(2)[t]]
    p0 = pts[:, 0]
    e1 = pts[:, 1] - p0
    e2 = pts[:, 2] - p0
    det = _cross2(e1, e2)
    # grad lambda_1 and grad lambda_2 are the rotated opposite edges over det
    g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=1) / det[:, None]
    g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1) / det[:, None]
    return p0, np.stack([-(g1 + g2), g1, g2], axis=1), det


def _whitney_field(
    K: SimplicialComplex,
    k: int,
    cochain: np.ndarray,
    t: np.ndarray,
    lam: np.ndarray,
    grads: np.ndarray,
    det: np.ndarray,
) -> np.ndarray:
    """Whitney reconstruction of a k-cochain on triangles t at the shared
    barycentric points lam (q, 3), given the triangles' frames; the basis
    is the one documented in `whitney_evaluate`.  Returns (T, q) values for
    k = 0, 2 and (T, q, 2) vector proxies for k = 1.
    """
    if k == 0:
        return np.einsum("tv,qv->tq", cochain[K.simplices(2)[t]], lam)
    if k == 1:
        field = np.zeros((len(t), len(lam), 2))
        for local, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):  # cell_edges order
            u_e = cochain[K.cell_edges[t, local]]
            wpart = (
                lam[None, :, i, None] * grads[:, None, j, :]
                - lam[None, :, j, None] * grads[:, None, i, :]
            )
            field += u_e[:, None, None] * wpart
        return field
    if k == 2:
        dens = 2.0 * cochain[t] / det  # s_T / |T|, signed by orientation
        return np.repeat(dens[:, None], len(lam), axis=1)
    raise ValueError(f"no {k}-cochains on a 2-complex")


def whitney_evaluate(
    K: SimplicialComplex,
    k: int,
    cochain: np.ndarray,
    tri_index: int,
    points: np.ndarray,
) -> np.ndarray:
    """Evaluate the Whitney reconstruction of a k-cochain inside one triangle.

    Lowest-order basis on a triangle with ascending vertices (v0, v1, v2):
    k = 0 the hat functions lambda_i; k = 1 the edge forms
    lambda_i grad lambda_j - lambda_j grad lambda_i over ascending edges
    (i, j); k = 2 the constant density s_T / |T| whose signed integral over
    the ascending orientation is 1.

    Returns values (m,) for k = 0, 2 and vector proxies (m, 2) for k = 1.

    Raises
    ------
    ValueError
        If a point lies outside the triangle or is not finite.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    t = np.array([int(tri_index)])
    p0, grads, det = _triangle_frames(K, t)
    lam = (pts - p0[0]) @ grads[0].T + [1.0, 0.0, 0.0]  # lambda(p0) = (1, 0, 0)
    if not (lam >= -1e-12).all():  # also rejects NaN coordinates
        raise ValueError(
            f"a point lies outside triangle {K.simplices(2)[t[0]]} "
            f"or is not finite"
        )
    return _whitney_field(K, k, cochain, t, lam, grads, det)[0]


def l2_norm_whitney(K: SimplicialComplex, k: int, cochain: np.ndarray) -> float:
    """L2 norm over the domain of the Whitney reconstruction of a cochain.

    Element-wise quadrature of |W w|^2; the integrand is quadratic, so the
    degree-4 rule is already more than exact.
    """
    rule = triangle_rule(4)
    xi, w = rule.points, rule.weights
    lam = np.concatenate([(1.0 - xi.sum(axis=1))[:, None], xi], axis=1)  # (q, 3)
    t = np.arange(K.n_simplices(2))
    _, grads, det = _triangle_frames(K, t)
    field = _whitney_field(K, k, cochain, t, lam, grads, det)
    sq = (field**2).sum(axis=2) if k == 1 else field**2
    per_tri = np.abs(det) * (sq @ w)
    return float(np.sqrt(per_tri.sum()))
