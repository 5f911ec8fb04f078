"""Circumcentric dual cells and centroid diagnostics.

On a well-centered triangulation (every triangle strictly acute, so each
circumcenter lies inside its triangle) the dual of a k-simplex sigma is the
union of "flag" simplices spanned by the circumcenters of an ascending chain
sigma = sigma_k < sigma_{k+1} < ... < sigma_n.  In two dimensions:

  * dual of a triangle T   = its circumcenter c(T)        (a point, |*T| = 1)
  * dual of an edge e      = segments [c(e), c(T)] over the triangles T >= e
  * dual of a vertex v     = triangles [v, c(e), c(T)] over chains v < e < T

The volume ratio a = |*sigma| / |sigma| is the diagonal Hodge star entry,
and every S^-1 reads it as 1 / a.  There is one star formula, the signed
(cotangent) formulas of ``_cotangent_stars``: |*e| / |e| is the sum of
cot(t_opp) / 2 over the triangles at e, the cotangent weight of the Whitney
1-forms.  On a well-centered mesh every flag piece is consistently oriented,
so these equal the unsigned sums over the flag pieces; they exist on any
mesh, and the coarse multigrid grids take them too.  ``DualComplex`` holds
the circumcenters c(T) and the ratios a; |sigma| is ``K.volumes(k)``, and
the one private helper ``_flags`` forms the flag pieces, with K's vertices
and edge midpoints, for the integrals over dual cells.  Every kernel holds
its corners as x and y planes with the simplices innermost, (3, T) for the
triangles and (2, 3, 6T) for the flags, and writes each sum over the three
corners out as (a + b) + c, numpy's order over a stacked axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex import SimplicialComplex, _cross, _is_int, _opposite, _planes

__all__ = [
    "is_well_centered",
    "well_centered_margin",
    "DualComplex",
    "build_dual",
    "check_centroid_condition",
]

WELL_CENTERED_TOL = 1e-10


def _triangle_circum_bary(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of the circumcenters of triangles whose
    corners have coordinates x and y, each of shape (3, ...); same shape.

    Closed form w_i = s_i^2 (s_j^2 + s_k^2 - s_i^2) with s_i the side length
    opposite vertex i; the normalizer equals 16 * area^2.  Sums over the
    corners run (a + b) + c, as numpy's over a stacked axis.
    """
    # weights that overflow come out NaN; the well-centeredness checks
    # reject them, so the overflow is not also warned of
    with np.errstate(over="ignore", invalid="ignore"):
        ex, ey = _opposite(x, y)
        d2 = ex**2 + ey**2
        w = d2 * ((d2[0] + d2[1] + d2[2]) - 2.0 * d2)
        return w / (w[0] + w[1] + w[2])


def well_centered_margin(K: SimplicialComplex) -> float:
    """Smallest circumcenter barycentric coordinate over all triangles.

    Positive iff every triangle is strictly acute.  (Edge circumcenters
    are midpoints, barycentric (1/2, 1/2), and can never bind in R^2.)
    Weights that overflow give -inf, so ``margin > 0`` never passes a
    triangle that :func:`is_well_centered` rejects.
    """
    bary = _triangle_circum_bary(*_planes(K.vertices, K.simplices(2)))
    if np.isnan(bary).any():
        return -np.inf
    return float(bary.min())


def is_well_centered(K: SimplicialComplex) -> tuple[bool, np.ndarray]:
    """Check that every simplex contains its circumcenter strictly inside.

    Returns (ok, offenders); offenders holds the indices of the triangles
    whose circumcenter barycentric coordinates are not all above
    WELL_CENTERED_TOL (so a NaN from overflow counts as offending).
    """
    bad = _offenders(_triangle_circum_bary(*_planes(K.vertices, K.simplices(2))))
    return len(bad) == 0, bad


def _offenders(bary: np.ndarray) -> np.ndarray:
    """Columns of bary (3, m) not all above WELL_CENTERED_TOL (NaN fails)."""
    return np.flatnonzero(~(bary.min(axis=0) > WELL_CENTERED_TOL))


@dataclass
class DualComplex:
    """Circumcentric dual of a well-centered complex: the circumcenters c(T)
    (T, 2) and the cotangent ratios a = |*sigma| / |sigma| per degree k,
    by primal simplex index.  S_k = diag(hodge_ratio_a[k]), and S^-1 reads
    it as 1 / a; the dual volumes are a * K.volumes(k), and |*T| = 1.  The
    other flag corners, vertices and edge midpoints, are K's: the integrals
    over dual cells form the flags when they need them.
    """

    circumcenters: np.ndarray  # (T, 2)
    hodge_ratio_a: list[np.ndarray]  # a = |*sigma| / |sigma|


def _flags(K: SimplicialComplex, circumcenters: np.ndarray) -> tuple[np.ndarray, ...]:
    """The 6T flag triangles [v, c(e), c(T)] over the chains v < e < T.

    Per triangle, 3 edges x 2 endpoints, so the (e, T) pairs are the even
    flags ([::2]), whose vertex is the tail of the edge; c(e) is the
    midpoint 0.5 * (a + b) of e = [a, b].  Returns the vertex and edge
    index of each flag (6T,), its corners [v, c(e), c(T)] as x and y planes
    (2, 3, 6T) and its area (6T,), signed by the orientation of the corners.
    """
    edge = np.repeat(K.cell_edges.reshape(-1), 2)
    vertex = K.simplices(1)[K.cell_edges.reshape(-1)].reshape(-1)
    ends = _planes(K.vertices, K.simplices(1))
    midpoint = (0.5 * (ends[:, 0] + ends[:, 1])).take(edge, axis=1)
    center = np.repeat(circumcenters.T, 6, axis=1)  # six flags per triangle
    corners = np.stack([_planes(K.vertices, vertex), midpoint, center], 1)
    return vertex, edge, corners, 0.5 * _cross(*corners)


def build_dual(K: SimplicialComplex) -> DualComplex:
    """Construct the circumcentric dual of a well-centered complex.

    Raises
    ------
    ValueError
        If the complex is not well-centered.
    """
    x, y = _planes(K.vertices, K.simplices(2))
    # one evaluation of the circumcenter barycentrics: the check and the centers
    bary = _triangle_circum_bary(x, y)
    offenders = _offenders(bary)
    if len(offenders):
        t = offenders[0]
        vertices = K.simplices(2)[t]
        if np.isfinite(bary[:, t]).all():
            why = "does not contain its circumcenter"
        else:
            why = "has circumcenter weights that overflow"
        raise ValueError(
            f"complex is not well-centered: {len(offenders)} triangle(s) "
            f"fail, first triangle {t} with vertices {vertices.tolist()} {why}"
        )

    centers = np.stack([bary[0] * c[0] + bary[1] * c[1] + bary[2] * c[2] for c in (x, y)], 1)
    return DualComplex(circumcenters=centers, hodge_ratio_a=list(_cotangent_stars(K)))


def _cotangent_stars(K: SimplicialComplex):
    """Circumcentric star ratios a_0, a_1, a_2 of K's simplices by the signed
    (cotangent) formulas: |*v| = sum_T (|e1|^2 cot t1 + |e2|^2 cot t2) / 8
    over T's edges e1, e2 at v, |*e| / |e| = sum_T cot(t_opp) / 2, 1 / |T|.
    They are build_dual's on a well-centered mesh, exist on any."""
    px, py = _planes(K.vertices, K.simplices(2))
    ex, ey = _opposite(px, py)
    twice_area = np.abs(_cross(px, py))
    cot = -(ex[[1, 2, 0]] * ex[[2, 0, 1]] + ey[[1, 2, 0]] * ey[[2, 0, 1]]) / twice_area
    w = (ex**2 + ey**2) * cot / 8  # what each edge gives both its ends
    # bincount adds in input order, which stays triangle-major
    s0 = np.bincount(K.simplices(2).ravel(), ((w[0] + w[1] + w[2]) - w).T.ravel())
    s1 = np.bincount(K.cell_edges.ravel(), (cot[::-1] / 2).T.ravel())
    return s0, s1, 2.0 / twice_area


def check_centroid_condition(
    K: SimplicialComplex, dual: DualComplex, k: int
) -> tuple[bool, float]:
    """Compare centroid(sigma) with centroid(*sigma) over interior k-simplices.

    The dual centroid is the volume-weighted centroid of the flag pieces.
    Coincidence of the two centroids is the geometric condition under which
    the dual-averaging interpolant reproduces piecewise-linear forms — the
    source of the extra convergence order on the symmetric meshes.
    Boundary simplices are excluded (their dual cells are truncated by the
    domain boundary).

    Returns
    -------
    (ok, max_deviation) : ok is true iff the maximum Euclidean deviation
    over interior k-simplices is <= 1e-12 (vacuously true if there are
    none).
    """
    if not _is_int(k) or not 0 <= k <= 2:
        raise ValueError(f"no {k}-simplices in the plane")
    if k == 2:
        dual_centroid = dual.circumcenters.T
    else:
        vertex, edge, corners, area = _flags(K, dual.circumcenters)
        if k == 1:
            a, b = corners[:, 1, ::2], corners[:, 2, ::2]
            index, weight, centroid = edge[::2], np.linalg.norm(b - a, axis=0), 0.5 * (a + b)
        else:
            index, weight, centroid = vertex, np.abs(area), corners.mean(axis=1)
        # each piece adds weight * (centroid, 1), in order: the centroid is
        # divided by the total weight of the pieces, not by the star's volume
        nk = K.n_simplices(k)
        total = np.bincount(index, weight, nk)
        dual_centroid = np.stack([np.bincount(index, weight * c, nk) for c in centroid]) / total

    interior = ~K.is_boundary(k)
    if not interior.any():
        return True, 0.0
    primal_centroid = _planes(K.vertices, K.simplices(k)).mean(axis=1)
    dev = np.linalg.norm((primal_centroid - dual_centroid)[:, interior], axis=0)
    max_dev = float(dev.max())
    return max_dev <= 1e-12, max_dev
