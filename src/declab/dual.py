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
the one private helper ``_dual_cells`` forms the pieces of the dual cells,
with K's vertices and edge midpoints, for the integrals over them and the
centroid check.  Every kernel holds its corners as x and y planes with the
simplices innermost, (3, T) for the triangles and (2, 3, 6T) for the flags,
and writes each sum over the three corners out as (a + b) + c, numpy's order
over a stacked axis.
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
# largest deviation of a dual centroid from its primal one that
# check_centroid_condition counts as coincidence
CENTROID_TOL = 1e-12
_BLOCK = 8192  # triangles per block of the per-triangle geometry (_blocks)


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
    WELL_CENTERED_TOL (so a NaN from overflow counts as offending).  Blocks
    of triangles (`_blocks`) keep its temporaries small (whole, 11 MB at
    level 8).
    """
    bad = np.concatenate([
        rows.start + _offenders(_triangle_circum_bary(x, y)) for rows, x, y in _blocks(K)
    ])
    return len(bad) == 0, bad


def _blocks(K: SimplicialComplex):
    """Each block of _BLOCK triangles of K as (rows, x, y): its slice of the
    triangle table and its corners as x and y planes (3, m), gathered
    through `_planes`.  The whole-level kernels walk these, so that their
    temporaries are a block's, not a level's."""
    for lo in range(0, K.n_simplices(2), _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        yield rows, *_planes(K.vertices, K.simplices(2)[rows])


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
    over dual cells form their pieces by ``_dual_cells`` when they need them.
    """

    circumcenters: np.ndarray  # (T, 2)
    hodge_ratio_a: list[np.ndarray]  # a = |*sigma| / |sigma|


def _dual_cells(K: SimplicialComplex, circumcenters: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """The pieces of the dual cells of K's k-simplices: each piece's owner
    k-simplex, its corners as x and y planes (2, 3 - k, N) and its measure,
    signed by its orientation in the cell; c(e) is the midpoint of e.

      * k = 2: the circumcenters c(T), of measure 1 signed by T's orientation;
      * k = 1: the 3T segments [c(e), c(T)], in cell_edges order, their
        lengths signed by the flags [a, c(e), c(T)] at the tail a of e: a
        segment runs along the +90-degree rotation of e's ascending tangent
        where its flag turns counterclockwise;
      * k = 0: the 6T flags [v, c(e), c(T)], each edge's tail then head, with
        their signed areas.
    """
    if k == 2:
        sign = np.where(_cross(*_planes(K.vertices, K.simplices(2))) > 0.0, 1.0, -1.0)
        return np.arange(K.n_simplices(2)), circumcenters.T[:, None], sign
    # a flag at each of the 2 - k first ends of each edge of each triangle
    edge = np.repeat(K.cell_edges.reshape(-1), 2 - k)
    vertex = K.simplices(1)[K.cell_edges.reshape(-1), : 2 - k].reshape(-1)
    ends = _planes(K.vertices, K.simplices(1))
    midpoint = (0.5 * (ends[:, 0] + ends[:, 1])).take(edge, axis=1)
    center = np.repeat(circumcenters.T, 3 * (2 - k), axis=1)
    flags = np.stack([_planes(K.vertices, vertex), midpoint, center], 1)
    area = 0.5 * _cross(*flags)
    if k == 0:
        return vertex, flags, area
    return edge, flags[:, 1:], np.sign(area) * np.linalg.norm(center - midpoint, axis=0)


def build_dual(K: SimplicialComplex) -> DualComplex:
    """Construct the circumcentric dual of a well-centered complex.

    Raises
    ------
    ValueError
        If the complex is not well-centered.
    """
    # one evaluation of the circumcenter barycentrics per block: the check and the centers
    centers, offenders = np.empty((K.n_simplices(2), 2)), []
    for rows, x, y in _blocks(K):
        bary = _triangle_circum_bary(x, y)
        offenders.append(rows.start + _offenders(bary))
        for c, out in zip((x, y), centers[rows].T):
            out[:] = bary[0] * c[0] + bary[1] * c[1] + bary[2] * c[2]
    offenders = np.concatenate(offenders)
    if len(offenders):
        t = offenders[0]
        vertices = K.simplices(2)[t]
        if np.isfinite(_triangle_circum_bary(*_planes(K.vertices, vertices[None]))).all():
            why = "does not contain its circumcenter"
        else:
            why = "has circumcenter weights that overflow"
        raise ValueError(
            f"complex is not well-centered: {len(offenders)} triangle(s) "
            f"fail, first triangle {t} with vertices {vertices.tolist()} {why}"
        )

    return DualComplex(circumcenters=centers, hodge_ratio_a=list(_cotangent_stars(K)))


def _cotangent_stars(K: SimplicialComplex):
    """Circumcentric star ratios a_0, a_1, a_2 of K's simplices by the signed
    (cotangent) formulas: |*v| = sum_T (|e1|^2 cot t1 + |e2|^2 cot t2) / 8
    over T's edges e1, e2 at v, |*e| / |e| = sum_T cot(t_opp) / 2, 1 / |T|.
    They are build_dual's on a well-centered mesh, exist on any.  Formed a
    block of triangles at a time (`_blocks`); add.at adds in index order,
    so the sums run triangle-major, block after block, as over the whole."""
    s0, s1 = np.zeros(K.n_simplices(0)), np.zeros(K.n_simplices(1))
    twice_area = np.empty(K.n_simplices(2))
    for rows, px, py in _blocks(K):
        ex, ey = _opposite(px, py)
        twice_area[rows] = np.abs(_cross(px, py))
        cot = -(ex[[1, 2, 0]] * ex[[2, 0, 1]] + ey[[1, 2, 0]] * ey[[2, 0, 1]]) / twice_area[rows]
        w = (ex**2 + ey**2) * cot / 8  # what each edge gives both its ends
        # flat indices and contiguous values take add.at's fast loop (3.5x)
        np.add.at(s0, K.simplices(2)[rows].ravel(), ((w[0] + w[1] + w[2]) - w).T.ravel())
        np.add.at(s1, K.cell_edges[rows].ravel(), (cot[::-1] / 2).T.ravel())
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
    over interior k-simplices is <= CENTROID_TOL (vacuously true if there
    are none).
    """
    if not _is_int(k) or not 0 <= k <= 2:
        raise ValueError(f"no {k}-simplices in the plane")
    owner, pieces, measure = _dual_cells(K, dual.circumcenters, k)
    # each piece adds |measure| * (centroid, 1), in order: the centroid is
    # divided by the total weight of the pieces, not by the star's volume
    nk, weight = K.n_simplices(k), np.abs(measure)
    moments = [np.bincount(owner, weight * c, nk) for c in pieces.mean(axis=1)]
    dual_centroid = np.stack(moments) / np.bincount(owner, weight, nk)

    interior = ~K.is_boundary(k)
    if not interior.any():
        return True, 0.0
    primal_centroid = _planes(K.vertices, K.simplices(k)).mean(axis=1)
    dev = np.linalg.norm((primal_centroid - dual_centroid)[:, interior], axis=0)
    max_dev = float(dev.max())
    return max_dev <= CENTROID_TOL, max_dev
