"""Circumcentric dual cells, diamond cells, and centroid diagnostics.

On a well-centered triangulation (every triangle strictly acute, so each
circumcenter lies inside its triangle) the dual of a k-simplex sigma is the
union of "flag" simplices spanned by the circumcenters of an ascending chain
sigma = sigma_k < sigma_{k+1} < ... < sigma_n.  In two dimensions:

  * dual of a triangle T   = its circumcenter c(T)        (a point, |*T| = 1)
  * dual of an edge e      = segments [c(e), c(T)] over the triangles T >= e
  * dual of a vertex v     = triangles [v, c(e), c(T)] over chains v < e < T

Dual volumes are unsigned sums over the flag pieces; well-centeredness makes
all pieces consistently oriented, so unsigned equals signed.  The volume
ratios a = |*sigma| / |sigma| and b = 1/a are the diagonal Hodge star
entries.

Diamond cells stretch each flag to a full chain v < e < T; for each k the
diamond cells of the k-simplices partition the domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complex import SimplicialComplex

__all__ = [
    "triangle_circumcenters",
    "is_well_centered",
    "well_centered_margin",
    "DualComplex",
    "build_dual",
    "diamond_volumes",
    "check_centroid_condition",
]

WELL_CENTERED_TOL = 1e-10


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z-component of the cross product of stacked planar vectors."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _triangle_circum_bary(pts: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of the circumcenters of triangles (m, 3, 2).

    Closed form w_i = s_i^2 (s_j^2 + s_k^2 - s_i^2) with s_i the side length
    opposite vertex i; the normalizer equals 16 * area^2.
    """
    # weights that overflow come out NaN; the well-centeredness checks
    # reject them, so the overflow is not also warned of
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = ((pts[:, [1, 0, 0]] - pts[:, [2, 2, 1]]) ** 2).sum(axis=2)
        w = d2 * (d2.sum(axis=1, keepdims=True) - 2.0 * d2)
        return w / w.sum(axis=1, keepdims=True)


def triangle_circumcenters(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized circumcenters of triangles.

    Parameters
    ----------
    pts : (m, 3, 2) vertex coordinates.

    Returns
    -------
    centers : (m, 2); barycentric : (m, 3).
    """
    bary = _triangle_circum_bary(pts)
    centers = np.einsum("mi,min->mn", bary, pts)
    return centers, bary


def well_centered_margin(K: SimplicialComplex) -> float:
    """Smallest circumcenter barycentric coordinate over all triangles.

    Positive iff every triangle is strictly acute.  (Edge circumcenters
    are midpoints, barycentric (1/2, 1/2), and can never bind in R^2.)
    Weights that overflow give -inf, so ``margin > 0`` never passes a
    triangle that :func:`is_well_centered` rejects.
    """
    bary = _triangle_circum_bary(K.vertices[K.simplices(2)])
    if np.isnan(bary).any():
        return -np.inf
    return float(bary.min())


def is_well_centered(K: SimplicialComplex) -> tuple[bool, np.ndarray]:
    """Check that every simplex contains its circumcenter strictly inside.

    Returns (ok, offenders); offenders holds the indices of the triangles
    whose circumcenter barycentric coordinates are not all above
    WELL_CENTERED_TOL (so a NaN from overflow counts as offending).
    """
    bary = _triangle_circum_bary(K.vertices[K.simplices(2)])
    bad = np.flatnonzero(~(bary.min(axis=1) > WELL_CENTERED_TOL))
    return len(bad) == 0, bad


@dataclass
class DualComplex:
    """Circumcentric dual of a well-centered complex.

    Per-degree arrays (k = 0, 1, 2) are indexed by primal simplex index.
    ``flag_*`` arrays enumerate the 6T elementary flag triangles
    [v, c(e), c(T)] over chains v < e < T; they carry the dual-cell and
    diamond-cell geometry in flat, vectorizable form.
    """

    complex: SimplicialComplex
    centers: list[np.ndarray]  # circumcenters per degree
    primal_volumes: list[np.ndarray]
    dual_volumes: list[np.ndarray]
    hodge_ratio_a: list[np.ndarray]  # a = |*sigma| / |sigma|
    hodge_ratio_b: list[np.ndarray]  # b = |sigma| / |*sigma|
    tri_orientation: np.ndarray  # (T,) +1 if ascending tuple is CCW, else -1
    flag_vertex: np.ndarray  # (6T,) vertex index of each flag triangle
    flag_edge: np.ndarray  # (6T,) edge index
    flag_tri: np.ndarray  # (6T,) triangle index
    flag_coords: np.ndarray  # (6T, 3, 2) rows [v, c(e), c(T)]
    flag_area: np.ndarray = field(init=False)  # (6T,) unsigned areas

    def __post_init__(self):
        q = self.flag_coords
        self.flag_area = 0.5 * np.abs(
            _cross2(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0])
        )


def build_dual(K: SimplicialComplex) -> DualComplex:
    """Construct the circumcentric dual of a well-centered complex.

    Raises
    ------
    ValueError
        If the complex is not well-centered.
    """
    ok, offenders = is_well_centered(K)
    if not ok:
        t = offenders[0]
        vertices = K.simplices(2)[t]
        if np.isfinite(_triangle_circum_bary(K.vertices[vertices][None])).all():
            why = "does not contain its circumcenter"
        else:
            why = "has circumcenter weights that overflow"
        raise ValueError(
            f"complex is not well-centered: {len(offenders)} triangle(s) "
            f"fail, first triangle {t} with vertices {vertices.tolist()} {why}"
        )

    tris = K.simplices(2)
    pts = K.vertices[tris]
    tri_centers, _ = triangle_circumcenters(pts)

    edges = K.simplices(1)
    edge_pts = K.vertices[edges]
    edge_centers = 0.5 * (edge_pts[:, 0] + edge_pts[:, 1])
    centers = [K.vertices.copy(), edge_centers, tri_centers]

    edge_len = np.linalg.norm(edge_pts[:, 1] - edge_pts[:, 0], axis=1)
    cross = _cross2(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    tri_area = 0.5 * np.abs(cross)
    tri_orientation = np.where(cross > 0.0, 1.0, -1.0)
    primal_volumes = [np.ones(K.n_simplices(0)), edge_len, tri_area]

    nt = len(tris)
    # flags: per triangle, 3 edges x 2 endpoints = 6 chains v < e < T
    flag_tri = np.repeat(np.arange(nt, dtype=np.int64), 6)
    flag_edge = np.repeat(K.cell_edges.reshape(-1), 2)
    flag_vertex = edges[K.cell_edges.reshape(-1)].reshape(-1)

    flag_coords = np.empty((6 * nt, 3, 2))
    flag_coords[:, 0] = K.vertices[flag_vertex]
    flag_coords[:, 1] = edge_centers[flag_edge]
    flag_coords[:, 2] = tri_centers[flag_tri]

    dual = DualComplex(
        complex=K,
        centers=centers,
        primal_volumes=primal_volumes,
        dual_volumes=[],
        hodge_ratio_a=[],
        hodge_ratio_b=[],
        tri_orientation=tri_orientation,
        flag_vertex=flag_vertex,
        flag_edge=flag_edge,
        flag_tri=flag_tri,
        flag_coords=flag_coords,
    )

    # |*T| = 1; |*e| = sum of segment lengths c(e)->c(T); |*v| = sum of
    # flag triangle areas.  Each (e, T) flag pair is visited once ([::2]).
    seg_len = np.linalg.norm(
        tri_centers[flag_tri[::2]] - edge_centers[flag_edge[::2]], axis=1
    )
    dv1 = np.zeros(K.n_simplices(1))
    np.add.at(dv1, flag_edge[::2], seg_len)
    dv0 = np.zeros(K.n_simplices(0))
    np.add.at(dv0, flag_vertex, dual.flag_area)
    dual.dual_volumes = [dv0, dv1, np.ones(nt)]

    dual.hodge_ratio_a = [
        dv / pv for dv, pv in zip(dual.dual_volumes, primal_volumes)
    ]
    dual.hodge_ratio_b = [
        pv / dv for dv, pv in zip(dual.dual_volumes, primal_volumes)
    ]
    return dual


def diamond_volumes(K: SimplicialComplex, dual: DualComplex, k: int) -> np.ndarray:
    """|dc(sigma)| for every k-simplex sigma (unsigned flag-area sums)."""
    owners = {0: dual.flag_vertex, 1: dual.flag_edge, 2: dual.flag_tri}
    if k not in owners:
        raise ValueError(f"no {k}-simplices in the plane")
    return np.bincount(
        owners[k], weights=dual.flag_area, minlength=K.n_simplices(k)
    )


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
    nk = K.n_simplices(k)
    primal_centroid = K.vertices[K.simplices(k)].mean(axis=1)

    if k == 2:
        dual_centroid = dual.centers[2]
    elif k == 1:
        a = dual.centers[1][dual.flag_edge[::2]]
        b = dual.centers[2][dual.flag_tri[::2]]
        seg_len = np.linalg.norm(b - a, axis=1)
        acc = np.zeros((nk, 2))
        np.add.at(acc, dual.flag_edge[::2], seg_len[:, None] * 0.5 * (a + b))
        dual_centroid = acc / dual.dual_volumes[1][:, None]
    elif k == 0:
        acc = np.zeros((nk, 2))
        np.add.at(
            acc,
            dual.flag_vertex,
            dual.flag_area[:, None] * dual.flag_coords.mean(axis=1),
        )
        dual_centroid = acc / dual.dual_volumes[0][:, None]
    else:
        raise ValueError(f"no {k}-simplices in the plane")

    interior = ~K.is_boundary(k)
    if not interior.any():
        return True, 0.0
    dev = np.linalg.norm((primal_centroid - dual_centroid)[interior], axis=1)
    max_dev = float(dev.max())
    return max_dev <= 1e-12, max_dev
