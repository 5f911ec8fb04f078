"""Oriented simplicial complexes on planar triangulations.

A complex is built from an explicit vertex table and a list of triangles.
All lower-dimensional simplices are enumerated, deduplicated, and sorted
lexicographically by ascending vertex tuple, so every k-simplex has a stable
integer index.

Orientation convention: a simplex is identified with its ascending vertex
tuple, and the oriented boundary of [v0, ..., vk] (v0 < ... < vk) is

    boundary [v0, ..., vk] = sum_j (-1)^j [v0, ..., v_{j-1}, v_{j+1}, ..., vk].

The coboundary matrix D_k is the transpose of this incidence: D_k[tau, sigma]
is the coefficient of sigma in the boundary of tau, so that the discrete
Stokes pairing <D w, tau> = <w, boundary tau> holds by construction.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np
import scipy.sparse as sp

__all__ = ["SimplicialComplex", "build_complex"]


class SimplicialComplex:
    """Two-dimensional simplicial complex with sparse incidence on demand.

    Instances are produced by :func:`build_complex`; the constructor assumes
    pre-validated tables.  The complex holds only what defines the mesh, its
    coordinates and simplex tables; boundary flags and coboundaries are
    derived from them on each call.

    Attributes
    ----------
    vertices : (V, 2) float array of vertex coordinates, stored column-major,
        so that vertices.T is the contiguous (2, V) x and y planes that every
        corner gather (`_planes`) reads.
    dim : topological dimension (always 2).
    cell_edges : (T, 3) int32 array; row t holds the Delta_1 indices of the
        edges of triangle t in local pair order [(0,1), (0,2), (1,2)]
        relative to the ascending triangle tuple.
    """

    dim = 2

    def __init__(
        self, vertices: np.ndarray, edges: np.ndarray, triangles: np.ndarray, cell_edges: np.ndarray
    ):
        self.vertices = vertices
        self._tables = [
            np.arange(len(vertices), dtype=np.int32).reshape(-1, 1),
            edges,
            triangles,
        ]
        self.cell_edges = cell_edges

    # -- simplex tables ----------------------------------------------------

    def n_simplices(self, k: int) -> int:
        """Number of k-simplices."""
        return len(self.simplices(k))

    def simplices(self, k: int) -> np.ndarray:
        """(N_k, k+1) int32 array of ascending vertex tuples, lex-sorted."""
        if not _is_int(k) or not 0 <= k <= self.dim:
            raise ValueError(f"no {k}-simplices in a {self.dim}-complex")
        return self._tables[k]

    def is_boundary(self, k: int) -> np.ndarray:
        """Boolean mask over Delta_k: True where the simplex lies in the
        geometric boundary, an edge with one coface and that edge's
        vertices; no triangle.  Derived from cell_edges on each call."""
        flags = np.zeros(self.n_simplices(k), dtype=bool)
        if k < 2:
            edges = np.bincount(self.cell_edges.ravel(), minlength=len(self._tables[1])) == 1
            if k == 1:
                return edges
            flags[self._tables[1][edges].ravel()] = True
        return flags

    def volumes(self, k: int) -> np.ndarray:
        """|sigma| for every k-simplex: 1 for a vertex, an edge's length,
        a triangle's area."""
        table = self.simplices(k)
        if k == 0:
            return np.ones(len(table))
        x, y = _planes(self.vertices, table)
        if k == 1:
            return np.sqrt((x[1] - x[0]) ** 2 + (y[1] - y[0]) ** 2)
        return 0.5 * np.abs(_cross(x, y))

    def mesh_size(self) -> float:
        """Mesh parameter h: the largest simplex diameter (longest edge)."""
        return float(self.volumes(1).max())

    # -- incidence ----------------------------------------------------------

    def coboundary_matrix(self, k: int) -> sp.csr_matrix:
        """Sparse coboundary D_k of shape (N_{k+1}, N_k).

        D_k[tau, sigma] = (-1)^j when sigma is tau with its j-th vertex
        removed.  Entries are exact +-1 stored as float64, in canonical CSR:
        each row's faces ascend, an edge [a, b]'s vertices and a triangle
        [a, b, c]'s edges (a, b) < (a, c) < (b, c).  Built on each call.
        """
        if not _is_int(k) or not 0 <= k < self.dim:
            raise ValueError(f"coboundary_matrix: k must be in [0, {self.dim}), got {k}")
        if k == 0:
            faces = self.simplices(1)
            # boundary [a, b] = [b] - [a]
            signs = [-1.0, 1.0]
        else:  # k == 1
            faces = self.cell_edges
            # local pair order [(0,1), (0,2), (1,2)] drops vertex 2, 1, 0:
            # signs (+1, -1, +1)
            signs = [1.0, -1.0, 1.0]
        n, width = faces.shape
        return sp.csr_matrix(
            (np.tile(signs, n), faces.ravel(), np.arange(0, n * width + 1, width)),
            shape=(n, self.n_simplices(k)),
        )


def _is_int(k) -> bool:
    """True for an integer degree, level or seed: an Integral that is not a bool."""
    return isinstance(k, Integral) and not isinstance(k, bool)


def _planes(x: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The corners of simplices `cells` (N, ..., k+1) at vertices x (V, 2) as x and y
    planes (2, k+1, ..., N): numpy loops over simplices, not an axis of 2 or 3.
    On a complex's column-major vertices x.T is contiguous and no copy of the
    vertex table is made (take copies a non-contiguous x.T whole first)."""
    return x.T.take(cells.T, axis=1)  # take: indexing x.T[:, cells.T] is 4x slower


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Twice the signed area of triangles with corner planes x and y (3, ...),
    positive where the corners run counterclockwise."""
    return (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])


def _opposite(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edge vectors opposite each corner of triangles with corner planes
    x and y (3, ...), running counterclockwise where the corners do."""
    return x[[2, 0, 1]] - x[[1, 2, 0]], y[[2, 0, 1]] - y[[1, 2, 0]]


def build_complex(vertices: np.ndarray, cells: np.ndarray) -> SimplicialComplex:
    """Build a 2-D simplicial complex from vertex coordinates and triangles.

    Parameters
    ----------
    vertices : array-like, shape (V, 2)
        Vertex coordinates.
    cells : array-like, shape (T, 3)
        Vertex indices of each triangle, any order; stored ascending.  Each
        is an integer, of an integer dtype or a float with no fraction.
        The tables are checked in int64 and stored in int32.

    Raises
    ------
    ValueError
        On non-finite coordinates, vertex indices that are not integers,
        out-of-range or repeated vertex indices,
        duplicate cells, zero-area or overflowing cells, unreferenced
        vertices, or a non-manifold edge (more than two cofaces).
    """
    vertices = np.asarray(vertices, dtype=np.float64, order="F")  # column-major, as the class
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValueError("vertices must have shape (V, 2); this library is two-dimensional")
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        raise ValueError(f"vertex {int(np.argmin(finite))} has a non-finite coordinate")
    table = np.asarray(cells)
    if table.ndim != 2 or table.shape[1] != 3:
        raise ValueError("cells must have shape (T, 3)")
    # an index is an integer: of an integer dtype, or a float with no
    # fraction (NaN fails)
    kind = table.dtype.kind
    integral = kind in "iu" or kind == "f" and (table == np.trunc(table)).all()
    if integral and not isinstance(cells, np.ndarray):
        # numpy reads True among numbers as 1: a sequence's entries are looked at
        entries = np.asarray(cells, dtype=object).flat
        integral = not any(isinstance(v, (bool, np.bool_)) for v in entries)
    if not integral:
        raise ValueError("cell vertex indices must be integers")
    nv = len(vertices)
    if len(table) == 0:
        raise ValueError("complex needs at least one cell")
    if table.min() < 0 or table.max() >= nv:
        raise ValueError("cell references a vertex index out of range")
    cells = table.astype(np.int64)

    tris = np.sort(cells, axis=1)
    if np.any(np.diff(tris, axis=1) <= 0):
        bad = int(np.where(np.any(np.diff(tris, axis=1) <= 0, axis=1))[0][0])
        raise ValueError(f"cell {bad} repeats a vertex")

    # degenerate cells: area from the cross product of two edge vectors;
    # an overflow comes out as inf or NaN and is rejected here, not warned of
    x, y = _planes(vertices, tris)
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy = x[1:] - x[0], y[1:] - y[0]
        cross = _cross(x, y)
        scale = np.maximum(abs(dx), abs(dy)).max(axis=0) ** 2 + np.finfo(np.float64).tiny
        if not (np.abs(cross) > 1e-12 * scale).all():  # also rejects NaN
            bad = int(np.argmin(np.abs(cross) / scale))
            raise ValueError(f"cell {bad} is degenerate (zero or non-finite area)")

    order = np.lexsort(tris.T[::-1])
    tris = tris[order]
    if np.any(np.all(tris[1:] == tris[:-1], axis=1)):
        raise ValueError("duplicate cell")

    used = np.zeros(nv, dtype=bool)
    used[tris.ravel()] = True
    if not used.all():
        raise ValueError(f"vertex {int(np.where(~used)[0][0])} is not referenced by any cell")

    # enumerate edges by the key a * V + b of each pair a < b: numeric order
    # on the keys is lexicographic order on the pairs
    pair_local = [(0, 1), (0, 2), (1, 2)]
    pairs = tris[:, pair_local]
    keys, inverse = np.unique(pairs[..., 0] * nv + pairs[..., 1], return_inverse=True)
    edges = np.stack([keys // nv, keys % nv], axis=1).astype(np.int32)
    cell_edges = inverse.reshape(-1, 3).astype(np.int32)

    coface_count = np.bincount(cell_edges.ravel(), minlength=len(edges))
    if coface_count.max() > 2:
        bad = int(np.argmax(coface_count))
        raise ValueError(
            f"non-manifold edge {tuple(int(v) for v in edges[bad])}: "
            f"{int(coface_count[bad])} cofaces"
        )

    return SimplicialComplex(vertices, edges, tris.astype(np.int32), cell_edges)
