"""Independent reference constructions that the tests compare the library
against.  They are deliberately written differently from the production
code paths and are not part of the public API."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from declab import DualComplex, MeshError, SimplicialComplex, build_complex, is_well_centered
from declab import meshes
from declab.dual import _triangle_circum_bary
from declab.meshes import _grid_cells, _grid_layout

_MASK64 = (1 << 64) - 1


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


def edge_tables_unique_rows(cells) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Edges, cell edges and boundary flags by np.unique over vertex pairs.

    Cells are sorted as build_complex stores them (ascending tuples in
    lexicographic order); the edges are the unique rows of their vertex
    pairs (0,1), (0,2), (1,2).  Returns (edges, cell_edges,
    boundary_vertices, boundary_edges) for a manifold cell list.
    """
    tris = np.sort(np.asarray(cells, dtype=np.int64), axis=1)
    tris = tris[np.lexsort(tris.T[::-1])]
    pairs = tris[:, [(0, 1), (0, 2), (1, 2)]].reshape(-1, 2)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    cell_edges = inverse.reshape(-1, 3)
    boundary_edges = np.bincount(cell_edges.ravel(), minlength=len(edges)) == 1
    boundary_vertices = np.zeros(tris.max() + 1, dtype=bool)
    boundary_vertices[edges[boundary_edges].ravel()] = True
    return edges, cell_edges, boundary_vertices, boundary_edges


def _counter_uniform_scalar(seed: int, counter: int) -> float:
    """Draw `counter` of the stream seeded with `seed`, in Python ints."""
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return (z >> 11) * 2.0**-53


def perturbed_mesh_sequential(m: int, seed: int, alpha: float = 0.15) -> SimplicialComplex:
    """The perturbed family drawn one vertex and one attempt at a time.

    Interior vertices are visited in index order; each tries displacements
    of radius alpha * h * 2^-attempt (attempt 0..20, two draws each) until
    its incident triangles stay strictly acute against the coordinates
    already fixed.  perturbed_mesh must match it bit for bit, error text
    included.  The tolerance is read from declab.meshes at call time, so a
    test that patches it there patches both.
    """
    if m < 1:
        raise ValueError("refinement level must be >= 1")
    if not 0.0 <= alpha < 0.5:
        raise ValueError("alpha must lie in [0, 0.5)")
    n_rows, offsets, coords = _grid_layout(m)
    cells = _grid_cells(n_rows, offsets)
    h = 0.5**m

    # vertex -> incident cells (rows of `cells`)
    incident: list[list[int]] = [[] for _ in range(len(coords))]
    for c, cell in enumerate(cells):
        for v in cell:
            incident[v].append(c)

    counter = 0
    for r in range(1, n_rows):
        for j in range(1, n_rows - r):
            v = int(offsets[r] + j)
            base = coords[v].copy()
            tri_pts = coords[cells[incident[v]]]
            local = cells[incident[v]] == v  # which corner is v
            for attempt in range(21):
                radius = alpha * h * 0.5**attempt
                u1 = _counter_uniform_scalar(seed, counter)
                u2 = _counter_uniform_scalar(seed, counter + 1)
                counter += 2
                rho = radius * np.sqrt(u1)
                theta = 2.0 * np.pi * u2
                cand = base + rho * np.array([np.cos(theta), np.sin(theta)])
                tri_pts[local] = cand
                if _triangle_circum_bary(tri_pts).min() > meshes.WELL_CENTERED_TOL:
                    coords[v] = cand
                    break
            else:
                raise MeshError(
                    f"could not keep the mesh well-centered around vertex "
                    f"{v} at {tuple(base.tolist())} after 20 radius halvings"
                )

    K = build_complex(coords, cells)
    ok, offenders = is_well_centered(K)
    if not ok:
        t = offenders[0]
        raise MeshError(
            f"perturbed mesh lost well-centeredness at {len(offenders)} "
            f"triangle(s), first triangle {t} with vertices "
            f"{K.simplices(2)[t].tolist()}"
        )
    return K
