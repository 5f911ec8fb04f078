"""Independent reference constructions that the tests compare the library
against.  They are deliberately written differently from the production
code paths and are not part of the public API."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from declab import (
    DualComplex,
    MeshError,
    PolyForm,
    QuadratureRule,
    SimplicialComplex,
    build_complex,
    codifferential_matrix,
    gauss_legendre_unit,
    is_well_centered,
    symmetric_mesh,
    triangle_rule,
)
from declab import forms, meshes
from declab.meshes import _Grid, _vid
from declab.multigrid import _A, _B, _EDGES, _LAM, _PAIRS, _TRIANGLES, _grid

_MASK64 = (1 << 64) - 1


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z-component of the cross product of stacked planar vectors (..., 2)."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


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
    b = 1.0 / dual.hodge_ratio_a[k - 1]
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


def hodge_laplacian_matrix(
    K: SimplicialComplex, dual: DualComplex, k: int
) -> sp.csr_matrix:
    """L_k = D_{k-1} delta_k + delta_{k+1} D_k, composed from the coboundaries
    and the codifferentials rather than read off the symmetric system."""
    if not 0 <= k <= K.dim:
        raise ValueError(f"no {k}-cochains on a {K.dim}-complex")
    n = K.n_simplices(k)
    L = sp.csr_matrix((n, n))
    if k >= 1:
        L = L + K.coboundary_matrix(k - 1) @ codifferential_matrix(K, dual, k)
    if k <= K.dim - 1:
        L = L + codifferential_matrix(K, dual, k + 1) @ K.coboundary_matrix(k)
    return L.tocsr()


def dec_system_by_star_matrices(K: SimplicialComplex, stars, k: int) -> sp.csr_matrix:
    """S_k L_k as products with diagonal star matrices: G = diag(a_k) D_{k-1},
    G diag(1 / a_{k-1}) G^T + D_k^T diag(a_{k+1}) D_k, each added to an
    empty matrix, as the library assembled it before it scaled the
    coboundary entries itself.  Its rows come out in the products' order,
    not sorted; the library must match its sorted form bit for bit."""
    M = sp.csr_matrix((K.n_simplices(k),) * 2)
    if k >= 1:
        G = sp.diags(stars[k]) @ K.coboundary_matrix(k - 1)
        M = M + G @ sp.diags(1.0 / stars[k - 1]) @ G.T
    if k <= K.dim - 1:
        D = K.coboundary_matrix(k)
        M = M + D.T @ sp.diags(stars[k + 1]) @ D
    return M.tocsr()


def is_canonical_csr(A) -> bool:
    """A is CSR and each row's column indices strictly ascend (sorted, no
    duplicates), read off the index arrays rather than scipy's flags."""
    if A.format != "csr":
        return False
    row_start = np.zeros(A.nnz + 1, dtype=bool)
    row_start[A.indptr] = True
    return bool((np.diff(A.indices) > 0)[~row_start[1:-1]].all())


def codifferential_by_star_matrices(
    K: SimplicialComplex, dual: DualComplex, k: int
) -> sp.csr_matrix:
    """delta_k = diag(1 / a_{k-1}) (D_{k-1}^T diag(a_k)) by sparse products."""
    a = dual.hodge_ratio_a
    Dt = K.coboundary_matrix(k - 1).T.tocsr()
    return (sp.diags(1.0 / a[k - 1], format="csr") @ (Dt @ sp.diags(a[k], format="csr"))).tocsr()


def grid_level(K: SimplicialComplex) -> int | None:
    """m when K is the level-m grid (multigrid._grid), else None."""
    return None if (grid := _grid(K)) is None else grid.n.bit_length() - 1


def discrete_inner(dual: DualComplex, k: int, u: np.ndarray, v: np.ndarray) -> float:
    """Cochain inner product [[u, v]]_k = sum a_sigma u_sigma v_sigma."""
    if len(u) != len(v):
        raise ValueError("cochain lengths differ")
    return float(np.sum(dual.hodge_ratio_a[k] * u * v))


def diamond_volumes(K: SimplicialComplex, circumcenters: np.ndarray, k: int) -> np.ndarray:
    """|dc(sigma)| for every k-simplex sigma: the unsigned areas of the flag
    triangles [v, c(e), c(T)] whose chain contains sigma, c(e) the midpoint
    of e and c(T) = circumcenters[T].  For each k the diamond cells of the
    k-simplices partition the domain.

    The flags are formed here one triangle and one of its edges at a time,
    and their areas by the shoelace formula, apart from the library."""
    if k not in (0, 1, 2):
        raise ValueError(f"no {k}-simplices in the plane")
    out = np.zeros(K.n_simplices(k))
    edge_id = {tuple(e): i for i, e in enumerate(K.simplices(1).tolist())}
    for t, tri in enumerate(K.simplices(2).tolist()):
        cx, cy = circumcenters[t]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            e = edge_id[tri[i], tri[j]]
            mx, my = 0.5 * (K.vertices[tri[i]] + K.vertices[tri[j]])
            for v in (tri[i], tri[j]):
                vx, vy = K.vertices[v]
                shoelace = vx * (my - cy) + mx * (cy - vy) + cx * (vy - my)
                out[(v, e, t)[k]] += 0.5 * abs(shoelace)
    return out


def exact_stars(K: SimplicialComplex) -> list[list[Fraction]]:
    """The circumcentric star ratios a_0, a_1, a_2 in exact rational
    arithmetic on K's float64 vertices.

    The cotangent of the angle between edge vectors u, w at a corner is
    (u . w) / |u x w|, rational in the coordinates, so no square root is
    taken: a_2 = 1 / |T|, a_1 = |*e| / |e| = sum_T cot(angle opposite e) / 2
    and a_0 = |*v| = sum_T (|e1|^2 cot t1 + |e2|^2 cot t2) / 8 over T's
    edges e1, e2 at v and their opposite angles t1, t2.  Written one
    triangle and one corner at a time, apart from the library."""
    x = [tuple(Fraction(float(c)) for c in p) for p in K.vertices]
    edge_id = {tuple(e): i for i, e in enumerate(K.simplices(1).tolist())}
    a0 = [Fraction(0)] * K.n_simplices(0)
    a1 = [Fraction(0)] * K.n_simplices(1)
    a2 = []
    for tri in K.simplices(2).tolist():
        (ax, ay), (bx, by), (cx, cy) = (x[v] for v in tri)
        twice_area = abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        a2.append(2 / twice_area)
        for i in range(3):
            v, p, q = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
            u = (x[p][0] - x[v][0], x[p][1] - x[v][1])
            w = (x[q][0] - x[v][0], x[q][1] - x[v][1])
            cot = (u[0] * w[0] + u[1] * w[1]) / twice_area  # angle at v
            a1[edge_id[tuple(sorted((p, q)))]] += cot / 2
            # the edge opposite v is [p, q]; it adds to both of its ends
            length2 = (x[q][0] - x[p][0]) ** 2 + (x[q][1] - x[p][1]) ** 2
            a0[p] += length2 * cot / 8
            a0[q] += length2 * cot / 8
    return [a0, a1, a2]


# -- the geometry kernels in the stacked layout -----------------------------------
#
# Coordinates as (N, k+1, 2) stacks, the sums over the stacked axes taken by
# numpy: the library computes the same formulas on x and y planes, and must
# give these bits.


def circum_bary_stacked(pts: np.ndarray) -> np.ndarray:
    """Circumcenter barycentrics (m, 3) of triangles pts (m, 3, 2):
    w_i = s_i^2 (s_j^2 + s_k^2 - s_i^2) over their sum, s_i the side
    opposite corner i."""
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = ((pts[:, [1, 0, 0]] - pts[:, [2, 2, 1]]) ** 2).sum(axis=2)
        w = d2 * (d2.sum(axis=1, keepdims=True) - 2.0 * d2)
        return w / w.sum(axis=1, keepdims=True)


def flags_stacked(K: SimplicialComplex, circumcenters: np.ndarray):
    """The 6T flag triangles [v, c(e), c(T)] of `dual._flags` as (6T, 3, 2)
    stacks, c(e) the midpoint of e: the vertex and edge index of each flag,
    its rows and its area, signed by the orientation of the rows."""
    edge = np.repeat(K.cell_edges.reshape(-1), 2)
    vertex = K.simplices(1)[K.cell_edges.reshape(-1)].reshape(-1)
    coords = np.empty((len(edge), 3, 2))
    coords[:, 0] = K.vertices[vertex]
    ends = K.vertices[K.simplices(1)[edge]]
    coords[:, 1] = 0.5 * (ends[:, 0] + ends[:, 1])
    coords[:, 2] = np.repeat(circumcenters, 6, axis=0)
    area = 0.5 * _cross2(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0])
    return vertex, edge, coords, area


def cotangent_stars_stacked(x: np.ndarray, K: SimplicialComplex):
    """a_0, a_1, a_2 by the cotangent formulas of `exact_stars`, in float64
    on K's triangles at vertex coordinates x."""
    p = x[K.simplices(2)]
    e = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]  # edge opposite each corner
    twice_area = np.abs(_cross2(e[:, 2], -e[:, 1]))
    cot = -np.einsum("tcx,tcx->tc", e[:, [1, 2, 0]], e[:, [2, 0, 1]]) / twice_area[:, None]
    w = (e**2).sum(axis=2) * cot / 8
    s0 = np.bincount(K.simplices(2).ravel(), (w.sum(axis=1, keepdims=True) - w).ravel())
    s1 = np.bincount(K.cell_edges.ravel(), (cot[:, [2, 1, 0]] / 2).ravel())
    return s0, s1, 2.0 / twice_area


def transfers_stacked(vertices: np.ndarray, m: int, k: int) -> list[sp.csr_matrix]:
    """The transfers of multigrid._levels with their weights formed on
    (T, c, 2) stacks: the k = 1 weight of fine edge [a, b] in coarse edge
    (i, j) is (lam_i grad lam_j - lam_j grad lam_i) . (b - a), with
    grad . (b - a) by einsum; k = 0 takes lam and k = 2 the area fractions."""
    fine, x = _Grid(2**m), vertices
    d = x[fine.tri[:, 1:]] - x[fine.tri[:, :1]]
    area = np.abs(_cross2(d[:, 0], d[:, 1])) / 2
    Ps = []
    for level in range(m, 3, -1):
        coarse = _Grid(2 ** (level - 1))
        corner = np.stack([coarse.r[coarse.tri], coarse.j[coarse.tri]], axis=-1)
        point = _vid(fine.n, *np.moveaxis(corner[:, _A] + corner[:, _B], -1, 0))
        if k == 0:
            child, cols, vals = point, coarse.tri[:, None, :], _LAM[None]
        elif k == 1:
            child, tail, head = fine.edge(point[:, _EDGES[:, 0]], point[:, _EDGES[:, 1]])
            p = x[point[:, :3]]
            e = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
            grad = e[..., ::-1] * [-1.0, 1.0] / _cross2(e[:, 2], -e[:, 1])[:, None, None]
            g = np.einsum("tcx,tex->tec", grad, x[head] - x[tail])
            lam = (_LAM[_EDGES[:, 0]] + _LAM[_EDGES[:, 1]]) / 2
            i, j = _PAIRS.T
            vals = lam[:, i] * g[:, :, j] - lam[:, j] * g[:, :, i]
            cols = coarse.edge(coarse.tri[:, i], coarse.tri[:, j])[0][:, None, :]
        else:
            child = fine.triangle(point[:, _TRIANGLES])
            parent = area[child].sum(axis=1)
            vals = (area[child] / parent[:, None] * [1, 1, 1, -1])[..., None]
            cols = np.arange(len(point))[:, None, None]
            area = parent
        share = np.bincount(child.ravel(), minlength=fine.counts[k])
        vals = vals / share[child][..., None]
        rows = np.broadcast_to(child[..., None], vals.shape).ravel()
        P = sp.csr_matrix(
            (vals.ravel(), (rows, np.broadcast_to(cols, vals.shape).ravel())),
            (fine.counts[k], coarse.counts[k]),
        )
        P.data[np.abs(P.data) < 1e-13] = 0.0
        P.eliminate_zeros()
        Ps.append(P)
        fine, x = coarse, x[_vid(2 * coarse.n, 2 * coarse.r, 2 * coarse.j)]
    return Ps


def dense_barycentric_horner(B: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The dense homogeneous Horner of B[a, b] l1^a l2^b l3^(n-a-b) at 1-d
    float64 points of the domain, four operations for every entry of B,
    zero or not, with the coordinates computed as Poly2 computes them:
    Poly2's zero-skipping evaluator must give its values, and the bits of
    every nonzero one."""
    l3 = y / forms._S
    l2 = x - 0.5 * l3
    l1 = 1.0 - l2 - l3
    acc, row, power, term = (np.zeros_like(l1) for _ in range(4))
    for a in range(len(B) - 1, -1, -1):
        row.fill(B[a, len(B) - 1 - a])
        power.fill(1.0)
        for b in range(len(B) - 2 - a, -1, -1):
            power *= l3
            row *= l2
            np.multiply(power, B[a, b], out=term)
            row += term
        acc *= l1
        acc += row
    return acc


def integrate_over_simplex(
    form: PolyForm, simplex: np.ndarray, rule: QuadratureRule | None = None
) -> float:
    """Integral of the trace of a k-form over one oriented k-simplex.

    simplex: (k+1, 2) coordinates; the given vertex order is the
    orientation.  k = 0 is point evaluation, k = 1 the line integral of
    (P, Q) . t ds, k = 2 the area integral of R signed by the vertex
    order.  A supplied rule must be exact for the form's degree; without
    one, the smallest exact rule is used.  The affine map and the weighted
    sum are written out here, apart from the library's quadrature kernel.
    """
    pts = np.asarray(simplex, dtype=np.float64)
    k = form.degree
    if pts.shape != (k + 1, 2):
        raise ValueError(f"a {k}-simplex needs {k + 1} points in the plane")
    if k == 0:
        return float(form.components[0](pts[0, 0], pts[0, 1]))
    d = form.poly_degree
    if rule is None:
        rule = gauss_legendre_unit(d // 2 + 1) if k == 1 else triangle_rule(d)
    elif rule.exactness < d:
        raise ValueError(
            f"rule exact to degree {rule.exactness} cannot integrate a "
            f"degree-{d} form"
        )
    edges = pts[1:] - pts[0]  # (k, 2)
    x = pts[0] + rule.points.reshape(-1, k) @ edges
    vals = [c(x[:, 0], x[:, 1]) for c in form.components]
    if k == 1:  # (P, Q) . (b - a) ds on the unit parameter interval
        return float(rule.weights @ (vals[0] * edges[0, 0] + vals[1] * edges[0, 1]))
    return float(_cross2(edges[0], edges[1]) * (rule.weights @ vals[0]))


# -- Whitney forms --------------------------------------------------------------


def _triangle_frames(K: SimplicialComplex, t: np.ndarray):
    """Origins (m, 2), barycentric gradients (m, 3, 2) and signed
    determinants (m,) of the triangles with indices t."""
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
    """Whitney reconstruction of a k-cochain at m points, point i in
    triangle t[i] at barycentric coordinates lam[i], given the triangles'
    frames; the basis is the one documented in `whitney_evaluate`.

    Returns (m,) values for k = 0, 2 and (m, 2) vector proxies for k = 1.
    Trailing axes of the cochain (several cochains side by side) follow.
    """
    if k == 0:
        return np.einsum("mv...,mv->m...", cochain[K.simplices(2)[t]], lam)
    if k == 1:
        field = 0.0
        for local, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):  # cell_edges order
            form = lam[:, i, None] * grads[:, j] - lam[:, j, None] * grads[:, i]
            u_e = cochain[K.cell_edges[t, local]]
            field = field + np.einsum("mx,m...->mx...", form, u_e)
        return field
    if k == 2:  # s_T / |T|, signed by orientation
        return np.einsum("m...,m->m...", cochain[t], 2.0 / det)
    raise ValueError(f"no {k}-cochains on a 2-complex")


def whitney_evaluate(
    K: SimplicialComplex,
    k: int,
    cochain: np.ndarray,
    tri_index,
    points: np.ndarray,
) -> np.ndarray:
    """Evaluate the Whitney reconstruction of a k-cochain at points, each
    inside its triangle: tri_index is one triangle for every point or one
    per point.

    Lowest-order basis on a triangle with ascending vertices (v0, v1, v2):
    k = 0 the hat functions lambda_i; k = 1 the edge forms
    lambda_i grad lambda_j - lambda_j grad lambda_i over ascending edges
    (i, j); k = 2 the constant density s_T / |T| whose signed integral over
    the ascending orientation is 1.

    Returns values (m,) for k = 0, 2 and vector proxies (m, 2) for k = 1,
    followed by any trailing axes of the cochain.

    Raises
    ------
    ValueError
        If a point lies outside its triangle or is not finite.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    t = np.broadcast_to(np.asarray(tri_index, dtype=np.int64), (len(pts),))
    p0, grads, det = _triangle_frames(K, t)
    lam = np.einsum("mx,mvx->mv", pts - p0, grads) + [1.0, 0.0, 0.0]  # lambda(p0) = (1, 0, 0)
    outside = np.flatnonzero(~(lam >= -1e-12).all(axis=1))  # NaN counts as outside
    if len(outside):
        i = outside[0]
        raise ValueError(
            f"point {pts[i]} lies outside triangle {K.simplices(2)[t[i]]} "
            f"or is not finite"
        )
    return _whitney_field(K, k, cochain, t, lam, grads, det)


def l2_norm_whitney(K: SimplicialComplex, k: int, cochain: np.ndarray) -> float:
    """L2 norm over the domain of the Whitney reconstruction of a cochain.

    Element-wise quadrature of |W w|^2; the integrand is quadratic, so the
    degree-4 rule is already more than exact.
    """
    rule = triangle_rule(4)
    nt, nq = K.n_simplices(2), len(rule.weights)
    xi = np.tile(rule.points, (nt, 1))
    lam = np.concatenate([(1.0 - xi.sum(axis=1))[:, None], xi], axis=1)
    t = np.repeat(np.arange(nt), nq)
    _, grads, det = _triangle_frames(K, t)
    field = _whitney_field(K, k, cochain, t, lam, grads, det).reshape(nt, nq, -1)
    per_tri = np.abs(det[::nq]) * ((field**2).sum(axis=2) @ rule.weights)
    return float(np.sqrt(per_tri.sum()))


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
    K0 = symmetric_mesh(m)
    coords, cells = K0.vertices.copy(), K0.simplices(2)
    h = 0.5**m

    # vertex -> incident cells (rows of `cells`)
    incident: list[list[int]] = [[] for _ in range(len(coords))]
    for c, cell in enumerate(cells):
        for v in cell:
            incident[v].append(c)

    counter = 0
    for v in np.flatnonzero(~K0.is_boundary(0)).tolist():
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
            if circum_bary_stacked(tri_pts).min() > meshes.WELL_CENTERED_TOL:
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
