"""Geometric multigrid preconditioner for the degree-k system on grid meshes.

Both mesh families have the lattice numbering of `meshes._Grid`: level l
is the red refinement of level l - 1, whose vertices are those with even
lattice coordinates (row r, place j in the row).  The transfer from level
l - 1 to l is P_k = R_h W_2h, the fine de Rham map of the coarse cochain's
Whitney form (Arnold, Falk & Winther 2000; Bell & Olson 2008), with the
barycentric position of a fine simplex in its parent taken from the
reference grid and gradients, edge vectors and areas from the actual
vertices.  So k = 1 gives (lam_i grad lam_j - lam_j grad lam_i) . (b - a),
lam at the midpoint of the fine edge [a, b], and k = 2 gives +-|t| / (sum
of |children|), the sums carried down as the coarse measures.  Transfers
from topology alone let iterations grow like h^-1 on the perturbed family,
and these commute with the coboundary only on the symmetric family: on
perturbed (5, 2, 0.3), |D1 P1 - P2 D1| reaches 0.13.

Coarse operators go down to level 3, solved there by a dense
pseudo-inverse; on a grid of level 3 or below there is no coarser level,
and the cycle is M's own pseudo-inverse.  At k = 0 and 2 they are Galerkin
P^T A P, which keeps the stencil (7.0 and 4.0 nonzeros per row at
perturbed level 8, 5.8 and 3.6 at level 3), halved at k = 2.  At k = 1
Galerkin fills in (10.9 per row at level 8, 28.5 to 43 below; even its
curl-curl half has 23.5 on perturbed (5, 2, 0.3), 9.7 on the symmetric
grid), so k = 1 takes each coarse grid's own DEC system, the paper's
Whitney-form reading: the fine level's `dec_system` on that grid's
coboundaries and circumcentric stars by the signed (cotangent) formulas of
`dual._cotangent_stars`, which need no well-centered coarse grid.  It is
positive semidefinite when every vertex star is positive; multigrid_cycle
declines a grid where one is not, as it declines a mesh that is not a grid.

The k = 2 system is a two-point flux scheme on the dual, with energy
sum_e (|e| / |*e|) (jump of S_2 u across e)^2.  A coarse edge holds two
fine edges of half its length and half its dual length, and the piecewise
constant P_2 gives both the coarse jump, so P^T A P counts each coarse
flux twice: on the symmetric grid it is exactly twice the coarse grid's
own DEC system, and its correction comes back half as large (Braess's
observation for aggregation multigrid, Computing 55, 1995).  Halved, it
lets one cycle serve every degree: V(2,2), two smoothing steps before and
after one coarse visit (at perturbed (8, 1), k = 2, 13 CG iterations
against 56 unhalved).  The smoother is one degree-2 Chebyshev step on
D^-1 A and runs as often after the coarse visit as before, so the cycle is
symmetric.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .complex import SimplicialComplex, _cross, _opposite, _planes
from .dual import _cotangent_stars
from .meshes import _Grid, _vid
from .operators import dec_system

# the six fine vertices of a coarse triangle as midpoints of corners a, b,
# their barycentric coordinates there, and its nine edges and four triangles
_A, _B = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])
_LAM = (np.eye(3)[_A] + np.eye(3)[_B]) / 2
_EDGES = np.array([[0, 3], [3, 1], [0, 4], [4, 2], [1, 5], [5, 2], [3, 4], [3, 5], [4, 5]])
_TRIANGLES = np.array([[0, 3, 4], [1, 3, 5], [2, 4, 5], [3, 4, 5]])
_PAIRS = np.array([[0, 1], [0, 2], [1, 2]])  # K.cell_edges' local order


def _grid(K: SimplicialComplex) -> _Grid | None:
    """The lattice of the level-m grid when K has its vertex count and cell
    table (either family, whatever the vertex positions), else None."""
    nv = K.n_simplices(0)
    n = int(round((np.sqrt(8.0 * nv + 1.0) - 3.0) / 2.0))
    if n < 2 or n & (n - 1) or (n + 1) * (n + 2) // 2 != nv or K.n_simplices(2) != n * n:
        return None
    grid = _Grid(n)
    return grid if np.array_equal(K.simplices(2), grid.tri) else None


def _levels(M: sp.csr_matrix, K: SimplicialComplex, k: int):
    """(A, Ps) on the level-m grid K: M and the operators of levels m-1, ..., 3,
    and the transfers P_k into levels m, ..., 4, finest first.  Each step builds
    P_k, gathers the coarse vertices and takes the coarse operator: Galerkin
    P^T A P at k = 0, half of it at k = 2, at k = 1 the grid's own DEC system
    from those vertices' cotangent stars.  None if K is not a grid (_grid) or
    a coarse vertex star S0 is not positive.  It recognises the grid itself, so
    the fine lattice is freed once the walk leaves it (3.3 MB at level 8)."""
    fine, x, A, Ps = _grid(K), K.vertices, [M], []
    if fine is None:
        return None
    if k == 2:
        area = np.abs(_cross(*_planes(x, fine.tri))) / 2
    for level in range(fine.n.bit_length() - 2, 2, -1):  # the coarse level, down to 3
        coarse = _Grid(2**level)
        corner = np.stack([coarse.r[coarse.tri], coarse.j[coarse.tri]], axis=-1)
        point = _vid(fine.n, *np.moveaxis(corner[:, _A] + corner[:, _B], -1, 0))
        # child ids (T, c), and for each child its coarse ids and weights (T, c, w)
        if k == 0:
            child, cols, vals = point, coarse.tri[:, None, :], _LAM[None]
        elif k == 1:
            child, tail, head = fine.edge(point[:, _EDGES[:, 0]], point[:, _EDGES[:, 1]])
            # x and y planes, coarse triangles innermost: (corner, T) and (edge, T)
            px, py = _planes(x, point[:, :3])
            ex, ey = _opposite(px, py)
            cross = _cross(px, py)
            gx, gy = -ey / cross, ex / cross  # grad lam at each corner
            dx, dy = _planes(x, head) - _planes(x, tail)
            g = gx * dx[:, None] + gy * dy[:, None]  # (edge, corner, T)
            lam = (_LAM[_EDGES[:, 0]] + _LAM[_EDGES[:, 1]]) / 2
            i, j = _PAIRS.T
            vals = lam[:, i, None] * g[:, j]
            vals -= lam[:, j, None] * g[:, i]
            vals = vals.transpose(2, 0, 1)  # (T, edge, pair), as the other degrees
            cols = coarse.edge(coarse.tri[:, i], coarse.tri[:, j])[0][:, None, :]
        else:
            child = fine.triangle(point[:, _TRIANGLES])
            parent = area[child].sum(axis=1)
            # the middle child points the other way from its parent
            vals = (area[child] / parent[:, None] * [1, 1, 1, -1])[..., None]
            cols = np.arange(len(point))[:, None, None]
            area = parent
        # a fine simplex shared by several parents takes their mean
        share = np.bincount(child.ravel(), minlength=fine.counts[k])
        vals = vals / share[child][..., None]
        rows = np.broadcast_to(child[..., None].astype(np.int32), vals.shape).ravel()
        cols = np.broadcast_to(cols.astype(np.int32), vals.shape).ravel()
        P = sp.csr_matrix((vals.ravel(), (rows, cols)), (fine.counts[k], coarse.counts[k]))
        P.data[np.abs(P.data) < 1e-13] = 0.0  # O(1) weights: roundoff of exact zeros
        P.eliminate_zeros()
        Ps.append(P)
        fine, x = coarse, x[_vid(fine.n, 2 * coarse.r, 2 * coarse.j)]
        if k != 1:  # a piecewise-constant P_2 counts each coarse flux twice
            A.append((P.T @ A[-1] @ P).tocsr() * (0.5 if k == 2 else 1.0))
            A[-1].sum_duplicates()  # canonical, as dec_system's
            continue
        K = coarse.complex(x)  # the lattice's tables: x need only pass the star check
        stars = _cotangent_stars(K)
        if not ((stars[0] > 0) & np.isfinite(stars[0])).all():
            return None
        A.append(dec_system(K, stars, 1))
    return A, Ps


def multigrid_cycle(M: sp.csr_matrix, K: SimplicialComplex, k: int):
    """The V(2,2) multigrid cycle for M, the degree-k system on the grid
    mesh K, as a function r -> z approximating M^+ r (on a grid of level 3
    or below it is M^+ itself, a dense pseudo-inverse); None when K is not a
    grid (_grid) or a coarse k = 1 grid has a vertex star that is not
    positive.  It reads M and edits none of its arrays; the operators,
    transfers and restrictions it builds are canonical CSR."""
    if (levels := _levels(M, K, k)) is None:
        return None
    A, Ps = levels
    smoothers = []
    for Al in A[:-1]:
        inv_d = 1.0 / Al.diagonal()
        # Gershgorin bound of D^-1 A; abs(Al) would sort Al in place
        g = (np.add.reduceat(np.abs(Al.data), Al.indptr[:-1]) * inv_d).max()
        # 1 - t (c0 + c1 t) is the degree-2 Chebyshev residual on [g/10, g]
        smoothers.append((inv_d, 2.2 / (0.4025 * g), -2.0 / (0.4025 * g * g)))
    w, V = np.linalg.eigh(A[-1].toarray())
    keep = w > 1e-10 * w.max()
    # numpy's own loop: a BLAS product's bits depend on its thread count
    coarse_inv = np.einsum("ik,jk->ij", V[:, keep] / w[keep], V[:, keep])
    # P^T as CSR, each row sorted by the conversion
    restrictions = [P.T.tocsr() for P in Ps]
    levels = (A, Ps, restrictions, smoothers, coarse_inv)
    if k == 0:  # M^+ maps into the range of M, the vectors that sum to zero
        return lambda r: (z := _visit(levels, 0, r)) - z.mean()
    return lambda r: _visit(levels, 0, r)


def _visit(levels, level: int, b: np.ndarray) -> np.ndarray:
    """V(2,2) from `level` down applied to b: two smoothing steps, one
    coarse visit, two smoothing steps; not a closure, which would call
    itself and keep the levels alive in a reference cycle.  The vector
    operations write into three arrays made once per visit, in the order
    of x = smooth(b); x += smooth(b - A x) and so on, so the bits are
    those of the plain expressions; only the sparse products allocate."""
    A, Ps, restrictions, smoothers, coarse_inv = levels
    if level == len(Ps):
        return coarse_inv @ b
    Al, (inv_d, c0, c1) = A[level], smoothers[level]
    x, r, s = np.empty_like(b), np.empty_like(b), np.empty_like(b)

    def smooth(v, out):
        """out = inv_d * (c0 v + c1 A (inv_d v)), the degree-2 Chebyshev step."""
        np.multiply(inv_d, v, out=out)
        q = Al @ out
        q *= c1
        np.multiply(c0, v, out=out)
        out += q
        out *= inv_d
        return out

    def residual():
        return np.subtract(b, Al @ x, out=r)

    smooth(b, x)
    x += smooth(residual(), s)
    x += Ps[level] @ _visit(levels, level + 1, restrictions[level] @ residual())
    x += smooth(residual(), s)
    x += smooth(residual(), s)
    return x
