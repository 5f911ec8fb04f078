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

Coarse operators go down to level 3.  At k = 0 and 2 they are Galerkin
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

The level-3 operator is solved exactly, by its dense inverse from a
Cholesky factor formed in numpy's own loops (`_inverse`): no LAPACK or BLAS
call, so the thread count reaches no bit.  At k = 0 its kernel is the
constants, and the factor is that of A + c 11^T, c the mean diagonal over
n, whose inverse is A^+ on the vectors that sum to zero, the range of A.
On a grid of level 3 or below there is no coarser level, and the cycle is
M's own inverse, M^+ at k = 0.

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
_HALVES, _ENDS = np.r_[0:6, 3:6], np.r_[_A, _B[3:]]  # P_0's pairs: a midpoint's twice
_EDGES = np.array([[0, 3], [3, 1], [0, 4], [4, 2], [1, 5], [5, 2], [3, 4], [3, 5], [4, 5]])
_TRIANGLES = np.array([[0, 3, 4], [1, 3, 5], [2, 4, 5], [3, 4, 5]])
_PAIRS = np.array([[0, 1], [0, 2], [1, 2]])  # K.cell_edges' local order
_ROWS = 8192  # rows per block of the Gershgorin bound


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
    P_k (_transfer, whose temporaries are freed when it returns, before the
    coarse operator is built: at perturbed (8, 1), k = 1, they held 25 MB under
    the level-7 dec_system), gathers the coarse vertices, column-major as a
    complex's, and takes the coarse operator: Galerkin P^T A P at k = 0, half
    of it at k = 2, at k = 1 the grid's own DEC system from those vertices'
    cotangent stars.  None if K is not a grid (_grid) or a coarse vertex star
    S0 is not positive.  It recognises the grid itself, so the fine lattice
    is freed once the walk leaves it (3.3 MB at level 8)."""
    fine, x, A, Ps = _grid(K), K.vertices, [M], []
    if fine is None:
        return None
    area = K.volumes(2) if k == 2 else None
    for level in range(fine.n.bit_length() - 2, 2, -1):  # the coarse level, down to 3
        coarse = _Grid(2**level)
        P, area = _transfer(fine, coarse, x, k, area)
        Ps.append(P)
        fine, x = coarse, _planes(x, _vid(fine.n, 2 * coarse.r, 2 * coarse.j)).T  # column-major
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


def _transfer(fine: _Grid, coarse: _Grid, x: np.ndarray, k: int, area):
    """(P_k, coarse areas) from the level of `coarse` into that of `fine`, whose
    vertices are x; area holds the fine triangles' measures at k = 2 (the
    coarse ones, the sums of their children's, come back for the next step)
    and is None, and stays None, at k = 0 and 1.  P_k is compact canonical
    CSR from each fine simplex's slots in turn (tests/oracles.py forms the
    same bits on stacks).  Each parent triangle gives a fine simplex its
    weights over the number of parents; an entry sums two on a fine edge of
    two coarse triangles, and at k = 0 up to six equal ones on the fine copy
    of a coarse vertex, whose sum need not round to 1 (1 - 2^-53 at 465 of
    the 561 coarse vertices of symmetric level 6); the same bits in any order."""
    r, j = coarse.r[coarse.tri], coarse.j[coarse.tri]
    point = _vid(fine.n, r[:, _A] + r[:, _B], j[:, _A] + j[:, _B])
    # child ids (T, c), and for each child its coarse ids and weights (T, c, w)
    if k == 0:  # lam: 1 at a corner, 1/2 at each end of a midpoint's pair
        child, cols, vals = point[:, _HALVES], coarse.tri[:, _ENDS, None], np.ones((1, 1, 1))
    elif k == 1:
        child, cols, vals = _edge_weights(fine, coarse, x, point)
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
    order, w = np.argsort(child, axis=None, kind="stable"), vals.shape[-1]
    cols = np.broadcast_to(cols, vals.shape).reshape(-1, w).take(order, 0).ravel()
    vals, indptr = vals.reshape(-1, w).take(order, 0).ravel(), np.r_[0, np.cumsum(w * share)]
    P = sp.csr_matrix((vals, cols, indptr), (fine.counts[k], coarse.counts[k]))
    P.sum_duplicates()
    # O(1) weights: roundoff of exact zeros (|w| < 1e-13 with no nnz-sized |w|)
    P.data[(P.data < 1e-13) & (P.data > -1e-13)] = 0.0
    P.eliminate_zeros()
    return P.copy(), area  # arrays of its nnz, not of the slots


def _edge_weights(fine: _Grid, coarse: _Grid, x: np.ndarray, point: np.ndarray):
    """The k = 1 children of each coarse triangle, whose six fine vertices
    are `point` (T, 6): its nine fine edge ids (T, 9), the coarse edges of
    its corner pairs (T, 1, 3) and the weights (T, 9, 3) of fine edge [a, b]
    in them, (lam_i grad lam_j - lam_j grad lam_i) . (b - a) with lam at the
    edge's midpoint, formed one fine edge at a time on x and y planes with
    the coarse triangles innermost, so that no (9, 3, T) temporary exists;
    every corner is gathered through `_planes` from the column-major x."""
    child, tail, head = fine.edge(point[:, _EDGES[:, 0]], point[:, _EDGES[:, 1]])
    px, py = _planes(x, point[:, :3])
    ex, ey = _opposite(px, py)
    cross = _cross(px, py)
    gx, gy = -ey / cross, ex / cross  # grad lam at each corner (corner, T)
    i, j = _PAIRS.T
    vals = np.empty(child.shape + (3,))
    for e, lam in enumerate((_LAM[_EDGES[:, 0]] + _LAM[_EDGES[:, 1]]) / 2):
        dx, dy = _planes(x, head[:, e]) - _planes(x, tail[:, e])
        g = gx * dx + gy * dy  # (corner, T)
        vals[:, e] = (lam[i, None] * g[j] - lam[j, None] * g[i]).T
    cols = coarse.edge(coarse.tri[:, i], coarse.tri[:, j])[0][:, None, :]
    return child, cols, vals


def multigrid_cycle(M: sp.csr_matrix, K: SimplicialComplex, k: int):
    """The V(2,2) multigrid cycle for M, the degree-k system on the grid
    mesh K, as a function r -> z approximating M^+ r (on a grid of level 3
    or below it is M^+ itself, the exact coarse solve); None when K is not a
    grid (_grid) or a coarse k = 1 grid has a vertex star that is not
    positive.  It reads M and edits none of its arrays; the operators and
    transfers it builds are canonical CSR, and it restricts by P^T, a view
    of P, made once, that sums each coarse entry over the fine ones in
    ascending order: the bits of a CSR copy of P^T without the copy (4.7 MB
    at perturbed k = 1, level 8; a restriction takes 0.1 ms longer there)."""
    if (levels := _levels(M, K, k)) is None:
        return None
    A, Ps = levels
    smoothers = []
    for Al in A[:-1]:
        inv_d = 1.0 / Al.diagonal()
        g = _gershgorin(Al, inv_d)
        # 1 - t (c0 + c1 t) is the degree-2 Chebyshev residual on [g/10, g]
        smoothers.append((inv_d, 2.2 / (0.4025 * g), -2.0 / (0.4025 * g * g)))
    coarse = A[-1].toarray()
    if k == 0:  # ker = the constants: M + c 11^T, c the mean diagonal over n
        coarse += coarse.diagonal().mean() / len(coarse)
    levels = (A, Ps, [P.T for P in Ps], smoothers, _inverse(coarse))
    if k == 0:  # M^+ maps into the range of M, the vectors that sum to zero
        return lambda r: (z := _visit(levels, 0, r)) - z.mean()
    return lambda r: _visit(levels, 0, r)


def _inverse(C: np.ndarray) -> np.ndarray:
    """C^-1 for a symmetric positive definite C: the Cholesky factor
    C = L L^T by n rank-1 updates, L^-1 by forward substitution and
    L^-T L^-1 by einsum, all in numpy's own loops.  No LAPACK or BLAS call,
    whose bits would depend on the thread count and whose threads stalled
    eigh (13-20 ms per 45 x 45 call under two OpenBLAS threads)."""
    n = len(C)
    C, L, inv = C.copy(), np.zeros((n, n)), np.zeros((n, n))
    for j in range(n):
        L[j:, j] = C[j:, j] / np.sqrt(C[j, j])
        C[j:, j:] -= L[j:, j, None] * L[None, j:, j]
    for i in range(n):
        inv[i, :i] = -np.einsum("k,kj->j", L[i, :i], inv[:i, :i]) / L[i, i]
        inv[i, i] = 1.0 / L[i, i]
    return np.einsum("ki,kj->ij", inv, inv)


def _gershgorin(A: sp.csr_matrix, inv_d: np.ndarray) -> float:
    """max_i inv_d[i] sum_j |A_ij|, the Gershgorin bound of D^-1 A, a block
    of rows at a time: |A| whole would be an nnz-sized temporary (8.6 MB at
    perturbed k = 1, level 8), and abs(A) would sort A in place."""
    bound, n = 0.0, A.shape[0]
    for lo in range(0, n, _ROWS):
        hi = min(lo + _ROWS, n)
        start = A.indptr[lo]
        sums = np.add.reduceat(np.abs(A.data[start:A.indptr[hi]]), A.indptr[lo:hi] - start)
        bound = max(bound, (sums * inv_d[lo:hi]).max())
    return bound


def _visit(levels, level: int, b: np.ndarray) -> np.ndarray:
    """V(2,2) from `level` down applied to b: two smoothing steps, one
    coarse visit, two smoothing steps; not a closure, which would call
    itself and keep the levels alive in a reference cycle."""
    A, Ps, Rs, smoothers, coarse_inv = levels
    if level == len(Ps):
        return np.einsum("ij,j->i", coarse_inv, b)
    Al, (inv_d, c0, c1) = A[level], smoothers[level]

    def smooth(v):
        """The degree-2 Chebyshev step on D^-1 A."""
        return inv_d * (c0 * v + c1 * (Al @ (inv_d * v)))

    x = smooth(b)
    x += smooth(b - Al @ x)
    x += Ps[level] @ _visit(levels, level + 1, Rs[level] @ (b - Al @ x))
    x += smooth(b - Al @ x)
    x += smooth(b - Al @ x)
    return x
