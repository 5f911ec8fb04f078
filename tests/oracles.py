"""Independent reference constructions that the tests compare the library
against.  They are deliberately written differently from the production
code paths and are not part of the public API."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from declab import (
    DualComplex,
    MeshError,
    Poly2,
    PolyForm,
    QuadratureRule,
    SimplicialComplex,
    build_complex,
    codifferential,
    codifferential_matrix,
    exterior_derivative,
    gauss_legendre_unit,
    hodge_star,
    is_well_centered,
    manufactured_solution,
    symmetric_mesh,
    triangle_rule,
)
from declab import forms, meshes
from declab.meshes import _Grid, _vid
from declab.multigrid import _A, _B, _EDGES, _LAM, _PAIRS, _TRIANGLES, _grid
from declab.operators import _scaled

_MASK64 = (1 << 64) - 1


def same_bits(got, want) -> bool:
    """Equal to the last bit: the same dtype, shape and bytes (so 0.0 and
    -0.0 differ)."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


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


def dec_system_product_sum(K: SimplicialComplex, stars, k: int) -> sp.csr_matrix:
    """S_k L_k as the library assembled it before it formed both terms in one
    product: the coboundaries' entries scaled by the stars, the two
    sparse products G S_{k-1}^-1 G^T and D_k^T S_{k+1} D_k formed apart and
    added by scipy, the sum sorted into canonical CSR.  Its arrays keep the
    sum's buffer, one slot per entry of either product.  At k = 1 its
    diagonal entries add the two halves' sums, where dec_system's product
    sums all four terms in one run."""
    products = []
    if k >= 1:
        G = _scaled(K.coboundary_matrix(k - 1), row=stars[k])
        products.append(_scaled(G, col=1.0 / stars[k - 1]) @ G.T)
    if k <= K.dim - 1:
        D = K.coboundary_matrix(k)
        products.append(D.T @ _scaled(D, row=stars[k + 1]))
    M = sum(products[1:], products[0]).tocsr()
    M.sum_duplicates()  # sorts; the products and their sum store no zeros
    return M


def is_canonical_csr(A) -> bool:
    """A is CSR and each row's column indices strictly ascend (sorted, no
    duplicates), read off the index arrays rather than scipy's flags."""
    if A.format != "csr":
        return False
    row_start = np.zeros(A.nnz + 1, dtype=bool)
    row_start[A.indptr] = True
    return bool((np.diff(A.indices) > 0)[~row_start[1:-1]].all())


def grid_level(K: SimplicialComplex) -> int | None:
    """m when K is the level-m grid (multigrid._grid), else None."""
    return None if (grid := _grid(K)) is None else grid.n.bit_length() - 1


def lattice_boundary(K: SimplicialComplex, k: int) -> np.ndarray:
    """The boundary flags of the level-m grid K's k-simplices from the sides
    of the lattice: vertex (r, j) of the n-row grid lies on the boundary when
    r = 0, j = 0 or r + j = n, an edge when both its ends lie on one side,
    and no triangle does.  Vertices are numbered row by row."""
    n = 2 ** grid_level(K)
    r, j = np.array([(r, j) for r in range(n + 1) for j in range(n + 1 - r)]).T
    side = np.stack([r == 0, j == 0, r + j == n])
    if k == 0:
        return side.any(axis=0)
    if k == 1:
        a, b = K.simplices(1).T
        return (side[:, a] & side[:, b]).any(axis=0)
    return np.zeros(K.n_simplices(2), dtype=bool)


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
    """The 6T flag triangles [v, c(e), c(T)] as (6T, 3, 2) stacks, c(e) the
    midpoint of e: the vertex and edge index of each flag, its rows and its
    area, signed by the orientation of the rows.  `dual._dual_cells` gives
    them at k = 0, and the even flags' segments [c(e), c(T)] at k = 1."""
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


def transfers_stacked(vertices: np.ndarray, m: int, k: int):
    """The transfers of multigrid._levels with their weights formed on
    (T, c, 2) stacks, finest first, each with the coarse areas it carries
    down at k = 2 (None at k = 0 and 1): the k = 1 weight of fine edge
    [a, b] in coarse edge (i, j) is (lam_i grad lam_j - lam_j grad lam_i) .
    (b - a), with grad . (b - a) by einsum; k = 0 takes lam and k = 2 the
    area fractions, their sums the coarse areas."""
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
        Ps.append((P, area if k == 2 else None))
        fine, x = coarse, x[_vid(2 * coarse.n, 2 * coarse.r, 2 * coarse.j)]
    return Ps


def coefficient(p: Poly2, i: int, j: int) -> float:
    """The monomial coefficient of x^i y^j in p, i, j >= 0: 0 beyond the
    stored array."""
    n, m = p.coeffs.shape
    return float(p.coeffs[i, j]) if i < n and j < m else 0.0


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


def exact_barycentric(x: float, y: float) -> list[Fraction]:
    """The domain's barycentric coordinates (l1, l2, l3) of the float64 point
    (x, y), exactly: l3 = y / S, l2 = x - l3 / 2 and l1 = 1 - l2 - l3, with
    S the float64 height of the domain that Poly2 divides by."""
    l3 = Fraction(y) / Fraction(forms._S)
    l2 = Fraction(x) - l3 / 2
    return [1 - l2 - l3, l2, l3]


def recorded_factors(p: Poly2) -> tuple[Fraction, list[tuple[list[Fraction], int]]]:
    """p's recorded product as its evaluator reads it, exactly: the float64
    scale, and each affine factor's float64 coefficients of l1, l2 and l3
    (its own barycentric B) with its exponent."""
    scale, factors = p._product
    return Fraction(float(scale)), [
        ([Fraction(float(f._domain_coeffs()[i])) for i in ((1, 0), (0, 1), (0, 0))], e)
        for f, e in factors.items()
    ]


def recorded_product(p: Poly2, value) -> np.ndarray:
    """Poly2's product path written out from value(factor), each factor's
    values: scale * P_1 * P_2 * ... left to right, the scale rounded to
    float64, over the exponents e in ascending order, P_e the product of the
    factors of exponent e in record order raised to e as the product,
    lowest bit first, of its repeated squares at the set bits of e."""
    scale, factors = p._product
    out = float(scale)
    for e in sorted(set(factors.values())):
        base = None
        for factor, fe in factors.items():
            if fe == e:
                base = value(factor) if base is None else base * value(factor)
        squares = [base]
        while len(squares) < e.bit_length():
            squares.append(squares[-1] * squares[-1])
        power = None
        for i, square in enumerate(squares):
            if e >> i & 1:
                power = square if power is None else power * square
        out = out * power
    return out


def product_simplex_mean(p: Poly2, corners, pad: Fraction | None = None) -> Fraction:
    """The mean over the simplex with float64 corners [(x, y), ...] of p's
    recorded product s prod_i l_i^e_i (recorded_factors), exactly, with no
    quadrature rule.  On the simplex each l_i is sum_a l_i(v_a) mu_a, with
    mu its own barycentric coordinates, so the product is a polynomial in mu,
    and the moments int mu^alpha = k! |sigma| alpha! / (|alpha| + k)! give
    its integral.  With a pad, each l_i(v_a) is replaced by
    |l_i(v_a)| + pad and s by |s|: the mean of a bound of
    |s| prod_i (|l_i| + pad)^e_i.  Integers over one common denominator
    per factor, for speed."""
    scale, factors = recorded_factors(p)
    lam = [exact_barycentric(x, y) for x, y in corners]
    poly, den, n = {(0,) * len(corners): 1}, Fraction(1), 0
    for b, e in factors:
        values = [sum(bi * li for bi, li in zip(b, l)) for l in lam]
        if pad is not None:
            values = [abs(v) + pad for v in values]
        common = math.lcm(*(v.denominator for v in values))
        ints = [v.numerator * (common // v.denominator) for v in values]
        for _ in range(e):
            grown: dict[tuple[int, ...], int] = {}
            for alpha, c in poly.items():
                for a, v in enumerate(ints):
                    if v:
                        beta = alpha[:a] + (alpha[a] + 1,) + alpha[a + 1 :]
                        grown[beta] = grown.get(beta, 0) + c * v
            poly = grown
        den *= common**e
        n += e
    k = len(corners) - 1
    moments = sum(c * math.prod(map(math.factorial, alpha)) for alpha, c in poly.items())
    mean = Fraction(moments * math.factorial(k), math.factorial(n + k)) / den
    return (scale if pad is None else abs(scale)) * mean


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


# -- form operators as compositions ---------------------------------------------


def _negated(form: PolyForm) -> PolyForm:
    return PolyForm(form.degree, tuple(-c for c in form.components))


def hodge_star_inverse(form: PolyForm) -> PolyForm:
    """star^{-1} = (-1)^(k (2-k)) star: -star on 1-forms, star itself on
    0- and 2-forms."""
    starred = hodge_star(form)
    return _negated(starred) if form.degree == 1 else starred


def codifferential_by_stars(form: PolyForm) -> PolyForm:
    """delta = (-1)^k star^{-1} d star on k-forms (k >= 1), composed from the
    library's star and d rather than written in components."""
    out = hodge_star_inverse(exterior_derivative(hodge_star(form)))
    return _negated(out) if form.degree % 2 else out


def hodge_laplacian_by_composition(form: PolyForm) -> PolyForm:
    """L = d delta + delta d on k-forms, the undefined half dropped at k = 0
    and k = 2, rather than the scalar -(c_xx + c_yy) on each component."""
    if form.degree == 0:
        return codifferential_by_stars(exterior_derivative(form))
    d_delta = exterior_derivative(codifferential_by_stars(form))
    if form.degree == 2:
        return d_delta
    delta_d = codifferential_by_stars(exterior_derivative(form))
    return PolyForm(1, tuple(a + b for a, b in zip(d_delta.components, delta_d.components)))


# -- problems -------------------------------------------------------------------


def manufactured_problem(k: int) -> tuple[PolyForm, PolyForm, PolyForm | None]:
    """(u, f, delta u) of the library's degree-k manufactured problem, built
    as run_convergence builds them; delta u is None at k = 0."""
    u, f = manufactured_solution(k)
    return u, f, codifferential(u) if k >= 1 else None


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
