"""The geometric multigrid cycle on the nested grid family.

Every level of a transfer test is built independently of the multigrid
module: the level-l grid is `build_complex` on the cells of
`symmetric_mesh(l)`, placed at the level-m vertices with the same lattice
position, read off the symmetric meshes' coordinates, so its numbering and
orientation are the library's own.  Coarse 2-cochain measures sum the
actual areas of the level-m descendants, each found by its centroid in
lattice coordinates.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
import scipy.sparse as sp

from declab import (
    build_complex,
    build_dual,
    cg_solve,
    de_rham,
    is_well_centered,
    manufactured_solution,
    perturbed_mesh,
    read_mesh,
    solve_problem,
    star_matrix,
    symmetric_mesh,
    write_mesh,
)
from declab.dual import _cotangent_stars
from declab.meshes import _Grid, _vid
from declab.multigrid import _edge_weights, _grid, _levels, _transfer, _visit, multigrid_cycle
from declab.operators import dec_system
from oracles import (
    grid_level,
    hodge_laplacian_matrix,
    is_canonical_csr,
    same_bits,
    transfers_stacked,
    whitney_evaluate,
)


def _lattice(level: int):
    """Row r and place j in the row of every level-l grid vertex, read off
    the symmetric mesh's coordinates, and the vertex id at each (r, j)."""
    x, y = symmetric_mesh(level).vertices.T * 2**level
    r = np.rint(y / (np.sqrt(3.0) / 2)).astype(int)
    j = np.rint(x - r / 2).astype(int)
    ids = np.full((2**level + 1,) * 2, -1)
    ids[r, j] = np.arange(len(r))
    return r, j, ids


def _on_level(K, m: int, level: int):
    """The level-l grid whose vertices are K's vertices at the same lattice
    points; K is a level-m grid mesh."""
    r, j, _ = _lattice(level)
    s, fine = 2 ** (m - level), _lattice(m)[2]
    return build_complex(K.vertices[fine[s * r, s * j]], symmetric_mesh(level).simplices(2))


def _signed_areas(K) -> np.ndarray:
    d = K.vertices[K.simplices(2)[:, 1:]] - K.vertices[K.simplices(2)[:, :1]]
    return (d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0]) / 2


def _parents(level: int) -> np.ndarray:
    """The level-(l-1) triangle that holds each level-l triangle, located by
    its centroid in lattice coordinates."""
    r, j, _ = _lattice(level)
    tri = symmetric_mesh(level).simplices(2)
    rc, jc = r[tri].sum(axis=1) / 6, j[tri].sum(axis=1) / 6  # coarse units
    R, J = np.floor(rc).astype(int), np.floor(jc).astype(int)
    down = (rc - R + jc - J > 1)[:, None]
    dr = np.where(down, [0, 1, 1], [0, 0, 1])
    dj = np.where(down, [1, 0, 1], [0, 1, 0])
    ids = _lattice(level - 1)[2]
    corners = np.sort(ids[R[:, None] + dr, J[:, None] + dj], axis=1)
    coarse = symmetric_mesh(level - 1).simplices(2)
    n = len(r)

    def key(t):
        return (t[:, 0] * n + t[:, 1]) * n + t[:, 2]

    return np.searchsorted(key(coarse), key(corners))


def _carried_areas(K, m: int, level: int) -> np.ndarray:
    """Signed areas (ascending-tuple orientation) of the level-l triangles
    as the sums of the areas of their level-m descendants."""
    area = np.abs(_signed_areas(K))
    for fine in range(m, level, -1):
        area = np.bincount(_parents(fine), weights=area)
    return np.sign(_signed_areas(symmetric_mesh(level))) * area


def _system(K, k):
    dual = build_dual(K)
    _, f = manufactured_solution(k)
    S = star_matrix(dual, k)
    M = (S @ hodge_laplacian_matrix(K, dual, k)).tocsr()
    rhs = S @ de_rham(K, f)
    a = dual.hodge_ratio_a[0]
    if k == 0:
        rhs = rhs - (rhs.sum() / a.sum()) * a
    return M, rhs, a


# -- which meshes qualify -----------------------------------------------------


@pytest.mark.parametrize("m", range(1, 7))
def test_grid_level_recognises_both_families(m):
    assert grid_level(symmetric_mesh(m)) == m
    assert grid_level(perturbed_mesh(m, 3, 0.3)) == m


def test_grid_level_survives_a_mesh_file_round_trip(tmp_path):
    write_mesh(perturbed_mesh(4, 1), tmp_path / "mesh.txt")
    assert grid_level(read_mesh(tmp_path / "mesh.txt")) == 4


def test_grid_level_rejects_permuted_vertex_ids():
    K = symmetric_mesh(4)
    perm = np.random.default_rng(0).permutation(K.n_simplices(0))
    inverse = np.argsort(perm)
    permuted = build_complex(K.vertices[perm], inverse[K.simplices(2)])
    assert grid_level(permuted) is None


def test_grid_level_rejects_a_non_grid_mesh():
    # six vertices and four cells like the level-1 grid, but a strip
    vertices = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
    cells = [[0, 1, 3], [1, 4, 3], [1, 2, 4], [2, 5, 4]]
    assert grid_level(build_complex(vertices, cells)) is None
    assert grid_level(build_complex(vertices[:3] + [[1, 1]], [[0, 1, 3], [1, 2, 3]])) is None


# -- transfers ----------------------------------------------------------------


def _transfers(K, k: int):
    """The transfers P_k of the grid K, from _levels on the identity: they
    depend on the vertices alone, not on the operator."""
    return _levels(sp.identity(K.n_simplices(k), format="csr"), K, k)[1]


def _edge_cochain(K, w):
    e = K.simplices(1)
    return (K.vertices[e[:, 1]] - K.vertices[e[:, 0]]) @ w


@pytest.mark.parametrize("k", [0, 1, 2])
def test_transfers_map_constant_forms_exactly(k):
    m = 5
    K = perturbed_mesh(m, 2, 0.3)
    Ps = _transfers(K, k)
    assert len(Ps) == m - 3
    for level, P in zip(range(m, 3, -1), Ps):
        coarse, fine = _on_level(K, m, level - 1), _on_level(K, m, level)
        if k == 0:
            pairs = [(np.ones(coarse.n_simplices(0)), np.ones(fine.n_simplices(0)))]
        elif k == 1:
            pairs = [(_edge_cochain(coarse, w), _edge_cochain(fine, w)) for w in ([1, 0], [0, 1])]
        else:
            pairs = [(_carried_areas(K, m, level - 1), _carried_areas(K, m, level))]
        for c, want in pairs:
            assert np.abs(P @ c - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("k", [0, 1])
def test_transfers_commute_with_the_coboundary(k):
    m = 5
    K = symmetric_mesh(m)
    lower, upper = _transfers(K, k), _transfers(K, k + 1)
    for level, P, Q in zip(range(m, 3, -1), lower, upper):
        D_fine = _on_level(K, m, level).coboundary_matrix(k)
        D_coarse = _on_level(K, m, level - 1).coboundary_matrix(k)
        gap = (D_fine @ P - Q @ D_coarse).toarray()
        assert np.abs(gap).max() <= 1e-14


@pytest.mark.parametrize("k", [0, 1, 2])
def test_transfers_are_fine_de_rham_maps_of_coarse_whitney_forms(k):
    """Column j of P_k is R_h W_2h e_j: the oracle's Whitney form of coarse
    simplex j, mapped onto the fine grid as its vertex values, its value at
    the edge midpoint . edge vector, or its density x signed child area,
    each exact for the linear and constant Whitney forms."""
    m = 5
    K = symmetric_mesh(m)
    for level, P in zip(range(m, 3, -1), _transfers(K, k)):
        coarse, fine = _on_level(K, m, level - 1), _on_level(K, m, level)
        # evaluate each fine simplex in the parent of a fine triangle that holds it
        cells = np.arange(fine.n_simplices(2))
        holder = np.empty(fine.n_simplices(k), dtype=np.int64)
        if k == 2:
            holder[cells] = cells
        else:
            holder[fine.simplices(2) if k == 0 else fine.cell_edges] = cells[:, None]
        corners = fine.vertices[fine.simplices(k)]
        basis = np.eye(coarse.n_simplices(k))
        want = whitney_evaluate(coarse, k, basis, _parents(level)[holder], corners.mean(axis=1))
        if k == 1:
            want = np.einsum("sxj,sx->sj", want, corners[:, 1] - corners[:, 0])
        elif k == 2:
            want = want * _signed_areas(fine)[:, None]
        assert np.abs(P.toarray() - want).max() <= 1e-14


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize(
    "mesh", [(5,), (6,), (5, 2, 0.3), (6, 1), (6, 2)],
    ids=["symmetric-5", "symmetric-6", "perturbed-5-2-alpha-0.3", "perturbed-6-1", "perturbed-6-2"],
)
def test_transfers_match_the_stacked_formula_bit_for_bit(mesh, k):
    """The weights, formed on x and y planes, against the same formulas on
    (T, c, 2) stacks: the superconvergent k = 1 norms sit near their gate,
    so no transfer may move by an ulp.  Each P_k, built straight into CSR,
    has int32 index arrays of its nnz, no spare slots, and carries the
    stacks' coarse areas down at k = 2."""
    K = symmetric_mesh(*mesh) if len(mesh) == 1 else perturbed_mesh(*mesh)
    m, fine, x = mesh[0], _grid(K), K.vertices
    area = K.volumes(2) if k == 2 else None
    for level, (want, want_area) in zip(range(m - 1, 2, -1), transfers_stacked(x, m, k), strict=True):
        coarse = _Grid(2**level)
        P, area = _transfer(fine, coarse, x, k, area)
        assert P.indptr.dtype == P.indices.dtype == np.int32
        for got, expected in zip((P.indptr, P.indices, P.data), (want.indptr, want.indices, want.data)):
            assert same_bits(got, expected)
            assert (got if got.base is None else got.base).nbytes == got.nbytes  # no spare slots
        assert same_bits(area, want_area) if k == 2 else area is None
        fine, x = coarse, x[_vid(fine.n, 2 * coarse.r, 2 * coarse.j)]


def test_transfers_store_no_roundoff():
    """Whitney weights that cancel in exact arithmetic are not stored: on the
    symmetric grid a third of P_1's entries would otherwise be ~1e-15."""
    K = symmetric_mesh(7)
    for P in _transfers(K, 1):
        assert np.abs(P.data).min() >= 1e-13


# -- coarse operators ---------------------------------------------------------


def test_k1_coarse_operators_are_the_coarse_grids_own_systems():
    m = 7
    K = symmetric_mesh(m)
    M, _, _ = _system(K, 1)
    A, _ = _levels(M, K, 1)
    assert len(A) == m - 2
    for level, Al in zip(range(m - 1, 2, -1), A[1:]):
        want, _, _ = _system(symmetric_mesh(level), 1)
        assert abs(Al - want).max() <= 1e-13 * abs(want).max()


def test_k2_coarse_operators_are_the_coarse_grids_own_systems():
    """On the symmetric grid the halved Galerkin product is each coarse
    grid's own DEC system: P_2 is piecewise constant, and P^T A P alone
    would count each coarse flux twice."""
    m = 6
    K = symmetric_mesh(m)
    A, _ = _levels(dec_system(K, _cotangent_stars(K), 2), K, 2)
    assert len(A) == m - 2
    for level, Al in zip(range(m - 1, 2, -1), A[1:]):
        coarse = symmetric_mesh(level)
        want = dec_system(coarse, _cotangent_stars(coarse), 2)
        assert abs(Al - want).max() <= 1e-13 * abs(want).max()


def _not_well_centered_levels(K, m: int) -> list[int]:
    return [level for level in range(3, m) if not is_well_centered(_on_level(K, m, level))[0]]


def _bent_grid(tmp_path):
    """A well-centered level-7 grid, read from a mesh file: the symmetric
    grid under z -> (z - c)^2 with c just outside the domain, which keeps
    fine angles but makes the coarse grids' corner triangles obtuse enough
    that a level-4 vertex star is negative."""
    z = symmetric_mesh(7).vertices @ [1, 1j]
    w = (z - (0.7 / 16 - 1j / 128)) ** 2
    write_mesh(build_complex(np.stack([w.real, w.imag], 1), symmetric_mesh(7).simplices(2)),
               tmp_path / "bent.txt")
    K = read_mesh(tmp_path / "bent.txt")
    assert grid_level(K) == 7 and is_well_centered(K)[0]
    coarse = _on_level(K, 7, 4)
    assert _cotangent_stars(coarse)[0].min() < 0.0
    return K


def test_cycle_declines_a_coarse_grid_with_a_negative_vertex_star(tmp_path):
    K = _bent_grid(tmp_path)
    M, _, _ = _system(K, 1)
    assert multigrid_cycle(M, K, 1) is None
    assert multigrid_cycle(_system(K, 2)[0], K, 2) is not None  # Galerkin


def test_cycle_declines_a_mesh_that_is_not_a_grid():
    K = _reversed_ids(symmetric_mesh(4))
    assert multigrid_cycle(_system(K, 1)[0], K, 1) is None


@pytest.mark.parametrize("k", [0, 1, 2])
def test_cycle_walks_the_grid_levels_once(k, monkeypatch):
    """The cycle on the level-m grid walks its levels once: the fine grid it
    recognises K by and coarse grids m-1, ..., 3 (m - 2 in all), which at
    k = 1 also give the coarse complexes."""
    m = 6
    K = perturbed_mesh(m, 1)
    M, _, _ = _system(K, k)
    built = []
    init = _Grid.__init__

    def counted(self, n):
        built.append(n)
        init(self, n)

    monkeypatch.setattr(_Grid, "__init__", counted)
    assert multigrid_cycle(M, K, k) is not None
    assert len(built) <= m - 2


def test_k1_set_up_keeps_coordinates_column_major(monkeypatch):
    """Every level of a k = 1 set-up gathers from column-major coordinates:
    the fine edge weights of each transfer and each coarse complex, so that
    no `_planes` call copies a vertex table."""
    K = perturbed_mesh(6, 1)
    seen = []

    def weights(fine, coarse, x, point):
        seen.append(("transfer", x.T.flags.c_contiguous))
        return _edge_weights(fine, coarse, x, point)

    def stars(Kc):
        seen.append(("coarse", Kc.vertices.T.flags.c_contiguous))
        return _cotangent_stars(Kc)

    monkeypatch.setattr("declab.multigrid._edge_weights", weights)
    monkeypatch.setattr("declab.multigrid._cotangent_stars", stars)
    assert multigrid_cycle(_system(K, 1)[0], K, 1) is not None
    assert seen == [("transfer", True), ("coarse", True)] * 3


# -- the cycle ----------------------------------------------------------------


@pytest.mark.parametrize(
    "k, mesh",
    [(k, (5, 1, 0.15)) for k in range(3)]
    + [(k, (7, 1, 0.45)) for k in range(3)]
    + [(k, (3, 1, 0.15)) for k in range(3)],
    ids=["0", "1", "2", "0-alpha-0.45", "1-alpha-0.45", "2-alpha-0.45",
         "0-level-3", "1-level-3", "2-level-3"],
)
def test_cycle_is_symmetric_and_positive(k, mesh):
    """V(2,2) at every degree, and at level 3 the pseudo-inverse: each
    symmetric, and positive on the range of M."""
    m = mesh[0]
    K = perturbed_mesh(*mesh)
    if m == 7:  # the coarse operators need no circumcentric dual
        assert _not_well_centered_levels(K, m) == [6]
    M, _, _ = _system(K, k)
    cycle = multigrid_cycle(M, K, k)
    rng = np.random.default_rng(k)
    for _ in range(3):
        x, y = rng.standard_normal((2, M.shape[0]))
        if k == 0:  # the range of M
            x, y = x - x.mean(), y - y.mean()
        bx, by = cycle(x), cycle(y)
        assert abs(x @ by - y @ bx) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(by)
        assert x @ bx > 0.0
        if m == 3:  # no coarser level: the cycle is M's pseudo-inverse
            want = np.linalg.pinv(M.toarray()) @ x
            assert np.linalg.norm(bx - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("k, visits", [(0, 4), (1, 4), (2, 4)])
def test_cycle_shape_per_degree(k, visits, monkeypatch):
    """One application at level 6 visits levels 6, 5, 4 and 3 once each: the
    V-cycle at every degree, k = 2 included."""
    K = perturbed_mesh(6, 1)
    M, rhs, _ = _system(K, k)
    cycle = multigrid_cycle(M, K, k)
    calls = []

    def counted(levels, level, b):
        calls.append(level)
        return _visit(levels, level, b)

    monkeypatch.setattr("declab.multigrid._visit", counted)
    cycle(rhs)
    assert len(calls) == visits
    assert sorted(set(calls)) == [0, 1, 2, 3]


@pytest.mark.parametrize("mesh", [(6,), (6, 1)], ids=["symmetric", "perturbed"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_cycle_leaves_its_argument_alone(mesh, k):
    """The cycle returns a new vector and leaves the residual it is given
    as it was, bit for bit."""
    K = symmetric_mesh(*mesh) if len(mesh) == 1 else perturbed_mesh(*mesh)
    dual = build_dual(K)
    M = dec_system(K, dual.hodge_ratio_a, k)
    r = np.random.default_rng(k).standard_normal(M.shape[0])
    before = r.copy()
    got = multigrid_cycle(M, K, k)(r)
    assert got is not r
    assert r.tobytes() == before.tobytes()


def _rows_reversed(M: sp.csr_matrix) -> sp.csr_matrix:
    """M with each row's entries stored in reverse column order."""
    row = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    order = M.indptr[row] + M.indptr[row + 1] - 1 - np.arange(M.nnz)
    return sp.csr_matrix((M.data[order], M.indices[order], M.indptr.copy()), M.shape)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_cycle_leaves_its_matrix_untouched(k):
    """Setting up the cycle reads M and edits none of its arrays, whether M
    is dec_system's canonical CSR or has its rows stored unsorted."""
    K = perturbed_mesh(5, 1)
    M = dec_system(K, build_dual(K).hodge_ratio_a, k)
    for A in (M, _rows_reversed(M)):
        before = [a.tobytes() for a in (A.data, A.indices, A.indptr)]
        assert multigrid_cycle(A, K, k) is not None
        assert [a.tobytes() for a in (A.data, A.indices, A.indptr)] == before


@pytest.mark.parametrize("mesh", [(6,), (6, 1)], ids=["symmetric", "perturbed"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_cycle_matrices_are_canonical_csr(mesh, k, monkeypatch):
    """Every operator and transfer the cycle multiplies by is canonical CSR
    as built: no one sorts them later.  It restricts by P^T, a view of P
    formed once with the cycle (it shares P's arrays), which sums each
    coarse entry over the fine ones in ascending order, so its bits are
    those of P^T in CSR."""
    K = symmetric_mesh(*mesh) if len(mesh) == 1 else perturbed_mesh(*mesh)
    M = dec_system(K, build_dual(K).hodge_ratio_a, k)
    cycle = multigrid_cycle(M, K, k)
    seen = []

    def record(levels, level, b):
        seen.append(levels)
        return b

    monkeypatch.setattr("declab.multigrid._visit", record)
    cycle(np.zeros(M.shape[0]))
    A, Ps, Rs, _, _ = seen[0]
    assert len(A) == 4 and len(Ps) == len(Rs) == 3
    for S in A + Ps:
        assert is_canonical_csr(S)
    rng = np.random.default_rng(k)
    for P, R in zip(Ps, Rs):
        for view, array in ((R.data, P.data), (R.indices, P.indices), (R.indptr, P.indptr)):
            assert np.shares_memory(view, array)
        r = rng.standard_normal(P.shape[0])
        assert (R @ r).tobytes() == (P.T.tocsr() @ r).tobytes()


def test_cycle_levels_die_with_the_cycle():
    """Dropping the cycle frees its hierarchy at once, by reference counting
    alone: a reference cycle would hold it until the garbage collector ran."""
    K = perturbed_mesh(5, 1)
    M, _, _ = _system(K, 1)

    def finest_transfers():  # P_1 into level 5 is 1584 x 408
        return sum(isinstance(o, sp.spmatrix) and o.shape == (1584, 408) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = finest_transfers()
        cycle = multigrid_cycle(M, K, 1)
        assert finest_transfers() == before + 1
        del cycle
        assert finest_transfers() == before
    finally:
        gc.enable()


# level-7 meshes by name: (seed, alpha) of a perturbed mesh, None for the
# symmetric one; the alpha = 0.45 meshes have coarse grids that build_dual
# rejects
_MESHES = {"symmetric": None, "perturbed": (2, 0.15)}
_MESHES.update({f"alpha-0.45-seed-{seed}": (seed, 0.45) for seed in (1, 2, 3)})
# V(2,2) takes at most 10, 17 and 25 iterations at k = 0, 1 and 2
_MAX_ITERATIONS = {0: 13, 1: 20, 2: 28}


@pytest.mark.parametrize("family", list(_MESHES))
@pytest.mark.parametrize("k", [0, 1, 2])
def test_cycle_solution_matches_jacobi(family, k):
    mesh = _MESHES[family]
    K = symmetric_mesh(7) if mesh is None else perturbed_mesh(7, *mesh)
    if family.startswith("alpha-0.45"):
        assert _not_well_centered_levels(K, 7)
    M, rhs, a = _system(K, k)
    want = cg_solve(M, rhs).x
    result = cg_solve(M, rhs, precondition=multigrid_cycle(M, K, k))
    got = result.x
    if k == 0:
        want, got = want - (a @ want) / a.sum(), got - (a @ got) / a.sum()
    assert result.iterations < _MAX_ITERATIONS[k]
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_solve_problem_runs_the_cycle_on_fine_perturbed_grids(k):
    K = perturbed_mesh(8, 1)
    _, _, result = solve_problem(K, build_dual(K), manufactured_solution(k)[1])
    assert result.iterations < _MAX_ITERATIONS[k]


def _reversed_ids(K):
    return build_complex(K.vertices[::-1], K.n_simplices(0) - 1 - K.simplices(2))


@pytest.mark.parametrize("family", ["symmetric", "perturbed"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_solve_problem_runs_the_cycle_on_every_grid_level(family, k, monkeypatch):
    """Small grids take the cycle too; at levels 1-3 it is M's pseudo-inverse,
    so CG converges in one iteration."""
    calls = []

    def counted(M, K, degree):
        calls.append(grid_level(K))
        return multigrid_cycle(M, K, degree)

    monkeypatch.setattr("declab.experiments.multigrid_cycle", counted)
    _, f = manufactured_solution(k)
    for m in range(1, 7):
        K = symmetric_mesh(m) if family == "symmetric" else perturbed_mesh(m, 1)
        _, _, result = solve_problem(K, build_dual(K), f)
        if m <= 3:
            assert result.iterations == 1
    assert calls == list(range(1, 7))


@pytest.mark.parametrize("mesh", ["non-grid", "negative-coarse-star"])
def test_solve_problem_keeps_jacobi_off_the_cycle(mesh, tmp_path):
    """Jacobi-PCG, bit for bit, on meshes that are not a grid and where the
    cycle declines."""
    if mesh == "non-grid":
        K = _reversed_ids(symmetric_mesh(4))
        assert grid_level(K) is None
    else:
        K = _bent_grid(tmp_path)
    dual = build_dual(K)
    _, f = manufactured_solution(1)
    rhs = dual.hodge_ratio_a[1] * de_rham(K, f)
    want = cg_solve(dec_system(K, dual.hodge_ratio_a, 1), rhs)
    u_h, _, got = solve_problem(K, dual, f)
    assert np.array_equal(u_h, want.x)
    assert got.iterations == want.iterations
    assert got.residual_history == want.residual_history
