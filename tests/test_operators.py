"""Discrete operators: stars, codifferentials, Laplacians, Whitney forms.

Oracles
-------
* Interior edge of the symmetric mesh: |*e|/|e| = 1/sqrt(3), boundary edge
  1/(2 sqrt(3)); triangle ratio a_T = 1/|T|.
* Interior vertex row of the 0-Laplacian on the symmetric mesh with edge
  length l: (L0 u)_v = (2 / (3 l^2)) * sum over the six neighbours w of
  (u_v - u_w), from 1/|*v| = 2/(sqrt(3) l^2) times |*e|/|e| = 1/sqrt(3).
* Whitney hat-function norm on the reference triangle:
  int lambda_0^2 = |T|/6 = 1/12.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
import scipy.sparse as sp

from declab import (
    Poly2,
    PolyForm,
    build_complex,
    build_dual,
    check_centroid_condition,
    codifferential,
    codifferential_matrix,
    commuting_j_check,
    de_rham,
    discrete_norm,
    gauss_legendre_unit,
    hodge_laplacian_matrix,
    j_interpolant,
    manufactured_solution,
    perturbed_mesh,
    pi_minus_j,
    star_inverse_matrix,
    star_matrix,
    symmetric_mesh,
)
from declab.operators import dec_system
from oracles import (
    _triangle_frames,
    codifferential_matrix_stencil,
    dec_system_product_sum,
    discrete_inner,
    hodge_laplacian_matrix as composed_laplacian,
    is_canonical_csr,
    l2_norm_whitney,
    same_bits,
    whitney_evaluate,
)

SQRT3 = np.sqrt(3.0)

REF_TRI = build_complex(
    np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]]
)


def _with_dual(K):
    return K, build_dual(K)


@functools.cache
def _mesh(mesh: tuple):
    """The symmetric mesh (m,) or the perturbed mesh (m, seed[, alpha]), built
    once for the module's tests, which only read it."""
    return symmetric_mesh(*mesh) if len(mesh) == 1 else perturbed_mesh(*mesh)


# -- diagonal stars -----------------------------------------------------------


def test_star_ratios_on_symmetric_mesh():
    K, dual = _with_dual(symmetric_mesh(2))
    ell = 2.0**-2
    interior = ~K.is_boundary(1)
    starred = star_matrix(dual, 1).diagonal()
    np.testing.assert_allclose(starred[interior], 1 / SQRT3, rtol=1e-13)
    np.testing.assert_allclose(starred[~interior], 1 / (2 * SQRT3), rtol=1e-13)
    # triangles: a_T = 1/|T|
    area = SQRT3 / 4 * ell**2
    np.testing.assert_allclose(
        star_matrix(dual, 2).diagonal(), 1 / area, rtol=1e-12
    )


def test_star_inverse_round_trip():
    K, dual = _with_dual(perturbed_mesh(2, seed=4))
    rng = np.random.default_rng(0)
    for k in range(3):
        w = rng.standard_normal(K.n_simplices(k))
        back = star_inverse_matrix(dual, k) @ (star_matrix(dual, k) @ w)
        np.testing.assert_allclose(back, w, rtol=1e-13)
        prod = star_inverse_matrix(dual, k) @ star_matrix(dual, k)
        np.testing.assert_allclose(prod.diagonal(), 1.0, rtol=1e-14)


@pytest.mark.parametrize("k", [-1, 3, True, 1.0])
def test_star_and_norm_reject_degrees_without_cochains(k):
    """k = -1 must not index the triangle ratios from the end, True must not
    run as k = 1, nor 1.0 fail as a list index."""
    K, dual = _with_dual(symmetric_mesh(1))
    for call in (
        lambda: star_matrix(dual, k),
        lambda: star_inverse_matrix(dual, k),
        lambda: discrete_norm(dual, k, np.zeros(4)),
        lambda: hodge_laplacian_matrix(K, dual, k),
    ):
        with pytest.raises(ValueError, match=f"no {k}-cochains"):
            call()


@pytest.mark.parametrize("k", [True, 1.0], ids=repr)
def test_codifferential_and_centroid_check_reject_bools_and_floats(k):
    K, dual = _with_dual(symmetric_mesh(2))
    with pytest.raises(ValueError, match="codifferential is defined"):
        codifferential_matrix(K, dual, k)
    with pytest.raises(ValueError, match="-simplices in the plane"):
        check_centroid_condition(K, dual, k)


# -- Laplacians ---------------------------------------------------------------


def test_laplacian_interior_vertex_stencil():
    K, dual = _with_dual(symmetric_mesh(2))
    ell = 2.0**-2
    L0 = hodge_laplacian_matrix(K, dual, 0)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(K.n_simplices(0))
    interior = np.flatnonzero(~K.is_boundary(0))
    edges = K.simplices(1)
    for v in interior:
        incident = np.flatnonzero((edges == v).any(axis=1))
        assert len(incident) == 6
        neighbours = [edges[e, 0] + edges[e, 1] - v for e in incident]
        expected = 2.0 / (3.0 * ell**2) * sum(u[v] - u[w] for w in neighbours)
        assert (L0 @ u)[v] == pytest.approx(expected, rel=1e-12)


def test_laplacian_kills_constants():
    K, dual = _with_dual(perturbed_mesh(2, seed=2))
    ones = np.ones(K.n_simplices(0))
    # applied factor by factor the kernel is exact: D0 @ 1 = 0 bitwise
    assert np.abs(K.coboundary_matrix(0) @ ones).max() == 0.0
    # the pre-assembled product only cancels to rounding, relative to its rows
    L0 = hodge_laplacian_matrix(K, dual, 0)
    row_scale = np.abs(L0).sum(axis=1).max()
    assert np.abs(L0 @ ones).max() <= 1e-14 * row_scale


def test_laplacian_splits_into_both_terms():
    """S_k^-1 dec_system is the composition D delta + delta D to rounding."""
    K, dual = _with_dual(symmetric_mesh(2))
    L1 = hodge_laplacian_matrix(K, dual, 1)
    manual = composed_laplacian(K, dual, 1)
    assert L1.nnz == manual.nnz
    assert np.abs((L1 - manual).toarray()).max() <= 1e-15 * np.abs(L1).max()


@pytest.mark.parametrize("k", [0, 1, 2])
def test_weighted_laplacian_is_symmetric(k):
    K, dual = _with_dual(perturbed_mesh(2, seed=5))
    M = (star_matrix(dual, k) @ hodge_laplacian_matrix(K, dual, k)).toarray()
    assert np.abs(M - M.T).max() <= 1e-13 * np.abs(M).max()


@pytest.mark.parametrize(
    "mesh", [(4,), (4, 3), (5, 2, 0.45)], ids=["symmetric", "seed3", "alpha-0.45"]
)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_dec_system_is_the_weighted_laplacian_assembled_symmetric(mesh, k):
    """dec_system, built as canonical CSR, against S_k times the composition
    D delta + delta D: the same entries to rounding, the same stored
    pattern, and symmetric to rounding of its own products."""
    K = _mesh(mesh)
    dual = build_dual(K)
    M = dec_system(K, dual.hodge_ratio_a, k)
    want = (star_matrix(dual, k) @ composed_laplacian(K, dual, k)).tocsr()
    want.sort_indices()
    assert is_canonical_csr(M)
    assert np.array_equal(M.indptr, want.indptr)
    assert np.array_equal(M.indices, want.indices)
    scale = np.abs(M.data).max()
    assert np.abs(M.data - want.data).max() <= 1e-13 * scale
    assert abs(M - M.T).max() <= 1e-15 * scale


@pytest.mark.parametrize("mesh", [(5,), (5, 1)], ids=["symmetric", "perturbed"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_dec_system_is_symmetric_to_one_rounding_per_entry(mesh, k):
    """The stored pattern is symmetric.  At k = 0 every entry is a sum of
    exact +-a_1 terms, so M = M^T exactly; at k = 1 and 2 an entry of
    G S^-1 G^T is a_i / a_l * a_j rounded in one order and its mirror in
    the other, so the two differ by at most 2 eps of their size.  Far
    inside cg_solve's symmetry check, which allows 1e-12 of max |M|."""
    K = _mesh(mesh)
    M = dec_system(K, build_dual(K).hodge_ratio_a, k)
    T = M.T.tocsr()
    assert np.array_equal(M.indptr, T.indptr)
    assert np.array_equal(M.indices, T.indices)
    gap = np.abs(M.data - T.data)
    if k == 0:
        assert not gap.any()
    assert (gap <= 2 * np.finfo(float).eps * np.abs(M.data)).all()


@pytest.mark.parametrize(
    "mesh", [(4,), (5, 1), (5, 2, 0.45), (7, 3, 0.45)],
    ids=["symmetric", "seed1", "seed2-alpha-0.45", "seed3-alpha-0.45"],
)
def test_dec_system_is_the_whitney_stiffness_and_curl_curl(mesh):
    """The paper's FEEC reading of the diagonal-Hodge system.  At k = 0 it
    is the P1 stiffness sum_T |T| grad lam_i . grad lam_j, from the
    oracle's own barycentric gradients.  S_2 is 1 / |T|, the Whitney
    2-form mass matrix (exactly on the symmetric grid), so D_1^T S_2 D_1
    is the Whitney curl-curl matrix."""
    K = _mesh(mesh)
    dual = build_dual(K)
    _, grads, det = _triangle_frames(K, np.arange(K.n_simplices(2)))
    local = np.abs(det)[:, None, None] / 2 * np.einsum("tid,tjd->tij", grads, grads)
    tri = K.simplices(2)
    rows, cols = np.repeat(tri, 3, axis=1), np.tile(tri, 3)
    n = K.n_simplices(0)
    stiffness = sp.csr_matrix((local.ravel(), (rows.ravel(), cols.ravel())), (n, n))
    M = dec_system(K, dual.hodge_ratio_a, 0)
    assert abs(M - stiffness).max() <= 1e-14 * abs(M).max()
    gap = np.abs(dual.hodge_ratio_a[2] * K.volumes(2) - 1.0).max()
    assert gap <= (0.0 if len(mesh) == 1 else 2.3e-16)


def _assert_entries_match(got, want, k):
    """got.data is want.data bit for bit, apart from the diagonal at k = 1:
    there the stacked product sums its four terms in one run, where want
    adds the two halves' sums, and each entry is within 2 eps of want's."""
    if k != 1:
        assert got.data.tobytes() == want.data.tobytes()
        return
    diagonal = got.indices == np.repeat(np.arange(got.shape[0]), np.diff(got.indptr))
    assert diagonal.sum() == got.shape[0]
    assert got.data[~diagonal].tobytes() == want.data[~diagonal].tobytes()
    gap = np.abs(got.data[diagonal] - want.data[diagonal])
    assert (gap <= 2 * np.finfo(float).eps * np.abs(want.data[diagonal])).all()


@pytest.mark.parametrize(
    "mesh", [(4,), (5, 1), (6,), (6, 1), (5, 2, 0.45), (7, 3, 0.45)],
    ids=["symmetric", "seed1", "symmetric-6", "seed1-6", "seed2-alpha-0.45", "seed3-alpha-0.45"],
)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_dec_system_is_the_sum_of_its_two_products_bit_for_bit(mesh, k):
    """The one stacked product has the pattern and the bits of the two
    products formed apart and added, with its own diagonal at k = 1 (see
    _assert_entries_match); and its arrays hold its nnz entries and no
    more, where the sum kept a slot for every entry of either product.
    codifferential_matrix has the bytes of the stencil assembly, and the
    coboundaries, whose index arrays both scalings share, come out of the
    complex as before."""
    K = _mesh(mesh)
    dual = build_dual(K)
    before = [K.coboundary_matrix(j).copy() for j in range(2)]
    stars = dual.hodge_ratio_a
    M, want = dec_system(K, stars, k), dec_system_product_sum(K, stars, k)
    assert is_canonical_csr(M) and M.shape == want.shape
    assert M.indptr.tobytes() == want.indptr.tobytes()
    assert M.indices.tobytes() == want.indices.tobytes()
    _assert_entries_match(M, want, k)
    for a in (M.data, M.indices):
        assert (a if a.base is None else a.base).size == M.nnz
    if k >= 1:
        got, want = codifferential_matrix(K, dual, k), codifferential_matrix_stencil(K, dual, k)
        assert got.shape == want.shape
        assert all(same_bits(getattr(got, a), getattr(want, a)) for a in ("indptr", "indices", "data"))
    for j, D in enumerate(before):
        now = K.coboundary_matrix(j)
        assert (now != D).nnz == 0 and np.array_equal(now.indices, D.indices)


def test_k2_weighted_laplacian_positive_definite():
    K, dual = _with_dual(symmetric_mesh(1))
    M = (star_matrix(dual, 2) @ hodge_laplacian_matrix(K, dual, 2)).toarray()
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    assert eigs.min() > 0.0


# -- inner products -----------------------------------------------------------


def test_discrete_inner_and_norms():
    K, dual = _with_dual(symmetric_mesh(1))
    u = np.ones(K.n_simplices(0))
    # [[1, 1]]_0 = sum of dual areas = domain area
    assert discrete_inner(dual, 0, u, u) == pytest.approx(SQRT3 / 4, rel=1e-12)
    assert discrete_norm(dual, 0, u) == pytest.approx(np.sqrt(SQRT3 / 4), rel=1e-12)
    with pytest.raises(ValueError):
        discrete_inner(dual, 0, u, u[:-1])
    # a cochain of another shape must not broadcast against the star
    for wrong in (np.array([2.0]), u[:-1], u[:, None]):
        with pytest.raises(ValueError, match="0-cochain needs shape"):
            discrete_norm(dual, 0, wrong)


# -- interpolants -------------------------------------------------------------


CONSTANT_FORMS = {
    0: PolyForm(0, (Poly2.constant(1.3),)),
    1: PolyForm(1, (Poly2.constant(0.7), Poly2.constant(-1.1))),
    2: PolyForm(2, (Poly2.constant(2.0),)),
}


@pytest.mark.parametrize("family,seed", [("symmetric", 0), ("perturbed", 3)])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_interpolants_agree_on_constants(family, seed, k):
    K = symmetric_mesh(2) if family == "symmetric" else perturbed_mesh(2, seed=seed)
    dual = build_dual(K)
    form = CONSTANT_FORMS[k]
    gap = pi_minus_j(K, dual, form)
    scale = discrete_norm(dual, k, de_rham(K, form))
    assert np.abs(gap).max() <= 1e-11 * scale


def test_interpolants_agree_on_linears_where_cells_are_centered():
    # On the symmetric mesh the interior dual cells are centred on their
    # primal simplices, so J reproduces the de Rham map of linear forms
    # there; the truncated boundary cells do not.
    K, dual = _with_dual(symmetric_mesh(3))
    gap0 = pi_minus_j(K, dual, PolyForm(0, (Poly2.monomial(1, 0),)))
    interior0 = ~K.is_boundary(0)
    assert np.abs(gap0[interior0]).max() <= 1e-14
    assert np.abs(gap0[~interior0]).max() > 1e-3
    gap1 = pi_minus_j(
        K, dual, PolyForm(1, (Poly2.monomial(0, 1), Poly2.monomial(1, 0)))
    )
    assert np.abs(gap1[~K.is_boundary(1)]).max() <= 1e-14


def test_interpolant_gap_on_linears_detects_off_centre_cells():
    K, dual = _with_dual(perturbed_mesh(3, seed=1))
    gap = pi_minus_j(K, dual, PolyForm(0, (Poly2.monomial(1, 0),)))
    assert np.abs(gap[~K.is_boundary(0)]).max() > 1e-6


def test_j_interpolant_of_volume_form():
    K, dual = _with_dual(symmetric_mesh(1))
    form = PolyForm(2, (Poly2.constant(3.0),))
    got = j_interpolant(K, dual, form)
    np.testing.assert_allclose(got, de_rham(K, form), rtol=1e-13)


def test_commuting_interpolant_residual_for_manufactured_density():
    K, dual = _with_dual(symmetric_mesh(2))
    u2, _ = manufactured_solution(2)
    scale = max(
        discrete_norm(dual, 1, j_interpolant(K, dual, codifferential(u2))), 1.0
    )
    assert commuting_j_check(K, dual, u2) <= 1e-10 * scale


def test_commuting_check_rejects_scalars():
    K, dual = _with_dual(symmetric_mesh(1))
    with pytest.raises(ValueError):
        commuting_j_check(K, dual, PolyForm(0, (Poly2.constant(1.0),)))


# -- Whitney reconstruction ---------------------------------------------------


def test_whitney_hats_interpolate_and_partition_unity():
    cochain = np.array([3.0, -1.0, 2.0])
    verts = REF_TRI.vertices
    vals = whitney_evaluate(REF_TRI, 0, cochain, 0, verts)
    np.testing.assert_allclose(vals, cochain, atol=1e-14)
    centroid = verts.mean(axis=0)
    assert whitney_evaluate(REF_TRI, 0, cochain, 0, centroid)[0] == pytest.approx(
        cochain.mean()
    )
    ones = whitney_evaluate(REF_TRI, 0, np.ones(3), 0, [[0.2, 0.3], [0.1, 0.7]])
    np.testing.assert_allclose(ones, 1.0, atol=1e-14)


def test_whitney_edge_form_reproduces_its_dof():
    rule = gauss_legendre_unit(4)
    edges = REF_TRI.simplices(1)
    verts = REF_TRI.vertices
    for e in range(3):
        cochain = np.zeros(3)
        cochain[e] = 1.0
        p0, p1 = verts[edges[e, 0]], verts[edges[e, 1]]
        pts = p0[None, :] + rule.points[:, None] * (p1 - p0)[None, :]
        field = whitney_evaluate(REF_TRI, 1, cochain, 0, pts)
        integral = rule.weights @ (field @ (p1 - p0))
        assert integral == pytest.approx(1.0, rel=1e-13)


def test_whitney_one_forms_reproduce_constant_fields():
    K = perturbed_mesh(2, seed=1)
    form = PolyForm(1, (Poly2.constant(1.0), Poly2.constant(2.0)))
    cochain = de_rham(K, form)
    tris = K.simplices(2)
    for t in (0, len(tris) // 2, len(tris) - 1):
        centroid = K.vertices[tris[t]].mean(axis=0)
        field = whitney_evaluate(K, 1, cochain, t, centroid)
        np.testing.assert_allclose(field[0], [1.0, 2.0], rtol=1e-12)


def test_whitney_density_respects_orientation():
    K = symmetric_mesh(1)
    cochain = de_rham(K, PolyForm(2, (Poly2.constant(4.0),)))
    tris = K.simplices(2)
    _, _, det = _triangle_frames(K, np.arange(len(tris)))
    up = int(np.flatnonzero(det > 0)[0])
    down = int(np.flatnonzero(det < 0)[0])
    for t in (up, down):
        centroid = K.vertices[tris[t]].mean(axis=0)
        assert whitney_evaluate(K, 2, cochain, t, centroid)[0] == pytest.approx(
            4.0, rel=1e-13
        )


def test_whitney_rejects_outside_points():
    for point in ([2.0, 2.0], [np.nan, 0.1]):
        with pytest.raises(ValueError, match="outside"):
            whitney_evaluate(REF_TRI, 0, np.ones(3), 0, [point])


def test_whitney_l2_norm_of_hat():
    cochain = np.array([1.0, 0.0, 0.0])
    assert l2_norm_whitney(REF_TRI, 0, cochain) == pytest.approx(
        np.sqrt(1.0 / 12.0), rel=1e-13
    )


def test_whitney_l2_norm_of_constants():
    K = symmetric_mesh(2)
    area = SQRT3 / 4
    n0 = l2_norm_whitney(K, 0, np.ones(K.n_simplices(0)))
    assert n0 == pytest.approx(np.sqrt(area), rel=1e-13)
    cochain1 = de_rham(K, PolyForm(1, (Poly2.constant(1.0), Poly2.zero())))
    assert l2_norm_whitney(K, 1, cochain1) == pytest.approx(np.sqrt(area), rel=1e-12)
    cochain2 = de_rham(K, PolyForm(2, (Poly2.constant(2.0),)))
    assert l2_norm_whitney(K, 2, cochain2) == pytest.approx(
        2.0 * np.sqrt(area), rel=1e-12
    )


@pytest.mark.parametrize("seed", [None, 1, 2, 3], ids=["symmetric", "seed1", "seed2", "seed3"])
def test_hodge_star_norm_is_the_whitney_l2_norm_to_second_order(seed):
    """||W c||_L2 / ||c||_S for the de Rham cochain c of the manufactured u
    at level 6.  At k = 0 and 1 the diagonal star approximates the Whitney
    mass matrix, and the ratio falls short of 1 by O(h^2) (a factor 4 per
    level on the symmetric family): 1.68e-3 to 1.75e-3 at k = 0 and 1.33e-4
    to 1.44e-4 at k = 1 on these four meshes.  At k = 2 the star is the
    Whitney mass matrix itself.  A vertex star 1 % too large gives 6.7e-3."""
    K = symmetric_mesh(6) if seed is None else perturbed_mesh(6, seed=seed)
    dual = build_dual(K)
    for k in (0, 1, 2):
        c = de_rham(K, manufactured_solution(k)[0])
        gap = 1.0 - l2_norm_whitney(K, k, c) / discrete_norm(dual, k, c)
        if k == 2:
            assert abs(gap) <= 1e-12
        else:
            assert 0.0 < gap <= (2.5e-3, 2.5e-4)[k], (k, gap)
