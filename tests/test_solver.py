"""Preconditioned conjugate-gradient solver: Jacobi, or a given cycle."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from declab import (
    SolverError,
    cg_solve,
    de_rham,
    build_dual,
    manufactured_solution,
    perturbed_mesh,
    solve_problem,
    star_matrix,
    symmetric_mesh,
)
from declab.multigrid import multigrid_cycle
from declab.operators import dec_system
from oracles import hodge_laplacian_matrix


def _k0_system(level: int = 2):
    """The singular k = 0 system, ker M = span{1}, with the right-hand side
    deflated to 1^T b = 0 as solve_problem does."""
    K = symmetric_mesh(level)
    dual = build_dual(K)
    _, f = manufactured_solution(0)
    S = star_matrix(dual, 0)
    M = (S @ hodge_laplacian_matrix(K, dual, 0)).tocsr()
    b = S @ de_rham(K, f)
    a = dual.hodge_ratio_a[0]
    return M, b - (b.sum() / a.sum()) * a


# -- basic solves -------------------------------------------------------------


def test_identity_converges_immediately():
    b = np.array([1.0, -2.0, 3.0])
    res = cg_solve(sp.identity(3, format="csr"), b)
    np.testing.assert_allclose(res.x, b, rtol=1e-14)
    assert res.iterations == 1
    assert res.residual <= 1e-12


def test_two_by_two_example():
    M = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    res = cg_solve(M, np.array([3.0, 3.0]))
    np.testing.assert_allclose(res.x, [1.0, 1.0], rtol=1e-12)


def test_matches_dense_solve_on_random_spd():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((30, 30))
    M = A.T @ A + 30.0 * np.eye(30)
    b = rng.standard_normal(30)
    want = np.linalg.solve(M, b)
    got = cg_solve(sp.csr_matrix(M), b, tol=1e-14).x
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


# -- the singular k = 0 system -------------------------------------------------


def test_deflated_zero_rhs_gives_zero():
    M, _ = _k0_system(1)
    res = cg_solve(M, np.zeros(M.shape[0]))
    assert res.iterations == 0
    assert np.abs(res.x).max() == 0.0
    assert res.residual == 0.0


def test_deflated_system_solves_singular_laplacian():
    M, b = _k0_system(2)
    res = cg_solve(M, b)
    r = np.linalg.norm(b - M @ res.x) / np.linalg.norm(b)
    assert r <= 1e-11


# -- failure modes ------------------------------------------------------------


def test_rejects_asymmetric_matrix():
    M = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(SolverError, match="not symmetric"):
        cg_solve(M, np.ones(2))


def _refuse(M):
    raise AssertionError("symmetry re-checked")


@pytest.mark.parametrize("mesh", [(3,), (4, 1)], ids=["grid", "perturbed"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_solve_problem_does_not_recheck_the_symmetry_dec_system_builds_in(mesh, k, monkeypatch):
    K = symmetric_mesh(*mesh) if len(mesh) == 1 else perturbed_mesh(*mesh)
    monkeypatch.setattr("declab.solver._check_symmetry", _refuse)
    assert solve_problem(K, build_dual(K), manufactured_solution(k)[1])[2].residual <= 1e-12


def test_copies_of_a_dec_system_matrix_are_checked(monkeypatch):
    """The mark belongs to the matrix dec_system built: a copy, scaled or
    edited, is checked like any other input."""
    K = symmetric_mesh(2)
    M = dec_system(K, build_dual(K).hodge_ratio_a, 1)
    b = np.ones(M.shape[0])
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    edited = M.copy()
    edited.data[np.flatnonzero(edited.indices != rows)[0]] += 1.0
    with pytest.raises(SolverError, match="not symmetric"):
        cg_solve(edited, b)
    monkeypatch.setattr("declab.solver._check_symmetry", _refuse)
    cg_solve(M, b)  # the marked matrix itself
    for derived in (M.copy(), 2.0 * M, M.tocsc()):
        with pytest.raises(AssertionError, match="re-checked"):
            cg_solve(derived, b)


def test_rejects_indefinite_matrix():
    M = sp.csr_matrix(-np.eye(3))
    with pytest.raises(SolverError, match="positive definite"):
        cg_solve(M, np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_rhs(bad):
    M, b = _k0_system(1)
    b[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        cg_solve(M, b)


def test_nan_curvature_fails_at_first_iteration():
    M = sp.diags([1.0, np.nan, 1.0], format="csr")
    with pytest.raises(SolverError, match="at iteration 1\\)"):
        cg_solve(M, np.ones(3))


def test_reports_non_convergence():
    M, b = _k0_system(3)
    with pytest.raises(SolverError, match="did not converge in 2 iterations: best"):
        cg_solve(M, b, max_iterations=2)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", 0, -5])
def test_config_rejects_max_iterations_that_are_not_positive_integers(bad):
    with pytest.raises(ValueError, match="max_iterations"):
        cg_solve(sp.identity(3, format="csr"), np.ones(3), max_iterations=bad)


@pytest.mark.parametrize("bad", [True, False, "1e-3", np.nan, np.inf, 0.0, -1e-12])
def test_config_rejects_tol_that_is_not_a_finite_positive_number(bad):
    with pytest.raises(ValueError, match="tolerance"):
        cg_solve(sp.identity(3, format="csr"), np.ones(3), tol=bad)


def test_config_accepts_numpy_integer_max_iterations():
    M, b = _k0_system(2)
    assert cg_solve(M, b, max_iterations=np.int64(500)).iterations <= 500


@pytest.mark.parametrize("dense", [np.eye(3), np.eye(3).tolist()], ids=["ndarray", "list"])
def test_rejects_a_matrix_that_is_not_sparse(dense):
    with pytest.raises(ValueError, match=f"scipy sparse, got {type(dense).__name__}"):
        cg_solve(dense, np.ones(3))


def test_rejects_bad_shapes():
    M = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        cg_solve(M, np.ones(4))
    with pytest.raises(ValueError):
        cg_solve(sp.csr_matrix(np.ones((2, 3))), np.ones(3))


# -- behaviour ----------------------------------------------------------------


def test_solver_is_deterministic():
    M, b = _k0_system(2)
    r1 = cg_solve(M, b)
    r2 = cg_solve(M, b)
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations
    assert r1.residual_history == r2.residual_history
    # and with the multigrid cycle as the preconditioner
    M, b = _k0_system(5)
    cycle = multigrid_cycle(M, symmetric_mesh(5), 0)
    r1 = cg_solve(M, b, precondition=cycle)
    r2 = cg_solve(M, b, precondition=cycle)
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations
    assert r1.residual_history == r2.residual_history


def test_residual_history_shape_and_convergence():
    M, b = _k0_system(2)
    res = cg_solve(M, b)
    hist = res.residual_history
    assert len(hist) == res.iterations + 1
    assert hist[0] == pytest.approx(np.linalg.norm(b))
    assert hist[-1] <= 1e-12 * hist[0]
    assert res.residual == pytest.approx(np.linalg.norm(b - M @ res.x) / np.linalg.norm(b))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_residual_is_the_true_residual_of_the_returned_x(k):
    """The reported residual is ||b - M x|| / ||b|| of x itself, not the
    recursively updated residual the stopping test reads, on solve_problem's
    system and cycle."""
    K = perturbed_mesh(6, 1)
    dual = build_dual(K)
    a = dual.hodge_ratio_a
    M = dec_system(K, a, k)
    b = a[k] * de_rham(K, manufactured_solution(k)[1])
    if k == 0:
        b = b - (b.sum() / a[0].sum()) * a[0]
    res = cg_solve(M, b, precondition=multigrid_cycle(M, K, k))
    true = np.linalg.norm(b - M @ res.x) / np.linalg.norm(b)
    assert res.residual == pytest.approx(true, rel=1e-12)
    assert res.residual != res.residual_history[-1] / res.residual_history[0]
