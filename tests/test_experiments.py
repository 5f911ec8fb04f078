"""Convergence-experiment pipeline: solve, errors, reports, diagnostics.

The injection oracle feeds the exact cochain data (the de Rham images of
the manufactured solution and its codifferential) through the error
pipeline: the direct errors must vanish identically and the derivative
errors reduce to the de Rham commutation defect, which is pure rounding.
"""

from __future__ import annotations

import gc
import math
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from declab import (
    NORM_KEYS,
    build_dual,
    build_mesh,
    codifferential,
    codifferential_matrix,
    compute_errors,
    de_rham,
    diagnostics,
    discrete_norm,
    exterior_derivative,
    manufactured_solution,
    perturbed_mesh,
    render_report,
    run_convergence,
    solve_problem,
    star_matrix,
    symmetric_mesh,
    well_centered_margin,
)
from declab.operators import dec_system
from oracles import codifferential_matrix_stencil, hodge_laplacian_matrix


def _mesh(family: str, level: int, seed: int = 1):
    K = symmetric_mesh(level) if family == "symmetric" else perturbed_mesh(level, seed)
    return K, build_dual(K)


# -- error pipeline -----------------------------------------------------------


@pytest.mark.parametrize("family", ["symmetric", "perturbed"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_injecting_exact_data_yields_rounding_level_errors(family, k):
    K, dual = _mesh(family, 3)
    u, _ = manufactured_solution(k)
    u_h = de_rham(K, u)
    rho_h = de_rham(K, codifferential(u)) if k >= 1 else None
    norms = compute_errors(K, dual, k, u_h, rho_h)

    assert norms["e_u"] == 0.0
    if k >= 1:
        assert norms["e_rho"] == 0.0
    if k < 2:
        scale = discrete_norm(dual, k + 1, de_rham(K, exterior_derivative(u)))
        assert norms["de_u"] <= 1e-10 * scale
    if k == 1:
        drho = exterior_derivative(codifferential(u))
        scale = discrete_norm(dual, k, de_rham(K, drho))
        assert norms["de_rho"] <= 1e-10 * scale


def test_error_record_keys_follow_degree():
    for k in (0, 1, 2):
        K, dual = _mesh("symmetric", 1)
        u_h, rho_h, _ = solve_problem(K, dual, k)
        assert tuple(compute_errors(K, dual, k, u_h, rho_h)) == NORM_KEYS[k]


@pytest.mark.parametrize("family", ["symmetric", "perturbed"])
def test_k0_errors_are_unchanged_by_a_constant(family):
    # the k = 0 problem is posed modulo constants, and so is its error
    K, dual = _mesh(family, 3)
    u_h, _, _ = solve_problem(K, dual, 0)
    norms = compute_errors(K, dual, 0, u_h, None)
    shifted = compute_errors(K, dual, 0, u_h + 0.37 * np.abs(u_h).max(), None)
    for key in NORM_KEYS[0]:
        assert shifted[key] == pytest.approx(norms[key], rel=1e-12, abs=0), key


@pytest.mark.parametrize(
    "k, u_h, rho_h, bad",
    [
        (0, np.zeros(1), None, "u_h"),
        (0, 0.0, None, "u_h"),
        (1, 0.0, 0.0, "u_h"),
        (1, "edges", "edges", "rho_h"),
        (1, "edges", None, "rho_h"),
        (1, "edges", np.zeros((1, 1)), "rho_h"),
        (2, "triangles", "triangles", "rho_h"),
        (2, np.zeros(3), "edges", "u_h"),
        (0, "vertices/nan", None, "u_h"),
        (1, "edges/nan", "vertices", "u_h"),
        (2, "triangles/nan", "edges", "u_h"),
        (1, "edges", "vertices/inf", "rho_h"),
        (2, "triangles", "edges/-inf", "rho_h"),
    ],
    ids=["k0-short-u", "k0-scalar-u", "k1-scalars", "k1-rho-on-edges",
         "k1-no-rho", "k1-2d-rho", "k2-rho-on-triangles", "k2-short-u",
         "k0-nan-u", "k1-nan-u", "k2-nan-u", "k1-inf-rho", "k2-inf-rho"],
)
def test_compute_errors_rejects_wrong_shaped_cochains(k, u_h, rho_h, bad):
    # a string stands for a zero cochain on those simplices, "edges/nan" for
    # one whose last entry is nan
    K, dual = _mesh("symmetric", 3)
    degree = {"vertices": 0, "edges": 1, "triangles": 2}

    def cochain(spec):
        simplices, _, poison = spec.partition("/")
        x = np.zeros(K.n_simplices(degree[simplices]))
        x[-1] = float(poison or 0.0)
        return x

    u_h, rho_h = (cochain(x) if isinstance(x, str) else x for x in (u_h, rho_h))
    j = k if bad == "u_h" else k - 1
    with pytest.raises(ValueError, match=rf"{bad} must be .* \({K.n_simplices(j)},\)"):
        compute_errors(K, dual, k, u_h, rho_h)


# -- solve_problem ------------------------------------------------------------


def test_density_is_the_discrete_codifferential_of_the_solution():
    K, dual = _mesh("symmetric", 2)
    u_h, rho_h, _ = solve_problem(K, dual, 1)
    assert np.array_equal(rho_h, codifferential_matrix(K, dual, 1) @ u_h)
    # and the stencil route gives the same vector bitwise
    assert np.array_equal(rho_h, codifferential_matrix_stencil(K, dual, 1) @ u_h)


@pytest.mark.parametrize("options", [{"tol": 0.0}, {"max_iterations": 2.5}], ids=["tol", "max_iterations"])
def test_solve_problem_rejects_bad_solver_arguments_before_assembly(options, monkeypatch):
    def no_assembly(*args):
        raise AssertionError("assembled before checking the solver arguments")

    K, dual = _mesh("symmetric", 2)
    monkeypatch.setattr("declab.experiments.dec_system", no_assembly)
    with pytest.raises(ValueError, match="tolerance|max_iterations"):
        solve_problem(K, dual, 1, **options)


@pytest.mark.parametrize("family", ["symmetric", "perturbed"])
def test_k0_solution_has_zero_weighted_mean(family):
    K, dual = _mesh(family, 3)
    u_h, rho_h, _ = solve_problem(K, dual, 0)
    assert rho_h is None
    a = dual.hodge_ratio_a[0]
    assert abs(a @ u_h) <= 1e-12 * a.sum() * np.abs(u_h).max()


@pytest.mark.parametrize("k", [1, 2])
def test_cg_matches_dense_solve_on_small_meshes(k):
    K, dual = _mesh("symmetric", 1)
    u_h, _, _ = solve_problem(K, dual, k, tol=1e-13)
    assert K.n_simplices(k) <= 50
    _, f = manufactured_solution(k)
    M = (star_matrix(dual, k) @ hodge_laplacian_matrix(K, dual, k)).toarray()
    rhs = star_matrix(dual, k) @ de_rham(K, f)
    want = np.linalg.solve(M, rhs)
    assert np.linalg.norm(u_h - want) <= 1e-10 * max(np.linalg.norm(want), 1.0)


def test_cg_matches_dense_solve_for_k0_deflated():
    K, dual = _mesh("symmetric", 2)
    assert K.n_simplices(0) <= 50
    u_h, _, _ = solve_problem(K, dual, 0, tol=1e-13)
    _, f = manufactured_solution(0)
    a = dual.hodge_ratio_a[0]
    M = (star_matrix(dual, 0) @ hodge_laplacian_matrix(K, dual, 0)).toarray()
    rhs = star_matrix(dual, 0) @ de_rham(K, f)
    # replicate the deflation, solve the singular system by least squares,
    # then apply the same zero-mean gauge as solve_problem
    rhs = rhs - (rhs.sum() / a.sum()) * a
    want = np.linalg.lstsq(M, rhs, rcond=None)[0]
    want -= (a @ want) / a.sum()
    assert np.linalg.norm(u_h - want) <= 1e-10 * np.linalg.norm(want)


def test_k1_solve_holds_a_few_copies_of_its_matrix_at_most():
    """The traced peak of solve_problem on perturbed (7, 1) at k = 1 stays
    within 3.2 times the bytes of its matrix M: the assembly keeps no sum
    buffer, the multigrid set-up frees each transfer's temporaries before
    the coarse operator and restricts by P^T as a view, and the Gershgorin
    bound forms no nnz-sized |A| (2.6 times, the coboundaries built inside
    it, since the complex keeps none; a sum of two products, CSR copies of
    P^T and live transfer temporaries took it to 4.7)."""
    solve_problem(*_mesh("perturbed", 3), 1)  # the forms, built once per process
    K, dual = _mesh("perturbed", 7)
    M = dec_system(K, dual.hodge_ratio_a, 1)
    size = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
    del M
    tracemalloc.start()
    try:
        solve_problem(K, dual, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * size


# -- run_convergence ----------------------------------------------------------


def test_run_convergence_frees_each_level_before_the_next_mesh(monkeypatch):
    """A level's mesh, dual and solution are gone, by reference counting
    alone, when the next level's mesh is built."""
    built = []

    def tracked(spec):
        assert all(ref() is None for ref in built), f"level {spec.level - 1} is alive"
        K = build_mesh(spec)
        built.append(weakref.ref(K))
        return K

    monkeypatch.setattr("declab.experiments.build_mesh", tracked)
    gc.disable()
    try:
        run_convergence(1, "perturbed", [2, 3, 4], seed=1)
    finally:
        gc.enable()
    assert len(built) == 3


def test_run_convergence_structure_and_decay():
    report = run_convergence(1, "symmetric", [1, 2, 3])
    assert report.k == 1 and report.family == "symmetric"
    assert [rec.level for rec in report.records] == [1, 2, 3]
    assert set(report.rates) == set(NORM_KEYS[1])
    for key in NORM_KEYS[1]:
        errs = [rec.norms[key] for rec in report.records]
        assert all(e > 0 for e in errs)
        assert errs[0] > errs[-1]
        assert len(report.rates[key]) == 2
    for rec in report.records:
        assert rec.iterations > 0
        assert rec.wall_time > 0.0
        assert rec.h == pytest.approx(2.0**-rec.level, rel=0.2)


def test_run_convergence_rejects_unsorted_levels():
    for levels in ([3, 2], [2, 2]):
        with pytest.raises(ValueError, match="ascending"):
            run_convergence(0, "symmetric", levels)


@pytest.mark.parametrize(
    "k, family, levels, options",
    [
        (1, "perturbed", [8], {"tol": math.nan}),
        (1, "perturbed", [8], {"max_iterations": 0}),
        (1, "symmetric", [], {}),
        (5, "symmetric", [], {}),
        (5, "symmetric", [3], {}),
        (True, "symmetric", [], {}),
        (1.0, "symmetric", [3], {}),
        (0, "symmetric", [2, 2.5], {}),
        (0, "perturbed", [3], {"alpha": "0.1"}),
    ],
    ids=["nan-tol", "no-iterations", "no-levels", "k-5-no-levels", "k-5", "k-bool", "k-float",
         "level-float-after-a-good-one", "alpha-str"],
)
def test_run_convergence_rejects_bad_input_before_any_mesh(k, family, levels, options, monkeypatch):
    def no_mesh(spec):
        raise AssertionError(f"built {spec} before checking the arguments")

    monkeypatch.setattr("declab.experiments.build_mesh", no_mesh)
    with pytest.raises(ValueError):
        run_convergence(k, family, levels, **options)


@pytest.mark.parametrize("k", [True, 1.0, "1", 3, -1], ids=repr)
def test_every_entry_rejects_a_bad_degree(k):
    K, dual = _mesh("symmetric", 2)
    u_h = np.zeros(K.n_simplices(1))
    entries = {
        "solve_problem": lambda: solve_problem(K, dual, k),
        "compute_errors": lambda: compute_errors(K, dual, k, u_h, np.zeros(K.n_simplices(0))),
        "diagnostics": lambda: diagnostics(K, dual, k),
        "run_convergence": lambda: run_convergence(k, "symmetric", [2]),
    }
    for name, call in entries.items():
        with pytest.raises(ValueError, match="k must be 0, 1 or 2"):
            call()


def test_wall_time_includes_the_error_norms(monkeypatch):
    real = compute_errors

    def slow(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr("declab.experiments.compute_errors", slow)
    assert run_convergence(0, "symmetric", [1]).records[0].wall_time >= 0.05


# -- rendering ----------------------------------------------------------------


def test_render_markdown_table():
    report = run_convergence(2, "symmetric", [1, 2])
    text = render_report(report, "markdown")
    lines = text.strip().split("\n")
    assert lines[0] == "| h | e_u | rate | e_rho | rate |"
    assert len(lines) == 4
    assert "| 2^-1 |" in lines[2] and "| -- |" in lines[2]
    assert "--" not in lines[3]


def test_render_csv_round_trips_full_precision():
    report = run_convergence(0, "symmetric", [1, 2])
    text = render_report(report, "csv")
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header == ["level", "h", "e_u", "rate_e_u", "de_u", "rate_de_u", "iterations", "wall_time"]
    first = lines[1].split(",")
    assert first[3] == "" and first[5] == ""  # no rate on the first row
    second = lines[2].split(",")
    assert float(second[2]) == report.records[1].norms["e_u"]  # %.17g exact
    assert float(second[3]) == pytest.approx(report.rates["e_u"][0], abs=0)
    assert int(second[6]) == report.records[1].iterations


def test_zero_norm_gives_nan_rate_without_warning(monkeypatch):
    real = compute_errors

    def zero_e_u_at_level_2(K, dual, k, u_h, rho_h):
        norms = real(K, dual, k, u_h, rho_h)
        if K.n_simplices(2) == 4 ** 2:  # level 2 of the symmetric family
            norms["e_u"] = 0.0
        return norms

    monkeypatch.setattr("declab.experiments.compute_errors", zero_e_u_at_level_2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_convergence(2, "symmetric", [1, 2, 3])
        markdown = render_report(report, "markdown")
        csv = render_report(report, "csv")
    e_u = report.rates["e_u"]
    assert math.isnan(e_u[0]) and math.isnan(e_u[1])
    assert all(math.isfinite(r) for r in report.rates["e_rho"])
    for row in markdown.splitlines()[2:]:
        assert row.split(" | ")[2] == "--"
    for row in csv.splitlines()[1:]:
        assert row.split(",")[3] == ""
    assert csv.splitlines()[2].split(",")[2] == "0"


def test_render_rejects_unknown_format():
    report = run_convergence(0, "symmetric", [1])
    with pytest.raises(ValueError, match="format"):
        render_report(report, "latex")


# -- diagnostics --------------------------------------------------------------


def test_diagnostics_on_symmetric_mesh():
    K, dual = _mesh("symmetric", 2)
    text = diagnostics(K, dual, 1)
    assert "centroid condition: PASS" in text
    assert "constant-form kernel of Pi - J: PASS" in text
    assert "commuting interpolant residual (interior rows): PASS" in text


def test_diagnostics_on_perturbed_mesh():
    K, dual = _mesh("perturbed", 3, seed=2)
    text = diagnostics(K, dual, 1)
    assert "centroid condition: FAIL" in text
    # the pointwise kernels survive perturbation, the centroid one does not
    assert "constant-form kernel of Pi - J: PASS" in text


@pytest.mark.parametrize("family", ["symmetric", "perturbed"])
def test_diagnostics_report_the_well_centered_margin(family):
    K, dual = _mesh(family, 3, seed=2)
    lines = diagnostics(K, dual, 0).splitlines()
    (line,) = [s for s in lines if s.startswith("well-centered margin: ")]
    printed = float(line.split()[2])
    assert printed == float(f"{well_centered_margin(K):.3e}")
    if family == "symmetric":
        assert printed == 0.3333  # every triangle equilateral
    else:
        assert 0 < printed < 1 / 3


def test_diagnostics_vacuous_on_single_triangle():
    from declab import build_complex

    K = build_complex(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2]]), [[0, 1, 2]]
    )
    text = diagnostics(K, build_dual(K), 0)
    assert "VACUOUS" in text
