"""Acceptance suite: the six headline checks of the library.

Each criterion is covered by the `test_criterion_<n>_*` functions below;
the conftest hook prints one PASS/FAIL line per criterion at the end of
the run.  Criteria 1-3 pin error values and observed convergence rates
of the manufactured-solution study on the symmetric mesh family; 4 pins
the rate windows on randomly perturbed meshes; 5 is the structural
property suite; 6 checks the independent small-scale oracles.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from declab import (
    Poly2,
    PolyForm,
    build_dual,
    check_centroid_condition,
    codifferential,
    codifferential_matrix,
    commuting_j_check,
    compute_errors,
    de_rham,
    discrete_norm,
    exterior_derivative,
    manufactured_solution,
    perturbed_mesh,
    pi_minus_j,
    solve_problem,
    star_matrix,
    symmetric_mesh,
    triangle_rule,
)
from oracles import (
    codifferential_matrix_stencil,
    discrete_inner,
    hodge_laplacian_matrix,
    integrate_over_simplex,
)

SQRT3 = np.sqrt(3.0)


def _within(got: float, want: float, rel: float, label: str) -> None:
    assert abs(got - want) <= rel * want, (
        f"{label}: {got:.6e} is not within {100 * rel:.0f}% of {want:.3e}"
    )


def _in_window(got: float, center: float, width: float, label: str) -> None:
    assert abs(got - center) <= width, (
        f"{label}: rate {got:.4f} outside {center} +/- {width}"
    )


# -- criterion 1: symmetric mesh, k = 0 ---------------------------------------


def test_criterion_1_symmetric_k0_values_rates_and_runtime(convergence_runner):
    report, elapsed = convergence_runner(0, "symmetric", range(2, 9))
    by_level = {rec.level: rec for rec in report.records}
    _within(by_level[5].norms["de_u"], 2.22e-1, 0.02, "k=0 de_u at h=2^-5")
    _within(by_level[5].norms["e_u"], 1.24e-2, 0.03, "k=0 e_u at h=2^-5")
    for step, rate in zip(("6->7", "7->8"), report.rates["de_u"][-2:]):
        _in_window(rate, 2.00, 0.05, f"k=0 de_u rate at {step}")
    assert elapsed < 300.0, f"levels 2..8 took {elapsed:.1f}s (budget 300s)"


# -- criterion 2: symmetric mesh, k = 1 ---------------------------------------


def test_criterion_2_symmetric_k1_values_and_superconvergent_rates(
    convergence_runner,
):
    report, _ = convergence_runner(1, "symmetric", (6, 7, 8))
    at6 = report.records[0].norms
    _within(at6["de_u"], 1.85e-2, 0.03, "k=1 de_u at h=2^-6")
    _within(at6["e_rho"], 3.14e-4, 0.05, "k=1 e_rho at h=2^-6")
    _within(at6["de_rho"], 1.73e-3, 0.05, "k=1 de_rho at h=2^-6")
    _in_window(report.rates["e_u"][-1], 2.0, 0.10, "k=1 e_u finest rate")
    _in_window(report.rates["e_rho"][-1], 4.0, 0.15, "k=1 e_rho finest rate")
    _in_window(report.rates["de_rho"][-1], 4.0, 0.15, "k=1 de_rho finest rate")


# -- criterion 3: symmetric mesh, k = 2 ---------------------------------------


def test_criterion_3_symmetric_k2_values_and_rates(convergence_runner):
    report, _ = convergence_runner(2, "symmetric", (5, 6, 7, 8))
    at5 = report.records[0].norms
    _within(at5["e_u"], 4.00e-3, 0.03, "k=2 e_u at h=2^-5")
    _within(at5["e_rho"], 2.83e-4, 0.05, "k=2 e_rho at h=2^-5")
    _in_window(report.rates["e_u"][-1], 2.0, 0.10, "k=2 e_u finest rate")
    _in_window(report.rates["e_rho"][-1], 4.0, 0.20, "k=2 e_rho finest rate")


# -- criterion 4: perturbed meshes, rate windows ------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_criterion_4_perturbed_k0_first_order(convergence_runner, seed):
    """The scalar derivative error approaches first order from above: at
    the 7->8 halving the observed rate is still descending through ~1.2,
    and it lands in the 1.0 +/- 0.2 window one halving later, so the
    window is asserted at the 8->9 step."""
    report, _ = convergence_runner(0, "perturbed", (8, 9), seed=seed)
    _in_window(
        report.rates["de_u"][-1], 1.0, 0.2, f"k=0 de_u rate, seed {seed}"
    )


# seeds 1..3 at the pinned alpha = 0.15, and seed 1 off it at alpha = 0.45,
# where the well-centered margin at h = 2^-8 is 1.3e-5 (0.039 at 0.15) and
# k = 2 takes twice the CG iterations, so a change tuned to the pinned
# amplitude shows; k = 0 on levels 8..9 at 0.45 takes 9-13 s and is left out
_K12_MESHES = pytest.mark.parametrize(
    "seed, alpha", [(1, 0.15), (2, 0.15), (3, 0.15), (1, 0.45)],
    ids=["1", "2", "3", "1-alpha-0.45"],
)


@_K12_MESHES
def test_criterion_4_perturbed_k1_rate_windows(convergence_runner, seed, alpha):
    report, _ = convergence_runner(1, "perturbed", (7, 8), seed=seed, alpha=alpha)
    label = f"seed {seed}, alpha {alpha}"
    _in_window(report.rates["de_u"][-1], 1.0, 0.2, f"k=1 de_u rate, {label}")
    _in_window(report.rates["de_rho"][-1], 1.0, 0.2, f"k=1 de_rho rate, {label}")
    _in_window(report.rates["e_rho"][-1], 2.0, 0.3, f"k=1 e_rho rate, {label}")


@_K12_MESHES
def test_criterion_4_perturbed_k2_rate_windows(convergence_runner, seed, alpha):
    report, _ = convergence_runner(2, "perturbed", (7, 8), seed=seed, alpha=alpha)
    label = f"seed {seed}, alpha {alpha}"
    _in_window(report.rates["e_u"][-1], 1.0, 0.2, f"k=2 e_u rate, {label}")
    _in_window(report.rates["e_rho"][-1], 1.0, 0.2, f"k=2 e_rho rate, {label}")


# -- criterion 5: structural property suite -----------------------------------


def _structural_meshes():
    for m in (1, 2, 3):
        yield f"symmetric-{m}", symmetric_mesh(m)
    for seed in (1, 2, 3):
        yield f"perturbed-3-s{seed}", perturbed_mesh(3, seed=seed)


def test_criterion_5_d_after_d_is_zero_exactly():
    for label, K in _structural_meshes():
        product = (K.coboundary_matrix(1) @ K.coboundary_matrix(0)).tocoo()
        assert product.nnz == 0 or np.abs(product.data).max() == 0.0, label


def test_criterion_5_delta_after_delta_vanishes_scaled():
    for label, K in _structural_meshes():
        dual = build_dual(K)
        A = codifferential_matrix(K, dual, 1)
        B = codifferential_matrix(K, dual, 2)
        got = np.abs((A @ B).toarray())
        bound = 1e-13 * (abs(A) @ abs(B)).toarray()
        assert (got <= bound).all(), label


def test_criterion_5_adjointness_on_random_cochains():
    rng = np.random.default_rng(123)
    for level in (1, 2, 3):
        K = symmetric_mesh(level)
        dual = build_dual(K)
        for k in (1, 2):  # pairings cover cochain degrees 0, 1, 2
            for _ in range(3):
                a = rng.standard_normal(K.n_simplices(k - 1))
                b = rng.standard_normal(K.n_simplices(k))
                lhs = discrete_inner(dual, k, K.coboundary_matrix(k - 1) @ a, b)
                rhs = discrete_inner(
                    dual, k - 1, a, codifferential_matrix_stencil(K, dual, k) @ b
                )
                scale = max(abs(lhs), abs(rhs), 1.0)
                assert abs(lhs - rhs) <= 1e-12 * scale, (level, k)


def test_criterion_5_stencil_assembly_matches_transpose():
    for label, K in _structural_meshes():
        dual = build_dual(K)
        for k in (1, 2):
            gap = (
                codifferential_matrix(K, dual, k)
                - codifferential_matrix_stencil(K, dual, k)
            ).tocoo()
            assert gap.nnz == 0 or np.abs(gap.data).max() <= 1e-14, (label, k)


COMMUTING_FORMS = [
    PolyForm(1, (Poly2.monomial(3, 0) + Poly2.monomial(1, 1, -0.5),
                 Poly2.monomial(0, 3, 0.25) + Poly2.monomial(2, 1))),
    PolyForm(1, (Poly2.constant(1.0), Poly2.monomial(1, 0))),
    PolyForm(2, (Poly2.monomial(2, 2) + Poly2.monomial(1, 0, -2.0),)),
]


def test_criterion_5_commuting_interpolant_residual():
    for label, K in _structural_meshes():
        dual = build_dual(K)
        for form in COMMUTING_FORMS:
            assert commuting_j_check(K, dual, form) <= 1e-10, (label, form.degree)


CONSTANT_FORMS = {
    0: PolyForm(0, (Poly2.constant(1.0),)),
    1: PolyForm(1, (Poly2.constant(0.75), Poly2.constant(-0.5))),
    2: PolyForm(2, (Poly2.constant(1.25),)),
}


def test_criterion_5_constant_forms_in_interpolant_kernel():
    for label, K in _structural_meshes():
        dual = build_dual(K)
        for k, form in CONSTANT_FORMS.items():
            gap = discrete_norm(dual, k, pi_minus_j(K, dual, form))
            scale = discrete_norm(dual, k, de_rham(K, form))
            assert gap <= 1e-11 * scale, (label, k)


def test_criterion_5_centroid_condition_separates_families():
    for m in (1, 2, 3):
        K = symmetric_mesh(m)
        dual = build_dual(K)
        for k in (0, 1, 2):
            ok, dev = check_centroid_condition(K, dual, k)
            assert ok and dev <= 1e-12, ("symmetric", m, k, dev)
    for seed in (1, 2, 3, 4, 5):
        K = perturbed_mesh(3, seed=seed)
        dual = build_dual(K)
        for k in (0, 1, 2):
            ok, dev = check_centroid_condition(K, dual, k)
            assert not ok and dev > 1e-6, ("perturbed", seed, k, dev)


# -- criterion 6: small-scale oracles -----------------------------------------


def test_criterion_6_cg_matches_dense_factorization():
    # k = 0 on the 15-vertex mesh: replicate the deflation of solve_problem,
    # solve the singular system by least squares, apply the same zero-mean
    # gauge
    K = symmetric_mesh(2)
    dual = build_dual(K)
    assert K.n_simplices(0) <= 50
    u_h, _, _ = solve_problem(K, dual, 0, tol=1e-13)
    _, f = manufactured_solution(0)
    a = dual.hodge_ratio_a[0]
    M = (star_matrix(dual, 0) @ hodge_laplacian_matrix(K, dual, 0)).toarray()
    rhs = star_matrix(dual, 0) @ de_rham(K, f)
    rhs = rhs - (rhs.sum() / a.sum()) * a
    dense = np.linalg.lstsq(M, rhs, rcond=None)[0]
    dense -= (a @ dense) / a.sum()
    assert np.linalg.norm(u_h - dense) <= 1e-10 * np.linalg.norm(dense)

    # k = 1, 2 on the 4-triangle mesh: plain dense solves
    K = symmetric_mesh(1)
    dual = build_dual(K)
    for k in (1, 2):
        assert K.n_simplices(k) <= 50
        u_h, _, _ = solve_problem(K, dual, k, tol=1e-13)
        _, f = manufactured_solution(k)
        M = (star_matrix(dual, k) @ hodge_laplacian_matrix(K, dual, k)).toarray()
        rhs = star_matrix(dual, k) @ de_rham(K, f)
        dense = np.linalg.solve(M, rhs)
        assert np.linalg.norm(u_h - dense) <= 1e-10 * max(
            np.linalg.norm(dense), 1.0
        ), k


def test_criterion_6_quadrature_monomial_oracle():
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for a in range(21):
        for b in range(21 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            form = PolyForm(2, (Poly2.monomial(a, b),))
            got = integrate_over_simplex(form, ref, triangle_rule(a + b))
            assert abs(got - exact) <= 1e-13 * exact, (a, b)


def test_criterion_6_exact_solution_injection():
    # compute_errors takes the derivative errors as coboundaries of the
    # cochain errors, which rests on the commuting property R(dw) = D R(w);
    # that is checked here against direct quadrature of the derivatives
    for family, build in (
        ("symmetric", lambda: symmetric_mesh(3)),
        ("perturbed", lambda: perturbed_mesh(3, seed=1)),
    ):
        K = build()
        dual = build_dual(K)
        for k in (0, 1, 2):
            u, _ = manufactured_solution(k)
            rho = codifferential(u) if k >= 1 else None
            u_h = de_rham(K, u)
            rho_h = de_rham(K, rho) if k >= 1 else None
            norms = compute_errors(K, dual, k, u_h, rho_h)

            scales = {"e_u": discrete_norm(dual, k, u_h)}
            if k < 2:
                r_du = de_rham(K, exterior_derivative(u))
                scales["de_u"] = discrete_norm(dual, k + 1, r_du)
                commute = K.coboundary_matrix(k) @ u_h - r_du
                assert discrete_norm(dual, k + 1, commute) <= 1e-10 * max(
                    scales["de_u"], 1.0
                ), (family, k, "D R(u) vs R(du)")
                assert norms["de_u"] == 0.0, (family, k)
            if k >= 1:
                scales["e_rho"] = discrete_norm(dual, k - 1, rho_h)
            if k == 1:
                r_drho = de_rham(K, exterior_derivative(rho))
                scales["de_rho"] = discrete_norm(dual, k, r_drho)
                commute = K.coboundary_matrix(0) @ rho_h - r_drho
                assert discrete_norm(dual, k, commute) <= 1e-10 * max(
                    scales["de_rho"], 1.0
                ), (family, "D R(delta u) vs R(d delta u)")
                assert norms["de_rho"] == 0.0, family
            for key, err in norms.items():
                assert err <= 1e-10 * max(scales[key], 1.0), (family, k, key)
