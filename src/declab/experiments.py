"""End-to-end convergence experiments for the discrete Hodge-Laplacian.

For degree k and a mesh family, each level m builds the mesh (h = 2^-m)
and its circumcentric dual, assembles the symmetric system

    M u = S_k R(f),   f = Hodge-Laplacian of u_exact,
    M = S_k L_k = G S_{k-1}^-1 G^T + D_k^T S_{k+1} D_k,   G = S_k D_{k-1},

solves by preconditioned CG (the multigrid cycle, which recognises grid
meshes of any level, and Jacobi where it declines), recovers
rho_h = delta_h u_h for k >= 1, and records the cochain error norms

    e_u    = R(u) - u_h                  (on k-simplices)
    de_u   = D (R(u) - u_h)              (on (k+1)-simplices, k < 2)
    e_rho  = R(delta u) - rho_h          (on (k-1)-simplices, k >= 1)
    de_rho = D (R(delta u) - rho_h)      (on k-simplices, k = 1 only)

in the diagonal-Hodge norm, plus observed rates log2(e(h) / e(h/2)).
The de Rham map R commutes with d (Stokes on every simplex: the integral
of dw over a simplex is the integral of w over its oriented boundary), so
de_u = R(du) - D u_h and de_rho = R(d delta u) - D rho_h; the derivative
errors are taken as coboundaries of e_u and e_rho, which needs no
quadrature of du or d delta u.

On the contractible domain the only harmonic forms are the constants at
k = 0, so the k = 0 problem is posed modulo constants.  solve_problem works
from f alone: it removes the S-weighted mean of the source data, so that
the right-hand side sums to zero and the singular system is consistent, and
returns the solution with zero S-weighted mean.  compute_errors takes the k = 0
error modulo constants, removing the S-weighted mean of R(u) - u_h.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .complex import SimplicialComplex, _is_int
from .dual import (
    CENTROID_TOL,
    DualComplex,
    build_dual,
    check_centroid_condition,
    well_centered_margin,
)
from .forms import (
    Poly2,
    PolyForm,
    codifferential,
    de_rham,
    manufactured_solution,
)
from .meshes import MeshFamilySpec, build_mesh
from .operators import (
    codifferential_matrix,
    commuting_j_check,
    dec_system,
    discrete_norm,
    j_interpolant,
    pi_minus_j,
)
from .multigrid import multigrid_cycle
from .solver import SolverResult, _check_solver_args, _dot, cg_solve

__all__ = [
    "ErrorRecord",
    "ConvergenceReport",
    "NORM_KEYS",
    "solve_problem",
    "compute_errors",
    "run_convergence",
    "render_report",
    "diagnostics",
]

NORM_KEYS = {
    0: ("e_u", "de_u"),
    1: ("e_u", "de_u", "e_rho", "de_rho"),
    2: ("e_u", "e_rho"),
}


@dataclass
class ErrorRecord:
    level: int
    h: float
    norms: dict[str, float]
    iterations: int = 0
    wall_time: float = 0.0  # seconds from the mesh build to the error norms


@dataclass
class ConvergenceReport:
    k: int
    family: str
    seed: int
    alpha: float
    levels: list[int]
    records: list[ErrorRecord] = field(default_factory=list)
    rates: dict[str, list[float]] = field(default_factory=dict)


def _check_degree(k) -> None:
    """Reject a degree other than the ints 0, 1 and 2 (bools and floats too)."""
    if not _is_int(k) or k not in NORM_KEYS:
        raise ValueError(f"k must be 0, 1 or 2, got {k!r}")


@functools.cache
def _manufactured_forms(k: int) -> tuple[PolyForm, PolyForm, PolyForm | None]:
    """(u, f, delta u) of the degree-k manufactured problem (delta u is None
    at k = 0), built once per k, so every level evaluates the same forms."""
    u, f = manufactured_solution(k)
    return u, f, codifferential(u) if k >= 1 else None


def solve_problem(
    K: SimplicialComplex,
    dual: DualComplex,
    k: int,
    tol: float = 1e-12,
    max_iterations: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None, SolverResult]:
    """Assemble and solve the degree-k manufactured problem on one mesh.

    Returns (u_h, rho_h, solver result); rho_h is None for k = 0, where
    u_h has zero S-weighted mean.
    """
    _check_degree(k)
    _check_solver_args(tol, max_iterations)
    _, f, _ = _manufactured_forms(k)
    M = dec_system(K, dual.hodge_ratio_a, k)
    rhs = dual.hodge_ratio_a[k] * de_rham(K, f)

    a = dual.hodge_ratio_a[0]
    if k == 0:  # ker M = span{1}: 1^T rhs = 0 makes the system consistent
        rhs = rhs - (rhs.sum() / a.sum()) * a
    result = cg_solve(
        M, rhs, tol=tol, max_iterations=max_iterations, precondition=multigrid_cycle(M, K, k)
    )
    if k > 0:
        return result.x, codifferential_matrix(K, dual, k) @ result.x, result
    return result.x - _dot(a, result.x) / a.sum(), None, result


def compute_errors(
    K: SimplicialComplex,
    dual: DualComplex,
    k: int,
    u_h: np.ndarray,
    rho_h: np.ndarray | None,
) -> dict[str, float]:
    """Cochain error norms (keyed as NORM_KEYS[k]) of a solved state against
    the manufactured forms; at k = 0 the error is taken modulo constants.
    u_h must be a finite k-cochain and, for k >= 1, rho_h a finite
    (k-1)-cochain."""
    _check_degree(k)
    u, _, delta_u = _manufactured_forms(k)
    for name, x, j in (("u_h", u_h, k), ("rho_h", rho_h, k - 1)):
        n = K.n_simplices(max(j, 0))
        if j >= 0 and not (np.shape(x) == (n,) and np.isfinite(x).all()):
            shape = "None" if x is None else np.shape(x)
            got = "non-finite entries" if shape == (n,) else shape
            raise ValueError(f"{name} must be a finite {j}-cochain of shape ({n},), got {got}")
    norms: dict[str, float] = {}

    # R(d w) = D R(w) by Stokes, so the derivative errors are coboundaries
    # of the cochain errors and need no de Rham map of their own
    e_u = de_rham(K, u) - u_h
    if k == 0:
        a = dual.hodge_ratio_a[0]
        e_u -= _dot(a, e_u) / a.sum()
    norms["e_u"] = discrete_norm(dual, k, e_u)
    if k < 2:
        norms["de_u"] = discrete_norm(dual, k + 1, K.coboundary_matrix(k) @ e_u)
    if k >= 1:
        e_rho = de_rham(K, delta_u) - rho_h
        norms["e_rho"] = discrete_norm(dual, k - 1, e_rho)
    if k == 1:
        norms["de_rho"] = discrete_norm(dual, k, K.coboundary_matrix(k - 1) @ e_rho)
    return norms


def run_convergence(
    k: int,
    family: str,
    levels: list[int],
    seed: int = 0,
    alpha: float = 0.15,
    tol: float = 1e-12,
    max_iterations: int | None = None,
) -> ConvergenceReport:
    """One convergence study: a record per level plus observed rates.
    k, every level and the solver arguments are checked before any mesh is built."""
    _check_degree(k)
    _check_solver_args(tol, max_iterations)
    levels = list(levels)
    if not levels:
        raise ValueError("levels must not be empty")
    specs = [MeshFamilySpec(family=family, level=m, seed=seed, alpha=alpha) for m in levels]
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly ascending")
    report = ConvergenceReport(
        k=k, family=family, seed=seed, alpha=alpha, levels=levels
    )
    for spec in specs:
        report.records.append(_record(spec, k, tol, max_iterations))
    report.rates = {
        key: [
            _rate(report.records[i - 1].norms[key], report.records[i].norms[key])
            for i in range(1, len(report.records))
        ]
        for key in NORM_KEYS[k]
    }
    return report


def _record(spec: MeshFamilySpec, k: int, tol: float, max_iterations: int | None) -> ErrorRecord:
    """One level of run_convergence, timed from the mesh build to the error
    norms.  Its mesh, dual and solution are freed when it returns, before
    the next level's mesh is built (at perturbed k = 1, level 7's 3.6 MB
    under the level-8 mesh build)."""
    start = time.perf_counter()
    K = build_mesh(spec)
    dual = build_dual(K)
    u_h, rho_h, result = solve_problem(K, dual, k, tol=tol, max_iterations=max_iterations)
    norms = compute_errors(K, dual, k, u_h, rho_h)
    return ErrorRecord(spec.level, K.mesh_size(), norms, result.iterations, time.perf_counter() - start)


def _rate(coarse: float, fine: float) -> float:
    """Observed rate log2(coarse / fine); nan when either norm is 0."""
    return float(np.log2(coarse / fine)) if coarse > 0 and fine > 0 else math.nan


def render_report(report: ConvergenceReport, fmt: str = "markdown") -> str:
    """Render a convergence table; values to 3 significant digits in
    markdown, full precision in CSV.  A missing or nan rate (the first row,
    or a step with a zero norm) prints as -- in markdown, empty in CSV."""
    keys = NORM_KEYS[report.k]
    if fmt == "markdown":
        cols = ["h"]
        for key in keys:
            cols.extend([key, "rate"])
        lines = [
            "| " + " | ".join(cols) + " |",
            "|" + "---|" * len(cols),
        ]
        for i, rec in enumerate(report.records):
            cells = [f"2^-{rec.level}"]
            for key in keys:
                cells.append(f"{rec.norms[key]:.2e}")
                rate = report.rates[key][i - 1] if i else math.nan
                cells.append("--" if math.isnan(rate) else f"{rate:.2f}")
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        cols = ["level", "h"]
        for key in keys:
            cols.extend([key, f"rate_{key}"])
        cols.extend(["iterations", "wall_time"])
        lines = [",".join(cols)]
        for i, rec in enumerate(report.records):
            cells = [str(rec.level), f"{rec.h:.17g}"]
            for key in keys:
                cells.append(f"{rec.norms[key]:.17g}")
                rate = report.rates[key][i - 1] if i else math.nan
                cells.append("" if math.isnan(rate) else f"{rate:.17g}")
            cells.extend([str(rec.iterations), f"{rec.wall_time:.6f}"])
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def diagnostics(K: SimplicialComplex, dual: DualComplex, k: int) -> str:
    """Superconvergence/kernel diagnostics for one mesh and degree.

    Reports the mesh's well-centered margin, the centroid-coincidence
    check, the constant-form and centered-linear-form kernels of Pi - J,
    and (for k >= 1) the commuting-interpolant residual.
    """
    _check_degree(k)
    lines = [
        f"diagnostics for k={k} on {K.n_simplices(2)} triangles",
        f"well-centered margin: {well_centered_margin(K):.3e} "
        "(smallest circumcenter barycentric coordinate)",
    ]

    interior = (~K.is_boundary(k)).sum()
    ok, dev = check_centroid_condition(K, dual, k)
    if interior == 0:
        lines.append(
            f"centroid condition: VACUOUS (no interior {k}-simplices)"
        )
    else:
        lines.append(
            f"centroid condition: {'PASS' if ok else 'FAIL'} "
            f"(max deviation {dev:.3e} over {interior} interior simplices, "
            f"tol {CENTROID_TOL:g})"
        )

    const = {
        0: PolyForm(0, (Poly2.constant(1.0),)),
        1: PolyForm(1, (Poly2.constant(0.75), Poly2.constant(-0.5))),
        2: PolyForm(2, (Poly2.constant(1.25),)),
    }[k]
    res = discrete_norm(dual, k, pi_minus_j(K, dual, const))
    scale = discrete_norm(dual, k, de_rham(K, const))
    ok_const = res <= 1e-11 * scale
    lines.append(
        f"constant-form kernel of Pi - J: {'PASS' if ok_const else 'FAIL'} "
        f"(residual {res:.3e}, tol {1e-11 * scale:.3e})"
    )

    idx = np.where(~K.is_boundary(k))[0]
    if len(idx) == 0:
        lines.append("centered-linear kernel: VACUOUS (no interior simplices)")
    else:
        sigma = int(idx[0])
        cx, cy = K.vertices[K.simplices(k)[sigma]].mean(axis=0)
        lin = Poly2.monomial(1, 0) + Poly2.monomial(0, 1) - (cx + cy)
        comps = (lin,) if k in (0, 2) else (lin, lin)
        entry = pi_minus_j(K, dual, PolyForm(k, comps))[sigma]
        lines.append(
            f"centered-linear form at interior simplex {sigma}: "
            f"(Pi - J) entry {entry:.3e} "
            f"({'PASS' if abs(entry) <= 1e-11 else 'FAIL'} at tol 1e-11; "
            f"expected to fail off the symmetric family)"
        )

    if k >= 1:
        comps = tuple(
            Poly2.monomial(1, 2, 0.5) + Poly2.monomial(2, 0, -1.0) + (i + 1.0)
            for i in range(2 if k == 1 else 1)
        )
        form = PolyForm(k, comps)
        res = commuting_j_check(K, dual, form)
        scale = discrete_norm(dual, k, j_interpolant(K, dual, form))
        lines.append(
            f"commuting interpolant residual (interior rows): "
            f"{'PASS' if res <= 1e-10 * scale else 'FAIL'} "
            f"({res:.3e} vs tol {1e-10 * scale:.3e})"
        )
    return "\n".join(lines) + "\n"
