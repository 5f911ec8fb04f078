"""Package-level checks: the public surface and the runnable demos."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import declab

ROOT = Path(__file__).resolve().parent.parent

# Adding or removing an export should be a visible diff here.
PUBLIC_API = [
    "ConvergenceReport", "DualComplex", "ErrorRecord", "MeshError",
    "MeshFamilySpec", "NORM_KEYS", "Poly2", "PolyForm", "QuadratureRule",
    "SimplicialComplex", "SolverConfig", "SolverError", "SolverResult",
    "build_complex", "build_dual", "build_mesh", "cg_solve",
    "check_centroid_condition", "codifferential", "codifferential_matrix",
    "commuting_j_check", "compute_errors", "counter_uniform", "de_rham",
    "de_rham_dual", "diagnostics", "diamond_volumes", "discrete_inner",
    "discrete_norm", "exterior_derivative", "gauss_legendre_unit",
    "hodge_laplacian", "hodge_laplacian_matrix", "hodge_star",
    "hodge_star_inverse", "integrate_over_simplex", "is_well_centered",
    "j_interpolant", "l2_norm_whitney", "manufactured_solution",
    "perturbed_mesh", "pi_minus_j", "read_mesh", "render_report",
    "run_convergence", "solve_problem", "star_inverse_matrix", "star_matrix",
    "symmetric_mesh", "triangle_rule", "well_centered_margin",
    "whitney_evaluate", "write_mesh",
]


def test_public_api_is_pinned():
    assert sorted(declab.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        getattr(declab, name)  # raises AttributeError on a dangling export


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, demo],
        cwd=ROOT / "demos",
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
