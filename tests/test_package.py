"""Package-level checks: the public surface and the runnable demos."""

from __future__ import annotations

import ast
import importlib
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
    "de_rham_dual", "diagnostics", "discrete_norm", "exterior_derivative",
    "gauss_legendre_unit", "hodge_laplacian", "hodge_laplacian_matrix",
    "hodge_star", "hodge_star_inverse", "is_well_centered", "j_interpolant",
    "manufactured_solution", "perturbed_mesh", "pi_minus_j", "read_mesh",
    "render_report", "run_convergence", "solve_problem", "star_inverse_matrix",
    "star_matrix", "symmetric_mesh", "triangle_rule", "well_centered_margin",
    "write_mesh",
]


def test_public_api_is_pinned():
    assert sorted(declab.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        getattr(declab, name)  # raises AttributeError on a dangling export
    # each submodule's __all__ resolves and is re-exported by the package,
    # apart from cli.main, the console script
    for path in sorted((ROOT / "src" / "declab").glob("[!_]*.py")):
        module = importlib.import_module(f"declab.{path.stem}")
        for name in getattr(module, "__all__", []):
            getattr(module, name)
            assert (path.stem, name) == ("cli", "main") or name in declab.__all__, (
                f"declab.{path.stem}.{name} is not re-exported by declab"
            )


def test_every_export_has_a_production_caller():
    """An export that only tests and demos use belongs in tests/oracles.py."""
    used = set()
    for path in (ROOT / "src" / "declab").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert set(declab.__all__) - used == set()


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
