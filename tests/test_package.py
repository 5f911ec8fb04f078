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
    "SimplicialComplex", "SolverError", "SolverResult",
    "build_complex", "build_dual", "build_mesh", "cg_solve",
    "check_centroid_condition", "codifferential", "codifferential_matrix",
    "commuting_j_check", "compute_errors", "counter_uniform", "de_rham",
    "de_rham_dual", "diagnostics", "discrete_norm", "exterior_derivative",
    "gauss_legendre_unit", "hodge_laplacian", "hodge_laplacian_matrix",
    "hodge_star", "is_well_centered", "j_interpolant",
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


def _production_reads() -> set[str]:
    """Names and attributes that src/declab reads outside their own
    definition; the package's re-exports are not callers."""
    used = set()
    for path in (ROOT / "src" / "declab").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            reads = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reads.add(node.attr)
            reads.discard(getattr(top, "name", None))  # recursion is not a caller
            used |= reads
    return used


def test_every_export_has_a_production_caller():
    """An export that only tests and demos use belongs in tests/oracles.py."""
    assert set(declab.__all__) - _production_reads() == set()


def test_every_public_function_has_a_production_caller():
    """A public function or class of any src/declab module, exported or not,
    that only tests use belongs in tests/oracles.py; cli.main, the console
    script, is the one exemption."""
    used = _production_reads()
    uncalled = [
        f"{path.stem}.{top.name}"
        for path in sorted((ROOT / "src" / "declab").glob("*.py"))
        for top in ast.parse(path.read_text()).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and not top.name.startswith("_")
        and top.name not in used
        and (path.stem, top.name) != ("cli", "main")
    ]
    assert uncalled == []


@pytest.mark.parametrize(
    "option, marker, exit_code",
    [("filterwarnings", "@pytest.mark.slowww\n", 2), ("filterwarning", "", 4)],
    ids=["misspelt-marker", "misspelt-option"],
)
def test_pytest_config_fails_a_misspelling(tmp_path, option, marker, exit_code):
    """The suite's config fails collection on an unregistered marker, and on
    a misspelt option instead of dropping its warnings-as-errors policy."""
    config = (ROOT / "pyproject.toml").read_text().replace("\nfilterwarnings =", f"\n{option} =")
    (tmp_path / "pyproject.toml").write_text(config)
    for folder in ("src", "tests", "perfbench"):
        (tmp_path / folder).mkdir()
    (tmp_path / "tests" / "test_x.py").write_text(f"import pytest\n\n{marker}def test_x():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == exit_code, proc.stdout + proc.stderr


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
