"""declab: discrete exterior calculus on well-centered planar triangulations.

Primal simplicial complexes with ascending-tuple orientation, circumcentric
dual complexes, diagonal Hodge stars, the discrete codifferential and
Hodge-Laplacian, polynomial differential forms with exact quadrature, a
Jacobi-PCG solver, structured/perturbed mesh families on an
equilateral domain, and a manufactured-solution convergence laboratory.
"""

from __future__ import annotations

from .complex import SimplicialComplex, build_complex
from .dual import (
    DualComplex,
    build_dual,
    check_centroid_condition,
    diamond_volumes,
    is_well_centered,
    well_centered_margin,
)
from .forms import (
    Poly2,
    PolyForm,
    QuadratureRule,
    codifferential,
    de_rham,
    de_rham_dual,
    exterior_derivative,
    gauss_legendre_unit,
    hodge_laplacian,
    hodge_star,
    hodge_star_inverse,
    integrate_over_simplex,
    manufactured_solution,
    triangle_rule,
)
from .operators import (
    codifferential_matrix,
    commuting_j_check,
    discrete_inner,
    discrete_norm,
    hodge_laplacian_matrix,
    j_interpolant,
    l2_norm_whitney,
    pi_minus_j,
    star_inverse_matrix,
    star_matrix,
    whitney_evaluate,
)
from .solver import (
    SolverConfig,
    SolverError,
    SolverResult,
    cg_solve,
)
from .meshes import (
    MeshError,
    MeshFamilySpec,
    build_mesh,
    counter_uniform,
    perturbed_mesh,
    read_mesh,
    symmetric_mesh,
    write_mesh,
)
from .experiments import (
    ConvergenceReport,
    ErrorRecord,
    NORM_KEYS,
    compute_errors,
    diagnostics,
    render_report,
    run_convergence,
    solve_problem,
)

__version__ = "0.1.0"

__all__ = [
    "SimplicialComplex",
    "build_complex",
    "DualComplex",
    "build_dual",
    "check_centroid_condition",
    "diamond_volumes",
    "is_well_centered",
    "well_centered_margin",
    "Poly2",
    "PolyForm",
    "QuadratureRule",
    "codifferential",
    "de_rham",
    "de_rham_dual",
    "exterior_derivative",
    "gauss_legendre_unit",
    "hodge_laplacian",
    "hodge_star",
    "hodge_star_inverse",
    "integrate_over_simplex",
    "manufactured_solution",
    "triangle_rule",
    "codifferential_matrix",
    "commuting_j_check",
    "discrete_inner",
    "discrete_norm",
    "hodge_laplacian_matrix",
    "j_interpolant",
    "l2_norm_whitney",
    "pi_minus_j",
    "star_inverse_matrix",
    "star_matrix",
    "whitney_evaluate",
    "SolverConfig",
    "SolverError",
    "SolverResult",
    "cg_solve",
    "MeshError",
    "MeshFamilySpec",
    "build_mesh",
    "counter_uniform",
    "perturbed_mesh",
    "read_mesh",
    "symmetric_mesh",
    "write_mesh",
    "ConvergenceReport",
    "ErrorRecord",
    "NORM_KEYS",
    "compute_errors",
    "diagnostics",
    "render_report",
    "run_convergence",
    "solve_problem",
]
