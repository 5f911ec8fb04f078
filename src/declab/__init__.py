"""declab: discrete exterior calculus on well-centered planar triangulations.

Primal simplicial complexes with ascending-tuple orientation, circumcentric
dual complexes, diagonal Hodge stars, the discrete codifferential and
Hodge-Laplacian, polynomial differential forms with exact quadrature, a
CG solver (Jacobi, or multigrid on grid meshes), structured/perturbed mesh
families on an equilateral domain, and a manufactured-solution laboratory.

Each submodule's ``__all__`` declares its exports; the package re-exports
them all (the console script ``cli.main`` stays in ``declab.cli``).
"""

from __future__ import annotations

from . import complex, dual, forms, operators, solver, meshes, experiments
from .complex import *
from .dual import *
from .forms import *
from .operators import *
from .solver import *
from .meshes import *
from .experiments import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (complex, dual, forms, operators, solver, meshes, experiments)
    for name in module.__all__
]
