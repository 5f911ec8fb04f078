"""Preconditioned conjugate gradient for symmetric sparse systems.

Matrices must be scipy sparse; they are converted to CSR on entry.  The
solver is a hand-rolled CG on plain vector expressions, preconditioned by
the caller's operator (``solve_problem`` passes ``multigrid_cycle``) or,
given None, by Jacobi, for symmetric positive definite systems, and for
semidefinite ones whose right-hand side lies in the range of the matrix:
CG then stays in that range.  It knows nothing of null spaces; the caller
projects the right-hand side and fixes the gauge (see
``experiments.solve_problem`` for the k = 0 Hodge-Laplacian, whose kernel
is the constants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np
import scipy.sparse as sp

__all__ = ["SolverResult", "SolverError", "cg_solve"]


@dataclass
class SolverResult:
    x: np.ndarray
    residual: float  # achieved relative residual ||b - Mx|| / ||b||
    iterations: int
    residual_history: list[float] = field(default_factory=list)


class SolverError(RuntimeError):
    """Non-convergence or a structurally unusable system."""


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y by numpy's own loop: BLAS ddot splits long vectors across its
    threads, so its bits would depend on the thread count."""
    return float(np.einsum("i,i->", x, y))


def _check_solver_args(tol, max_iterations) -> None:
    """Reject a tol that is not a finite positive real (bools too) and a
    max_iterations that is neither None nor an int (not bool) >= 1."""
    if not (isinstance(tol, Real) and not isinstance(tol, bool) and np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be a finite positive number, got {tol!r}")
    n = max_iterations
    if n is not None and not (isinstance(n, Integral) and not isinstance(n, bool) and n >= 1):
        raise ValueError(f"max_iterations must be an integer of at least 1, got {n!r}")


def _check_symmetry(M: sp.spmatrix) -> None:
    scale = np.abs(M.data).max() if M.nnz else 1.0
    gap = np.abs((M - M.T).tocsr().data)
    if gap.size and gap.max() > 1e-12 * scale:
        raise SolverError(
            f"matrix is not symmetric: max asymmetry {gap.max():.3e} "
            f"exceeds 1e-12 * {scale:.3e}"
        )


def cg_solve(
    M: sp.spmatrix,
    b: np.ndarray,
    *,
    tol: float = 1e-12,
    max_iterations: int | None = None,
    precondition=None,
) -> SolverResult:
    """Solve the symmetric positive (semi)definite system M x = b by CG,
    starting from x = 0, to the relative residual ||b - M x|| / ||b|| <= tol
    within max_iterations steps (None: 50 sqrt(n) + 1000 for n unknowns).

    precondition maps a residual r to B r, B symmetric and positive on the
    range of M; None means Jacobi.  Deterministic: fixed reduction order,
    whatever the BLAS thread count, and no randomness.  M's symmetry is
    checked to 1e-12 of its largest entry, unless M is the very matrix
    that ``operators.dec_system`` built and marked symmetric by
    construction, as ``solve_problem``'s system is (the check costs it
    20-27 ms and a transient M - M^T of about 40 MB at perturbed k = 1,
    h = 2^-8).  A copy of that matrix, or one derived from it, is checked;
    the marked matrix itself, canonical CSR whose rows the matvec sums in
    ascending column order, must not be edited in place.

    Raises
    ------
    ValueError
        On a tol that is not a finite positive number, a max_iterations
        that is not an integer of at least 1, an M that is not a scipy
        sparse matrix (a dense array is not converted), a non-square
        matrix, or a mismatched or non-finite right-hand side.
    SolverError
        On detected asymmetry, a non-positive (or NaN) curvature p^T M p,
        or non-convergence within the iteration budget (the message
        reports the best residual reached).
    """
    _check_solver_args(tol, max_iterations)
    if not sp.issparse(M):
        raise ValueError(f"system matrix must be scipy sparse, got {type(M).__name__}")
    M = M.tocsr()
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"system matrix must be square, got {M.shape}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"right-hand side shape {b.shape} != ({n},)")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side has non-finite entries")
    if not getattr(M, "_symmetric_by_construction", False):
        _check_symmetry(M)
    if max_iterations is None:
        max_iterations = int(50 * np.sqrt(n)) + 1000

    norm_b = math.sqrt(_dot(b, b))
    x = np.zeros(n)
    if norm_b == 0.0:
        return SolverResult(x, 0.0, 0, [0.0])

    if precondition is None:
        d = M.diagonal().copy()
        d[d <= 0.0] = 1.0
        inv_d = 1.0 / d

        def precondition(r):
            return r * inv_d

    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rho = _dot(r, z)
    history = [norm_b]
    for iterations in range(1, max_iterations + 1):
        q = M @ p
        pq = _dot(p, q)
        if not pq > 0.0:  # also catches a NaN from non-finite entries of M
            raise SolverError(
                f"matrix is not positive definite on the Krylov space "
                f"(p^T M p = {pq:.3e} at iteration {iterations})"
            )
        alpha = rho / pq
        x += alpha * p
        r -= alpha * q
        history.append(math.sqrt(_dot(r, r)))
        if history[-1] <= tol * norm_b:
            break
        z = precondition(r)
        rho_new = _dot(r, z)
        p = z + (rho_new / rho) * p
        rho = rho_new
    else:
        raise SolverError(
            f"CG did not converge in {max_iterations} iterations: best "
            f"relative residual {min(history) / norm_b:.3e} (target {tol:.1e})"
        )

    return SolverResult(x, history[-1] / norm_b, iterations, history)
