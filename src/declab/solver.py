"""Jacobi-preconditioned conjugate gradient for symmetric sparse systems.

Matrices are scipy sparse, converted to CSR on entry.  The solver is a
hand-rolled Jacobi-preconditioned CG for symmetric positive definite
systems, and for semidefinite ones whose right-hand side lies in the range
of the matrix: CG then stays in that range.  It knows nothing of null
spaces; the caller projects the right-hand side and fixes the gauge (see
``experiments.solve_problem`` for the k = 0 Hodge-Laplacian, whose kernel
is the constants).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = ["SolverConfig", "SolverResult", "SolverError", "cg_solve"]


@dataclass
class SolverConfig:
    """Conjugate-gradient parameters.

    tol must be finite and positive; max_iterations defaults (None) to
    50 * sqrt(unknowns) + 1000 and must otherwise be at least 1.
    """

    tol: float = 1e-12
    max_iterations: int | None = None

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tol}")
        if self.max_iterations is not None and not self.max_iterations >= 1:
            raise ValueError(
                f"max_iterations must be at least 1, got {self.max_iterations}"
            )


@dataclass
class SolverResult:
    x: np.ndarray
    residual: float  # achieved relative residual ||b - Mx|| / ||b||
    iterations: int
    residual_history: list[float] = field(default_factory=list)


class SolverError(RuntimeError):
    """Non-convergence or a structurally unusable system."""


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
    config: SolverConfig | None = None,
) -> SolverResult:
    """Solve the symmetric positive (semi)definite system M x = b by CG,
    starting from x = 0.

    Deterministic: fixed reduction order, no randomness.

    Raises
    ------
    ValueError
        On a non-square matrix or a mismatched or non-finite right-hand
        side.
    SolverError
        On detected asymmetry, a non-positive (or NaN) curvature p^T M p,
        or non-convergence within the iteration budget (the message
        reports the best residual reached).
    """
    cfg = config or SolverConfig()
    M = M.tocsr()
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"system matrix must be square, got {M.shape}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"right-hand side shape {b.shape} != ({n},)")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side has non-finite entries")
    _check_symmetry(M)

    max_iterations = cfg.max_iterations
    if max_iterations is None:
        max_iterations = int(50 * np.sqrt(n)) + 1000

    norm_b = float(np.linalg.norm(b))
    x = np.zeros(n)
    if norm_b == 0.0:
        return SolverResult(x, 0.0, 0, [0.0])

    d = M.diagonal().copy()
    d[d <= 0.0] = 1.0
    inv_d = 1.0 / d

    r = b.copy()
    z = r * inv_d
    p = z.copy()
    rho = float(r @ z)
    history = [norm_b]
    best = norm_b

    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        q = M @ p
        pq = float(p @ q)
        if not pq > 0.0:  # also catches a NaN from non-finite entries of M
            raise SolverError(
                f"matrix is not positive definite on the Krylov space "
                f"(p^T M p = {pq:.3e} at iteration {iterations})"
            )
        alpha = rho / pq
        x += alpha * p
        r -= alpha * q
        norm_r = float(np.linalg.norm(r))
        history.append(norm_r)
        best = min(best, norm_r)
        if norm_r <= cfg.tol * norm_b:
            converged = True
            break
        z = r * inv_d
        rho_new = float(r @ z)
        p = z + (rho_new / rho) * p
        rho = rho_new

    if not converged:
        raise SolverError(
            f"CG did not converge in {max_iterations} iterations: best "
            f"relative residual {best / norm_b:.3e} (target {cfg.tol:.1e})"
        )

    return SolverResult(x, history[-1] / norm_b, iterations, history)
