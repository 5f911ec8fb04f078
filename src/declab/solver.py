"""Preconditioned conjugate gradient for symmetric sparse systems.

Matrices are scipy sparse, converted to CSR on entry.  The solver is a
hand-rolled CG, preconditioned by the caller's operator (``solve_problem``
passes ``multigrid_cycle``) or, given None, by Jacobi, for symmetric
positive definite systems, and for semidefinite ones whose
right-hand side lies in the range of the matrix: CG then stays in that
range.  It knows nothing of null spaces; the caller projects the
right-hand side and fixes the gauge (see ``experiments.solve_problem``
for the k = 0 Hodge-Laplacian, whose kernel is the constants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np
import scipy.sparse as sp

__all__ = ["SolverConfig", "SolverResult", "SolverError", "cg_solve"]


@dataclass
class SolverConfig:
    """Conjugate-gradient parameters.

    tol must be a finite positive real (not bool); max_iterations defaults (None) to
    50 * sqrt(unknowns) + 1000 and must otherwise be an int (not bool) >= 1.
    """

    tol: float = 1e-12
    max_iterations: int | None = None

    def __post_init__(self):
        t = self.tol
        if not (isinstance(t, Real) and not isinstance(t, bool) and np.isfinite(t) and t > 0):
            raise ValueError(f"tolerance must be a finite positive number, got {t!r}")
        n = self.max_iterations
        if n is not None and not (isinstance(n, Integral) and not isinstance(n, bool) and n >= 1):
            raise ValueError(
                f"max_iterations must be an integer of at least 1, got {n!r}"
            )


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
    precondition=None,
) -> SolverResult:
    """Solve the symmetric positive (semi)definite system M x = b by CG,
    starting from x = 0.

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
    if not getattr(M, "_symmetric_by_construction", False):
        _check_symmetry(M)

    max_iterations = cfg.max_iterations
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
    best = norm_b

    iterations = 0
    converged = False
    step = np.empty(n)  # alpha p, then alpha q: the updates run in place
    for iterations in range(1, max_iterations + 1):
        q = M @ p
        pq = _dot(p, q)
        if not pq > 0.0:  # also catches a NaN from non-finite entries of M
            raise SolverError(
                f"matrix is not positive definite on the Krylov space "
                f"(p^T M p = {pq:.3e} at iteration {iterations})"
            )
        alpha = rho / pq
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, q, out=step)
        norm_r = math.sqrt(_dot(r, r))
        history.append(norm_r)
        best = min(best, norm_r)
        if norm_r <= cfg.tol * norm_b:
            converged = True
            break
        z = precondition(r)
        rho_new = _dot(r, z)
        p *= rho_new / rho
        p += z
        rho = rho_new

    if not converged:
        raise SolverError(
            f"CG did not converge in {max_iterations} iterations: best "
            f"relative residual {best / norm_b:.3e} (target {cfg.tol:.1e})"
        )

    return SolverResult(x, history[-1] / norm_b, iterations, history)
