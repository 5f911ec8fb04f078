"""Acceptance criteria 1-4, the library's numerical claim, written once.

STUDIES[n, k], criterion n's study of the manufactured problem at degree k,
runs `levels` on each (seed, alpha) mesh and must meet its pinned rows,
(level, norm, value, relative tolerance), and its rate windows, {norm:
(centre, half-width)}, at each of its last `steps` halvings."""

from __future__ import annotations

from typing import NamedTuple


class Study(NamedTuple):
    family: str
    levels: tuple[int, ...]
    windows: dict[str, tuple[float, float]]
    pinned: tuple[tuple[int, str, float, float], ...] = ()
    meshes: tuple[tuple[int, float], ...] = ((0, 0.15),)
    steps: int = 1


# seeds 1..3 at the pinned alpha = 0.15, and seed 1 off it at alpha = 0.45,
# where the well-centered margin at h = 2^-8 is 1.3e-5 (0.039 at 0.15) and
# k = 2 takes twice the CG iterations, so a change tuned to the pinned
# amplitude shows; k = 0 on levels 8..9 at 0.45 takes 9-13 s and is left out
_K12_MESHES = ((1, 0.15), (2, 0.15), (3, 0.15), (1, 0.45))

STUDIES = {
    (1, 0): Study("symmetric", tuple(range(2, 9)), {"de_u": (2.0, 0.05)},
                  ((5, "de_u", 2.22e-1, 0.02), (5, "e_u", 1.24e-2, 0.03)), steps=2),
    (2, 1): Study("symmetric", (6, 7, 8),
                  {"e_u": (2.0, 0.10), "e_rho": (4.0, 0.15), "de_rho": (4.0, 0.15)},
                  ((6, "de_u", 1.85e-2, 0.03), (6, "e_rho", 3.14e-4, 0.05),
                   (6, "de_rho", 1.73e-3, 0.05))),
    (3, 2): Study("symmetric", (5, 6, 7, 8), {"e_u": (2.0, 0.10), "e_rho": (4.0, 0.20)},
                  ((5, "e_u", 4.00e-3, 0.03), (5, "e_rho", 2.83e-4, 0.05))),
    # The scalar derivative error approaches first order from above: at the
    # 7->8 halving its rate is still descending through ~1.2, and it lands in
    # the window one halving later, so the window is asserted at 8->9.
    (4, 0): Study("perturbed", (8, 9), {"de_u": (1.0, 0.2)},
                  meshes=((1, 0.15), (2, 0.15), (3, 0.15))),
    (4, 1): Study("perturbed", (7, 8),
                  {"de_u": (1.0, 0.2), "de_rho": (1.0, 0.2), "e_rho": (2.0, 0.3)},
                  meshes=_K12_MESHES),
    (4, 2): Study("perturbed", (7, 8), {"e_u": (1.0, 0.2), "e_rho": (1.0, 0.2)},
                  meshes=_K12_MESHES),
}
BUDGET_S = 300.0  # criterion 1: wall time of its first, uncached study

# the summary line of each criterion; 5 and 6 are hand-written tests
DESCRIPTIONS = {
    1: "symmetric mesh, k=0: error values at h=2^-5, derivative-error rate "
       "over levels 6..8, and the levels-2..8 runtime budget",
    2: "symmetric mesh, k=1: error values at h=2^-6 and finest-step rates "
       "(second order for e_u, fourth order for the density errors)",
    3: "symmetric mesh, k=2: error values at h=2^-5 and finest-step rates",
    4: "perturbed meshes, seeds 1..3 (and seed 1 at alpha 0.45 for k=1, 2): "
       "first-order rate windows at the finest step (second order for the "
       "k=1 density error)",
    5: "structural suite: d o d, delta o delta, adjointness, stencil vs "
       "transpose assembly, commuting interpolant, constant-form kernel, "
       "centroid condition",
    6: "oracle equivalence: dense vs CG solves, quadrature monomials to "
       "degree 20, exact-solution injection",
}


def outside(rates: dict[str, float], windows: dict) -> dict[str, float]:
    """The rates that miss their window, rounded to 4 digits."""
    return {
        key: round(rates[key], 4)
        for key, (centre, width) in windows.items()
        if not abs(rates[key] - centre) <= width
    }
