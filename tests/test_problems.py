"""The problem is an argument: a second field, and a mutant only it catches.

solve_problem takes the source f and compute_errors the exact u and delta u,
so a test can pose any polynomial problem.  The manufactured k = 1 field
u = p (dx + dy) has equal components P = Q; the field below, on the same
bubble p, has components that differ at k = 1 and a non-symmetric factor at
k = 2.  Its finest-step rates must fall inside the windows that the
acceptance criteria set for the manufactured problem, and it must catch a
P/Q swap in the line integrals that the manufactured problem cannot see.
"""

from __future__ import annotations

import math

import pytest

from declab import (
    MeshFamilySpec,
    Poly2,
    PolyForm,
    build_dual,
    build_mesh,
    codifferential,
    compute_errors,
    forms,
    hodge_laplacian,
    manufactured_solution,
    solve_problem,
)
from oracles import manufactured_problem

# (k, family): {norm: (center, half-width)}, the finest-step rate windows of
# acceptance criteria 2 and 3 (symmetric, k = 1 and 2) and 4 (perturbed)
WINDOWS = {
    (1, "symmetric"): {"e_u": (2.0, 0.10), "e_rho": (4.0, 0.15), "de_rho": (4.0, 0.15)},
    (2, "symmetric"): {"e_u": (2.0, 0.10), "e_rho": (4.0, 0.20)},
    (1, "perturbed"): {"de_u": (1.0, 0.2), "de_rho": (1.0, 0.2), "e_rho": (2.0, 0.3)},
    (2, "perturbed"): {"e_u": (1.0, 0.2), "e_rho": (1.0, 0.2)},
}
LEVELS = {"symmetric": (6, 7), "perturbed": (7, 8)}


def asymmetric_problem(k: int) -> tuple[PolyForm, PolyForm, PolyForm]:
    """(u, f = L u, delta u) with u = p (1 + x) dx + p (1/2 - 2 y) dy at k = 1
    and p (1 + x - y) dx ^ dy at k = 2, p the manufactured bubble."""
    (p,) = manufactured_solution(0)[0].components
    x, y = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
    u = PolyForm(k, (p * (1.0 + x), p * (0.5 - 2.0 * y)) if k == 1 else (p * (1.0 + x - y),))
    return u, hodge_laplacian(u), codifferential(u)


def _finest_step(problem, family: str, seed: int = 1) -> tuple[dict, dict]:
    """(rates, norms) at the finest step of LEVELS[family] for the problem
    (u, f, delta u), each level solved and measured as run_convergence does."""
    u, f, delta_u = problem
    norms = []
    for level in LEVELS[family]:
        K = build_mesh(MeshFamilySpec(family=family, level=level, seed=seed))
        dual = build_dual(K)
        norms.append(compute_errors(K, dual, u, delta_u, *solve_problem(K, dual, f)[:2]))
    coarse, fine = norms
    return {key: math.log2(coarse[key] / fine[key]) for key in fine}, fine


def _outside(rates: dict, windows: dict) -> dict:
    return {
        key: round(rates[key], 4)
        for key, (center, width) in windows.items()
        if not abs(rates[key] - center) <= width
    }


@pytest.mark.parametrize("family", ["symmetric", "perturbed"])
@pytest.mark.parametrize("k", [1, 2])
def test_asymmetric_field_rates_fall_in_the_acceptance_windows(k, family):
    rates, _ = _finest_step(asymmetric_problem(k), family)
    assert _outside(rates, WINDOWS[k, family]) == {}


# -- mutants --------------------------------------------------------------------


def _swap_line_integral_components(monkeypatch) -> None:
    """Mutant: every k = 1 line integral takes Q dx + P dy for P dx + Q dy."""
    real = forms._integrate_simplices

    def swapped(form, corners):
        if form.degree == 1:
            form = PolyForm(1, form.components[::-1])
        return real(form, corners)

    monkeypatch.setattr(forms, "_integrate_simplices", swapped)


def test_a_pq_swap_is_caught_by_the_asymmetric_field_alone(monkeypatch):
    """Under the swap the asymmetric field's density error stalls (rate 0,
    e_rho about 20.7), while the manufactured field, whose P = Q, still meets
    its order-4 window: the blind spot the second field closes."""
    _swap_line_integral_components(monkeypatch)
    rates, norms = _finest_step(asymmetric_problem(1), "symmetric")
    assert abs(rates["e_rho"]) <= 0.05 and norms["e_rho"] > 1.0
    rates, _ = _finest_step(manufactured_problem(1), "symmetric")
    assert _outside(rates, WINDOWS[1, "symmetric"]) == {}
