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

import pytest

from declab import (
    MeshFamilySpec,
    Poly2,
    PolyForm,
    codifferential,
    experiments,
    forms,
    hodge_laplacian,
    manufactured_solution,
)
from criteria import STUDIES, outside
from oracles import manufactured_problem

# (k, family): the finest-step rate windows of acceptance criteria 2-4 at k = 1, 2
WINDOWS = {(k, s.family): s.windows for (_, k), s in STUDIES.items() if k}
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
    (u, f, delta u), each level measured by run_convergence's own `_record`
    and `_rate` at its default solver arguments."""
    coarse, fine = (
        experiments._record(MeshFamilySpec(family, level, seed), *problem, 1e-12, None).norms
        for level in LEVELS[family]
    )
    return {key: experiments._rate(coarse[key], fine[key]) for key in fine}, fine


@pytest.mark.parametrize("family", ["symmetric", "perturbed"])
@pytest.mark.parametrize("k", [1, 2])
def test_asymmetric_field_rates_fall_in_the_acceptance_windows(k, family):
    rates, _ = _finest_step(asymmetric_problem(k), family)
    assert outside(rates, WINDOWS[k, family]) == {}


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
    assert outside(rates, WINDOWS[1, "symmetric"]) == {}
