"""The mutant matrix: each row breaks one function of the pipeline, and the
existing test it names, the cheapest that shows the fault, must fail.  A row
replaces the function wherever a module binds it, the test modules included,
as a fault in its source would, and first asserts that the mutant moves the
output it targets, so a renamed or uncalled target fails its row."""

import dataclasses
import sys

import numpy as np
import pytest

import test_acceptance
import test_experiments
import test_multigrid
import test_symmetry
from criteria import STUDIES, outside
from declab import (Poly2, PolyForm, build_dual, cg_solve, codifferential_matrix, de_rham,
                    de_rham_dual, manufactured_solution, run_convergence, solve_problem,
                    symmetric_mesh, triangle_rule)
from declab.dual import _cotangent_stars, _dual_cells
from declab.multigrid import _edge_weights
from declab.operators import _scaled
from test_experiments import _mesh


def _barycentric_stars(K):
    """|*v| = sum |T| / 3, |*e| = sum |m(e) - centroid(T)| over the T at e."""
    area, tri, x = K.volumes(2), K.simplices(2), K.vertices
    middle = x[K.simplices(1)].mean(axis=1)[K.cell_edges]
    legs = np.linalg.norm(middle - x[tri].mean(axis=1)[:, None], axis=2)
    return (np.bincount(tri.ravel(), np.repeat(area / 3, 3)),
            np.bincount(K.cell_edges.ravel(), legs.ravel()) / K.volumes(1), 1.0 / area)


def _gauge_dropped(K, dual, f, *args, real=solve_problem, **kwargs):
    u_h, rho_h, result = real(K, dual, f, *args, **kwargs)
    return (result.x if f.degree == 0 else u_h), rho_h, result


def _first_edge_negated(*args, real=_edge_weights):
    child, cols, vals = real(*args)
    return child, cols, vals * np.r_[-1.0, np.ones(8)][:, None]


def _first_piece_negated(K, circumcenters, k, real=_dual_cells):
    owner, pieces, measure = real(K, circumcenters, k)
    return owner, pieces, np.r_[-measure[:1], measure[1:]]


def _edges_by_position(K, form, real=de_rham):
    """A 1-form integrated from the end that comes first in the lattice's
    row-major order, read off the coordinates, not from the lower vertex id:
    the same on every lattice-numbered mesh up to alpha = 0.3."""
    values = real(K, form)
    if form.degree != 1:
        return values
    n, (x, y) = np.sqrt(K.n_simplices(2)), K.vertices[K.simplices(1)].T
    order = np.rint(y * n / (np.sqrt(3.0) / 2)) * (n + 2) + x * n
    return np.where(order[1] < order[0], -values, values)


def _finest_rates(n: int, k: int) -> None:
    """Criterion n's rate windows at degree k on its finest halving alone."""
    s = STUDIES[n, k]
    report = run_convergence(k, s.family, list(s.levels[-2:]), *s.meshes[0])
    assert outside({key: r[-1] for key, r in report.rates.items()}, s.windows) == {}


# name: (function, its mutant, an output the mutant moves, the test that must fail)
MUTANTS = {
    "barycentric-stars": (
        _cotangent_stars, _barycentric_stars,
        lambda: build_dual(_mesh("perturbed", 3)[0]).hodge_ratio_a[1],
        test_acceptance.test_criterion_5_constant_forms_in_interpolant_kernel),
    "short-triangle-rule": (  # each rule one degree short of the exactness it claims
        triangle_rule,
        lambda n, real=triangle_rule: dataclasses.replace(real(max(n - 1, 0)), exactness=n),
        lambda: de_rham(symmetric_mesh(3), manufactured_solution(2)[1]),
        test_acceptance.test_criterion_6_quadrature_monomial_oracle),
    "k0-gauge-dropped": (  # CG's own iterate at k = 0, not its zero S-weighted mean
        solve_problem, _gauge_dropped,
        lambda: solve_problem(*_mesh("perturbed", 3), manufactured_solution(0)[1])[0],
        lambda: test_experiments.test_k0_solution_has_zero_weighted_mean("perturbed")),
    "edge-weight-sign": (  # the first fine edge of each coarse triangle negated
        _edge_weights, _first_edge_negated,
        lambda: test_multigrid._transfers(symmetric_mesh(4), 1)[0].toarray(),
        lambda: test_multigrid.test_transfers_commute_with_the_coboundary(1)),
    "cg-tol-1e-7": (
        cg_solve, lambda M, b, real=cg_solve, **kwargs: real(M, b, **{**kwargs, "tol": 1e-7}),
        lambda: solve_problem(*_mesh("perturbed", 4), manufactured_solution(1)[1])[0],
        lambda: _finest_rates(2, 1)),
    "codifferential-without-inverse": (  # D_{k-1}^T S_k
        codifferential_matrix,
        lambda K, dual, k: _scaled(K.coboundary_matrix(k - 1).T.tocsr(), None,
                                   dual.hodge_ratio_a[k]),
        lambda: codifferential_matrix(*_mesh("perturbed", 3), 1).toarray(),
        test_acceptance.test_criterion_5_stencil_assembly_matches_transpose),
    "dual-piece-sign": (  # the first piece of each degree's table negated
        _dual_cells, _first_piece_negated,
        lambda: de_rham_dual(*_mesh("perturbed", 3), PolyForm(2, (Poly2.constant(1.0),))),
        test_acceptance.test_criterion_5_constant_forms_in_interpolant_kernel),
    "edges-by-position": (
        de_rham, _edges_by_position,
        lambda: de_rham(test_symmetry._relabelled()[2], test_symmetry.FORMS[1]),
        lambda: test_symmetry.test_cochains_and_system_follow_a_relabelling(1)),
}


@pytest.mark.parametrize("function, mutant, output, check", MUTANTS.values(), ids=MUTANTS)
def test_mutant_is_caught(function, mutant, output, check, monkeypatch):
    before = output()
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get(function.__name__) is function:
            monkeypatch.setattr(module, function.__name__, mutant)
    assert not np.array_equal(output(), before), f"{function.__name__}'s mutant changes nothing"
    with pytest.raises(AssertionError):
        check()
