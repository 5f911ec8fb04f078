"""Circumcentric dual construction.

Closed-form oracles on the level-m symmetric mesh (equilateral triangles of
side l = 2^-m, area |T| = (sqrt(3)/4) l^2):

    interior edge:   |*e| = l / sqrt(3)       (two circumcenter-to-midpoint
                                               segments of l / (2 sqrt(3)))
    boundary edge:   |*e| = l / (2 sqrt(3))
    interior vertex: |*v| = (sqrt(3)/2) l^2   (regular hexagon of 12 flags)
    triangle:        |*T| = 1, a_T = 1 / |T|

and sum(|*v|) = |Omega| = sqrt(3)/4 since the flag triangles tile Omega.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from declab import (
    DualComplex,
    build_complex,
    build_dual,
    check_centroid_condition,
    de_rham_dual,
    is_well_centered,
    manufactured_solution,
    star_inverse_matrix,
    symmetric_mesh,
    perturbed_mesh,
    well_centered_margin,
)
from declab.dual import _cotangent_stars, _flags, _triangle_circum_bary
from declab.forms import _integrate_simplices
from oracles import (
    _cross2,
    circum_bary_stacked,
    cotangent_stars_stacked,
    diamond_volumes,
    exact_stars,
    flags_stacked,
)

SQRT3 = np.sqrt(3.0)
EQ_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2]])


def test_circumcenter_of_edge_is_midpoint():
    dual = build_dual(build_complex(EQ_TRI, [[0, 1, 2]]))
    # edges (0,1), (0,2), (1,2)
    np.testing.assert_allclose(
        dual.centers[1],
        [[0.5, 0.0], [0.25, SQRT3 / 4], [0.75, SQRT3 / 4]],
        atol=1e-15,
    )


def test_circumcenter_of_equilateral_triangle():
    centers = build_dual(build_complex(EQ_TRI, [[0, 1, 2]])).centers[2]
    np.testing.assert_allclose(centers[0], [0.5, SQRT3 / 6], rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(_triangle_circum_bary(*EQ_TRI.T), 1.0 / 3.0, rtol=1e-14)


def test_circumcenter_of_right_triangle_on_hypotenuse():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    bary = _triangle_circum_bary(*pts.T)
    np.testing.assert_allclose(bary @ pts, [0.5, 0.5], atol=1e-15)
    # ... with a zero barycentric weight on the right-angle vertex, which is
    # why the right triangle is not well-centered
    assert abs(bary[0]) <= 1e-15
    K = build_complex(pts, [[0, 1, 2]])
    ok, offenders = is_well_centered(K)
    assert not ok
    assert offenders.tolist() == [0]


@pytest.mark.filterwarnings("error")  # the overflow is rejected, not warned of
def test_overflowing_circumcenter_is_not_well_centered():
    # an acute triangle whose circumcenter weights overflow to NaN
    pts = 1e80 * np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 1.0]])
    K = build_complex(pts, [[0, 1, 2]])
    ok, offenders = is_well_centered(K)
    assert not ok
    assert offenders.tolist() == [0]
    # the margin agrees: not positive, and not NaN, which no check rejects
    assert well_centered_margin(K) == -np.inf
    with pytest.raises(ValueError, match="circumcenter weights that overflow"):
        build_dual(K)


def test_circumcenter_equidistance_random_triangles():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 2.0, size=(50, 3, 2))
    diam = np.linalg.norm(pts[:, :, None] - pts[:, None], axis=-1).max(axis=(1, 2))
    centers = np.einsum("im,min->mn", _triangle_circum_bary(*pts.T), pts)
    r = np.linalg.norm(pts - centers[:, None], axis=-1)
    assert (r.max(axis=1) - r.min(axis=1) <= 1e-10 * diam).all()


def test_primal_volumes():
    ell = 0.25
    dual = build_dual(build_complex(ell * EQ_TRI, [[0, 1, 2]]))
    np.testing.assert_array_equal(dual.primal_volumes[0], 1.0)
    np.testing.assert_allclose(dual.primal_volumes[1], ell, rtol=1e-15)
    np.testing.assert_allclose(dual.primal_volumes[2], SQRT3 / 4 * ell**2, rtol=1e-14)


@pytest.fixture(scope="module")
def sym3():
    K = symmetric_mesh(3)
    return K, build_dual(K)


def test_symmetric_mesh_dual_volumes_closed_form(sym3):
    K, dual = sym3
    ell = 2.0**-3
    interior_e = ~K.is_boundary(1)
    np.testing.assert_allclose(
        dual.dual_volumes[1][interior_e], ell / SQRT3, rtol=1e-12
    )
    np.testing.assert_allclose(
        dual.dual_volumes[1][~interior_e], ell / (2 * SQRT3), rtol=1e-12
    )
    interior_v = ~K.is_boundary(0)
    np.testing.assert_allclose(
        dual.dual_volumes[0][interior_v], SQRT3 / 2 * ell**2, rtol=1e-12
    )
    np.testing.assert_allclose(dual.dual_volumes[2], 1.0)
    # vertex duals tile the domain
    assert dual.dual_volumes[0].sum() == pytest.approx(SQRT3 / 4, rel=1e-12)


def test_hodge_ratios_reciprocal(sym3):
    _, dual = sym3
    a, pv, dv = dual.hodge_ratio_a, dual.primal_volumes, dual.dual_volumes
    for k in (0, 1):
        assert np.array_equal(dv[k], a[k] * pv[k])
    assert np.array_equal(a[2], 1.0 / pv[2])
    for k in range(3):
        np.testing.assert_allclose(
            a[k] * star_inverse_matrix(dual, k).diagonal(), 1.0, rtol=1e-14
        )


def test_build_dual_stars_match_exact_rational_stars():
    # the cotangent formulas in float64 against the same formulas in exact
    # arithmetic on the same vertices, entry by entry
    for name, K in [
        ("perturbed-4-2-0.45", perturbed_mesh(4, 2, 0.45)),
        ("perturbed-5-1", perturbed_mesh(5, 1)),
        ("symmetric-5", symmetric_mesh(5)),
    ]:
        got = build_dual(K).hodge_ratio_a
        for k, want in enumerate(exact_stars(K)):
            rel = max(abs(Fraction(g) - w) / abs(w) for g, w in zip(got[k].tolist(), want))
            assert rel <= 3e-15, f"{name} a_{k}: relative error {float(rel):.3g}"


STACKED = pytest.mark.parametrize(
    "K",
    [symmetric_mesh(6), perturbed_mesh(6, 1), perturbed_mesh(6, 2)],
    ids=["symmetric-6", "perturbed-6-1", "perturbed-6-2"],
)


def _same_bits(got, want) -> bool:
    return got.shape == want.shape and np.ascontiguousarray(got).tobytes() == want.tobytes()


@STACKED
def test_circumcenter_kernels_on_planes_match_the_stacked_formula_bit_for_bit(K):
    pts = K.vertices[K.simplices(2)]
    want = circum_bary_stacked(pts)
    assert _same_bits(_triangle_circum_bary(*pts.T).T, want)
    assert _same_bits(build_dual(K).centers[2], np.einsum("mi,min->mn", want, pts))


@STACKED
def test_cotangent_stars_on_planes_match_the_stacked_formula_bit_for_bit(K):
    for got, want in zip(_cotangent_stars(K), cotangent_stars_stacked(K.vertices, K)):
        assert _same_bits(got, want)


@pytest.mark.parametrize(
    "K", [symmetric_mesh(4), perturbed_mesh(4, 1)], ids=["symmetric-4", "perturbed-4-1"]
)
def test_flag_planes_match_the_stacked_formula_bit_for_bit(K):
    dual = build_dual(K)
    vertex, edge, corners, area = _flags(K, dual.centers)
    want_vertex, want_edge, rows, want_area = flags_stacked(K, dual.centers)
    assert _same_bits(vertex, want_vertex) and _same_bits(edge, want_edge)
    assert _same_bits(corners.T, rows)
    assert _same_bits(area, want_area)
    # the m = 1 dual de Rham map runs each segment [c(e), c(T)] along the
    # +90-degree rotation of the tangent of e, and gives the stacked sums
    owner, segments = want_edge[::2], rows[::2, 1:]
    tangent = np.diff(K.vertices[K.simplices(1)[owner]], axis=1)[:, 0]
    sign = np.sign(_cross2(tangent, segments[:, 1] - segments[:, 0]))
    assert (sign == np.sign(area[::2])).all() and (sign != 0).all()
    u, _ = manufactured_solution(1)
    want = np.zeros(K.n_simplices(1))
    np.add.at(want, owner, sign * _integrate_simplices(u, segments.T))
    assert _same_bits(de_rham_dual(K, dual, u), want)


def test_dual_complex_keeps_only_the_arrays_that_define_the_dual():
    assert [f.name for f in dataclasses.fields(DualComplex)] == [
        "centers",
        "primal_volumes",
        "dual_volumes",
        "hodge_ratio_a",
        "tri_orientation",
    ]


def test_interior_edge_ratio_value(sym3):
    K, dual = sym3
    interior = ~K.is_boundary(1)
    np.testing.assert_allclose(
        dual.hodge_ratio_a[1][interior], 1 / SQRT3, rtol=1e-12
    )


def test_interior_vertex_ratio_value(sym3):
    K, dual = sym3
    ell = 2.0**-3
    interior = ~K.is_boundary(0)
    np.testing.assert_allclose(
        dual.hodge_ratio_a[0][interior], SQRT3 / 2 * ell**2, rtol=1e-12
    )


def test_diamond_cells_partition_domain(sym3):
    K, dual = sym3
    for k in range(3):
        vols = diamond_volumes(K, dual, k)
        assert len(vols) == K.n_simplices(k)
        assert vols.sum() == pytest.approx(SQRT3 / 4, rel=1e-12)


def test_interior_edge_diamond_is_kite(sym3):
    K, dual = sym3
    tri_area = SQRT3 / 4 * (2.0**-3) ** 2
    vols = diamond_volumes(K, dual, 1)
    interior = ~K.is_boundary(1)
    np.testing.assert_allclose(vols[interior], 2 * tri_area / 3, rtol=1e-12)


@pytest.mark.parametrize(
    "K",
    [perturbed_mesh(4, 2, 0.45), perturbed_mesh(5, 1), symmetric_mesh(3)],
    ids=["perturbed-4-2-0.45", "perturbed-5-1", "symmetric-3"],
)
def test_dual_volumes_match_the_diamond_oracle(K):
    # the diamond of v is its dual cell, the kite of e is 1/2 |e| |*e|, and
    # the diamonds of the triangles are the triangles themselves
    dual = build_dual(K)
    pv, dv = dual.primal_volumes, dual.dual_volumes
    for k, want in enumerate([dv[0], 0.5 * pv[1] * dv[1], pv[2]]):
        np.testing.assert_allclose(diamond_volumes(K, dual, k), want, rtol=1e-13)


def test_dual_cell_pieces_shapes(sym3):
    K, dual = sym3
    # an interior vertex dual is a hexagon of 12 flag triangles, an interior
    # edge dual two segments [c(e), c(T)] (each flag pair visits one twice)
    vertex, edge, _, _ = _flags(K, dual.centers)
    v_flags = np.bincount(vertex, minlength=K.n_simplices(0))
    assert (v_flags[~K.is_boundary(0)] == 12).all()
    e_flags = np.bincount(edge[::2], minlength=K.n_simplices(1))
    assert (e_flags[~K.is_boundary(1)] == 2).all()
    assert dual.centers[2].shape == (K.n_simplices(2), 2)


def test_centroid_condition_symmetric_mesh(sym3):
    K, dual = sym3
    for k in range(3):
        ok, dev = check_centroid_condition(K, dual, k)
        assert ok, f"k={k}: max deviation {dev}"
    # on a finer mesh the flag-weighted centroids are divided by the flags'
    # own weights, so the deviation stays at roundoff, far inside 1e-12
    K = symmetric_mesh(8)
    dual = build_dual(K)
    for k in (0, 1):
        ok, dev = check_centroid_condition(K, dual, k)
        assert ok and dev <= 1e-14, f"L8 k={k}: max deviation {dev}"


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_centroid_condition_fails_on_perturbed(seed):
    K = perturbed_mesh(3, seed=seed)
    dual = build_dual(K)
    ok, dev = check_centroid_condition(K, dual, 1)
    assert not ok
    assert dev > 1e-6


def test_centroid_condition_vacuous_on_single_triangle():
    K = build_complex(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2]]), [[0, 1, 2]]
    )
    dual = build_dual(K)
    for k in range(3):
        if k == 2:
            continue  # the lone triangle is interior by convention (k = n)
        ok, dev = check_centroid_condition(K, dual, k)
        assert ok
        assert dev == 0.0


def test_build_dual_rejects_non_well_centered():
    K = build_complex(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]]
    )
    with pytest.raises(ValueError, match="well-centered"):
        build_dual(K)
