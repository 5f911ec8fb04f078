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

import numpy as np
import pytest

from declab import (
    build_complex,
    build_dual,
    check_centroid_condition,
    diamond_volumes,
    is_well_centered,
    symmetric_mesh,
    perturbed_mesh,
    well_centered_margin,
)
from declab.dual import triangle_circumcenters

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
    centers, bary = triangle_circumcenters(EQ_TRI[None])
    np.testing.assert_allclose(centers[0], [0.5, SQRT3 / 6], rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(bary[0], 1.0 / 3.0, rtol=1e-14)


def test_circumcenter_of_right_triangle_on_hypotenuse():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    centers, bary = triangle_circumcenters(pts[None])
    np.testing.assert_allclose(centers[0], [0.5, 0.5], atol=1e-15)
    # ... with a zero barycentric weight on the right-angle vertex, which is
    # why the right triangle is not well-centered
    assert abs(bary[0, 0]) <= 1e-15
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
    centers, _ = triangle_circumcenters(pts)
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
    for k in range(3):
        np.testing.assert_allclose(
            dual.hodge_ratio_a[k] * dual.hodge_ratio_b[k], 1.0, rtol=1e-14
        )


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


def test_dual_cell_pieces_shapes(sym3):
    K, dual = sym3
    # an interior vertex dual is a hexagon of 12 flag triangles, an interior
    # edge dual two segments [c(e), c(T)] (each flag pair visits one twice)
    v_flags = np.bincount(dual.flag_vertex, minlength=K.n_simplices(0))
    assert (v_flags[~K.is_boundary(0)] == 12).all()
    e_flags = np.bincount(dual.flag_edge[::2], minlength=K.n_simplices(1))
    assert (e_flags[~K.is_boundary(1)] == 2).all()
    assert dual.centers[2].shape == (K.n_simplices(2), 2)


def test_centroid_condition_symmetric_mesh(sym3):
    K, dual = sym3
    for k in range(3):
        ok, dev = check_centroid_condition(K, dual, k)
        assert ok, f"k={k}: max deviation {dev}"


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
