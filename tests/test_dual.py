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
from declab.dual import CENTROID_TOL, _cotangent_stars, _dual_cells, _triangle_circum_bary
from declab.forms import _integrate_simplices
from oracles import (
    _cross2,
    circum_bary_stacked,
    cotangent_stars_stacked,
    diamond_volumes,
    exact_stars,
    flags_stacked,
    same_bits,
)

SQRT3 = np.sqrt(3.0)
EQ_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2]])


def test_circumcenter_of_edge_is_midpoint():
    K = build_complex(EQ_TRI, [[0, 1, 2]])
    edge, segments, _ = _dual_cells(K, build_dual(K).circumcenters, 1)
    # the c(e) end of each segment [c(e), c(T)], edges (0,1), (0,2), (1,2)
    midpoints = np.array([[0.5, 0.0], [0.25, SQRT3 / 4], [0.75, SQRT3 / 4]])
    np.testing.assert_allclose(segments[:, 0].T, midpoints[edge], atol=1e-15)


def test_circumcenter_of_equilateral_triangle():
    centers = build_dual(build_complex(EQ_TRI, [[0, 1, 2]])).circumcenters
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
    K = build_complex(ell * EQ_TRI, [[0, 1, 2]])
    np.testing.assert_array_equal(K.volumes(0), 1.0)
    np.testing.assert_allclose(K.volumes(1), ell, rtol=1e-15)
    np.testing.assert_allclose(K.volumes(2), SQRT3 / 4 * ell**2, rtol=1e-14)


@pytest.fixture(scope="module")
def sym3():
    K = symmetric_mesh(3)
    return K, build_dual(K)


def _star_volumes(K, dual) -> list[np.ndarray]:
    """|*sigma| = a |sigma| per degree (a_2 |T|, which rounds near 1)."""
    return [a * K.volumes(k) for k, a in enumerate(dual.hodge_ratio_a)]


def test_symmetric_mesh_dual_volumes_closed_form(sym3):
    K, dual = sym3
    star_volumes = _star_volumes(K, dual)
    ell = 2.0**-3
    interior_e = ~K.is_boundary(1)
    np.testing.assert_allclose(
        star_volumes[1][interior_e], ell / SQRT3, rtol=1e-12
    )
    np.testing.assert_allclose(
        star_volumes[1][~interior_e], ell / (2 * SQRT3), rtol=1e-12
    )
    interior_v = ~K.is_boundary(0)
    np.testing.assert_allclose(
        star_volumes[0][interior_v], SQRT3 / 2 * ell**2, rtol=1e-12
    )
    np.testing.assert_allclose(star_volumes[2], 1.0)
    # vertex duals tile the domain
    assert star_volumes[0].sum() == pytest.approx(SQRT3 / 4, rel=1e-12)


def test_hodge_ratios_reciprocal(sym3):
    K, dual = sym3
    a = dual.hodge_ratio_a
    assert np.array_equal(a[2], 1.0 / K.volumes(2))
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


@STACKED
def test_circumcenter_kernels_on_planes_match_the_stacked_formula_bit_for_bit(K):
    pts = K.vertices[K.simplices(2)]
    want = circum_bary_stacked(pts)
    assert same_bits(_triangle_circum_bary(*pts.T).T, want)
    assert same_bits(build_dual(K).circumcenters, np.einsum("mi,min->mn", want, pts))


@STACKED
def test_cotangent_stars_on_planes_match_the_stacked_formula_bit_for_bit(K):
    for got, want in zip(_cotangent_stars(K), cotangent_stars_stacked(K.vertices, K)):
        assert same_bits(got, want)


@pytest.mark.parametrize(
    "K", [symmetric_mesh(4), perturbed_mesh(4, 1)], ids=["symmetric-4", "perturbed-4-1"]
)
def test_flag_planes_match_the_stacked_formula_bit_for_bit(K):
    dual = build_dual(K)
    vertex, edge, rows, area = flags_stacked(K, dual.circumcenters)
    # the m = 1 dual de Rham map runs each segment [c(e), c(T)] along the
    # +90-degree rotation of the tangent of e
    owner, segments = edge[::2], rows[::2, 1:]
    tangent = np.diff(K.vertices[K.simplices(1)[owner]], axis=1)[:, 0]
    sign = np.sign(_cross2(tangent, segments[:, 1] - segments[:, 0]))
    assert (sign == np.sign(area[::2])).all() and (sign != 0).all()
    # the dual cell of each k-simplex from the stacked flags, as its
    # pieces' owners, rows and signed measures: the 6T flags at k = 0, their
    # 3T segments [c(e), c(T)] at k = 1, the circumcenters signed by T's
    # ascending orientation at k = 2
    length = np.linalg.norm(segments[:, 1] - segments[:, 0], axis=1)
    tri = K.vertices[K.simplices(2)]
    orientation = np.where(_cross2(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]) > 0.0, 1.0, -1.0)
    cells = [
        (vertex, rows, area),
        (owner, segments, sign * length),
        (np.arange(K.n_simplices(2)), dual.circumcenters[:, None], orientation),
    ]
    for k, (owner, pieces, measure) in enumerate(cells):
        got = _dual_cells(K, dual.circumcenters, k)
        assert all(map(same_bits, got, (owner, pieces.T, measure))), k
        nk, interior = K.n_simplices(k), ~K.is_boundary(k)
        for form in manufactured_solution(2 - k):
            want = np.zeros(nk)
            np.add.at(want, owner, np.sign(measure) * _integrate_simplices(form, pieces.T))
            assert same_bits(de_rham_dual(K, dual, form), want), (k, form.poly_degree)
        # the dual centroid weighs each piece's centroid by its |measure|
        weight = np.abs(measure)
        moments = [np.bincount(owner, weight * c, nk) for c in pieces.mean(axis=1).T]
        centroid = np.stack(moments, axis=1) / np.bincount(owner, weight, nk)[:, None]
        primal = K.vertices[K.simplices(k)].mean(axis=1)
        dev = np.linalg.norm(primal - centroid, axis=1)[interior].max()
        ok, got = check_centroid_condition(K, dual, k)
        assert ok == (dev <= CENTROID_TOL) and same_bits(np.float64(got), dev), k


def test_dual_complex_keeps_only_the_arrays_that_define_the_dual():
    assert [f.name for f in dataclasses.fields(DualComplex)] == ["circumcenters", "hodge_ratio_a"]


def test_diamond_cells_partition_domain(sym3):
    K, dual = sym3
    for k in range(3):
        vols = diamond_volumes(K, dual.circumcenters, k)
        assert len(vols) == K.n_simplices(k)
        assert vols.sum() == pytest.approx(SQRT3 / 4, rel=1e-12)


def test_interior_edge_diamond_is_kite(sym3):
    K, dual = sym3
    tri_area = SQRT3 / 4 * (2.0**-3) ** 2
    vols = diamond_volumes(K, dual.circumcenters, 1)
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
    pv, dv = [K.volumes(k) for k in range(3)], _star_volumes(K, dual)
    for k, want in enumerate([dv[0], 0.5 * pv[1] * dv[1], pv[2]]):
        np.testing.assert_allclose(diamond_volumes(K, dual.circumcenters, k), want, rtol=1e-13)


def test_dual_cell_pieces_shapes(sym3):
    K, dual = sym3
    # an interior vertex dual is a hexagon of 12 flag triangles, an interior
    # edge dual two segments [c(e), c(T)], a triangle's dual one point
    for k, pieces in enumerate([12, 2, 1]):
        owner, corners, _ = _dual_cells(K, dual.circumcenters, k)
        assert corners.shape == (2, 3 - k, len(owner))
        count = np.bincount(owner, minlength=K.n_simplices(k))
        assert (count[~K.is_boundary(k)] == pieces).all()
    assert dual.circumcenters.shape == (K.n_simplices(2), 2)


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
