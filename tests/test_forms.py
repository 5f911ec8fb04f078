"""Polynomial forms, quadrature, and the de Rham maps.

Oracles
-------
* Reference-triangle monomials: int x^a y^b = a! b! / (a + b + 2)!.
* Hand codifferential on the plane: delta(P dx + Q dy) = -(P_x + Q_y) and
  delta(R dx dy) = R_y dx - R_x dy; these are frozen below and checked
  against the star/d composition the library uses.
* Dual line integrals on one equilateral triangle [0,1,2] with vertices
  (0,0), (1,0), (1/2, sqrt(3)/2): each dual edge runs from the edge
  midpoint to the circumcenter (0.5, sqrt(3)/6), oriented as the +90-degree
  rotation of the ascending primal tangent.  For the lex-ordered edges
  (0,1), (0,2), (1,2) this gives

      integral of dx  over *e:  [ 0,          -1/4,        -1/4       ]
      integral of dy  over *e:  [ sqrt(3)/6,  sqrt(3)/12,  -sqrt(3)/12 ]
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from declab import (
    Poly2,
    PolyForm,
    build_complex,
    build_dual,
    codifferential,
    de_rham,
    de_rham_dual,
    exterior_derivative,
    gauss_legendre_unit,
    hodge_laplacian,
    hodge_star,
    hodge_star_inverse,
    integrate_over_simplex,
    manufactured_solution,
    symmetric_mesh,
    perturbed_mesh,
    triangle_rule,
)

SQRT3 = np.sqrt(3.0)
REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


# -- Poly2 basics -------------------------------------------------------------


def test_poly_arithmetic_and_degree():
    x = Poly2.monomial(1, 0)
    y = Poly2.monomial(0, 1)
    p = (x + y) * (x - y)  # x^2 - y^2
    assert p.degree == 2
    assert p(2.0, 1.0) == pytest.approx(3.0)
    assert (p - p).is_zero()
    assert Poly2.zero().degree == 0
    q = x**3
    assert q.coefficient(3, 0) == 1.0
    assert q.deriv(0)(2.0, 0.0) == pytest.approx(12.0)
    assert q.deriv(1).is_zero()


def test_poly_vectorized_evaluation():
    p = Poly2.monomial(2, 1, 3.0) + Poly2.constant(-1.0)
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([1.0, 1.0, 0.5])
    np.testing.assert_allclose(p(xs, ys), 3.0 * xs**2 * ys - 1.0)


# -- quadrature oracles -------------------------------------------------------


def test_triangle_rule_monomial_oracle_to_degree_20():
    """int_ref x^a y^b dx dy = a! b! / (a+b+2)! within 1e-13 relative."""
    for a in range(21):
        for b in range(21 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            form = PolyForm(2, (Poly2.monomial(a, b),))
            got = integrate_over_simplex(form, REF_TRI, triangle_rule(a + b))
            assert abs(got - exact) <= 1e-13 * exact, (a, b)


def test_gauss_legendre_unit_exactness():
    for n in (1, 2, 5, 6, 10):
        rule = gauss_legendre_unit(n)
        assert rule.exactness == 2 * n - 1
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-15)
        for d in range(rule.exactness + 1):
            got = rule.weights @ rule.points**d
            assert got == pytest.approx(1.0 / (d + 1), rel=1e-14)


def test_triangle_rule_weight_sum():
    rule = triangle_rule(20)
    assert rule.weights.sum() == pytest.approx(0.5, rel=1e-14)
    assert rule.exactness == 20


def test_integrate_examples():
    # dx along the unit edge
    dx = PolyForm(1, (Poly2.constant(1.0), Poly2.zero()))
    edge = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert integrate_over_simplex(dx, edge) == pytest.approx(1.0)
    # area of the equilateral domain as the integral of the volume form
    omega = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2]])
    one = PolyForm(2, (Poly2.constant(1.0),))
    assert integrate_over_simplex(one, omega) == pytest.approx(SQRT3 / 4)
    # x^2 y over the reference triangle
    f = PolyForm(2, (Poly2.monomial(2, 1),))
    assert integrate_over_simplex(f, REF_TRI) == pytest.approx(1.0 / 60.0, rel=1e-13)
    # 0-form: point evaluation
    g = PolyForm(0, (Poly2.monomial(1, 1),))
    assert integrate_over_simplex(g, np.array([[2.0, 3.0]])) == pytest.approx(6.0)


def test_integrate_rejects_insufficient_rule():
    f = PolyForm(2, (Poly2.monomial(3, 2),))
    with pytest.raises(ValueError, match="cannot integrate"):
        integrate_over_simplex(f, REF_TRI, triangle_rule(2))


def test_integrate_rejects_wrong_simplex_shape():
    f = PolyForm(1, (Poly2.constant(1.0), Poly2.zero()))
    with pytest.raises(ValueError):
        integrate_over_simplex(f, REF_TRI)


# -- exterior derivative, star, codifferential --------------------------------


def test_exterior_derivative_examples():
    # d(x^2) = 2x dx
    d = exterior_derivative(PolyForm(0, (Poly2.monomial(2, 0),)))
    assert d.degree == 1
    assert d.components[0](1.5, 0.0) == pytest.approx(3.0)
    assert d.components[1].is_zero()
    # d(x dy) = dx ^ dy
    d = exterior_derivative(PolyForm(1, (Poly2.zero(), Poly2.monomial(1, 0))))
    assert d.degree == 2
    assert d.components[0](0.3, 0.9) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        exterior_derivative(PolyForm(2, (Poly2.constant(1.0),)))


def test_hodge_star_table():
    # *1 = dx dy, *dx = dy, *dy = -dx, *(dx dy) = 1
    s = hodge_star(PolyForm(0, (Poly2.constant(1.0),)))
    assert s.degree == 2 and s.components[0](0, 0) == 1.0
    s = hodge_star(PolyForm(1, (Poly2.constant(1.0), Poly2.zero())))
    assert s.components[0].is_zero() and s.components[1](0, 0) == 1.0
    s = hodge_star(PolyForm(1, (Poly2.zero(), Poly2.constant(1.0))))
    assert s.components[0](0, 0) == -1.0 and s.components[1].is_zero()
    s = hodge_star(PolyForm(2, (Poly2.constant(1.0),)))
    assert s.degree == 0 and s.components[0](0, 0) == 1.0


def test_double_star_signs():
    # ** = (-1)^{k(2-k)}: identity on 0- and 2-forms, negation on 1-forms
    w0 = PolyForm(0, (Poly2.monomial(2, 1),))
    assert (hodge_star(hodge_star(w0)).components[0] - w0.components[0]).is_zero()
    w1 = PolyForm(1, (Poly2.monomial(1, 0), Poly2.monomial(0, 3)))
    ss = hodge_star(hodge_star(w1))
    for i in range(2):
        assert (ss.components[i] + w1.components[i]).is_zero()
    # star_inverse undoes star
    for w in (w0, w1):
        back = hodge_star_inverse(hodge_star(w))
        for c_back, c_w in zip(back.components, w.components):
            assert (c_back - c_w).is_zero()


def test_star_pointwise_isometry():
    rng = np.random.default_rng(5)
    w = PolyForm(1, (Poly2.monomial(2, 1, 1.3), Poly2.monomial(0, 2, -0.7)))
    sw = hodge_star(w)
    for x, y in rng.uniform(0, 1, size=(20, 2)):
        a = w.components[0](x, y) ** 2 + w.components[1](x, y) ** 2
        b = sw.components[0](x, y) ** 2 + sw.components[1](x, y) ** 2
        assert a == pytest.approx(b, rel=1e-13)


def test_codifferential_hand_formulas():
    """The star/d composition must agree with the flat-plane formulas
    delta(P dx + Q dy) = -(P_x + Q_y) and delta(R dx dy) = R_y dx - R_x dy."""
    P = Poly2.monomial(3, 1, 0.5) + Poly2.monomial(1, 0, -2.0)
    Q = Poly2.monomial(2, 2, 1.5) + Poly2.monomial(0, 1, 1.0)
    got = codifferential(PolyForm(1, (P, Q)))
    want = Poly2.constant(-1.0) * (P.deriv(0) + Q.deriv(1))
    assert (got.components[0] - want).max_abs() <= 1e-18 * want.max_abs()

    R = Poly2.monomial(2, 1, 2.0) + Poly2.monomial(1, 1, -1.0)
    got = codifferential(PolyForm(2, (R,)))
    assert (got.components[0] - R.deriv(1)).max_abs() <= 1e-18 * R.max_abs()
    assert (got.components[1] + R.deriv(0)).max_abs() <= 1e-18 * R.max_abs()


def test_codifferential_examples():
    # delta(x dx) = -1
    d = codifferential(PolyForm(1, (Poly2.monomial(1, 0), Poly2.zero())))
    assert d.components[0](0.2, 0.8) == pytest.approx(-1.0)
    # delta(x dx dy) = -dy
    d = codifferential(PolyForm(2, (Poly2.monomial(1, 0),)))
    assert d.components[0].is_zero()
    assert d.components[1](0.4, 0.1) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        codifferential(PolyForm(0, (Poly2.constant(1.0),)))


def test_d_of_d_and_delta_of_delta_vanish():
    p = Poly2.monomial(4, 3, 1.7) + Poly2.monomial(2, 5, -0.3)
    dd = exterior_derivative(exterior_derivative(PolyForm(0, (p,))))
    assert dd.components[0].max_abs() <= 1e-16 * p.max_abs()
    w = PolyForm(2, (p,))
    deldel = codifferential(codifferential(w))
    assert deldel.components[0].max_abs() <= 1e-16 * p.max_abs()


def test_laplacian_examples():
    lap = hodge_laplacian(PolyForm(0, (Poly2.monomial(2, 0) + Poly2.monomial(0, 2),)))
    assert lap.components[0](0.3, 0.4) == pytest.approx(-4.0)
    affine = PolyForm(0, (Poly2.monomial(1, 0, 2.0) + Poly2.monomial(0, 1, -1.0) + Poly2.constant(3.0),))
    assert hodge_laplacian(affine).components[0].is_zero()
    lap1 = hodge_laplacian(PolyForm(1, (Poly2.zero(), Poly2.monomial(1, 0))))
    assert all(c.is_zero() for c in lap1.components)


# -- manufactured solution ----------------------------------------------------


def test_manufactured_solution_centroid_value():
    u, f = manufactured_solution(0)
    assert u.poly_degree == 15
    assert f.poly_degree == 13
    got = u.components[0](0.5, SQRT3 / 6)
    assert got == pytest.approx(1e8 / 3**15, rel=1e-12)


def test_manufactured_solution_vanishes_on_boundary():
    u, _ = manufactured_solution(0)
    # a barycentric factor vanishes on each side of the equilateral domain
    assert abs(u.components[0](0.3, 0.0)) <= 1e-8  # bottom edge
    assert abs(u.components[0](0.25, SQRT3 * 0.25)) <= 1e-6  # left edge y = sqrt(3) x


def test_manufactured_k1_duplicates_scalar():
    u0, f0 = manufactured_solution(0)
    u1, f1 = manufactured_solution(1)
    for c in u1.components:
        assert (c - u0.components[0]).is_zero()
    # the degree-1 Laplacian acts componentwise as the scalar one here
    for c in f1.components:
        assert (c - f0.components[0]).max_abs() <= 1e-18 * f0.components[0].max_abs()


def test_manufactured_f_is_negative_classical_laplacian():
    u, f = manufactured_solution(0)
    p = u.components[0]
    classical = p.deriv(0).deriv(0) + p.deriv(1).deriv(1)
    assert (f.components[0] + classical).max_abs() <= 1e-16 * classical.max_abs()


def test_source_integral_vanishes():
    _, f = manufactured_solution(0)
    for level in (2, 3):
        K = symmetric_mesh(level)
        total = 0.0
        for row in K.simplices(2):
            pts = K.vertices[row].copy()
            e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
            if e1[0] * e2[1] - e1[1] * e2[0] < 0:
                pts[[1, 2]] = pts[[2, 1]]
            total += integrate_over_simplex(PolyForm(2, f.components), pts)
        assert abs(total) <= 1e-8, level


# -- de Rham maps -------------------------------------------------------------


def test_de_rham_commutes_with_d():
    w0 = PolyForm(0, (Poly2.monomial(3, 2, 0.7) + Poly2.monomial(0, 4, -1.1),))
    w1 = PolyForm(1, (Poly2.monomial(2, 1), Poly2.monomial(1, 2, 0.5)))
    for K in (symmetric_mesh(3), perturbed_mesh(3, seed=2)):
        for w in (w0, w1):
            lhs = K.coboundary_matrix(w.degree) @ de_rham(K, w)
            rhs = de_rham(K, exterior_derivative(w))
            scale = max(np.abs(rhs).max(), 1.0)
            assert np.abs(lhs - rhs).max() <= 1e-11 * scale


def test_de_rham_point_evaluations():
    K = symmetric_mesh(2)
    w = PolyForm(0, (Poly2.monomial(1, 1),))
    vals = de_rham(K, w)
    np.testing.assert_allclose(vals, K.vertices[:, 0] * K.vertices[:, 1], atol=1e-15)


def test_de_rham_signed_triangle_integrals():
    K = symmetric_mesh(1)
    one = PolyForm(2, (Poly2.constant(1.0),))
    vals = de_rham(K, one)
    area = SQRT3 / 4 * 0.25
    dual = build_dual(K)
    np.testing.assert_allclose(vals, dual.tri_orientation * area, rtol=1e-13)


EQ_TRI = build_complex(
    np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2]]), [[0, 1, 2]]
)


def test_de_rham_dual_line_integrals_hand_oracle():
    dual = build_dual(EQ_TRI)
    dx = PolyForm(1, (Poly2.constant(1.0), Poly2.zero()))
    dy = PolyForm(1, (Poly2.zero(), Poly2.constant(1.0)))
    np.testing.assert_allclose(
        de_rham_dual(EQ_TRI, dual, dx), [0.0, -0.25, -0.25], atol=1e-14
    )
    np.testing.assert_allclose(
        de_rham_dual(EQ_TRI, dual, dy),
        [SQRT3 / 6, SQRT3 / 12, -SQRT3 / 12],
        atol=1e-14,
    )


def test_de_rham_dual_point_and_area_cells():
    K = symmetric_mesh(2)
    dual = build_dual(K)
    # 0-forms: signed evaluation at circumcenters
    g = PolyForm(0, (Poly2.monomial(1, 0),))
    vals = de_rham_dual(K, dual, g)
    np.testing.assert_allclose(
        vals, dual.tri_orientation * dual.centers[2][:, 0], rtol=1e-13
    )
    # 2-forms: unsigned integral over the vertex dual cells
    c = PolyForm(2, (Poly2.constant(2.5),))
    np.testing.assert_allclose(
        de_rham_dual(K, dual, c), 2.5 * dual.dual_volumes[0], rtol=1e-12
    )


def test_de_rham_dual_stokes_on_hexagon():
    """On an interior vertex v, the dual cell *v is a closed polygon (a
    hexagon on the symmetric mesh) whose boundary traverses the dual edges
    *e of the edges e incident to v, with signs from the coboundary.
    Stokes on *v gives D0^T Pi*(w) = -Pi*(dw) there: zero circulation for
    a gradient d(g), and for a general 1-form the flag-triangle integrals
    of dw.  Here dw = x - 1/2 changes sign inside the domain, so some flag
    integrals are negative and the 2-cell orientation signs are exercised."""
    g = PolyForm(0, (Poly2.monomial(2, 1, 1.5) + Poly2.monomial(0, 2, -1.0),))
    x = Poly2.monomial(1, 0)
    # w = x y^2 dx + (x^2 y + (x^2 - x) / 2) dy
    w = PolyForm(1, (Poly2.monomial(1, 2), Poly2.monomial(2, 1) + 0.5 * (x * x - x)))
    dw = exterior_derivative(w)
    assert (dw.components[0] - (x - 0.5)).is_zero()
    for K in (symmetric_mesh(2), perturbed_mesh(3, seed=2)):
        dual = build_dual(K)
        D0 = K.coboundary_matrix(0)
        interior = ~K.is_boundary(0)
        circulation = D0.T @ de_rham_dual(K, dual, exterior_derivative(g))
        assert np.abs(circulation[interior]).max() <= 1e-13
        lhs = (D0.T @ de_rham_dual(K, dual, w))[interior]
        rhs = -de_rham_dual(K, dual, dw)[interior]
        assert (rhs < 0).any() and (rhs > 0).any()
        assert np.abs(lhs - rhs).max() <= 1e-13
