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

import hashlib
import inspect
import math
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

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
from declab import forms as forms_module
from oracles import poly2_dense_horner

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


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and got.tobytes() == want.tobytes()
    )


def test_poly_evaluation_matches_dense_horner_bit_for_bit():
    """The trimmed in-place Horner of Poly2 against the full-grid oracle."""
    rng = np.random.default_rng(11)
    xs = rng.uniform(-2.0, 2.0, 64)
    ys = rng.uniform(-2.0, 2.0, 64)
    # signed zeros and exact zeros along the rows
    xs[:4], ys[:4] = [0.0, 0.0, 0.0, -0.0], [0.0, -1.0, 1.0, -1.0]
    polys = [Poly2.zero(), manufactured_solution(1)[1].components[0]]
    for trial in range(40):
        c = rng.normal(scale=10.0 ** rng.integers(0, 9), size=rng.integers(1, 9, 2))
        c[rng.random(c.shape) < 0.4] = 0.0  # ragged trailing entries
        c[rng.random(c.shape[0]) < 0.3] = 0.0  # whole zero rows
        c[0, -1] = 1.0 + trial  # keep the grid from being trimmed away
        # negation stores -0.0 coefficients; the factor x zeroes row 0
        shifted = Poly2(c) * Poly2.monomial(1, 0)
        polys += [Poly2(c), -Poly2(c), shifted, -shifted]
    for p in polys:
        assert _same_bits(p(xs, ys), poly2_dense_horner(p.coeffs, xs, ys))
        got = p(0.75, -1.25)
        assert type(got) is float
        assert _same_bits(got, poly2_dense_horner(p.coeffs, 0.75, -1.25))
        # scalar x broadcast against an array y, and empty input
        assert _same_bits(p(0.5, ys), poly2_dense_horner(p.coeffs, 0.5, ys))
        empty = np.empty((0, 3))
        assert _same_bits(p(empty, empty), poly2_dense_horner(p.coeffs, empty, empty))


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


# -- chunked, threaded evaluation ---------------------------------------------
#
# The kernel evaluates chunks of about forms._CHUNK_POINTS quadrature points
# on a thread pool.  Shrinking the chunk forces many chunks (and the pool)
# on small meshes; a chunk larger than any mesh here gives one serial pass.

ONE_CHUNK = 1 << 40


def _kernel_forms(k):
    u, f = manufactured_solution(k)
    forms = [u, f]
    if k == 1:
        # distinct components next to the shared one of u = p dx + p dy
        forms.append(PolyForm(1, (Poly2.monomial(3, 2, 0.7), Poly2.monomial(1, 4, -1.1))))
    if k:
        forms.append(codifferential(u))
    return forms


def _kernel_bytes(monkeypatch, chunk, fn, *args):
    monkeypatch.setattr(forms_module, "_CHUNK_POINTS", chunk)
    return fn(*args).tobytes()


@pytest.mark.parametrize("k", [0, 1, 2])
def test_multi_chunk_kernel_is_bit_identical_to_one_chunk(k, monkeypatch):
    K = perturbed_mesh(4, seed=2)
    corners = K.vertices[K.simplices(k)]
    kernel = forms_module._integrate_simplices
    # 101 is prime and every rule here has 1 to 72 points, so a 1000-point
    # chunk holds 2 to 100 simplices and the last chunk is always shorter
    for cells in (corners, corners[:101]):
        for form in _kernel_forms(k):
            serial = _kernel_bytes(monkeypatch, ONE_CHUNK, kernel, form, cells)
            for chunk in (1, 1000):
                assert _kernel_bytes(monkeypatch, chunk, kernel, form, cells) == serial


@pytest.mark.parametrize("m", [0, 1, 2])
def test_multi_chunk_de_rham_dual_is_bit_identical_to_one_chunk(m, monkeypatch):
    K = perturbed_mesh(3, seed=1)
    dual = build_dual(K)
    for form in _kernel_forms(m):
        serial = _kernel_bytes(monkeypatch, ONE_CHUNK, de_rham_dual, K, dual, form)
        for chunk in (1, 333):
            assert _kernel_bytes(monkeypatch, chunk, de_rham_dual, K, dual, form) == serial


def test_forms_functions_run_on_the_calling_thread(monkeypatch):
    """Workers run only Poly2.__call__: every module-level function of
    forms, which includes every name a tracer may wrap (de_rham, the rule
    constructors, manufactured_solution, ...), is called on the thread that
    called de_rham, while the chunks are evaluated on pool threads."""
    calls: dict[str, set[int]] = {}

    def record(name, fn):
        def wrapper(*args, **kwargs):
            calls.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)

        return wrapper

    for name, obj in list(vars(forms_module).items()):
        if inspect.isfunction(obj) and obj.__module__ == forms_module.__name__:
            monkeypatch.setattr(forms_module, name, record(name, obj))
    monkeypatch.setattr(Poly2, "__call__", record("Poly2.__call__", Poly2.__call__))
    monkeypatch.setattr(forms_module, "_CHUNK_POINTS", 500)
    K = perturbed_mesh(3, seed=1)
    dual = build_dual(K)
    for k in (0, 1, 2):
        u, f = forms_module.manufactured_solution(k)
        forms_module.de_rham(K, f)
        forms_module.de_rham_dual(K, dual, forms_module.codifferential(u) if k else u)
    main = threading.get_ident()
    workers = calls.pop("Poly2.__call__")
    assert {"de_rham", "de_rham_dual", "_integrate_simplices", "triangle_rule"} <= set(calls)
    assert all(idents == {main} for idents in calls.values()), calls
    assert workers - {main}, "no chunk ran on the pool"


def test_concurrent_callers_share_the_pool(monkeypatch):
    """More calling threads than cores, each de_rham split into many chunks
    on the one pool, with frequent thread switches: every result is still
    bit-identical to a serial pass."""
    monkeypatch.setattr(forms_module, "_CHUNK_POINTS", 300)
    K = perturbed_mesh(3, seed=3)
    jobs = [w for k in (0, 1, 2) for w in manufactured_solution(k)]
    with monkeypatch.context() as serial:
        serial.setattr(forms_module, "_CHUNK_POINTS", ONE_CHUNK)
        expected = [de_rham(K, w).tobytes() for w in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2 * (os.cpu_count() or 1) + 1) as callers:
            futures = [callers.submit(de_rham, K, w) for w in jobs * 3]
            got = [f.result(timeout=120).tobytes() for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected * 3


def _de_rham_in_child(queue):
    u, f = manufactured_solution(2)
    queue.put(de_rham(perturbed_mesh(3, seed=1), f).tobytes())


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a threaded process
def test_de_rham_works_in_a_child_forked_after_a_parallel_run(monkeypatch):
    monkeypatch.setattr(forms_module, "_CHUNK_POINTS", 500)
    _, f = manufactured_solution(2)
    expected = de_rham(perturbed_mesh(3, seed=1), f).tobytes()  # starts the pool
    assert forms_module._POOL
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_de_rham_in_child, args=(queue,))
    child.start()
    try:
        got = queue.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert got == expected
    assert child.exitcode == 0


# Golden digests: SHA-256 of the float64 bytes of de_rham(K, w) on
# symmetric level 4 and perturbed (level 4, seed 2, alpha 0.15), recorded
# before the evaluation was chunked and threaded.  The benchmark compares
# its norms with reference values at rtol 1e-7, and a change of evaluator
# (a float64 rewrite of the forms, say) moves norms by more than that, so
# such a change shows up here first; it must re-record both.
DE_RHAM_SHA256 = {
    ("symmetric", 0, "u"): "50020df0eb5090ae0d648053234fec783206a5aaa0bb93d2a4fb6a4d458221ae",
    ("symmetric", 0, "f"): "2682edbcbac36488530f5037d729f8866d7fefd1af80e4a0853f610fb751b798",
    ("symmetric", 1, "u"): "b07b0e682cc81c5752863aa4b0cbc0ef6e99cf510e396a6aff672422c41062c3",
    ("symmetric", 1, "f"): "14a938a97275405b1f24b06a6c510618470af8ebcc351bd03899ef288ed6503f",
    ("symmetric", 1, "du"): "70eca9f8dd4138225842ac5b70e098ebb828e833e18b5f1b8544c4bdfdb0ad5f",
    ("symmetric", 2, "u"): "682d4c0005ab3e391bcc4dbe83a5761f10023eccba38e9a437ac8496f87736d3",
    ("symmetric", 2, "f"): "8b092993e5af4c5396e655eb6970b5747aae1d7efb0612a00271a49c37a446e0",
    ("symmetric", 2, "du"): "2a0dff8443deee6184553953263ea87e42c9915451266ea16eb79afcc035d1b4",
    ("perturbed", 0, "u"): "c9f146b0214c56b940f01028880a24e6ebc25966fba34fd7014597c0b9d73a94",
    ("perturbed", 0, "f"): "45bff1502da526f0d5fff35c9011277f9990d21e86d449d845ea0729b8134cd2",
    ("perturbed", 1, "u"): "1b5b9237e826aa52042b6fa41f954b86e644bd8549181ee4517b6c398cd4688f",
    ("perturbed", 1, "f"): "7e9547ab615b418d9afc65a6b1b34a060ce61f28030ed5aa2d99227ed227ec9a",
    ("perturbed", 1, "du"): "70cf36a57939b8dc9d85dfed19485df723fd02ed8e0b34c33b30b07e092b8763",
    ("perturbed", 2, "u"): "f81c28a9c29f533d5806dc575f885d3edd4ab7250ac620622ad70916fc729509",
    ("perturbed", 2, "f"): "86a15d3d653e38293e8908453f10444bbeb22fb43d540132b1ba65cf45481e74",
    ("perturbed", 2, "du"): "6b73fe0d97b6d6fb4c711aa2358f6e03fce33dad613f0fd18ea78ddde4cccf95",
}


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63,
    reason="digests were recorded with 80-bit extended precision",
)
@pytest.mark.parametrize("chunk", [None, 100])
@pytest.mark.parametrize("family", ["symmetric", "perturbed"])
def test_de_rham_golden_digests(family, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(forms_module, "_CHUNK_POINTS", chunk)
    K = symmetric_mesh(4) if family == "symmetric" else perturbed_mesh(4, 2, 0.15)
    for k in (0, 1, 2):
        u, f = manufactured_solution(k)
        forms = {"u": u, "f": f, **({"du": codifferential(u)} if k else {})}
        for name, w in forms.items():
            digest = hashlib.sha256(de_rham(K, w).tobytes()).hexdigest()
            assert digest == DE_RHAM_SHA256[family, k, name], (family, k, name)
