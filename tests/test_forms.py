"""Polynomial forms, quadrature, and the de Rham maps.

Oracles
-------
* Reference-triangle monomials: int x^a y^b = a! b! / (a + b + 2)!.
* Exact evaluation: the polynomial evaluator is compared with Fraction and
  integer arithmetic on the same coefficients, and its barycentric
  coefficients with an independent multinomial expansion of the monomials.
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
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

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
    manufactured_solution,
    symmetric_mesh,
    perturbed_mesh,
    triangle_rule,
)
from declab import forms as forms_module
from declab.complex import _planes
from oracles import _cross2, dense_barycentric_horner, integrate_over_simplex

SQRT3 = np.sqrt(3.0)
REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


# -- Poly2 basics -------------------------------------------------------------


def _is_zero(p: Poly2) -> bool:
    """Every monomial coefficient of p is exactly zero."""
    return not p.coeffs.any()


def test_poly_arithmetic_and_degree():
    x = Poly2.monomial(1, 0)
    y = Poly2.monomial(0, 1)
    p = (x + y) * (x - y)  # x^2 - y^2
    assert p.degree == 2
    assert p(2.0, 1.0) == pytest.approx(3.0)
    assert _is_zero(p - p)
    assert Poly2.zero().degree == 0
    q = x**3
    assert q.coefficient(3, 0) == 1.0
    assert x.coefficient(1, 0) == 1.0 and x.coefficient(2, 5) == 0.0
    for i, j in ((-1, 0), (0, -1)):  # no indexing from the end
        with pytest.raises(ValueError, match="non-negative"):
            x.coefficient(i, j)
    assert q.deriv(0)(2.0, 0.0) == pytest.approx(12.0)
    assert _is_zero(q.deriv(1))


@pytest.mark.parametrize("coeffs", [[], [[]], np.zeros((0, 3)), np.zeros((3, 0))])
def test_poly_rejects_an_empty_coefficient_array(coeffs):
    with pytest.raises(ValueError, match="must not be empty"):
        Poly2(coeffs)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_poly_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match="must be finite"):
        Poly2([[1.0, 2.0], [bad, 0.0]])


@pytest.mark.parametrize("i, j", [(-1, 0), (-2, 0), (0, -3)])
def test_poly_monomial_rejects_negative_exponents(i, j):
    with pytest.raises(ValueError, match=rf"non-negative, got x\^{i} y\^{j}"):
        Poly2.monomial(i, j)


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


EPS = np.finfo(np.float64).eps
S = SQRT3 / 2.0  # the domain's top vertex is (1/2, S)


def _evaluated_polys(rng) -> list[Poly2]:
    """The manufactured forms, small polynomials, and random ones with
    coefficients of mixed sign and size, ragged zeros and zero rows."""
    polys = [Poly2.zero(), Poly2.constant(-2.5), Poly2.monomial(0, 1), Poly2.monomial(20, 0)]
    for k in (0, 1, 2):
        u, f = manufactured_solution(k)
        polys += [*u.components[:1], *f.components]
        if k:
            polys += list(codifferential(u).components)
    for trial in range(8):
        c = rng.normal(scale=10.0 ** rng.integers(0, 9), size=rng.integers(1, 9, 2))
        c[rng.random(c.shape) < 0.3] = 0.0
        c[rng.random(c.shape[0]) < 0.3] = 0.0
        c[0, -1] = 1.0 + trial  # keep the grid from being trimmed away
        polys += [Poly2(c), -Poly2(c)]
    return polys


def _barycentric_exact(x: float, y: float) -> list[Fraction]:
    """The exact barycentric coordinates of the float64 point (x, y)."""
    l3 = Fraction(y) / Fraction(S)
    l2 = Fraction(x) - l3 / 2
    return [1 - l2 - l3, l2, l3]


def _domain_sums(B: np.ndarray, lam: list[Fraction]) -> tuple[Fraction, Fraction, Fraction]:
    """sum B_alpha l^alpha, sum |B_alpha| |l|^alpha and
    sum |B_alpha| sum_i alpha_i |l|^(alpha - e_i), exactly (in integers over
    one common denominator)."""
    n = len(B) - 1
    den = math.lcm(*(li.denominator for li in lam))
    num = [li.numerator * (den // li.denominator) for li in lam]
    pw = [[v**e for e in range(n + 1)] for v in num]
    ratios = {ab: Fraction(float(v)) for ab, v in np.ndenumerate(B) if v != 0}
    scale = math.lcm(1, *(r.denominator for r in ratios.values()))
    value = terms = grad = 0
    for (a, b), r in ratios.items():
        coef = r.numerator * (scale // r.denominator)
        e = (a, b, n - a - b)
        mono = pw[0][a] * pw[1][b] * pw[2][e[2]]
        value += coef * mono
        terms += abs(coef * mono)
        for i in range(3):
            if e[i]:
                rest = [abs(pw[j][e[j]]) for j in range(3)]
                rest[i] = abs(pw[i][e[i] - 1])
                grad += abs(coef) * e[i] * rest[0] * rest[1] * rest[2] * den
    total = scale * den**n
    return Fraction(value, total), Fraction(terms, total), Fraction(grad, total)


def _monomial_sums(coeffs: np.ndarray, x: float, y: float) -> tuple[Fraction, Fraction]:
    """sum c_ij x^i y^j and sum |c_ij| |x|^i |y|^j over the longdouble
    coefficients, exactly."""
    fx, fy = Fraction(x), Fraction(y)
    value = terms = Fraction(0)
    for (i, j), c in np.ndenumerate(coeffs):
        if c != 0:
            term = Fraction(*c.as_integer_ratio()) * fx**i * fy**j
            value, terms = value + term, terms + abs(term)
    return value, terms


def _dyadic_domain_points() -> np.ndarray:
    """Vertices, points on all three edges, and interior points, each with
    dyadic barycentric coordinates of few bits and l3 a power of two (or
    0), so that x = l2 + l3/2 and y = S l3 are exact and the evaluator
    recovers the coordinates exactly."""
    lam = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for m in range(1, 5):
        t = 2.0**-m
        lam += [(1 - t, t, 0), (t, 1 - t, 0), (0, 1 - t, t), (1 - t, 0, t)]
        lam += [(1 - t - s, s, t) for s in (1 / 8, 3 / 8, 5 / 16) if 1 - t - s > 0]
    lam = np.array(lam)
    return np.stack([lam[:, 1] + lam[:, 2] / 2, S * lam[:, 2]], axis=1)


def test_poly_evaluation_on_the_domain_is_accurate():
    """In-domain points against exact evaluation of the same float64
    coefficients B: within 3 n eps sum |B| l^alpha where the evaluator's
    coordinates are exact, and within 5 eps sum |B| |grad l^alpha| more at
    random points, whose coordinates it computes to 5 eps (|x|, |y| <= 1)."""
    rng = np.random.default_rng(11)
    exact = _dyadic_domain_points()
    lam = rng.dirichlet([1.0, 1.0, 1.0], 24)
    rand = np.stack([lam[:, 1] + lam[:, 2] / 2, S * lam[:, 2]], axis=1)
    points = np.concatenate([exact, rand])
    for p in _evaluated_polys(rng):
        B = p._domain_coeffs()
        n = len(B) - 1
        got = p(points[:, 0], points[:, 1])
        for q, ((x, y), value) in enumerate(zip(points, got)):
            want, terms, grad = _domain_sums(B, _barycentric_exact(x, y))
            slack = 0 if q < len(exact) else 5 * grad
            assert abs(Fraction(float(value)) - want) <= EPS * (3 * n * terms + slack), (p, q)


def test_poly_evaluation_off_the_domain_is_accurate():
    """Points off the domain take Horner in x and y: within a few n eps of
    the monomial term-magnitude sum of the exact longdouble coefficients."""
    rng = np.random.default_rng(12)
    xy = rng.uniform(-2.0, 2.0, (400, 2))
    lam = np.array([_barycentric_exact(x, y) for x, y in xy], dtype=float)
    xy = xy[lam.min(axis=1) < -0.01][:40]
    # and the unit right triangle's part off the domain (criterion 6)
    xy = np.concatenate([xy, [[0.0, 1.0], [0.05, 0.5], [0.0, 0.25], [0.1, 0.8]]])
    for p in _evaluated_polys(rng):
        nx, ny = p.coeffs.shape
        got = p(xy[:, 0], xy[:, 1])
        for q, ((x, y), value) in enumerate(zip(xy, got)):
            want, terms = _monomial_sums(p.coeffs, x, y)
            assert abs(Fraction(float(value)) - want) <= 2 * (nx + ny) * EPS * terms, (p, q)


def test_poly_evaluation_shapes_and_points_in_and_off_the_domain():
    """Scalars give a float, arrays their broadcast shape, empty input an
    empty array; a point's value does not depend on the points passed with
    it, in the domain or off it."""
    rng = np.random.default_rng(13)
    xs = rng.uniform(-0.5, 1.5, 64)
    ys = rng.uniform(-0.5, 1.5, 64)
    xs[:3], ys[:3] = [0.0, 1.0, 0.5], [0.0, 0.0, S]  # the vertices
    lam = np.array([_barycentric_exact(x, y) for x, y in zip(xs, ys)], dtype=float)
    inside = lam.min(axis=1) >= 0
    assert 8 < inside.sum() < 56
    for p in _evaluated_polys(rng):
        batch = p(xs, ys)
        alone = np.array([p(x, y) for x, y in zip(xs, ys)])
        assert _same_bits(batch, alone)
        assert _same_bits(p(xs.reshape(8, 8), ys.reshape(8, 8)), batch.reshape(8, 8))
        got = p(0.75, -1.25)
        assert type(got) is float
        assert _same_bits(got, p(np.array([0.75]), np.array([-1.25]))[0])
        assert _same_bits(p(0.5, ys), p(np.full_like(ys, 0.5), ys))
        empty = np.empty((0, 3))
        assert _same_bits(p(empty, empty), empty)


def _times_linear(P: np.ndarray, c0, cx, cy) -> np.ndarray:
    """(c0 + cx x + cy y) P for P an object array over [i, j] (x^i y^j)."""
    out = np.zeros((P.shape[0] + 1, P.shape[1] + 1), dtype=object)
    out[:-1, :-1] += c0 * P
    out[1:, :-1] += cx * P
    out[:-1, 1:] += cy * P
    return out


def _to_monomials(B, absolute: bool) -> np.ndarray:
    """sum B[a, b] l1^a l2^b l3^(n-a-b) expanded exactly in x and y, with
    l3 = y / S, l2 = x - l3 / 2 and l1 = 1 - l2 - l3; with absolute=True
    every coefficient and every l is taken by its absolute value."""
    n, h = len(B) - 1, 1 / (2 * Fraction(S))
    sign = 1 if absolute else -1
    l1, l2, l3 = (1, sign, sign * h), (0, 1, sign * h), 2 * h
    l2pow = [np.ones((1, 1), dtype=object)]
    for _ in range(n):
        l2pow.append(_times_linear(l2pow[-1], *l2))
    acc = np.zeros((n + 1, n + 1), dtype=object)
    for a in range(n, -1, -1):
        row = np.zeros((n + 1, n + 1), dtype=object)
        for b in range(n - a + 1):
            c = n - a - b
            coef = Fraction(float(B[a, b])) * l3**c
            term = abs(coef) if absolute else coef
            row[: b + 1, c : b + 1 + c] += term * l2pow[b]
        acc = _times_linear(acc, *l1)[: n + 1, : n + 1] + row
    return acc


def _from_monomials(coeffs, n: int) -> dict[tuple[int, int], Fraction]:
    """The exact B[a, b] of sum c[i, j] x^i y^j, of total degree n, by the
    multinomial expansion of x^i y^j w^(n-i-j) with x = l2 + l3/2,
    y = S l3 and w = l1 + l2 + l3."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in np.ndenumerate(coeffs):
        if c == 0:
            continue
        cij = Fraction(*c.as_integer_ratio()) * Fraction(S) ** j
        k = n - i - j
        for p in range(i + 1):  # l2^p (l3/2)^(i-p) from x^i
            xp = cij * math.comb(i, p) / 2 ** (i - p)
            for a in range(k + 1):  # l1^a l2^q l3^(k-a-q) from w^k
                for q in range(k + 1 - a):
                    key = (a, p + q)
                    out[key] = out.get(key, 0) + xp * math.comb(k, a) * math.comb(k - a, q)
    return out


@pytest.mark.parametrize("which", ["p", "f0", "f1", "random"])
def test_domain_coefficients_round_the_exact_conversion_once(which):
    """Each B is the exact conversion of the longdouble coefficients (by an
    independent multinomial expansion) rounded once; expanding B back into
    monomials, exactly, gives the longdouble coefficients up to the effect
    of that one rounding of each B."""
    if which == "random":
        c = np.random.default_rng(14).normal(scale=1e4, size=(6, 5))
        poly = Poly2(c)
    else:
        k = {"p": 0, "f0": 0, "f1": 1}[which]
        u, f = manufactured_solution(k)
        poly = u.components[0] if which == "p" else f.components[0]
    B = poly._domain_coeffs()
    n = len(B) - 1
    exact = _from_monomials(poly.coeffs, n)
    for (a, b), value in np.ndenumerate(B):
        assert _same_bits(value, np.float64(float(exact.get((a, b), 0)))), (a, b)
    got = _to_monomials(B, absolute=False)
    bound = _to_monomials(B, absolute=True)
    want = np.zeros(got.shape, dtype=object)
    for (i, j), c in np.ndenumerate(poly.coeffs):
        want[i, j] = Fraction(*c.as_integer_ratio())
    for (i, j), g in np.ndenumerate(got):
        assert abs(g - want[i, j]) <= EPS / 2 * (1 + EPS) * bound[i, j], (i, j)


def _zero_pattern_polys() -> list[Poly2]:
    """The manufactured u, f and delta u; polynomials whose B has whole zero
    rows and leading or trailing zeros in a row; and one dense random one."""
    polys = []
    for k in (0, 1, 2):
        u, f = manufactured_solution(k)
        polys += [*u.components[:1], *f.components]
        if k:
            polys += list(codifferential(u).components)
    x, y = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
    inv_sqrt3 = np.longdouble(1.0) / np.sqrt(np.longdouble(3.0))
    lam1, lam2, lam3 = 1.0 - x - inv_sqrt3 * y, x - inv_sqrt3 * y, (2.0 * inv_sqrt3) * y
    # zero rows above the l1 degree, leading zeros above the l2 degree
    polys += [lam1**2 * lam3**3, -(lam2**4) * lam1, lam3**2]
    # monomials: zero rows a >= 1, leading zeros in row 0 for j > 0
    polys += [Poly2.monomial(i, j, s) for i, j, s in ((1, 1, -1.0), (2, 3, 1.5), (0, 2, -0.75), (4, 0, 1.0))]
    # 2x - 1 = l2 - l1 and 1 - x = l1 + l3 / 2: trailing zeros in a row
    polys += [(2.0 * x - 1.0) ** 3, -((2.0 * x - 1.0) ** 2) * (1.0 - x), (2.0 * x - 1.0) * y]
    polys += [Poly2.constant(-2.5), Poly2.constant(3.0), Poly2.zero()]
    polys.append(Poly2(np.random.default_rng(15).normal(scale=1e3, size=(6, 6))))
    return polys


def _zero_patterns(B: np.ndarray) -> set[str]:
    """Which kinds of exact zeros the rows of B have."""
    n, seen = len(B) - 1, set()
    for a in range(n + 1):
        row = B[a, n - a :: -1] != 0  # b = n - a down to 0
        if not row.any():
            seen.add("zero row")
            continue
        if not row[0]:
            seen.add("leading zeros")
        if not row[-1]:
            seen.add("trailing zeros")
    return seen


def _edge_and_interior_points() -> np.ndarray:
    """The dyadic domain points (vertices and points with one barycentric
    coordinate exactly 0), points on the edges whose coordinate is -0.0 or
    a few ulps below 0, and random interior points."""
    lam = np.random.default_rng(16).dirichlet([1.0, 1.0, 1.0], 40)
    interior = np.stack([lam[:, 1] + lam[:, 2] / 2, S * lam[:, 2]], axis=1)
    t = np.array([0.125, 0.25, 0.5])  # l3 = t exactly on the last two
    below = np.concatenate(
        [
            np.stack([t, np.full(3, -0.0)], axis=1),  # l3 = -0.0
            np.stack([t, np.full(3, -1e-17)], axis=1),  # l3 < 0
            np.stack([np.nextafter(t / 2, -1.0), S * t], axis=1),  # l2 < 0
            np.stack([np.nextafter(1 - t / 2, 2.0), S * t], axis=1),  # l1 < 0
        ]
    )
    return np.concatenate([_dyadic_domain_points(), below, interior])


def _same_value_and_nonzero_bits(got, want) -> bool:
    """Equal values everywhere (0.0 == -0.0) and equal bits at every
    nonzero value."""
    nonzero = want != 0
    return bool((got == want).all()) and _same_bits(got[nonzero], want[nonzero])


def test_poly_evaluation_is_bit_identical_to_the_dense_horner():
    """Skipping B's exact zeros changes no value and no bit of a nonzero
    value: every value, batched, alone and batched with a point off the
    domain, equals the dense homogeneous Horner's, on every platform (the
    oracle runs on the same float64 B); the sign of a zero is not pinned."""
    points = _edge_and_interior_points()
    xs, ys = points[:, 0], points[:, 1]
    l3 = ys / S
    l2 = xs - 0.5 * l3
    assert np.minimum(np.minimum(1.0 - l2 - l3, l2), l3).min() >= -1e-12  # all in the domain
    zeros, patterns = 0, set()
    for p in _zero_pattern_polys():
        want = dense_barycentric_horner(p._domain_coeffs(), xs, ys)
        zeros += np.count_nonzero(want == 0)
        patterns |= _zero_patterns(p._domain_coeffs())
        assert _same_value_and_nonzero_bits(p(xs, ys), want), p
        alone = np.array([p(x, y) for x, y in points])
        assert _same_value_and_nonzero_bits(alone, want), p
        # with a point off the domain, the others take the masked path
        mixed = p(np.append(xs, 2.0), np.append(ys, 2.0))
        assert _same_value_and_nonzero_bits(mixed[:-1], want), p
    assert patterns == {"zero row", "leading zeros", "trailing zeros"}
    assert zeros > 100  # zero values are checked, not just nonzero ones


def test_horner_plan_makes_one_multiply_add_per_nonzero_entry(monkeypatch):
    """The evaluator multiplies a power of l3 by a coefficient once for each
    nonzero entry of B and for no other (p: 50 of 136), on the manufactured
    forms and on B with zero rows and leading and trailing zeros."""
    points = _dyadic_domain_points()
    xs, ys = points[:, 0], points[:, 1]
    multiply, coefficients = np.multiply, []

    def counting(a, b, *args, **kwargs):
        if np.ndim(b) == 0:
            coefficients.append(b)
        return multiply(a, b, *args, **kwargs)

    for p in _zero_pattern_polys():
        B = p._domain_coeffs()
        coefficients.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "multiply", counting)
            p(xs, ys)
        assert sorted(coefficients) == sorted(B[B != 0]), p
    B = manufactured_solution(0)[0].components[0]._domain_coeffs()
    assert (np.count_nonzero(B), len(B) * (len(B) + 1) // 2) == (50, 136)


# -- quadrature oracles -------------------------------------------------------


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


def _max_abs(p: Poly2) -> float:
    """The largest absolute monomial coefficient of p."""
    return float(np.abs(p.coeffs).max())


def test_exterior_derivative_examples():
    # d(x^2) = 2x dx
    d = exterior_derivative(PolyForm(0, (Poly2.monomial(2, 0),)))
    assert d.degree == 1
    assert d.components[0](1.5, 0.0) == pytest.approx(3.0)
    assert _is_zero(d.components[1])
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
    assert _is_zero(s.components[0]) and s.components[1](0, 0) == 1.0
    s = hodge_star(PolyForm(1, (Poly2.zero(), Poly2.constant(1.0))))
    assert s.components[0](0, 0) == -1.0 and _is_zero(s.components[1])
    s = hodge_star(PolyForm(2, (Poly2.constant(1.0),)))
    assert s.degree == 0 and s.components[0](0, 0) == 1.0


def test_double_star_signs():
    # ** = (-1)^{k(2-k)}: identity on 0- and 2-forms, negation on 1-forms
    w0 = PolyForm(0, (Poly2.monomial(2, 1),))
    assert _is_zero(hodge_star(hodge_star(w0)).components[0] - w0.components[0])
    w1 = PolyForm(1, (Poly2.monomial(1, 0), Poly2.monomial(0, 3)))
    ss = hodge_star(hodge_star(w1))
    for i in range(2):
        assert _is_zero(ss.components[i] + w1.components[i])
    # star_inverse undoes star
    for w in (w0, w1):
        back = hodge_star_inverse(hodge_star(w))
        for c_back, c_w in zip(back.components, w.components):
            assert _is_zero(c_back - c_w)


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
    assert _max_abs(got.components[0] - want) <= 1e-18 * _max_abs(want)

    R = Poly2.monomial(2, 1, 2.0) + Poly2.monomial(1, 1, -1.0)
    got = codifferential(PolyForm(2, (R,)))
    assert _max_abs(got.components[0] - R.deriv(1)) <= 1e-18 * _max_abs(R)
    assert _max_abs(got.components[1] + R.deriv(0)) <= 1e-18 * _max_abs(R)


def test_codifferential_examples():
    # delta(x dx) = -1
    d = codifferential(PolyForm(1, (Poly2.monomial(1, 0), Poly2.zero())))
    assert d.components[0](0.2, 0.8) == pytest.approx(-1.0)
    # delta(x dx dy) = -dy
    d = codifferential(PolyForm(2, (Poly2.monomial(1, 0),)))
    assert _is_zero(d.components[0])
    assert d.components[1](0.4, 0.1) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        codifferential(PolyForm(0, (Poly2.constant(1.0),)))


def test_d_of_d_and_delta_of_delta_vanish():
    p = Poly2.monomial(4, 3, 1.7) + Poly2.monomial(2, 5, -0.3)
    dd = exterior_derivative(exterior_derivative(PolyForm(0, (p,))))
    assert _max_abs(dd.components[0]) <= 1e-16 * _max_abs(p)
    w = PolyForm(2, (p,))
    deldel = codifferential(codifferential(w))
    assert _max_abs(deldel.components[0]) <= 1e-16 * _max_abs(p)


def test_laplacian_examples():
    lap = hodge_laplacian(PolyForm(0, (Poly2.monomial(2, 0) + Poly2.monomial(0, 2),)))
    assert lap.components[0](0.3, 0.4) == pytest.approx(-4.0)
    affine = PolyForm(0, (Poly2.monomial(1, 0, 2.0) + Poly2.monomial(0, 1, -1.0) + Poly2.constant(3.0),))
    assert _is_zero(hodge_laplacian(affine).components[0])
    lap1 = hodge_laplacian(PolyForm(1, (Poly2.zero(), Poly2.monomial(1, 0))))
    assert all(_is_zero(c) for c in lap1.components)


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
        assert _is_zero(c - u0.components[0])
    # f is g = L p in the frame of u: one polynomial in both slots, k = 0's f
    g, h = f1.components
    assert g is h
    assert np.array_equal(g.coeffs, f0.components[0].coeffs)


@pytest.mark.parametrize("mesh", [(4,), (4, 2, 0.15)], ids=["symmetric", "perturbed"])
def test_manufactured_k1_forcing_is_the_hodge_laplacian_of_u(mesh):
    """hodge_laplacian(u), built from the two slots of u, stays the oracle:
    its de Rham map differs from R(f) only by the rounding of the
    longdouble coefficients (4.1e-13 and 4.3e-13 of the maximum here)."""
    K = symmetric_mesh(*mesh) if len(mesh) == 1 else perturbed_mesh(*mesh)
    u, f = manufactured_solution(1)
    want = de_rham(K, hodge_laplacian(u))
    assert np.abs(de_rham(K, f) - want).max() <= 1e-12 * np.abs(want).max()


def test_manufactured_f_is_negative_classical_laplacian():
    u, f = manufactured_solution(0)
    p = u.components[0]
    classical = p.deriv(0).deriv(0) + p.deriv(1).deriv(1)
    assert _max_abs(f.components[0] + classical) <= 1e-16 * _max_abs(classical)


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
    np.testing.assert_allclose(vals, _orientation(K) * area, rtol=1e-13)


def _orientation(K) -> np.ndarray:
    """+1 where a triangle's ascending vertex tuple runs counterclockwise, else -1."""
    p = K.vertices[K.simplices(2)]
    return np.sign(_cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]))


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
        vals, _orientation(K) * dual.circumcenters[:, 0], rtol=1e-13
    )
    # 2-forms: unsigned integral over the vertex dual cells
    c = PolyForm(2, (Poly2.constant(2.5),))
    np.testing.assert_allclose(
        de_rham_dual(K, dual, c), 2.5 * dual.hodge_ratio_a[0] * K.volumes(0), rtol=1e-12
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
    assert _is_zero(dw.components[0] - (x - 0.5))
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


# -- chunked evaluation -------------------------------------------------------
#
# The kernel evaluates chunks of about forms._CHUNK_POINTS quadrature points.
# Shrinking the chunk forces many chunks on small meshes; a chunk larger
# than any mesh here gives one pass over all points.

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
    corners = _planes(K.vertices, K.simplices(k))
    kernel = forms_module._integrate_simplices
    # 101 is prime and every rule here has 1 to 72 points, so a 1000-point
    # chunk holds 2 to 100 simplices and the last chunk is always shorter;
    # the stretched copy mixes points in the domain and off it in a chunk
    for cells in (corners, corners[..., :101], 1.5 * corners[..., :101] - 0.25):
        for form in _kernel_forms(k):
            serial = _kernel_bytes(monkeypatch, ONE_CHUNK, kernel, form, cells)
            for chunk in (1, 1000):
                assert _kernel_bytes(monkeypatch, chunk, kernel, form, cells) == serial


@pytest.mark.parametrize("k", [0, 1, 2])
def test_kernel_values_follow_their_simplices_through_any_corner_layout(k):
    """The kernel reads its corners as x and y planes (2, k+1, N): a view
    with the simplices reversed gives the reversed values and a
    Fortran-ordered copy the same values, bit for bit.  At level 6 the
    reversal moves every chunk boundary of the k = 1 and k = 2 rules."""
    K = perturbed_mesh(6, seed=1)
    corners = _planes(K.vertices, K.simplices(k))
    kernel = forms_module._integrate_simplices
    for form in _kernel_forms(k):
        values = kernel(form, corners)
        assert kernel(form, corners[..., ::-1]).tobytes() == values[::-1].tobytes()
        assert kernel(form, np.asfortranarray(corners)).tobytes() == values.tobytes()


def test_kernel_evaluates_a_shared_component_once_per_chunk(monkeypatch):
    """u = p dx + p dy holds one Poly2 in both slots, so each chunk of the
    8-point line rule evaluates p once, not once per slot."""
    calls = []
    evaluate = Poly2.__call__
    monkeypatch.setattr(Poly2, "__call__", lambda p, x, y: calls.append(p) or evaluate(p, x, y))
    monkeypatch.setattr(forms_module, "_CHUNK_POINTS", 1000)
    K = perturbed_mesh(4, seed=1)
    u, _ = manufactured_solution(1)
    forms_module._integrate_simplices(u, _planes(K.vertices, K.simplices(1)))
    assert calls == [u.components[0]] * math.ceil(K.n_simplices(1) / (1000 // 8))


@pytest.mark.parametrize("m", [0, 1, 2])
def test_multi_chunk_de_rham_dual_is_bit_identical_to_one_chunk(m, monkeypatch):
    K = perturbed_mesh(3, seed=1)
    dual = build_dual(K)
    for form in _kernel_forms(m):
        serial = _kernel_bytes(monkeypatch, ONE_CHUNK, de_rham_dual, K, dual, form)
        for chunk in (1, 333):
            assert _kernel_bytes(monkeypatch, chunk, de_rham_dual, K, dual, form) == serial


def test_forms_functions_run_on_the_calling_thread(monkeypatch):
    """Every module-level function of forms, which includes every name a
    tracer may wrap (de_rham, the rule constructors, manufactured_solution,
    ...), and Poly2.__call__ are called only on the thread that called
    de_rham, however many chunks the kernel splits the points into."""
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
    assert {
        "de_rham", "de_rham_dual", "_integrate_simplices", "triangle_rule", "_to_barycentric",
        "Poly2.__call__",
    } <= set(calls)
    main = threading.get_ident()
    assert all(idents == {main} for idents in calls.values()), calls


def test_concurrent_callers_get_the_serial_result(monkeypatch):
    """More threads than cores call de_rham at once on the same fresh forms,
    whose domain coefficients are built lazily on first use, each call split
    into many chunks, with frequent thread switches: every result is still
    bit-identical to one pass."""
    monkeypatch.setattr(forms_module, "_CHUNK_POINTS", 300)
    K = perturbed_mesh(3, seed=3)

    def fresh_forms():
        return [w for k in (0, 1, 2) for w in manufactured_solution(k)]

    with monkeypatch.context() as serial:
        serial.setattr(forms_module, "_CHUNK_POINTS", ONE_CHUNK)
        expected = [de_rham(K, w).tobytes() for w in fresh_forms()]
    jobs = fresh_forms()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2 * (os.cpu_count() or 1) + 1) as callers:
            futures = [callers.submit(de_rham, K, w) for w in jobs * 3]
            got = [f.result(timeout=120).tobytes() for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected * 3


# Golden digests: SHA-256 of the float64 bytes of de_rham(K, w) on
# symmetric level 4 and perturbed (level 4, seed 2, alpha 0.15), recorded
# with the float64 evaluation in the domain's barycentric coordinates and
# line rules of d // 2 + 1 points (k = 1's f with g = L p shared by both
# slots, as manufactured_solution builds it).  They pin the longdouble
# coefficients of the forms (so 80-bit extended precision), the conversion,
# the evaluator and the BLAS order of vals @ rule.weights.  The benchmark
# compares its norms with reference values at rtol 1e-7; a change of
# evaluator or rule shows up here first, and must re-record both.
DE_RHAM_SHA256 = {
    ("symmetric", 0, "u"): "e994a06e15d24b4ca876a12c85e015ca2d0a0caab41347d7e10f6f3954002712",
    ("symmetric", 0, "f"): "83b93258f1e990a54a6a113c6b335cda6ba45757b6c9d6e01cd5e1b89396684f",
    ("symmetric", 1, "u"): "a116f7df83c883943733312462da2da69c1fbd2c7d81c2eab71575982c59fc7f",
    ("symmetric", 1, "f"): "81fe113ef15382b758f3537074750d4e712a9b3d713917306cf178d6ed8fb647",
    ("symmetric", 1, "du"): "1cf899233d1d8f6c06609cd7d81da75c4a7c680856a77182733a023e79fc0f9c",
    ("symmetric", 2, "u"): "6f49961ec746f066cab974ecd5554c1befe74dda8682623e9148d39b4859bf46",
    ("symmetric", 2, "f"): "387607ee7606e15353b2f2950c8f8ba3850428536b6b048829b993ff8988eaad",
    ("symmetric", 2, "du"): "d5b4c1e16b87fe97ad36e2851f611e1fcd61e750d9fd5c36e89f9f52e5b450e7",
    ("perturbed", 0, "u"): "2d5afab767f18cda9e72b7139d59f9cb31d9c7cb9a6430d2f0c79b1670728ac5",
    ("perturbed", 0, "f"): "a4df6e2f580980d81a0e6bf32ba033ac39c963d5bbabf385d4520ebb49810212",
    ("perturbed", 1, "u"): "66b12377ceba080bd3d39a68fde8a331c7800a912d877e5165d79d4d177005be",
    ("perturbed", 1, "f"): "800ede2cba0b7208a546a36e414c4aa237462536f7d1e0795c3549032c5d6b34",
    ("perturbed", 1, "du"): "4c6374ad0405a0e26941bc35c4c536d84ffd74e525cc9da8ca625c85b79aaf6b",
    ("perturbed", 2, "u"): "071f8c5043d0d0bc9060a0d94f9f8e23fb8931e088c59e7852502ec9832d44ab",
    ("perturbed", 2, "f"): "8b34e43f08df2c9aad467382e1d6d2efeb6b2b74850703b34b24865de4aada66",
    ("perturbed", 2, "du"): "52a487ad107a6c08f04af3c6f091611eac21dd010323f11a615ba4681368e448",
}


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63,
    reason="digests were recorded with 80-bit extended-precision coefficients",
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
