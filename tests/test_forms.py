"""Polynomial forms, quadrature, and the de Rham maps.

Oracles
-------
* Reference-triangle monomials: int x^a y^b = a! b! / (a + b + 2)!.
* Exact evaluation: the polynomial evaluator is compared with Fraction and
  integer arithmetic on the same coefficients, and its barycentric
  coefficients with an independent multinomial expansion of the monomials.
* Hand codifferential on the plane: delta(P dx + Q dy) = -(P_x + Q_y) and
  delta(R dx dy) = R_y dx - R_x dy, the formulas the library writes; its
  codifferential and Hodge Laplacian are checked against the compositions
  delta = (-1)^k star^{-1} d star and L = d delta + delta d (tests/oracles.py).
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
import tracemalloc
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
    manufactured_solution,
    symmetric_mesh,
    perturbed_mesh,
    triangle_rule,
)
from declab import forms as forms_module
from declab.complex import _planes
from oracles import (
    _cross2,
    codifferential_by_stars,
    coefficient,
    dense_barycentric_horner,
    exact_barycentric,
    hodge_laplacian_by_composition,
    integrate_over_simplex,
    product_simplex_mean,
    recorded_factors,
    recorded_product,
    same_bits,
)

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
    assert coefficient(q, 3, 0) == 1.0
    assert coefficient(x, 1, 0) == 1.0 and coefficient(x, 2, 5) == 0.0
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


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: Poly2(np.ones((2, 2, 2))), ValueError, "coefficients must form a 2-d array"),
        (lambda: Poly2.monomial(1, 0) ** -1, ValueError, "exponent must be a non-negative integer"),
        (lambda: Poly2.monomial(1, 0) ** 1.5, ValueError, "exponent must be a non-negative integer"),
        (lambda: Poly2.monomial(1, 0) ** True, ValueError, "exponent must be a non-negative integer"),
        (lambda: Poly2.monomial(True, 0), ValueError, r"exponents must be integers, got x\^True y\^0"),
        (lambda: Poly2.monomial(1.0, 0), ValueError, r"exponents must be integers, got x\^1.0 y\^0"),
        (lambda: Poly2.monomial(1, 0).deriv(2), ValueError, r"axis must be 0 \(x\) or 1 \(y\)"),
        (lambda: Poly2.monomial(1, 1).deriv(True), ValueError, r"or 1 \(y\), got True"),
        (lambda: Poly2.monomial(1, 1).deriv(1.0), ValueError, r"or 1 \(y\), got 1.0"),
        (lambda: Poly2.monomial(1, 0) * "x", TypeError, "cannot interpret str as a polynomial"),
        (lambda: "2" * Poly2.monomial(1, 0), TypeError, "cannot interpret str as a polynomial"),
        (lambda: PolyForm(3, (Poly2.zero(),)), ValueError, "no 3-forms in the plane"),
        (lambda: PolyForm(1.0, (Poly2.zero(), Poly2.zero())), ValueError, "no 1.0-forms in the plane"),
        (lambda: PolyForm(True, (Poly2.zero(), Poly2.zero())), ValueError, "no True-forms in the plane"),
        (lambda: PolyForm(1, (Poly2.zero(),)), ValueError, r"a 1-form needs 2 component\(s\), got 1"),
        (lambda: PolyForm(0, (2.0,)), ValueError, "component 0 of a 0-form must be a Poly2, got float"),
        (lambda: PolyForm(1, [Poly2.zero(), Poly2.zero()]), ValueError,
         "components must be a tuple of Poly2, got list"),
        (lambda: manufactured_solution(3), ValueError, "no 3-forms in the plane"),
        (lambda: manufactured_solution(1.0), ValueError, "no 1.0-forms in the plane"),
        (lambda: gauss_legendre_unit(0), ValueError, "need at least one quadrature point"),
        (lambda: triangle_rule(-1), ValueError, "degree must be non-negative"),
        (lambda: gauss_legendre_unit(True), ValueError, "quadrature point, got True"),
        (lambda: gauss_legendre_unit(2.0), ValueError, "quadrature point, got 2.0"),
        (lambda: triangle_rule(True), ValueError, "non-negative, got True"),
        (lambda: triangle_rule(2.5), ValueError, "non-negative, got 2.5"),
    ],
    ids=[
        "poly-3d", "pow-negative", "pow-float", "pow-bool", "monomial-bool", "monomial-float",
        "deriv-2", "deriv-bool", "deriv-float", "times-str", "str-times",
        "form-degree-3", "form-degree-float", "form-degree-bool", "form-components",
        "form-float-component", "form-list", "manufactured-3", "manufactured-float", "gauss-0",
        "triangle-negative", "gauss-bool", "gauss-float", "triangle-bool", "triangle-float",
    ],
)
def test_form_constructors_reject_bad_arguments(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_poly_vectorized_evaluation():
    p = Poly2.monomial(2, 1, 3.0) + Poly2.constant(-1.0)
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([1.0, 1.0, 0.5])
    np.testing.assert_allclose(p(xs, ys), 3.0 * xs**2 * ys - 1.0)


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
    # recorded products besides p: factors of mixed sign and size, repeated
    # and shared exponents, a negative scale
    x, y = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
    polys += [
        -3.5 * (x - 0.25 * y + 0.5) ** 3 * (2.0 * y - 1.0) ** 2 * (x + y),
        (1e3 * x) * (x - y) ** 4 * (1.0 - 1e-3 * y) ** 4,
        Poly2.monomial(1, 0) * Poly2.monomial(1, 0) * 0.125,
        (x + y - 1.0) ** 7,
    ]
    return polys


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


def _product_sums(p: Poly2, x: float, y: float, domain: bool) -> tuple[int, Fraction, ...]:
    """For p's recorded product s prod_i v_i^e_i, with s its float64 scale
    and v_i = sum_j b_ij t_j either over the domain coordinates t = l, b_ij
    the factors' float64 barycentric coefficients (domain), or over
    t = (1, x, y), b_ij their monomial coefficients rounded to float64: the
    total degree n, and exactly the value, |s| prod_i T_i^e_i with
    T_i = sum_j |b_ij t_j|, and
    |s| sum_i e_i (sum_j |b_ij|) T_i^(e_i - 1) prod_(m != i) T_m^e_m."""
    if domain:
        scale, factors = recorded_factors(p)
        t = exact_barycentric(x, y)
    else:
        scale = Fraction(float(p._product[0]))
        factors = [
            ([Fraction(coefficient(f, i, j)) for i, j in ((0, 0), (1, 0), (0, 1))], e)
            for f, e in p._product[1].items()
        ]
        t = [Fraction(1), Fraction(x), Fraction(y)]
    v = [sum(bj * tj for bj, tj in zip(b, t)) for b, _ in factors]
    T = [sum(abs(bj * tj) for bj, tj in zip(b, t)) for b, _ in factors]
    e = [ei for _, ei in factors]
    value = scale * math.prod(vi**ei for vi, ei in zip(v, e))
    terms = abs(scale) * math.prod(Ti**ei for Ti, ei in zip(T, e))
    grad = abs(scale) * sum(
        e[i] * sum(map(abs, b)) * T[i] ** (e[i] - 1)
        * math.prod(T[m] ** e[m] for m in range(len(T)) if m != i)
        for i, (b, _) in enumerate(factors)
    )
    return sum(e), value, terms, grad


def test_poly_evaluation_on_the_domain_is_accurate():
    """In-domain points against exact evaluation of the same float64
    coefficients B: within 3 n eps sum |B| l^alpha where the evaluator's
    coordinates are exact, and within 5 eps sum |B| |grad l^alpha| more at
    random points, whose coordinates it computes to 5 eps (|x|, |y| <= 1).
    A recorded product is held to the same bounds against exact evaluation
    of its float64 scale and factor coefficients, with |s| prod T_i^e_i and
    its gradient bound (_product_sums) for the term sums."""
    rng = np.random.default_rng(11)
    exact = _dyadic_domain_points()
    lam = rng.dirichlet([1.0, 1.0, 1.0], 24)
    rand = np.stack([lam[:, 1] + lam[:, 2] / 2, S * lam[:, 2]], axis=1)
    points = np.concatenate([exact, rand])
    products = 0
    for p in _evaluated_polys(rng):
        products += p._product is not None
        got = p(points[:, 0], points[:, 1])
        for q, ((x, y), value) in enumerate(zip(points, got)):
            if p._product is None:
                B = p._domain_coeffs()
                n = len(B) - 1
                want, terms, grad = _domain_sums(B, exact_barycentric(x, y))
            else:
                n, want, terms, grad = _product_sums(p, x, y, domain=True)
            slack = 0 if q < len(exact) else 5 * grad
            assert abs(Fraction(float(value)) - want) <= EPS * (3 * n * terms + slack), (p, q)
    assert products == 7


def test_poly_evaluation_off_the_domain_is_accurate():
    """Points off the domain take Horner in x and y: within a few n eps of
    the monomial term-magnitude sum of the exact longdouble coefficients.
    A recorded product takes it on each factor: within 3 n eps of
    |s| prod T_i^e_i of its coefficients rounded to float64 (_product_sums)."""
    rng = np.random.default_rng(12)
    xy = rng.uniform(-2.0, 2.0, (400, 2))
    lam = np.array([exact_barycentric(x, y) for x, y in xy], dtype=float)
    xy = xy[lam.min(axis=1) < -0.01][:40]
    # and the unit right triangle's part off the domain (criterion 6)
    xy = np.concatenate([xy, [[0.0, 1.0], [0.05, 0.5], [0.0, 0.25], [0.1, 0.8]]])
    for p in _evaluated_polys(rng):
        nx, ny = p.coeffs.shape
        got = p(xy[:, 0], xy[:, 1])
        for q, ((x, y), value) in enumerate(zip(xy, got)):
            if p._product is None:
                want, terms = _monomial_sums(p.coeffs, x, y)
                assert abs(Fraction(float(value)) - want) <= 2 * (nx + ny) * EPS * terms, (p, q)
            else:
                n, want, terms, _ = _product_sums(p, x, y, domain=False)
                assert abs(Fraction(float(value)) - want) <= 3 * n * EPS * terms, (p, q)


def test_poly_evaluation_shapes_and_points_in_and_off_the_domain():
    """Scalars give a float, arrays their broadcast shape, empty input an
    empty array; a point's value does not depend on the points passed with
    it, in the domain or off it."""
    rng = np.random.default_rng(13)
    xs = rng.uniform(-0.5, 1.5, 64)
    ys = rng.uniform(-0.5, 1.5, 64)
    xs[:3], ys[:3] = [0.0, 1.0, 0.5], [0.0, 0.0, S]  # the vertices
    lam = np.array([exact_barycentric(x, y) for x, y in zip(xs, ys)], dtype=float)
    inside = lam.min(axis=1) >= 0
    assert 8 < inside.sum() < 56
    for p in _evaluated_polys(rng):
        batch = p(xs, ys)
        alone = np.array([p(x, y) for x, y in zip(xs, ys)])
        assert same_bits(batch, alone)
        assert same_bits(p(xs.reshape(8, 8), ys.reshape(8, 8)), batch.reshape(8, 8))
        got = p(0.75, -1.25)
        assert type(got) is float
        assert same_bits(got, p(np.array([0.75]), np.array([-1.25]))[0])
        assert same_bits(p(0.5, ys), p(np.full_like(ys, 0.5), ys))
        empty = np.empty((0, 3))
        assert same_bits(p(empty, empty), empty)


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
        assert same_bits(value, np.float64(float(exact.get((a, b), 0)))), (a, b)
    got = _to_monomials(B, absolute=False)
    bound = _to_monomials(B, absolute=True)
    want = np.zeros(got.shape, dtype=object)
    for (i, j), c in np.ndenumerate(poly.coeffs):
        want[i, j] = Fraction(*c.as_integer_ratio())
    for (i, j), g in np.ndenumerate(got):
        assert abs(g - want[i, j]) <= EPS / 2 * (1 + EPS) * bound[i, j], (i, j)


def _zero_pattern_polys() -> list[Poly2]:
    """The manufactured u, f and delta u; polynomials whose B has whole zero
    rows and leading or trailing zeros in a row; and one dense random one.
    Products recorded as such (u and those built by * and **) are followed
    by their twins Poly2(p.coeffs), which record none, so that each B keeps
    its place on the Horner path."""
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
    return polys + [Poly2(p.coeffs) for p in polys if p._product is not None]


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
    return bool((got == want).all()) and same_bits(got[nonzero], want[nonzero])


def _dense_values(p: Poly2, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The dense homogeneous Horner of p's B, or for a recorded product its
    scale times its factors' dense Horner values to their powers."""
    if p._product is None:
        return dense_barycentric_horner(p._domain_coeffs(), xs, ys)
    return recorded_product(p, lambda f: dense_barycentric_horner(f._domain_coeffs(), xs, ys))


def test_poly_evaluation_is_bit_identical_to_the_dense_horner():
    """Skipping B's exact zeros changes no value and no bit of a nonzero
    value: every value, batched, alone and batched with a point off the
    domain, equals the dense homogeneous Horner's, on every platform (the
    oracle runs on the same float64 B); the sign of a zero is not pinned.  A
    recorded product's value is the same check on each of its factors,
    through recorded_product, and its twin's is the Horner of its B."""
    points = _edge_and_interior_points()
    xs, ys = points[:, 0], points[:, 1]
    l3 = ys / S
    l2 = xs - 0.5 * l3
    assert np.minimum(np.minimum(1.0 - l2 - l3, l2), l3).min() >= -1e-12  # all in the domain
    zeros, patterns, products = 0, set(), 0
    for p in _zero_pattern_polys():
        want = _dense_values(p, xs, ys)
        if p._product is None:
            zeros += np.count_nonzero(want == 0)
            patterns |= _zero_patterns(p._domain_coeffs())
        products += p._product is not None
        assert _same_value_and_nonzero_bits(p(xs, ys), want), p
        alone = np.array([p(x, y) for x, y in points])
        assert _same_value_and_nonzero_bits(alone, want), p
        # with a point off the domain, the others take the masked path
        mixed = p(np.append(xs, 2.0), np.append(ys, 2.0))
        assert _same_value_and_nonzero_bits(mixed[:-1], want), p
    assert patterns == {"zero row", "leading zeros", "trailing zeros"}
    assert zeros > 100  # zero values are checked, not just nonzero ones
    assert products == 9


def test_horner_plan_makes_one_multiply_add_per_nonzero_entry(monkeypatch):
    """The evaluator multiplies a power of l3 by a coefficient once for each
    nonzero entry of B and for no other (p's twin: 50 of 136), on the
    manufactured forms and on B with zero rows and leading and trailing
    zeros; a recorded product multiplies by a coefficient once for each
    nonzero entry of its factors' B and for no other (p: 5 times)."""
    points = _dyadic_domain_points()
    xs, ys = points[:, 0], points[:, 1]
    multiply, coefficients = np.multiply, []

    def counting(a, b, *args, **kwargs):
        if np.ndim(b) == 0:
            coefficients.append(b)
        return multiply(a, b, *args, **kwargs)

    for p in _zero_pattern_polys():
        if p._product is None:
            B = p._domain_coeffs()
            want = list(B[B != 0])
        else:
            want = [b for f in p._product[1] for b in f._domain_coeffs().ravel() if b]
        coefficients.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "multiply", counting)
            p(xs, ys)
        assert sorted(coefficients) == sorted(want), p
    p = manufactured_solution(0)[0].components[0]
    B = Poly2(p.coeffs)._domain_coeffs()
    assert (np.count_nonzero(B), len(B) * (len(B) + 1) // 2) == (50, 136)
    assert sum(np.count_nonzero(f._domain_coeffs()) for f in p._product[1]) == 5


def test_recorded_product_is_its_factors_values_bit_for_bit():
    """A recorded product's value is its float64 scale times each factor's
    own value (the factor evaluated as a polynomial by itself) to its
    power, in recorded_product's order, to the bit, zeros' signs included:
    batched, one point at a time, and with points off the domain, where
    each factor takes Horner in x and y."""
    off = [[2.0, 2.0], [-0.5, 0.3], [0.75, -1.25]]
    points = np.concatenate([_edge_and_interior_points(), off])
    xs, ys = points[:, 0], points[:, 1]
    products = [p for p in _zero_pattern_polys() if p._product is not None]
    assert len(products) == 9
    for p in products:
        want = recorded_product(p, lambda f: f(xs, ys))
        assert same_bits(p(xs, ys), want), p
        assert same_bits(np.array([p(x, y) for x, y in points]), want), p
        assert same_bits(p(xs[:-3], ys[:-3]), want[:-3]), p


@pytest.mark.parametrize("k", [0, 1, 2])
def test_manufactured_u_is_a_recorded_product_and_f_and_delta_u_are_not(k):
    """u = 1e8 (l1 l2 l3)^5 records its scale and three factors to the
    fifth power (l3 = (2 / sqrt 3) y takes its constant into the scale);
    f = L u and delta u are sums of derivatives and record nothing."""
    u, f = manufactured_solution(k)
    for c in u.components:
        scale, factors = c._product
        assert list(factors.values()) == [5, 5, 5]
        assert float(scale) == pytest.approx(1e8 * (2 / SQRT3) ** 5, rel=1e-15)
    others = f.components + (codifferential(u).components if k else ())
    assert all(c._product is None for c in others)


def test_sums_and_derivatives_drop_the_record_negation_and_scaling_keep_it():
    p = manufactured_solution(0)[0].components[0]
    x, y = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
    for dropped in (p + 0.0, 0.0 + p, p - 0.5 * p, p + p, p.deriv(0), p.deriv(1),
                    Poly2(p.coeffs), p * (x + y * y), x + y, 2.0 * Poly2.constant(3.0)):
        assert dropped._product is None
    scale, factors = p._product
    points = _edge_and_interior_points()
    xs, ys = points[:, 0], points[:, 1]
    for kept, s, values in (
        (-p, -scale, -p(xs, ys)),
        (2.0 * p, 2.0 * scale, 2.0 * p(xs, ys)),
        (p * -0.5, -0.5 * scale, -0.5 * p(xs, ys)),
    ):
        assert kept._product[0] == s and kept._product[1] == factors
        assert same_bits(kept(xs, ys), values)
    # a factor met again adds to its exponent, in the order first met
    assert list((x * y * x)._product[1].items()) == [(x, 2), (y, 1)]


@pytest.mark.parametrize("mesh", [(6,), (6, 1)], ids=["symmetric", "perturbed"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_de_rham_of_u_is_within_its_exact_integrals(mesh, k):
    """R(u) against E, the exact integral of u's recorded product over each
    simplex by the moments of the simplex's own barycentric coordinates
    (product_simplex_mean, no quadrature rule).

    On six interior simplices, the three domain-corner triangles and six
    triangles with an edge on the boundary, |R - E| <= 1e-13 |E| (measured
    at most 1.6e-14).  On every boundary vertex (k = 0) and edge (k = 1) a
    factor vanishes up to the rounding of the float64 vertices, so E is
    about 1e-80 and a point's rounding, about eps in each factor, moves
    R by as much: there |R - E| <= M_eps - M_0, M_d the integral of the
    bound |s| prod (|l_i| + d)^e_i, what moving every factor by d = eps can
    change (measured at most 0.03 of it).  The Horner over u's 50
    barycentric coefficients, 49 of them the residue of the longdouble
    expansion, missed both by far: on the top corner triangle here it gave
    1.3e-15 against an exact 5.1e-19, and 8.7e-17 against 3.2273e-26 on
    perturbed (8, 1)."""
    K = symmetric_mesh(*mesh) if len(mesh) == 1 else perturbed_mesh(*mesh)
    u, _ = manufactured_solution(k)
    (p,) = set(u.components)
    got = de_rham(K, u)
    cells = K.simplices(k).reshape(len(got), k + 1)
    rng = np.random.default_rng(17)
    inner = list(rng.choice(np.flatnonzero(~K.is_boundary(k)), 6, replace=False))
    boundary = list(np.flatnonzero(K.is_boundary(k)))
    if k == 2:
        on_boundary = K.is_boundary(0)[cells].sum(axis=1)
        corners = [np.argmin(np.hypot(*(K.vertices - c).T)) for c in ((0, 0), (1, 0), (0.5, S))]
        inner += [np.flatnonzero((cells == v).any(axis=1))[0] for v in corners]
        inner += list(rng.choice(np.flatnonzero(on_boundary == 2), 6, replace=False))
    for i in inner + boundary:
        xy = K.vertices[cells[i]].tolist()
        dx, dy = (Fraction(b) - Fraction(a) for a, b in zip(xy[0], xy[-1]))
        if k == 0:
            measure = magnitude = Fraction(1)
        elif k == 1:  # u = p dx + p dy along the ascending tangent
            measure, magnitude = dx + dy, abs(dx) + abs(dy)
        else:  # the area, signed by the ascending vertex order
            (ax, ay), (bx, by), (cx, cy) = (tuple(map(Fraction, v)) for v in xy)
            measure = ((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) / 2
            magnitude = abs(measure)
        want = measure * product_simplex_mean(p, xy)
        error = abs(Fraction(got[i]) - want)
        if i in boundary:
            moved = product_simplex_mean(p, xy, Fraction(EPS)) - product_simplex_mean(p, xy, Fraction(0))
            bound = magnitude * moved
        else:
            bound = Fraction(1, 10**13) * abs(want)
        assert error <= bound, (i, float(want), float(got[i]))


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


def test_star_pointwise_isometry():
    rng = np.random.default_rng(5)
    w = PolyForm(1, (Poly2.monomial(2, 1, 1.3), Poly2.monomial(0, 2, -0.7)))
    sw = hodge_star(w)
    for x, y in rng.uniform(0, 1, size=(20, 2)):
        a = w.components[0](x, y) ** 2 + w.components[1](x, y) ** 2
        b = sw.components[0](x, y) ** 2 + sw.components[1](x, y) ** 2
        assert a == pytest.approx(b, rel=1e-13)


def test_codifferential_hand_formulas():
    """The codifferential gives the flat-plane formulas
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


def _random_form(rng, k: int) -> PolyForm:
    """A k-form with random polynomial components of mixed size, sign and
    shape, some coefficients exactly zero."""
    comps = []
    for _ in range(2 if k == 1 else 1):
        c = rng.normal(scale=10.0 ** rng.integers(0, 6), size=rng.integers(1, 8, 2))
        c[rng.random(c.shape) < 0.3] = 0.0
        comps.append(Poly2(c))
    return PolyForm(k, tuple(comps))


def _close_forms(got: PolyForm, want: PolyForm) -> bool:
    """Same degree, and each component within longdouble rounding."""
    scale = max(_max_abs(c) for c in want.components) or 1.0
    return got.degree == want.degree and all(
        _max_abs(a - b) <= 1e-17 * scale for a, b in zip(got.components, want.components)
    )


@pytest.mark.parametrize("k", [0, 1, 2])
def test_form_operators_match_their_compositions_on_random_forms(k):
    """codifferential and hodge_laplacian, written in components, agree with
    delta = (-1)^k star^{-1} d star and L = d delta + delta d."""
    rng = np.random.default_rng(20 + k)
    for _ in range(20):
        w = _random_form(rng, k)
        if k:
            assert _close_forms(codifferential(w), codifferential_by_stars(w))
        assert _close_forms(hodge_laplacian(w), hodge_laplacian_by_composition(w))


def _same_coefficients(got: Poly2, want: Poly2) -> bool:
    """Equal monomial coefficients, compared by value and by sign bit."""
    a, b = got.coeffs, want.coeffs
    return a.shape == b.shape and bool((a == b).all() and (np.signbit(a) == np.signbit(b)).all())


@pytest.mark.parametrize("k", [0, 1, 2])
def test_form_operators_on_the_manufactured_u_are_their_compositions_bit_for_bit(k):
    """On the manufactured u, delta u has the bits of the star/d composition,
    and each slot of L u has the bits of the composition delta d on that
    slot as a function, the scalar L acts as on the flat frame (at k = 0
    that is the whole composition)."""
    u, _ = manufactured_solution(k)
    if k:
        got, want = codifferential(u), codifferential_by_stars(u)
        assert all(map(_same_coefficients, got.components, want.components))
    for c, g in zip(u.components, hodge_laplacian(u).components):
        (want,) = hodge_laplacian_by_composition(PolyForm(0, (c,))).components
        assert _same_coefficients(g, want)


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
    """d delta u + delta d u, composed from the two slots of u, is the
    oracle: its de Rham map differs from R(f) only by the rounding of the
    longdouble coefficients (4.1e-13 and 4.3e-13 of the maximum here)."""
    K = symmetric_mesh(*mesh) if len(mesh) == 1 else perturbed_mesh(*mesh)
    u, f = manufactured_solution(1)
    want = de_rham(K, hodge_laplacian_by_composition(u))
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
    8-point line rule evaluates p once, not once per slot.  1000 points
    give a chunk of 1000 // 8 = 125 simplices."""
    calls = []
    evaluate = Poly2.__call__
    monkeypatch.setattr(Poly2, "__call__", lambda p, x, y: calls.append(p) or evaluate(p, x, y))
    monkeypatch.setattr(forms_module, "_CHUNK_POINTS", 1000)
    K = perturbed_mesh(4, seed=1)
    u, _ = manufactured_solution(1)
    forms_module._integrate_simplices(u, _planes(K.vertices, K.simplices(1)))
    assert calls == [u.components[0]] * math.ceil(K.n_simplices(1) / 125)


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


def test_k2_de_rham_holds_its_result_and_one_chunk_at_most():
    """The traced peak of de_rham at k = 2 on perturbed (7, 1) stays within
    16 times its result plus 2.5 MB: the level's corner planes, edge vectors
    and areas take at most 15 doubles per triangle besides the result, and
    one chunk of _CHUNK_POINTS points, its table of powers of l3 (11 doubles
    per point) and its planes, under 2.5 MB (3.5 MB in all).  An (N, P)
    table of every point's value took R(u) to 12.8 MB."""
    K = perturbed_mesh(7, 1)
    for w in manufactured_solution(2):
        size = de_rham(K, w).nbytes  # also converts w's coefficients, once
        tracemalloc.start()
        try:
            de_rham(K, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * size + 2.5 * 2**20


# Golden digests: SHA-256 of the float64 bytes of de_rham(K, w) on
# symmetric level 4 and perturbed (level 4, seed 2, alpha 0.15), recorded
# with the float64 evaluation in the domain's barycentric coordinates and
# line rules of d // 2 + 1 points (k = 1's f with g = L p shared by both
# slots, as manufactured_solution builds it).  They pin the longdouble
# coefficients of the forms (so 80-bit extended precision), the conversion,
# the evaluator and numpy's sum of each simplex's weighted values along its
# row.  The six u digests were re-recorded when u began to evaluate as its
# recorded product, scale * (l1 l2 y)^5 by its factors.  The ten digests of
# integrals (k = 1 u and f, k = 2 u, f and delta u) were re-recorded when
# that sum replaced a BLAS matrix-vector product; the six point-value
# digests (k = 0 u and f, k = 1 delta u) stayed as they were.  The
# benchmark compares its norms with reference values at rtol 1e-7; a
# change of evaluator or rule shows up here first, and must re-record both.
DE_RHAM_SHA256 = {
    ("symmetric", 0, "u"): "dc8a2910d577e27c2c20cde907eedce3f163de23253a116806250d6b2f1dfdfc",
    ("symmetric", 0, "f"): "83b93258f1e990a54a6a113c6b335cda6ba45757b6c9d6e01cd5e1b89396684f",
    ("symmetric", 1, "u"): "6114ecd9414f10c7c464246455af3e147b6cf018ea40f5e58e9e941dcd7edb79",
    ("symmetric", 1, "f"): "ac5ae852f757b77d8772c93067687f6b31c1cdc773f1376b78bcf55cc3efb086",
    ("symmetric", 1, "du"): "1cf899233d1d8f6c06609cd7d81da75c4a7c680856a77182733a023e79fc0f9c",
    ("symmetric", 2, "u"): "9d8d1edf1aa88ce072b63d2f147678229b4a67eb006342b30a36019b0bf053ad",
    ("symmetric", 2, "f"): "d7ab1c2ea6a71b06b01edc1c3fcd68323bfa560861babd7c77501164664a76ee",
    ("symmetric", 2, "du"): "27a9d0b5da87d578770f11161c27d48ae011b720d3b15e23613b20b7ccc8c2f5",
    ("perturbed", 0, "u"): "860d8a1958dcb88cbf3a0c933788d8cf876efce73b03cdc88c4c58eb612bead7",
    ("perturbed", 0, "f"): "a4df6e2f580980d81a0e6bf32ba033ac39c963d5bbabf385d4520ebb49810212",
    ("perturbed", 1, "u"): "52e6c6c7d4e1c25e41afae7b1b1062c568272601172ed97aa0d75527c41009d5",
    ("perturbed", 1, "f"): "0dea7d97486ca0eb203013fb1e304324b4f8efe445a3487108424a11310f53d7",
    ("perturbed", 1, "du"): "4c6374ad0405a0e26941bc35c4c536d84ffd74e525cc9da8ca625c85b79aaf6b",
    ("perturbed", 2, "u"): "0da04cbea4a84fee5abe94b8187f7978768066999e60ca7f8846719c8f97c28e",
    ("perturbed", 2, "f"): "463a439b3f8e2e78ed45cbdecfd93441d936ab3ce69aa6780ffee903f033a24a",
    ("perturbed", 2, "du"): "bc6384159badcfa0bdf6009fca014323a4a0abdf8b73b04d72befe72c0b098f1",
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
