"""Polynomial differential forms on R^2 and exact-degree quadrature.

Forms are represented with dense bivariate polynomial components.  The
basis conventions (with the Euclidean metric and volume form dx ^ dy):

    star 1    = dx ^ dy        star dx = dy
    star (dx ^ dy) = 1         star dy = -dx

so star star = (-1)^(k (2-k)) on k-forms (i.e. -1 on 1-forms).  Each
operator is written once, as its component formula.  The codifferential
delta = (-1)^k star^{-1} d star on k-forms works out to

    delta (P dx + Q dy)  = -(P_x + Q_y)
    delta (R dx ^ dy)    =  R_y dx - R_x dy ,

and the Hodge Laplacian L = d delta + delta d (undefined halves dropped at
k = 0 and k = 2) acts on each component in the flat frame dx, dy, dx ^ dy
as the scalar delta d, the *negative* of the classical Laplacian:
L p = -(p_xx + p_yy).  The compositions themselves are the tests' oracles.

Polynomial coefficients are stored and combined in extended precision
(``np.longdouble``):  the manufactured solutions below expand into
monomial coefficients of magnitude ~1e10 that cancel down to O(1) values,
and double-precision Horner on them would leave ~1e-8 absolute noise.
Evaluation does not run on them.  A product such as p = 1e8 (l1 l2 l3)^5
evaluates as its scale times its affine factors' values to their powers,
13 operations per point on p.  A sum, such as f, is converted once,
exactly, to its coefficients in the domain's barycentric coordinates
(l1, l2, l3), each in [0, 1] on the domain, so nothing cancels; the
homogeneous Horner on them runs in float64 and skips their exact zeros,
about 161 operations per point on f instead of 420, and every nonzero
value has the dense Horner's bits.  Against exact evaluation of the same
coefficients at 300 random points of the domain the error is 1.3e-12 on f
(maximum 1.25e3).  Points off the domain, which no de Rham map of a domain
mesh reaches, take float64 Horner in x and y.

Quadrature: Gauss-Legendre on [0, 1] for line integrals, and a collapsed
tensor-product (Duffy) rule on the reference triangle
{(x, y) : x, y >= 0, x + y <= 1} that is exact for any requested total
degree.  One private kernel, ``_integrate_simplices``, integrates a k-form
over oriented k-simplices given by the x and y planes of their corners,
simplices innermost; the primal de Rham map and the dual de Rham map (over
circumcenters, dual segments and flag triangles) both go through it.  It
sums its quadrature in chunks, on the calling thread, bit-identical to one
pass over all points.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .complex import SimplicialComplex, _cross, _is_int, _planes
from .dual import DualComplex, _dual_cells

__all__ = [
    "Poly2",
    "PolyForm",
    "QuadratureRule",
    "exterior_derivative",
    "hodge_star",
    "codifferential",
    "hodge_laplacian",
    "manufactured_solution",
    "gauss_legendre_unit",
    "triangle_rule",
    "de_rham",
    "de_rham_dual",
]


class Poly2:
    """Bivariate polynomial sum_{i,j} c[i, j] x^i y^j.

    Coefficients are finite, kept and combined in ``np.longdouble``;
    evaluation runs in float64.  A product (``*``, ``**``) of constants,
    degree-1 polynomials and recorded products records its scale and its
    affine factors, each object once with its exponent, and evaluates as them;
    negation and scalar multiplication keep the record, and sums, ``deriv``
    and the constructors make none.  Other polynomials evaluate by their
    exact conversion to the domain's barycentric coordinates, made on first
    use (see the module docstring).  Instances are immutable by convention
    (operations return new polynomials) and trailing all-zero coefficient
    rows/columns are trimmed on construction.
    """

    __slots__ = ("coeffs", "_domain", "_product")

    def __init__(self, coeffs):
        c = np.atleast_2d(np.asarray(coeffs, dtype=np.longdouble)).copy()
        if c.ndim != 2:
            raise ValueError("coefficients must form a 2-d array")
        if c.size == 0:
            raise ValueError("coefficients must not be empty")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        while c.shape[0] > 1 and not c[-1].any():
            c = c[:-1]
        while c.shape[1] > 1 and not c[:, -1].any():
            c = c[:, :-1]
        self.coeffs = c
        self._domain = None
        # (scale, Counter({factor: exponent})) of a recorded product, else None
        self._product = None

    @classmethod
    def constant(cls, value) -> "Poly2":
        return cls(np.array([[value]], dtype=np.longdouble))

    @classmethod
    def zero(cls) -> "Poly2":
        return cls.constant(0.0)

    @classmethod
    def monomial(cls, i: int, j: int, coeff=1.0) -> "Poly2":
        _check_exponents(i, j)
        c = np.zeros((i + 1, j + 1), dtype=np.longdouble)
        c[i, j] = coeff
        return cls(c)

    @property
    def degree(self) -> int:
        """Total degree (0 for the zero polynomial)."""
        nz = np.nonzero(self.coeffs)
        if len(nz[0]) == 0:
            return 0
        return int((nz[0] + nz[1]).max())

    def __add__(self, other) -> "Poly2":
        other = _as_poly(other)
        n = max(self.coeffs.shape[0], other.coeffs.shape[0])
        m = max(self.coeffs.shape[1], other.coeffs.shape[1])
        out = np.zeros((n, m), dtype=np.longdouble)
        out[: self.coeffs.shape[0], : self.coeffs.shape[1]] = self.coeffs
        out[: other.coeffs.shape[0], : other.coeffs.shape[1]] += other.coeffs
        return Poly2(out)

    def __radd__(self, other) -> "Poly2":
        return self.__add__(other)

    def __neg__(self) -> "Poly2":
        out = Poly2(-self.coeffs)
        out._product = self._product and (-self._product[0], self._product[1])
        return out

    def __sub__(self, other) -> "Poly2":
        return self.__add__(-_as_poly(other))

    def __rsub__(self, other) -> "Poly2":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Poly2":
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        out = np.zeros(
            (a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
            dtype=np.longdouble,
        )
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                if a[i, j] != 0:
                    out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
        out = Poly2(out)
        left, right = _factored(self), _factored(other)
        if left and right and (factors := left[1] + right[1]):
            out._product = (left[0] * right[0], factors)
        return out

    def __rmul__(self, other) -> "Poly2":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Poly2":
        if not _is_int(n) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        return _power(self, int(n)) if n else Poly2.constant(1.0)

    def deriv(self, axis: int) -> "Poly2":
        """Partial derivative: axis 0 -> d/dx, axis 1 -> d/dy."""
        if not _is_int(axis) or axis not in (0, 1):
            raise ValueError(f"axis must be 0 (x) or 1 (y), got {axis!r}")
        c = np.moveaxis(self.coeffs, axis, 0)
        if len(c) == 1:
            return Poly2.zero()
        i = np.arange(1, len(c), dtype=np.longdouble)
        return Poly2(np.moveaxis(c[1:] * i[:, None], 0, axis))

    def _domain_coeffs(self) -> np.ndarray:
        """The float64 B[a, b] of l1^a l2^b l3^(n-a-b), made on first use."""
        if self._domain is None:
            self._domain = _to_barycentric(self.coeffs, self.degree)
        return self._domain

    def __call__(self, x, y):
        """Evaluate at points, in float64.

        Points within _MARGIN of the domain take _horner, the homogeneous
        Horner of _domain_coeffs: there every l is in [0, 1], so the error
        stays within a small multiple of n eps sum |B| l^alpha, and every
        nonzero value has the dense Horner's bits.  Other points take Horner
        in x and y on the coefficients rounded to float64; a recorded
        product's factors take these paths (_values).  A point's path and
        value depend on that point alone.  Scalar x and y give a float;
        otherwise an array of their broadcast shape.
        """
        xs, ys = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (x, y)))
        l3 = ys / _S
        l2 = xs - 0.5 * l3
        l1 = 1.0 - l2 - l3
        inside = np.minimum(np.minimum(l1, l2), l3) >= -_MARGIN
        if inside.all():  # always so on a domain mesh
            out = self._values(True, np.ravel(l1), np.ravel(l2), np.ravel(l3)).reshape(xs.shape)
        else:
            out = np.empty(xs.shape)
            out[inside] = self._values(True, l1[inside], l2[inside], l3[inside])
            out[~inside] = self._values(False, xs[~inside], ys[~inside])
        return float(out) if np.isscalar(x) and np.isscalar(y) else out

    def _values(self, domain: bool, *points) -> np.ndarray:
        """Values at 1-d arrays of barycentric coordinates (domain) or of x
        and y.  A recorded product is scale * P_1 * P_2 * ..., exponents e
        ascending, P_e its factors of exponent e multiplied in record order
        to the power e, each factor valued as it would be by itself."""
        if self._product is None:
            return self._horner(*points) if domain else self._xy_horner(*points)
        scale, factors = self._product
        groups = {}
        for factor, e in factors.items():
            v = factor._affine(*points) if domain else factor._xy_horner(*points)
            groups[e] = groups[e] * v if e in groups else v
        return math.prod((_power(groups[e], e) for e in sorted(groups)), start=float(scale))

    def _affine(self, l1, l2, l3) -> np.ndarray:
        """A degree-1 polynomial's B[1, 0] l1 + (B[0, 1] l2 + B[0, 0] l3) over
        B's nonzero entries: the terms and sums, so the bits, of _horner."""
        B = self._domain_coeffs()
        terms = [np.multiply(l, b) for b, l in ((B[0, 0], l3), (B[0, 1], l2), (B[1, 0], l1)) if b]
        return sum(terms[1:], terms[0])

    def _xy_horner(self, x, y) -> np.ndarray:
        """Horner in x and y on the coefficients rounded to float64."""
        c = self.coeffs.astype(np.float64)
        acc = np.zeros_like(x)
        for i in range(c.shape[0] - 1, -1, -1):
            row = np.full_like(x, c[i, -1])
            for j in range(c.shape[1] - 2, -1, -1):
                row = row * y + c[i, j]
            acc = acc * x + row
        return acc

    def _horner(self, l1, l2, l3) -> np.ndarray:
        """The homogeneous Horner of B at 1-d arrays of barycentric
        coordinates: an outer Horner in l1 over the rows a = n down to 0, and
        in each row a Horner in l2 from its first nonzero entry down to b = 0
        that adds power[m - low] * B[a, b], m = n - a - b, at nonzero entries
        only; acc takes no work before the first non-empty row.

        Skipping a zero adds an exact zero, so each intermediate equals the
        dense Horner's in value and every nonzero result has its bits; a zero
        result may differ in sign.
        """
        B = self._domain_coeffs()
        n = len(B) - 1
        used = (n - np.add(*np.nonzero(B))).tolist() or [0]  # powers of l3
        low, top = min(used), max(used)
        # l3^m by running products, kept in power[m - low] for m >= low
        power = np.empty((top - low + 1, len(l3)))
        power[0] = 1.0
        for m in range(1, top + 1):
            np.multiply(power[max(m - 1 - low, 0)], l3, out=power[max(m - low, 0)])
        acc, term = None, np.empty_like(l3)
        for a, coeffs in zip(range(n, -1, -1), B[::-1].tolist()):
            if acc is not None:
                acc *= l1
            row = None
            for b in range(n - a, -1, -1):
                if row is not None:
                    row *= l2
                if not coeffs[b]:
                    continue
                if row is None:
                    row = np.multiply(power[n - a - b - low], coeffs[b])
                else:
                    row += np.multiply(power[n - a - b - low], coeffs[b], out=term)
            if row is not None:
                acc = row if acc is None else np.add(acc, row, out=acc)
        return np.zeros_like(l3) if acc is None else acc

    def __repr__(self) -> str:
        return f"Poly2(degree={self.degree}, shape={self.coeffs.shape})"


# the domain's barycentric coordinates: x = l2 + l3 / 2, y = _S l3 and
# l1 = 1 - l2 - l3, with _S the float64 sqrt(3)/2; points on the domain's
# edges round at most a few ulps outside it, far inside -_MARGIN
_S = np.sqrt(3.0) / 2.0
_MARGIN = 1e-12


def _to_barycentric(coeffs: np.ndarray, n: int) -> np.ndarray:
    """B[a, b] of l1^a l2^b l3^(n-a-b) for sum c[i, j] x^i y^j of total
    degree n: converted exactly, in Python ints, and each rounded once.

    The longdouble coefficients, 1/2 and _S = s / d are dyadic.  With L their
    common denominator and w = l1 + l2 + l3 = 1, 2^n d^n L p is the sum over
    i of (2 l2 + l3)^i 2^(n-i) sum_j L c[i, j] s^j d^(n-j) l3^j w^(n-i-j),
    by Horner in i.  Object arrays over [a, b] hold homogeneous polynomials,
    the power of l3 implied by the degree; int / int rounds correctly.
    """
    ratios = [[v.as_integer_ratio() for v in row] for row in coeffs]
    common = max(den for row in ratios for _, den in row)
    s, d = _S.as_integer_ratio()
    w = [np.ones((1, 1), dtype=object)]  # w^k over [a, b], a + b <= k
    for k in range(n):  # times l1 + l2 + l3: shifts in a and in b, and none
        w.append(np.zeros((k + 2, k + 2), dtype=object))
        for da, db in ((1, 0), (0, 1), (0, 0)):
            w[-1][da : k + 1 + da, db : k + 1 + db] += w[k]
    acc = np.zeros((n + 1, n + 1), dtype=object)
    for i in range(len(ratios) - 1, -1, -1):
        acc[:, 1:] += 2 * acc[:, :-1]  # times 2 l2 + l3
        for j, (num, den) in enumerate(ratios[i]):
            if num:
                k, scaled = n - i - j, num * (common // den) * s**j * d ** (n - j) << (n - i)
                acc[: k + 1, : k + 1] += scaled * w[k]
    scale = common * 2**n * d**n
    return np.array([[v / scale for v in row] for row in acc], dtype=np.float64)


def _factored(p: Poly2):
    """p's product record, or the record of p as one: p's value and no
    factor for a constant, 1 and p itself at degree 1; None for any other p."""
    if p._product is not None or p.degree > 1:
        return p._product
    if p.coeffs.size == 1:
        return p.coeffs[0, 0], Counter()
    return np.longdouble(1.0), Counter({p: 1})


def _power(v, e: int):
    """v^e for e >= 1: the product, lowest bit first, of v^(2^i) over the
    set bits i of e, by repeated squaring."""
    out = v if e & 1 else None
    while e := e >> 1:
        v = v * v
        if e & 1:
            out = v if out is None else out * v
    return out


def _check_exponents(i: int, j: int) -> None:
    if not (_is_int(i) and _is_int(j)):
        raise ValueError(f"monomial exponents must be integers, got x^{i} y^{j}")
    if i < 0 or j < 0:
        raise ValueError(f"monomial exponents must be non-negative, got x^{i} y^{j}")


def _as_poly(value) -> Poly2:
    if isinstance(value, Poly2):
        return value
    if isinstance(value, Real):  # np.isscalar would take "2" for 2
        return Poly2.constant(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a polynomial")


@dataclass(frozen=True)
class PolyForm:
    """A polynomial k-form on R^2.

    components: (p,) for k = 0; (P, Q) meaning P dx + Q dy for k = 1;
    (R,) meaning R dx ^ dy for k = 2.
    """

    degree: int
    components: tuple[Poly2, ...]

    def __post_init__(self):
        expected = {0: 1, 1: 2, 2: 1}
        if not _is_int(self.degree) or self.degree not in expected:
            raise ValueError(f"no {self.degree}-forms in the plane")
        if not isinstance(self.components, tuple):
            raise ValueError(
                f"components must be a tuple of Poly2, got {type(self.components).__name__}"
            )
        if len(self.components) != expected[self.degree]:
            raise ValueError(
                f"a {self.degree}-form needs {expected[self.degree]} "
                f"component(s), got {len(self.components)}"
            )
        for slot, c in enumerate(self.components):
            if not isinstance(c, Poly2):
                raise ValueError(
                    f"component {slot} of a {self.degree}-form must be a Poly2, "
                    f"got {type(c).__name__}"
                )

    @property
    def poly_degree(self) -> int:
        return max(c.degree for c in self.components)


def exterior_derivative(form: PolyForm) -> PolyForm:
    """d: k-forms -> (k+1)-forms.  Undefined for 2-forms in the plane."""
    if form.degree == 0:
        (p,) = form.components
        return PolyForm(1, (p.deriv(0), p.deriv(1)))
    if form.degree == 1:
        p, q = form.components
        return PolyForm(2, (q.deriv(0) - p.deriv(1),))
    raise ValueError("no exterior derivative of a 2-form in the plane")


def hodge_star(form: PolyForm) -> PolyForm:
    if form.degree == 0:
        return PolyForm(2, form.components)
    if form.degree == 1:
        p, q = form.components
        return PolyForm(1, (-q, p))
    return PolyForm(0, form.components)


def codifferential(form: PolyForm) -> PolyForm:
    """delta = (-1)^k star^{-1} d star: k-forms -> (k-1)-forms (k >= 1), in
    components delta(P dx + Q dy) = -(P_x + Q_y), delta(R dx ^ dy) = R_y dx - R_x dy."""
    if form.degree == 1:
        p, q = form.components
        return PolyForm(0, (-(p.deriv(0) + q.deriv(1)),))
    if form.degree == 2:
        (r,) = form.components
        return PolyForm(1, (r.deriv(1), -r.deriv(0)))
    raise ValueError("no codifferential of a 0-form")


def hodge_laplacian(form: PolyForm) -> PolyForm:
    """L = d delta + delta d, which on the flat frame dx, dy, dx ^ dy acts on
    each component c as the scalar delta d c = -(c_xx + c_yy).  A component
    shared between slots (u = p dx + p dy) stays one polynomial."""
    scalar = {
        c: codifferential(exterior_derivative(PolyForm(0, (c,)))).components[0]
        for c in set(form.components)
    }
    return PolyForm(form.degree, tuple(scalar[c] for c in form.components))


def manufactured_solution(k: int) -> tuple[PolyForm, PolyForm]:
    """Reference problem on the unit equilateral triangle.

    The scalar field is a scaled fifth power of the barycentric bubble,

        p = 1e8 (l1 l2 l3)^5 ,     degree 15,

    whose value and first four derivative orders vanish on the domain
    boundary, so p (as a k-form: p, p dx + p dy, or p dx ^ dy) satisfies
    both natural and essential boundary conditions of the Hodge
    Laplacian.  Returns (u, f) with f = L u (degree 13): g = -(p_xx + p_yy)
    in each slot of u, one polynomial shared by both slots at k = 1, where
    the de Rham map then evaluates it once per point.
    """
    if not _is_int(k) or k not in (0, 1, 2):
        raise ValueError(f"no {k}-forms in the plane")
    inv_sqrt3 = np.longdouble(1.0) / np.sqrt(np.longdouble(3.0))
    x = Poly2.monomial(1, 0)
    y = Poly2.monomial(0, 1)
    lam1 = 1.0 - x - inv_sqrt3 * y
    lam2 = x - inv_sqrt3 * y
    lam3 = (2.0 * inv_sqrt3) * y
    p = (lam1 * lam2 * lam3) ** 5 * 1.0e8
    u = PolyForm(k, (p, p) if k == 1 else (p,))
    return u, hodge_laplacian(u)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on a reference domain, with tracked exactness.

    points: (m,) parameters on [0, 1] for line rules, (m, 2) coordinates
    in the reference triangle for area rules.
    """

    points: np.ndarray
    weights: np.ndarray
    exactness: int


def gauss_legendre_unit(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [0, 1]; exact through degree 2n - 1."""
    if not _is_int(n) or n < 1:
        raise ValueError(f"need at least one quadrature point, got {n!r}")
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w, 2 * n - 1)


def triangle_rule(degree: int) -> QuadratureRule:
    """Quadrature on the reference triangle, exact for total degree <= degree.

    Collapsed tensor product: x = u (1 - v), y = v with Jacobian (1 - v),
    so a monomial x^a y^b becomes u^a (1-v)^(a+1) v^b — degree <= `degree`
    in u and <= degree + 1 in v, which fixes the two Gauss sizes.  Weights
    are positive and sum to 1/2.
    """
    if not _is_int(degree) or degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree!r}")
    nu = degree // 2 + 1
    nv = (degree + 1) // 2 + 1
    ru = gauss_legendre_unit(nu)
    rv = gauss_legendre_unit(nv)
    u = np.repeat(ru.points, nv)
    v = np.tile(rv.points, nu)
    w = np.repeat(ru.weights, nv) * np.tile(rv.weights, nu) * (1.0 - v)
    pts = np.stack([u * (1.0 - v), v], axis=1)
    return QuadratureRule(pts, w, degree)


# a chunk's table of powers of l3 holds 10 or 11 doubles per point on the
# manufactured forms: chunks of 32768 points ran up to 8 % faster but raised
# the benchmark's peak RSS by 6 %, 16384 left it flat
_CHUNK_POINTS = 16384


def _integrate_simplices(form: PolyForm, corners: np.ndarray) -> np.ndarray:
    """Integrals of a k-form over N oriented k-simplices: the one quadrature
    kernel behind every de Rham map.

    corners: x and y planes (2, k+1, N); the corner order of each simplex
    is its orientation.
    k = 0 takes point values, k = 1 a Gauss-Legendre rule along each segment
    applied to (P, Q) . t, and k = 2 the collapsed triangle rule times the
    signed determinant of the edge vectors.  The rule is sized to the
    polynomial degree, so values are exact up to roundoff.  Rules are built
    per call through the module-level constructors (no cache), so a wrapper
    installed on those names sees every rule built.

    Points are built as (P, n) planes x = x_0 + sum_i xi_i (x_i - x_0) and
    likewise y, simplices innermost, and evaluated in chunks of about
    _CHUNK_POINTS, which bounds the table of powers of l3 that
    Poly2.__call__ builds per chunk.  Each value depends on its own simplex
    only, and each simplex sums its P weighted values along one contiguous
    row, so the result is bit-identical to one pass whatever the chunk size.
    """
    k = form.degree
    if k == 1:
        rule = gauss_legendre_unit(form.poly_degree // 2 + 1)
    elif k == 2:
        rule = triangle_rule(max(form.poly_degree, 2))
    # point values are a one-point evaluation
    xi = rule.points.reshape(len(rule.weights), k) if k else np.zeros((1, 0))
    n, step = corners.shape[-1], max(1, _CHUNK_POINTS // len(xi))
    cx, cy = corners
    ex, ey = cx[1:] - cx[0], cy[1:] - cy[0]  # edge vectors from corner 0
    out = np.empty(n)
    for lo in range(0, n, step):
        s = slice(lo, lo + step)
        x, y = cx[None, 0, s], cy[None, 0, s]
        for i in range(k):
            x = x + xi[:, i, None] * ex[i, s]
            y = y + xi[:, i, None] * ey[i, s]
        # a component shared between slots (u = p dx + p dy) is evaluated
        # once; Poly2 hashes by identity
        values = {c: c(x, y) for c in set(form.components)}
        vals = [values[c] for c in form.components]
        if k == 0:
            out[s] = vals[0][0]
        else:
            block = vals[0] * ex[0, s] + vals[1] * ey[0, s] if k == 1 else vals[0]
            out[s] = (np.ascontiguousarray(block.T) * rule.weights).sum(axis=1)
    return _cross(cx, cy) * out if k == 2 else out


# ---------------------------------------------------------------------------
# de Rham maps
# ---------------------------------------------------------------------------


def de_rham(K: SimplicialComplex, form: PolyForm) -> np.ndarray:
    """Integrate a k-form over every oriented k-simplex of the complex.

    Vertices get point values; edges get line integrals along the
    ascending-vertex tangent; triangles get area integrals signed by the
    orientation of the ascending vertex tuple.  Quadrature is sized to the
    polynomial degree, so values are exact up to roundoff.
    """
    return _integrate_simplices(form, _planes(K.vertices, K.simplices(form.degree)))


def de_rham_dual(
    K: SimplicialComplex, dual: DualComplex, form: PolyForm
) -> np.ndarray:
    """Integrate an m-form over the dual cells of the (2 - m)-simplices.

    The cells are ``dual._dual_cells``', oriented so that constant forms make
    the dual-averaging and primal de Rham maps agree exactly: the
    circumcenter of T carries the sign of T's ascending vertex orientation
    (m = 0), each segment [c(e), c(T)] runs along the +90-degree rotation of
    e's ascending tangent (m = 1), and the flag triangles are positively
    oriented (m = 2).
    """
    k = 2 - form.degree
    owner, pieces, measure = _dual_cells(K, dual.circumcenters, k)
    # the kernel orients each piece by its corner order (and signs a flag's
    # area by it); the sign of its measure turns that into the dual cell's
    out = np.zeros(K.n_simplices(k))
    np.add.at(out, owner, np.sign(measure) * _integrate_simplices(form, pieces))
    return out
