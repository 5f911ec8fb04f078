"""Polynomial differential forms on R^2 and exact-degree quadrature.

Forms are represented with dense bivariate polynomial components.  The
basis conventions (with the Euclidean metric and volume form dx ^ dy):

    star 1    = dx ^ dy        star dx = dy
    star (dx ^ dy) = 1         star dy = -dx

so star star = (-1)^(k (2-k)) on k-forms (i.e. -1 on 1-forms).  The
codifferential is

    delta = (-1)^k  star^{-1} d star      on k-forms,

which works out to

    delta (P dx + Q dy)  = -(P_x + Q_y)
    delta (R dx ^ dy)    =  R_y dx - R_x dy ,

and the Hodge Laplacian is  L = d delta + delta d  (undefined halves
dropped at k = 0 and k = 2).  On functions this is the *negative* of the
classical Laplacian:  L p = -(p_xx + p_yy).

Polynomial coefficients are stored and combined in extended precision
(``np.longdouble``):  the manufactured solutions below expand into
monomial coefficients of magnitude ~1e10 that cancel down to O(1) values,
and double-precision Horner on them would leave ~1e-8 absolute noise.
Evaluation does not run on them.  Each polynomial is converted once,
exactly, to its coefficients in the domain's barycentric coordinates
(l1, l2, l3), in which p = 1e8 (l1 l2 l3)^5 is one term and every l lies
in [0, 1] on the domain, so nothing cancels; the homogeneous Horner on
them runs in float64.  It skips the exact zeros of those coefficients
(86 of p's 136), about 163 operations per point on p and 161 on f instead
of 544 and 420, and every nonzero value has the dense Horner's bits.
Against exact evaluation of the same coefficients at 300 random points of
the domain the error is 8.0e-15 on the manufactured u (maximum 6.97) and
1.3e-12 on f (maximum 1.25e3).  Points off the domain, which no de Rham
map of a domain mesh reaches, take float64 Horner in x and y.

Quadrature: Gauss-Legendre on [0, 1] for line integrals, and a collapsed
tensor-product (Duffy) rule on the reference triangle
{(x, y) : x, y >= 0, x + y <= 1} that is exact for any requested total
degree.  One private kernel, ``_integrate_simplices``, integrates a k-form
over oriented k-simplices given by the x and y planes of their corners,
simplices innermost; the primal de Rham map and the dual de Rham map (over
circumcenters, dual segments and flag triangles) both go through it.  It
evaluates its points in chunks, on the calling thread, bit-identical to one
pass over all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex import SimplicialComplex, _cross, _planes
from .dual import DualComplex, _flags

__all__ = [
    "Poly2",
    "PolyForm",
    "QuadratureRule",
    "exterior_derivative",
    "hodge_star",
    "hodge_star_inverse",
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
    evaluation runs in float64 on their exact conversion to the domain's
    barycentric coordinates, made on first use, skipping its exact zeros:
    every nonzero value has the dense Horner's bits (see the module
    docstring).  Instances are immutable by convention (operations return
    new polynomials) and trailing all-zero coefficient rows/columns are
    trimmed on construction.
    """

    __slots__ = ("coeffs", "_domain")

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

    def coefficient(self, i: int, j: int) -> float:
        """The coefficient of x^i y^j (0 beyond the stored array)."""
        _check_exponents(i, j)
        n, m = self.coeffs.shape
        if i >= n or j >= m:
            return 0.0
        return float(self.coeffs[i, j])

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
        return Poly2(-self.coeffs)

    def __sub__(self, other) -> "Poly2":
        return self.__add__(-_as_poly(other))

    def __rsub__(self, other) -> "Poly2":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Poly2":
        if np.isscalar(other) or isinstance(other, (int, float, np.floating)):
            return Poly2(self.coeffs * np.longdouble(other))
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
        return Poly2(out)

    def __rmul__(self, other) -> "Poly2":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Poly2":
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = Poly2.constant(1.0)
        base = self
        e = int(n)
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def deriv(self, axis: int) -> "Poly2":
        """Partial derivative: axis 0 -> d/dx, axis 1 -> d/dy."""
        c = self.coeffs
        if axis == 0:
            if c.shape[0] == 1:
                return Poly2.zero()
            i = np.arange(1, c.shape[0], dtype=np.longdouble)
            return Poly2(c[1:] * i[:, None])
        if axis == 1:
            if c.shape[1] == 1:
                return Poly2.zero()
            j = np.arange(1, c.shape[1], dtype=np.longdouble)
            return Poly2(c[:, 1:] * j[None, :])
        raise ValueError("axis must be 0 (x) or 1 (y)")

    def _domain_coeffs(self) -> np.ndarray:
        """The float64 B[a, b] of l1^a l2^b l3^(n-a-b), made on first use
        together with the monomial coefficients rounded to float64, which
        __call__ reads off the domain."""
        if self._domain is None:
            B = _to_barycentric(self.coeffs, self.degree)
            self._domain = (B, self.coeffs.astype(np.float64))
        return self._domain[0]

    def __call__(self, x, y):
        """Evaluate at points, in float64.

        Points within _MARGIN of the domain take _horner, the homogeneous
        Horner of _domain_coeffs: there every l is in [0, 1], so the error
        stays within a small multiple of n eps sum |B| l^alpha, and every
        nonzero value has the dense Horner's bits.  Other points take Horner
        in x and y on the coefficients rounded to float64.  A point's path
        and value depend on that point alone.  Scalar x and y give a float;
        otherwise an array of their broadcast shape.
        """
        xs, ys = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (x, y)))
        l3 = ys / _S
        l2 = xs - 0.5 * l3
        l1 = 1.0 - l2 - l3
        inside = np.minimum(np.minimum(l1, l2), l3) >= -_MARGIN
        self._domain_coeffs()  # made on first use
        if inside.all():  # always so on a domain mesh
            out = self._horner(np.ravel(l1), np.ravel(l2), np.ravel(l3)).reshape(xs.shape)
        else:
            out = np.empty(xs.shape)
            out[inside] = self._horner(l1[inside], l2[inside], l3[inside])
            xo, yo = xs[~inside], ys[~inside]
            c = self._domain[1]
            acc = np.zeros_like(xo)
            for i in range(c.shape[0] - 1, -1, -1):
                row = np.full_like(xo, c[i, -1])
                for j in range(c.shape[1] - 2, -1, -1):
                    row = row * yo + c[i, j]
                acc = acc * xo + row
            out[~inside] = acc
        return float(out) if np.isscalar(x) and np.isscalar(y) else out

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
        B = self._domain[0]
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


def _check_exponents(i: int, j: int) -> None:
    if i < 0 or j < 0:
        raise ValueError(f"monomial exponents must be non-negative, got x^{i} y^{j}")


def _as_poly(value) -> Poly2:
    if isinstance(value, Poly2):
        return value
    if np.isscalar(value) or isinstance(value, (int, float, np.floating)):
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
        if self.degree not in expected:
            raise ValueError(f"no {self.degree}-forms in the plane")
        if len(self.components) != expected[self.degree]:
            raise ValueError(
                f"a {self.degree}-form needs {expected[self.degree]} "
                f"component(s), got {len(self.components)}"
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


def hodge_star_inverse(form: PolyForm) -> PolyForm:
    """Inverse of the star mapping onto `form`'s degree.

    star^{-1} on k-forms equals (-1)^(k (2-k)) star, i.e. -star on
    1-forms and star itself on 0- and 2-forms.
    """
    starred = hodge_star(form)
    if form.degree == 1:
        return PolyForm(1, tuple(-c for c in starred.components))
    return starred


def codifferential(form: PolyForm) -> PolyForm:
    """delta = (-1)^k star^{-1} d star: k-forms -> (k-1)-forms (k >= 1)."""
    if form.degree == 0:
        raise ValueError("no codifferential of a 0-form")
    sign = (-1) ** form.degree
    out = hodge_star_inverse(exterior_derivative(hodge_star(form)))
    return PolyForm(out.degree, tuple(sign * c for c in out.components))


def hodge_laplacian(form: PolyForm) -> PolyForm:
    """L = d delta + delta d, dropping the undefined half at k = 0, 2."""
    k = form.degree
    if k == 0:
        return codifferential(exterior_derivative(form))
    if k == 2:
        return exterior_derivative(codifferential(form))
    a = exterior_derivative(codifferential(form))
    b = codifferential(exterior_derivative(form))
    return PolyForm(1, tuple(x + y for x, y in zip(a.components, b.components)))


def manufactured_solution(k: int) -> tuple[PolyForm, PolyForm]:
    """Reference problem on the unit equilateral triangle.

    The scalar field is a scaled fifth power of the barycentric bubble,

        p = 1e8 (l1 l2 l3)^5 ,     degree 15,

    whose value and first four derivative orders vanish on the domain
    boundary, so p (as a k-form: p, p dx + p dy, or p dx ^ dy) satisfies
    both natural and essential boundary conditions of the Hodge
    Laplacian.  Returns (u, f) with f = L u (degree 13).

    L acts componentwise on the flat frame dx, dy, dx ^ dy, so f is
    g = L p in the frame of u: g, g dx + g dy or g dx ^ dy, with g built
    once and shared by both slots at k = 1, where the de Rham map then
    evaluates it once per point.  At k = 0 and 2 this is hodge_laplacian(u)
    coefficient for coefficient; at k = 1 hodge_laplacian(u) differs from it
    only in the rounding of the longdouble coefficients.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"no {k}-forms in the plane")
    inv_sqrt3 = np.longdouble(1.0) / np.sqrt(np.longdouble(3.0))
    x = Poly2.monomial(1, 0)
    y = Poly2.monomial(0, 1)
    lam1 = 1.0 - x - inv_sqrt3 * y
    lam2 = x - inv_sqrt3 * y
    lam3 = (2.0 * inv_sqrt3) * y
    p = (lam1 * lam2 * lam3) ** 5 * 1.0e8
    (g,) = hodge_laplacian(PolyForm(0, (p,))).components
    slots = (p, p) if k == 1 else (p,)
    return PolyForm(k, slots), PolyForm(k, (g,) * len(slots))


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
    if n < 1:
        raise ValueError("need at least one quadrature point")
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w, 2 * n - 1)


def triangle_rule(degree: int) -> QuadratureRule:
    """Quadrature on the reference triangle, exact for total degree <= degree.

    Collapsed tensor product: x = u (1 - v), y = v with Jacobian (1 - v),
    so a monomial x^a y^b becomes u^a (1-v)^(a+1) v^b — degree <= `degree`
    in u and <= degree + 1 in v, which fixes the two Gauss sizes.  Weights
    are positive and sum to 1/2.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
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
    only, so the result is bit-identical to one pass; the values go into an
    (N, P) C-ordered array, whose quadrature sums run over the full arrays,
    since summing per chunk would round differently.
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
    out = np.empty((n, len(xi)))
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
        out[s] = (vals[0] * ex[0, s] + vals[1] * ey[0, s] if k == 1 else vals[0]).T
    if k == 0:
        return out[:, 0]
    if k == 1:
        return out @ rule.weights
    return _cross(cx, cy) * (out @ rule.weights)


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

    Orientation conventions (the ones under which constant forms make the
    dual-averaging and primal de Rham maps agree exactly):

      * dual 0-cells (m = 0): the circumcenter of T carries the sign of
        T's ascending vertex orientation;
      * dual 1-cells (m = 1): each piece [c(e), c(T)] is run in the
        direction that is the +90-degree rotation of e's ascending
        tangent;
      * dual 2-cells (m = 2): positively oriented (plain area integrals
        over the flag triangles).
    """
    m = form.degree
    if m == 0:
        sign = np.where(_cross(*_planes(K.vertices, K.simplices(2))) > 0.0, 1.0, -1.0)
        return sign * _integrate_simplices(form, dual.circumcenters.T[:, None])
    vertex, edge, corners, area = _flags(K, dual.circumcenters)
    if m == 1:
        # the segment [c(e), c(T)] runs along the +90-degree rotation of
        # e = [a, b] where the flag [a, c(e), c(T)] turns counterclockwise
        owner, cells, sign = edge[::2], corners[:, 1:, ::2], np.sign(area[::2])
    else:
        # the kernel signs each flag integral by its vertex order; multiply
        # that sign back out (|integral| would also drop the form's sign)
        owner, cells, sign = vertex, corners, np.sign(area)
    out = np.zeros(K.n_simplices(2 - m))
    np.add.at(out, owner, sign * _integrate_simplices(form, cells))
    return out
