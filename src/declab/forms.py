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
and double-precision Horner evaluation would leave ~1e-8 absolute noise —
far above the 1e-10-scale identities the discrete operators are tested
against.  Evaluation is Horner in the same precision, started at each
coefficient row's last non-zero entry, and returns float64; against
50-digit arithmetic at 3000 random points of the domain, the manufactured
u and f are off by ~2e-12 of their maximum.

Quadrature: Gauss-Legendre on [0, 1] for line integrals, and a collapsed
tensor-product (Duffy) rule on the reference triangle
{(x, y) : x, y >= 0, x + y <= 1} that is exact for any requested total
degree.  One private kernel, ``_integrate_simplices``, integrates a k-form
over a stack of oriented k-simplices given by their corners; the primal
de Rham map, the dual de Rham map (over circumcenters, dual segments and
flag triangles) and ``integrate_over_simplex`` all go through it.  It
evaluates chunks of points on one thread per usable core, bit-identical
to a serial pass.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .complex import SimplicialComplex
from .dual import DualComplex, _cross2

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
    "integrate_over_simplex",
    "de_rham",
    "de_rham_dual",
]


class Poly2:
    """Bivariate polynomial sum_{i,j} c[i, j] x^i y^j.

    Coefficients are kept in ``np.longdouble``; see the module docstring
    for why.  Instances are immutable by convention (operations return new
    polynomials) and trailing all-zero coefficient rows/columns are
    trimmed on construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_2d(np.asarray(coeffs, dtype=np.longdouble)).copy()
        if c.ndim != 2:
            raise ValueError("coefficients must form a 2-d array")
        while c.shape[0] > 1 and not c[-1].any():
            c = c[:-1]
        while c.shape[1] > 1 and not c[:, -1].any():
            c = c[:, :-1]
        self.coeffs = c

    @classmethod
    def constant(cls, value) -> "Poly2":
        return cls(np.array([[value]], dtype=np.longdouble))

    @classmethod
    def zero(cls) -> "Poly2":
        return cls.constant(0.0)

    @classmethod
    def monomial(cls, i: int, j: int, coeff=1.0) -> "Poly2":
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

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def coefficient(self, i: int, j: int) -> float:
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

    def __call__(self, x, y):
        """Evaluate at points; Horner in extended precision, float64 out.

        Nested Horner, in x over the rows and in y within each row, updated
        in place.  Row i starts at its last non-zero coefficient: the
        leading zeros a dense grid would run through are exact no-ops
        (0 * y + 0 = 0, and 0 + c = c), so at finite points the result is
        bit-identical to Horner over the full coefficient grid.  An all-zero
        row runs in full, which keeps even the sign of its zero.  Scalar x
        and y give a float; otherwise an array of their broadcast shape.
        """
        xl = np.asarray(x, dtype=np.longdouble)
        yl = np.asarray(y, dtype=np.longdouble)
        shape = np.broadcast(xl, yl).shape
        c = self.coeffs
        acc = np.zeros(shape, dtype=np.longdouble)
        row = np.empty(shape, dtype=np.longdouble)
        for i in range(c.shape[0] - 1, -1, -1):
            nonzero = np.flatnonzero(c[i])
            start = nonzero[-1] if len(nonzero) else c.shape[1] - 1
            row.fill(c[i, start])
            for j in range(start - 1, -1, -1):
                row *= yl
                row += c[i, j]
            acc *= xl
            acc += row
        out = np.asarray(acc, dtype=np.float64)
        if np.isscalar(x) and np.isscalar(y):
            return float(out)
        return out

    def __repr__(self) -> str:
        return f"Poly2(degree={self.degree}, shape={self.coeffs.shape})"


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

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


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
    if k == 0:
        u = PolyForm(0, (p,))
    elif k == 1:
        u = PolyForm(1, (p, p))
    else:
        u = PolyForm(2, (p,))
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


_CHUNK_POINTS = 65536
_POOL: list[ThreadPoolExecutor] = []  # made on first use, dropped in a forked child
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_POOL.clear)


def _integrate_simplices(
    form: PolyForm, corners: np.ndarray, rule: QuadratureRule | None = None
) -> np.ndarray:
    """Integrals of a k-form over N oriented k-simplices: the one quadrature
    kernel behind every de Rham map.

    corners: (N, k+1, 2); the vertex order of each row is its orientation.
    k = 0 takes point values, k = 1 a Gauss-Legendre rule along each segment
    applied to (P, Q) . t, and k = 2 the collapsed triangle rule times the
    signed determinant of the edge vectors.  Without a rule, the rule is
    sized to the polynomial degree, so values are exact up to roundoff.
    Rules are built per call through the module-level constructors (no
    cache), so a wrapper installed on those names sees every rule built.

    Chunks of about _CHUNK_POINTS points are evaluated on a pool with one
    thread per usable core; each value depends on its own simplex only, so
    the result is bit-identical to one serial pass.  Workers call nothing
    but Poly2.__call__; the quadrature sums run over the full arrays on the
    calling thread, since summing per chunk would round differently.
    """
    k = form.degree
    if k and rule is None:
        if k == 1:
            rule = gauss_legendre_unit(max(10, form.poly_degree // 2 + 1))
        else:
            rule = triangle_rule(max(form.poly_degree, 2))
    # point values are a one-point evaluation
    xi = rule.points.reshape(len(rule.weights), k) if k else np.zeros((1, 0))
    n, step = len(corners), max(1, _CHUNK_POINTS // len(xi))
    # a component shared between slots (u = p dx + p dy) is evaluated once;
    # Poly2 hashes by identity
    values = {c: np.empty((n, len(xi))) for c in form.components}

    def fill(lo: int) -> None:
        c = corners[lo : lo + step]
        pts = c[:, None, 0]
        for i in range(k):
            pts = pts + xi[None, :, i, None] * (c[:, i + 1] - c[:, 0])[:, None, :]
        for comp, out in values.items():
            out[lo : lo + step] = comp(pts[..., 0], pts[..., 1])

    if n <= step:
        fill(0)
    else:
        if not _POOL:
            cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
            _POOL.append(ThreadPoolExecutor(cores or os.cpu_count()))
        list(_POOL[0].map(fill, range(0, n, step)))
    vals = [values[c] for c in form.components]
    if k == 0:
        return vals[0][:, 0]
    p0 = corners[:, 0]
    e1 = corners[:, 1] - p0
    if k == 1:
        return (vals[0] * e1[:, None, 0] + vals[1] * e1[:, None, 1]) @ rule.weights
    return _cross2(e1, corners[:, 2] - p0) * (vals[0] @ rule.weights)


def integrate_over_simplex(
    form: PolyForm, simplex: np.ndarray, rule: QuadratureRule | None = None
) -> float:
    """Integral of the trace of a k-form over one oriented k-simplex.

    simplex: (k+1, 2) coordinates; the given vertex order is the
    orientation.  k = 0 is point evaluation, k = 1 the line integral of
    (P, Q) . t ds, k = 2 the area integral of R signed by the vertex
    order.  A supplied rule must be exact for the form's degree.
    """
    pts = np.asarray(simplex, dtype=np.float64)
    k = form.degree
    if pts.shape != (k + 1, 2):
        raise ValueError(f"a {k}-simplex needs {k + 1} points in the plane")
    if rule is not None and rule.exactness < form.poly_degree:
        raise ValueError(
            f"rule exact to degree {rule.exactness} cannot integrate a "
            f"degree-{form.poly_degree} form"
        )
    return float(_integrate_simplices(form, pts[None], rule)[0])


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
    return _integrate_simplices(form, K.vertices[K.simplices(form.degree)])


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
    c = dual.centers
    if m == 0:
        return dual.tri_orientation * _integrate_simplices(form, c[2][:, None, :])
    if m == 1:
        owner = dual.flag_edge[::2]
        cells = np.stack([c[1][owner], c[2][dual.flag_tri[::2]]], axis=1)
        # +1 where the dual segment runs along the +90-degree rotation of e
        tang = np.diff(K.vertices[K.simplices(1)[owner]], axis=1)[:, 0]
        sign = np.sign(_cross2(tang, cells[:, 1] - cells[:, 0]))
    else:
        owner = dual.flag_vertex
        cells = dual.flag_coords
        # the kernel signs each flag integral by its vertex order; multiply
        # that sign back out (|integral| would also drop the form's sign)
        e1, e2 = cells[:, 1] - cells[:, 0], cells[:, 2] - cells[:, 0]
        sign = np.sign(_cross2(e1, e2))
    out = np.zeros(K.n_simplices(2 - m))
    np.add.at(out, owner, sign * _integrate_simplices(form, cells))
    return out
