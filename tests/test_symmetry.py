"""The de Rham maps commute with the symmetries of the domain.

The equilateral domain with corners (0, 0), (1, 0), (1/2, sqrt(3)/2) has
five non-identity isometries g(x) = A x + b: the rotations by 120 and 240
degrees about its centroid (1/2, sqrt(3)/6), the reflection x -> 1 - x,
and that reflection followed by each rotation.  gK keeps K's cell table,
so each simplex of gK is the image of the simplex of K with the same id,
with the image orientation.  The de Rham map is natural under pull-back
(Hirani, Discrete Exterior Calculus, 2003):

    de_rham(gK, w) = de_rham(K, g*w).

The dual cells take their orientation from the plane's: the sign of the
triangle at a circumcenter, the +90-degree rotation of an edge tangent,
positive area.  A reflection reverses it, so

    de_rham_dual(gK, w) = det A * de_rham_dual(K, g*w).

The stars depend only on lengths and areas, so they and the assembled
system of gK are K's.

g*w is written here by affine substitution with Poly2 arithmetic: with
y = A x + b, g*p = p o g, g*(P dy1 + Q dy2) = (a11 P o g + a21 Q o g) dx
+ (a12 P o g + a22 Q o g) dy, and g*(R dy1 dy2) = det A (R o g) dx dy.
P != Q at k = 1, so a kernel that swapped the two components of a line
integral would fail.
"""

from __future__ import annotations

import numpy as np
import pytest

from declab import (
    Poly2,
    PolyForm,
    build_complex,
    build_dual,
    de_rham,
    de_rham_dual,
    perturbed_mesh,
    symmetric_mesh,
)
from declab.operators import dec_system

SQRT3 = np.sqrt(3.0)
CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2]])
CENTROID = CORNERS.mean(axis=0)


def _rotation(degrees: float) -> tuple[np.ndarray, np.ndarray]:
    t = np.radians(degrees)
    A = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return A, CENTROID - A @ CENTROID


_FLIP = (np.diag([-1.0, 1.0]), np.array([1.0, 0.0]))  # x -> 1 - x


def _then(second, first):
    """The affine map `second` after `first`."""
    (A2, b2), (A1, b1) = second, first
    return A2 @ A1, A2 @ b1 + b2


SYMMETRIES = {
    "rotate-120": _rotation(120),
    "rotate-240": _rotation(240),
    "reflect": _FLIP,
    "reflect-rotate-120": _then(_rotation(120), _FLIP),
    "reflect-rotate-240": _then(_rotation(240), _FLIP),
}
MESHES = {"symmetric-4": lambda: symmetric_mesh(4), "perturbed-4-1": lambda: perturbed_mesh(4, 1)}

X, Y = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
P = X**2 * Y + 1.0
Q = 3.0 * Y**3 - X * Y
FORMS = {0: PolyForm(0, (P,)), 1: PolyForm(1, (P, Q)), 2: PolyForm(2, (Q,))}


def _compose(p: Poly2, A: np.ndarray, b: np.ndarray) -> Poly2:
    """p o g for g(x, y) = A (x, y) + b."""
    gx = float(A[0, 0]) * X + float(A[0, 1]) * Y + float(b[0])
    gy = float(A[1, 0]) * X + float(A[1, 1]) * Y + float(b[1])
    out = Poly2.zero()
    for i, j in zip(*np.nonzero(p.coeffs)):
        out = out + float(p.coeffs[i, j]) * gx**int(i) * gy**int(j)
    return out


def _pull_back(form: PolyForm, A: np.ndarray, b: np.ndarray) -> PolyForm:
    comps = [_compose(c, A, b) for c in form.components]
    if form.degree == 0:
        return PolyForm(0, tuple(comps))
    if form.degree == 1:
        Pg, Qg = comps
        return PolyForm(1, tuple(float(A[0, i]) * Pg + float(A[1, i]) * Qg for i in (0, 1)))
    return PolyForm(2, (float(np.linalg.det(A)) * comps[0],))


def _image(K, A: np.ndarray, b: np.ndarray):
    """gK: K's cell table on the mapped vertices."""
    return build_complex(K.vertices @ A.T + b, K.simplices(2))


def _assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("name", list(SYMMETRIES))
def test_symmetries_map_the_domain_onto_itself(name):
    A, b = SYMMETRIES[name]
    np.testing.assert_allclose(A @ A.T, np.eye(2), atol=1e-15)
    images = CORNERS @ A.T + b
    gap = np.abs(images[:, None] - CORNERS[None]).max(axis=-1)
    assert sorted(gap.argmin(axis=1)) == [0, 1, 2] and gap.min(axis=1).max() <= 1e-15


@pytest.mark.parametrize("mesh", list(MESHES))
@pytest.mark.parametrize("name", list(SYMMETRIES))
def test_de_rham_maps_commute_with_the_symmetries(name, mesh):
    A, b = SYMMETRIES[name]
    K = MESHES[mesh]()
    gK = _image(K, A, b)
    dual, g_dual = build_dual(K), build_dual(gK)
    det = np.linalg.det(A)
    for k, form in FORMS.items():
        pulled = _pull_back(form, A, b)
        _assert_close(de_rham(gK, form), de_rham(K, pulled))
        _assert_close(de_rham_dual(gK, g_dual, form), det * de_rham_dual(K, dual, pulled))


@pytest.mark.parametrize("mesh", list(MESHES))
@pytest.mark.parametrize("name", list(SYMMETRIES))
def test_stars_and_system_are_invariant_under_the_symmetries(name, mesh):
    """Stars depend only on lengths and areas, and d on the cell table."""
    A, b = SYMMETRIES[name]
    K = MESHES[mesh]()
    gK = _image(K, A, b)
    a, g_a = build_dual(K).hodge_ratio_a, build_dual(gK).hodge_ratio_a
    for k in range(3):
        _assert_close(g_a[k], a[k])
        M, g_M = dec_system(K, a, k), dec_system(gK, g_a, k)
        assert abs(g_M - M).max() <= 1e-13 * abs(M).max()
