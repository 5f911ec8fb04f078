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
system of gK are K's, and the solve on gK with data w is the solve on K
with data g*w.  On the symmetric mesh g maps K onto itself: gK is K
renumbered, and K's system commutes with the signed permutation that the
renumbering induces on its k-simplices.

The claim is about triangulations, not numberings: relabelling the
vertices, shuffling the cells and the corners of each cell gives a complex
whose k-simplices are K's under a signed permutation Pi_k (-1 where the
new ascending order reverses a simplex), so every cochain and operator of
the relabelled mesh is Pi_k times K's, and the error norms are K's.  Every
other test sees only the lattice numbering of the mesh families, where an
orientation slip that is consistent under that numbering would pass.

g*w is written here by affine substitution with Poly2 arithmetic: with
y = A x + b, g*p = p o g, g*(P dy1 + Q dy2) = (a11 P o g + a21 Q o g) dx
+ (a12 P o g + a22 Q o g) dy, and g*(R dy1 dy2) = det A (R o g) dx dy.
P != Q at k = 1, so a kernel that swapped the two components of a line
integral would fail.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from declab import (
    Poly2,
    PolyForm,
    SolverConfig,
    build_complex,
    build_dual,
    cg_solve,
    compute_errors,
    de_rham,
    de_rham_dual,
    perturbed_mesh,
    solve_problem,
    symmetric_mesh,
)
from declab.multigrid import multigrid_cycle
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


SOLVER_TOL = 1e-12


def _solve(K, form: PolyForm) -> np.ndarray:
    """The DEC solution with data form, assembled and solved as
    solve_problem does: S R(form), projected and gauged at k = 0."""
    k, a = form.degree, build_dual(K).hodge_ratio_a
    M, rhs = dec_system(K, a, k), a[k] * de_rham(K, form)
    if k == 0:
        rhs = rhs - (rhs.sum() / a[0].sum()) * a[0]
    cycle = multigrid_cycle(M, K, k)
    assert cycle is not None  # gK keeps K's cell table: both take the cycle
    x = cg_solve(M, rhs, SolverConfig(tol=SOLVER_TOL), cycle).x
    return x - (a[0] @ x) / a[0].sum() if k == 0 else x


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("mesh", list(MESHES))
@pytest.mark.parametrize("name", ["rotate-120", "reflect"])
def test_solutions_commute_with_the_symmetries(name, mesh, k):
    """The solve on gK with data w is the solve on K with data g*w."""
    A, b = SYMMETRIES[name]
    K = MESHES[mesh]()
    x = _solve(K, _pull_back(FORMS[k], A, b))
    g_x = _solve(_image(K, A, b), FORMS[k])
    assert np.abs(g_x - x).max() <= 10 * SOLVER_TOL * np.abs(x).max()


# -- relabelling ----------------------------------------------------------------


@functools.cache
def _relabelled():
    """Perturbed (5, 1) and the same triangulation with its vertex ids
    permuted, its cells shuffled and each cell's corners shuffled (fixed
    seed), their duals, and the vertex permutation old id -> new id."""
    K = perturbed_mesh(5, 1)
    rng = np.random.default_rng(20)
    perm = rng.permutation(K.n_simplices(0))
    vertices = np.empty_like(K.vertices)
    vertices[perm] = K.vertices
    cells = perm[K.simplices(2)][rng.permutation(K.n_simplices(2))]
    L = build_complex(vertices, rng.permuted(cells, axis=1))
    return K, build_dual(K), L, build_dual(L), perm


def _signed_permutation(K, L, perm, k: int) -> sp.csr_matrix:
    """Pi_k: entry (i, j) is +-1 where k-simplex i of L is k-simplex j of K,
    -1 where the relabelling reverses its ascending orientation."""
    new = perm[K.simplices(k)]
    inversions = sum(new[:, i] > new[:, j] for i, j in itertools.combinations(range(k + 1), 2))
    index = {tuple(s): i for i, s in enumerate(L.simplices(k).tolist())}
    rows = [index[tuple(s)] for s in np.sort(new, axis=1).tolist()]
    n = len(rows)
    signs = (-1.0) ** np.broadcast_to(inversions, (n,))
    return sp.csr_matrix((signs, (rows, np.arange(n))), shape=(n, n))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_cochains_and_system_follow_a_relabelling(k):
    K, dual, L, l_dual, perm = _relabelled()
    Pi = _signed_permutation(K, L, perm, k)
    _assert_close(de_rham(L, FORMS[k]), Pi @ de_rham(K, FORMS[k]))
    # the dual of a k-simplex is oriented by the simplex
    _assert_close(de_rham_dual(L, l_dual, FORMS[2 - k]), Pi @ de_rham_dual(K, dual, FORMS[2 - k]))
    _assert_close(l_dual.hodge_ratio_a[k], np.abs(Pi) @ dual.hodge_ratio_a[k])
    M = dec_system(K, dual.hodge_ratio_a, k)
    l_M = dec_system(L, l_dual.hodge_ratio_a, k)
    assert abs(l_M - Pi @ M @ Pi.T).max() <= 1e-13 * abs(M).max()


@pytest.mark.parametrize("k", [0, 1, 2])
def test_error_norms_do_not_depend_on_the_numbering(k):
    """K is a grid and solves under the multigrid cycle; the relabelled mesh
    is not recognised as one and solves by Jacobi-PCG."""
    K, dual, L, l_dual, _ = _relabelled()
    norms = compute_errors(K, dual, k, *solve_problem(K, dual, k)[:2])
    l_norms = compute_errors(L, l_dual, k, *solve_problem(L, l_dual, k)[:2])
    assert l_norms.keys() == norms.keys()
    for key, value in norms.items():
        assert l_norms[key] == pytest.approx(value, rel=1e-9), key


@pytest.mark.parametrize("name", list(SYMMETRIES))
def test_system_commutes_with_the_lattice_permutation(name):
    """g maps the symmetric mesh onto itself: gK is K with its vertices
    renumbered, and the signed permutation Pi_k that renumbering induces on
    the k-simplices commutes with K's system, Pi_k M Pi_k^T = M."""
    A, b = SYMMETRIES[name]
    K = symmetric_mesh(4)
    gK = _image(K, A, b)
    gap = np.abs(gK.vertices[:, None] - K.vertices[None]).max(axis=-1)
    image = gap.argmin(axis=1)  # vertex i of gK sits on vertex image[i] of K
    assert gap.min(axis=1).max() <= 1e-12
    perm = np.argsort(image)  # K's vertex id -> gK's
    assert np.array_equal(image[perm], np.arange(len(perm)))
    a = build_dual(K).hodge_ratio_a
    for k in range(3):
        Pi = _signed_permutation(K, gK, perm, k)
        M = dec_system(K, a, k)
        assert abs(Pi @ M @ Pi.T - M).max() <= 1e-13 * abs(M).max()
