"""Property tests over random meshes, random cochains and random
polynomial forms."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from declab import (  # noqa: E402
    MeshError,
    Poly2,
    PolyForm,
    build_complex,
    build_dual,
    codifferential_matrix,
    de_rham,
    discrete_norm,
    exterior_derivative,
    perturbed_mesh,
    pi_minus_j,
    read_mesh,
    symmetric_mesh,
    write_mesh,
)
from oracles import (  # noqa: E402
    diamond_volumes,
    discrete_inner,
    edge_tables_unique_rows,
    perturbed_mesh_sequential,
)

SQRT3 = np.sqrt(3.0)
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)

MAX_DEGREE = 4
_POWERS = np.arange(MAX_DEGREE + 1)
_IN_DEGREE = np.add.outer(_POWERS, _POWERS) <= MAX_DEGREE  # x^i y^j, i + j <= 4
N_COEFFS = int(_IN_DEGREE.sum())


def _poly(coeffs: list[float]) -> Poly2:
    c = np.zeros(_IN_DEGREE.shape)
    c[_IN_DEGREE] = coeffs
    return Poly2(c)


polys = st.lists(
    st.floats(-2.0, 2.0, allow_nan=False), min_size=N_COEFFS, max_size=N_COEFFS
).map(_poly)
meshes = st.builds(
    perturbed_mesh,
    st.integers(2, 3),
    st.integers(0, 2**63),
    st.floats(0.0, 0.3, exclude_max=True),
)


@PROPERTY
@given(K=meshes, k=st.sampled_from([0, 1]), comps=st.lists(polys, min_size=2, max_size=2))
def test_de_rham_commutes_with_d(K, k, comps):
    """D_k Pi w = Pi dw for polynomial k-forms of degree <= 4."""
    w = PolyForm(k, tuple(comps[: k + 1]))
    lhs = K.coboundary_matrix(k) @ de_rham(K, w)
    rhs = de_rham(K, exterior_derivative(w))
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)


@PROPERTY
@given(K=meshes)
def test_coboundary_squares_to_zero_exactly(K):
    """D_1 D_0 = 0 with no rounding: each entry is a sum of +-1 products."""
    assert not (K.coboundary_matrix(1) @ K.coboundary_matrix(0)).toarray().any()


@PROPERTY
@given(K=meshes, k=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
def test_d_and_delta_are_adjoint(K, k, seed):
    """[[D a, b]]_k == [[a, delta b]]_{k-1} for random cochains a, b."""
    dual = build_dual(K)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(K.n_simplices(k - 1))
    b = rng.standard_normal(K.n_simplices(k))
    da = K.coboundary_matrix(k - 1) @ a
    lhs = discrete_inner(dual, k, da, b)
    rhs = discrete_inner(dual, k - 1, a, codifferential_matrix(K, dual, k) @ b)
    scale = discrete_norm(dual, k, da) * discrete_norm(dual, k, b)
    assert abs(lhs - rhs) <= 1e-12 * scale


@PROPERTY
@given(K=meshes)
def test_diamond_cells_partition_the_domain(K):
    dual = build_dual(K)
    for k in (0, 1, 2):
        assert diamond_volumes(K, dual, k).sum() == pytest.approx(SQRT3 / 4, rel=1e-12), k


@PROPERTY
@given(K=meshes)
def test_mesh_file_round_trips_bitwise(K):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.txt"
        write_mesh(K, path)
        K2 = read_mesh(path)
        assert np.array_equal(K2.vertices, K.vertices)
        assert np.array_equal(K2.simplices(2), K.simplices(2))
        text = path.read_bytes()
        write_mesh(K2, path)
        assert path.read_bytes() == text


constants = st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0))


@PROPERTY
@given(K=meshes, k=st.sampled_from([0, 1, 2]), c=st.lists(constants, min_size=2, max_size=2))
def test_constant_forms_lie_in_kernel_of_pi_minus_j(K, k, c):
    dual = build_dual(K)
    form = PolyForm(k, tuple(Poly2.constant(v) for v in c[: 2 if k == 1 else 1]))
    gap = pi_minus_j(K, dual, form)
    assert np.abs(gap).max() <= 1e-11 * discrete_norm(dual, k, de_rham(K, form))


def _assert_same_perturbed_mesh(m: int, seed: int, alpha: float) -> None:
    """perturbed_mesh equals the one-vertex-at-a-time oracle to the last
    bit, or fails with the same MeshError."""
    try:
        want = perturbed_mesh_sequential(m, seed, alpha)
    except MeshError as exc:
        with pytest.raises(MeshError) as got:
            perturbed_mesh(m, seed, alpha)
        assert str(got.value) == str(exc)
        return
    K = perturbed_mesh(m, seed, alpha)
    assert K.vertices.tobytes() == want.vertices.tobytes()
    assert K.simplices(2).tobytes() == want.simplices(2).tobytes()


@PROPERTY
@given(
    m=st.integers(1, 5),
    seed=st.one_of(st.sampled_from([-1, 2**64 - 1, 2**70]), st.integers(-(2**70), 2**70)),
    alpha=st.floats(0.0, 0.5, exclude_max=True),
)
def test_perturbed_mesh_matches_sequential_oracle(m, seed, alpha):
    _assert_same_perturbed_mesh(m, seed, alpha)


@pytest.mark.parametrize("m, seed, alpha", [(8, 2, 0.3), (6, 3, 0.45)])
def test_perturbed_mesh_matches_sequential_oracle_where_retries_are_dense(m, seed, alpha):
    """Thousands of retries: (8, 2, 0.3) retries 6328 times over 32385
    interior vertices, (6, 3, 0.45) 1184 times over 1953."""
    _assert_same_perturbed_mesh(m, seed, alpha)


@PROPERTY
@given(m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_edge_tables_match_unique_rows_oracle(m, seed):
    """Edges, cell edges and boundary flags of a shuffled cell list, with
    the vertices of each cell shuffled too, equal np.unique(axis=0)'s."""
    rng = np.random.default_rng(seed)
    K0 = symmetric_mesh(m)
    cells = rng.permuted(K0.simplices(2)[rng.permutation(K0.n_simplices(2))], axis=1)
    K = build_complex(K0.vertices, cells)
    edges, cell_edges, boundary_vertices, boundary_edges = edge_tables_unique_rows(cells)
    assert np.array_equal(K.simplices(1), edges)
    assert np.array_equal(K.cell_edges, cell_edges)
    assert np.array_equal(K.is_boundary(0), boundary_vertices)
    assert np.array_equal(K.is_boundary(1), boundary_edges)
