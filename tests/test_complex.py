"""Simplicial complex construction and oriented incidence.

Hand oracle used throughout: the two-triangle complex [0,1,2], [1,2,3] on
vertices (0,0), (1,0), (0,1), (1,1).  Edges in lexicographic order:

    0: (0,1)   1: (0,2)   2: (1,2)   3: (1,3)   4: (2,3)

Boundary [a,b] = [b] - [a] gives D0; boundary [a,b,c] = [b,c] - [a,c] + [a,b]
gives D1:

    D0 = [[-1,  1,  0,  0],      D1 = [[ 1, -1,  1,  0,  0],
          [-1,  0,  1,  0],            [ 0,  0,  1, -1,  1]]
          [ 0, -1,  1,  0],
          [ 0, -1,  0,  1],
          [ 0,  0, -1,  1]]

Edge (1,2) is interior (two cofaces); the others have one.
"""

from __future__ import annotations

import numpy as np
import pytest

from declab import build_complex, perturbed_mesh, read_mesh, symmetric_mesh, write_mesh
from declab.cli import main

TWO_TRI_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
TWO_TRI_CELLS = np.array([[0, 1, 2], [1, 2, 3]])

D0_ORACLE = np.array(
    [
        [-1.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 1.0],
    ]
)
D1_ORACLE = np.array(
    [
        [1.0, -1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, -1.0, 1.0],
    ]
)


@pytest.fixture
def two_tri():
    return build_complex(TWO_TRI_VERTS, TWO_TRI_CELLS)


def test_single_triangle_counts():
    K = build_complex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
    assert [K.n_simplices(k) for k in range(3)] == [3, 3, 1]
    assert K.is_boundary(1).all()
    assert K.is_boundary(0).all()


def test_two_triangle_edge_table(two_tri):
    expected = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    assert [tuple(e) for e in two_tri.simplices(1)] == expected
    assert two_tri.n_simplices(1) == 5
    # only the shared edge (1,2) is interior
    assert list(two_tri.is_boundary(1)) == [True, True, False, True, True]


def test_coboundary_matrices_match_hand_oracle(two_tri):
    np.testing.assert_array_equal(two_tri.coboundary_matrix(0).toarray(), D0_ORACLE)
    np.testing.assert_array_equal(two_tri.coboundary_matrix(1).toarray(), D1_ORACLE)


def test_interior_edge_cofaces_cancel_with_orientation(two_tri):
    """The two cofaces of an interior edge induce opposite orientations on
    it once the triangles' geometric (CCW/CW) signs are taken into account:
    the ascending-tuple coefficients alone need not differ."""
    pts = two_tri.vertices
    interior = 2  # edge (1,2)
    cofaces = two_tri.coboundary_matrix(1).tocsc()
    col = cofaces.getcol(interior).tocoo()
    assert col.nnz == 2
    total = 0.0
    for t, sign in zip(col.row, col.data):
        tri = two_tri.simplices(2)[t]
        e1, e2 = pts[tri[1]] - pts[tri[0]], pts[tri[2]] - pts[tri[0]]
        ccw = 1.0 if e1[0] * e2[1] - e1[1] * e2[0] > 0 else -1.0
        total += ccw * sign
    assert total == 0.0
    # boundary edges have exactly one coface
    counts = np.diff(cofaces.indptr)
    assert (np.delete(counts, interior) == 1).all()


def test_stokes_pairing_against_transpose(two_tri):
    rng = np.random.default_rng(11)
    for k in (0, 1):
        D = two_tri.coboundary_matrix(k)
        w = rng.standard_normal(two_tri.n_simplices(k))
        c = rng.standard_normal(two_tri.n_simplices(k + 1))
        assert np.isclose((D @ w) @ c, w @ (D.T @ c), rtol=1e-13, atol=0)


def test_mesh_size_is_longest_edge(two_tri):
    assert two_tri.mesh_size() == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize(
    "K",
    [symmetric_mesh(5), perturbed_mesh(5, 1), perturbed_mesh(5, 2, 0.45)],
    ids=["symmetric-5", "perturbed-5-1", "perturbed-5-2-0.45"],
)
def test_volumes_tile_the_domain_and_give_the_mesh_size(K):
    assert K.volumes(2).sum() == pytest.approx(np.sqrt(3.0) / 4, rel=1e-13)
    assert K.volumes(1).max() == K.mesh_size()
    assert np.array_equal(K.volumes(0), np.ones(K.n_simplices(0)))


@pytest.mark.parametrize(
    "make",
    [
        lambda tmp: build_complex(np.ascontiguousarray(TWO_TRI_VERTS), TWO_TRI_CELLS),
        lambda tmp: build_complex(np.asfortranarray(TWO_TRI_VERTS), TWO_TRI_CELLS),
        lambda tmp: build_complex(TWO_TRI_VERTS.tolist(), TWO_TRI_CELLS),
        lambda tmp: (write_mesh(perturbed_mesh(3, 1), tmp / "m.txt"), read_mesh(tmp / "m.txt"))[1],
        lambda tmp: symmetric_mesh(3),
        lambda tmp: perturbed_mesh(3, 1),
    ],
    ids=["c-order", "f-order", "list", "read-mesh", "symmetric", "perturbed"],
)
def test_vertices_are_stored_column_major(make, tmp_path):
    """Every producer stores K.vertices column-major, so that K.vertices.T is
    the contiguous (2, V) planes `_planes` gathers from without a copy."""
    K = make(tmp_path)
    assert K.vertices.shape == (K.n_simplices(0), 2)
    assert K.vertices.T.flags.c_contiguous


@pytest.mark.parametrize("k", [True, 1.0, -1, 3], ids=repr)
def test_simplex_tables_reject_a_bad_degree(two_tri, k):
    for call in (two_tri.simplices, two_tri.n_simplices, two_tri.is_boundary, two_tri.volumes):
        with pytest.raises(ValueError, match="-simplices in a 2-complex"):
            call(k)
    with pytest.raises(ValueError, match="coboundary_matrix: k must be"):
        two_tri.coboundary_matrix(k)


@pytest.mark.parametrize(
    "vertices, cells, match",
    [
        (np.zeros((3, 3)), [[0, 1, 2]], r"vertices must have shape \(V, 2\)"),
        (np.zeros(6), [[0, 1, 2]], r"vertices must have shape \(V, 2\)"),
        (TWO_TRI_VERTS, [[0, 1, 2, 3]], r"cells must have shape \(T, 3\)"),
        (TWO_TRI_VERTS, [0, 1, 2], r"cells must have shape \(T, 3\)"),
        (TWO_TRI_VERTS, np.zeros((0, 3), dtype=int), "complex needs at least one cell"),
        (TWO_TRI_VERTS, [[0, 1.7, 2], [1, 2, 3]], "cell vertex indices must be integers"),
        (TWO_TRI_VERTS, [[0, 1, 2], [1, 2, np.nan]], "cell vertex indices must be integers"),
        (TWO_TRI_VERTS, [[False, True, 2], [1, 2, 3]], "cell vertex indices must be integers"),
        (TWO_TRI_VERTS, np.ones((2, 3), dtype=bool), "cell vertex indices must be integers"),
        (TWO_TRI_VERTS, [["0", "1", "2"], ["1", "2", "3"]], "cell vertex indices must be integers"),
    ],
    ids=[
        "vertices-3d", "vertices-flat", "cells-4", "cells-flat", "no-cells",
        "cells-fraction", "cells-nan", "cells-bool-among-ints", "cells-bool", "cells-string",
    ],
)
def test_build_complex_rejects_tables_of_the_wrong_shape(vertices, cells, match):
    with pytest.raises(ValueError, match=match):
        build_complex(vertices, cells)


def test_every_table_is_int32(tmp_path):
    """The vertex ids, edges, triangles and cell edges are int32 on both
    generated families, a complex built from integral float indices (which
    build_complex takes) and a gen-mesh file read back."""
    path = tmp_path / "mesh.txt"
    main(["gen-mesh", "--family", "perturbed", "--level", "3", "--seed", "1", "--out", str(path)])
    from_floats = build_complex(TWO_TRI_VERTS, TWO_TRI_CELLS.astype(float))
    assert np.array_equal(from_floats.simplices(2), TWO_TRI_CELLS)
    for K in (symmetric_mesh(3), perturbed_mesh(3, 1), from_floats, read_mesh(path)):
        tables = [K.simplices(k) for k in range(3)] + [K.cell_edges]
        assert [t.dtype for t in tables] == [np.dtype(np.int32)] * 4


def test_rejects_duplicate_cell():
    with pytest.raises(ValueError, match="duplicate"):
        build_complex(TWO_TRI_VERTS, [[0, 1, 2], [2, 1, 0]])


def test_rejects_degenerate_cell():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="degenerate"):
        build_complex(verts, [[0, 1, 2]])
    # finite coordinates whose cross product overflows to NaN
    verts = np.array([[0.0, 0.0], [2e155, 1e155], [1e155, 1e155]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="degenerate"):
            build_complex(verts, [[0, 1, 2]])


def test_rejects_non_manifold_edge():
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, -1.0]]
    )
    cells = [[0, 1, 2], [1, 2, 3], [0, 1, 4]]
    # edge (0,1) would belong to triangles 0 and 2; add one more on it
    cells.append([0, 1, 3])
    with pytest.raises(ValueError, match=r"^non-manifold edge \(0, 1\): 3 cofaces$"):
        build_complex(verts, cells)
    # the offending edge is named by its ascending vertex pair, whatever the
    # order of the cells and of their vertices
    with pytest.raises(ValueError, match=r"^non-manifold edge \(1, 2\): 3 cofaces$"):
        build_complex(verts, [[3, 1, 2], [1, 2, 0], [4, 2, 1]])


def test_rejects_repeated_vertex_in_cell():
    with pytest.raises(ValueError, match="repeats"):
        build_complex(TWO_TRI_VERTS, [[0, 1, 1]])


def test_rejects_out_of_range_vertex():
    with pytest.raises(ValueError, match="out of range"):
        build_complex(TWO_TRI_VERTS, [[0, 1, 7]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_vertex(bad):
    verts = TWO_TRI_VERTS.copy()
    verts[3, 1] = bad
    with pytest.raises(ValueError, match="vertex 3 has a non-finite coordinate"):
        build_complex(verts, TWO_TRI_CELLS)


def test_rejects_unreferenced_vertex():
    with pytest.raises(ValueError, match="not referenced"):
        build_complex(TWO_TRI_VERTS, [[0, 1, 2]])


def test_coboundary_k_out_of_range(two_tri):
    with pytest.raises(ValueError):
        two_tri.coboundary_matrix(2)
