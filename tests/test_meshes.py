"""Mesh families, the counter-based RNG, and mesh file IO.

The RNG oracle is the classic splitmix64 stream: state += golden gamma,
output = finalizer(state).  Seed 1234567 must produce the published
sequence 6457827717110365317, 3203168211198807973, 9817491932198370423;
`counter_uniform(seed, i)` must equal draw i of that stream mapped to
[0, 1) by taking the top 53 bits.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from declab import (
    MeshError,
    MeshFamilySpec,
    build_complex,
    build_dual,
    build_mesh,
    counter_uniform,
    is_well_centered,
    perturbed_mesh,
    read_mesh,
    symmetric_mesh,
    write_mesh,
)
from declab import meshes as meshes_module
from declab.meshes import _Grid
from oracles import lattice_boundary, perturbed_mesh_sequential

SQRT3 = np.sqrt(3.0)

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64_stream(seed: int, n: int) -> list[int]:
    """Independent textbook splitmix64: advance state, finalize, repeat."""
    out = []
    state = seed
    for _ in range(n):
        state = (state + _GAMMA) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


# -- RNG ----------------------------------------------------------------------


def test_splitmix64_published_vector():
    assert _splitmix64_stream(1234567, 3) == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_counter_uniform_matches_stream():
    for seed in (0, 1, 42, 2**63):
        stream = _splitmix64_stream(seed, 8)
        for i, z in enumerate(stream):
            assert counter_uniform(seed, i) == (z >> 11) * 2.0**-53


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, -1, -(2**64) - 3, 2**64 + 5, 2**70])
def test_counter_uniform_on_arrays_matches_stream(seed):
    """Array counters, also near 2^63, wrap in uint64 with no overflow
    warning; seeds outside [0, 2^64) act mod 2^64.  Draw c of a stream is
    draw 0 of the stream seeded c * gamma further on."""
    counters = np.array(
        [[0, 1, 2, 7], [2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1], [2**64 - 2, 12345, 2**40, 99]],
        dtype=np.uint64,
    )
    want = [
        [(_splitmix64_stream((seed + int(c) * _GAMMA) & _MASK, 1)[0] >> 11) * 2.0**-53 for c in row]
        for row in counters
    ]
    got = counter_uniform(seed, counters)
    assert got.dtype == np.float64 and got.shape == counters.shape
    assert got.tolist() == want
    assert counter_uniform(seed, counters[0].astype(np.int64)).tolist() == want[0]
    scalar = counter_uniform(seed, 2**63)
    assert type(scalar) is float and scalar == want[1][2]


@pytest.mark.parametrize(
    "counter", [-1, 1.5, True, np.array([-1, 0]), np.array([1.0, 2.0]), None, "1"], ids=repr
)
def test_counter_uniform_rejects_a_counter_that_is_not_a_non_negative_integer(counter):
    """-1 in an array wrapped to draw 2^64 - 1, and 1.5 gave draw 1."""
    with pytest.raises(ValueError, match="counter must be"):
        counter_uniform(0, counter)


@pytest.mark.parametrize("seed", [1.5, True, "7", None], ids=repr)
def test_counter_uniform_rejects_a_seed_that_is_not_an_integer(seed):
    """1.5 and True gave seed 1's draws, and "7" seed 7's."""
    with pytest.raises(ValueError, match="seed must be an integer"):
        counter_uniform(seed, 0)


def test_counter_uniform_takes_a_numpy_integer_seed():
    counters = np.arange(4)
    assert counter_uniform(np.int64(7), counters).tolist() == counter_uniform(7, counters).tolist()
    assert counter_uniform(np.uint64(7), 3) == counter_uniform(7, 3)


def test_counter_uniform_range_and_spread():
    draws = np.array([counter_uniform(9, i) for i in range(1000)])
    assert ((0.0 <= draws) & (draws < 1.0)).all()
    assert abs(draws.mean() - 0.5) < 0.03


# -- symmetric family ---------------------------------------------------------


def test_symmetric_counts():
    K1 = symmetric_mesh(1)
    assert [K1.n_simplices(k) for k in range(3)] == [6, 9, 4]
    K2 = symmetric_mesh(2)
    assert [K2.n_simplices(k) for k in range(3)] == [15, 30, 16]


def test_symmetric_geometry():
    for m in (1, 2, 3):
        K = symmetric_mesh(m)
        h = 0.5**m
        ends = K.vertices[K.simplices(1)]
        lengths = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
        np.testing.assert_allclose(lengths, h, rtol=1e-14)
        assert K.mesh_size() == pytest.approx(h, rel=1e-14)
        # covers the unit-edge equilateral domain
        assert K.vertices[:, 0].min() == 0.0
        assert K.vertices[:, 0].max() == 1.0
        assert K.vertices[:, 1].max() == pytest.approx(SQRT3 / 2, rel=1e-15)
        ok, offenders = is_well_centered(K)
        assert ok and len(offenders) == 0


def test_symmetric_vertices_are_lexicographically_ordered():
    K = symmetric_mesh(2)
    keys = list(map(tuple, np.round(K.vertices[:, ::-1], 12)))
    assert keys == sorted(keys)


@pytest.mark.parametrize("m", range(1, 8))
def test_grid_numbering_is_build_complex_order(m):
    """build_complex is the oracle of the lattice's tables: on both families
    the generated complex has its simplices and cell edges, dtypes included,
    and the closed-form ranks number its simplices.  The boundary flags,
    which every complex derives from its cell edges, are those of the
    lattice's sides (oracles.lattice_boundary)."""
    grid = _Grid(2**m)
    for K in (symmetric_mesh(m), perturbed_mesh(m, 1, 0.45)):
        want = build_complex(K.vertices, K.simplices(2))
        pairs = [(K.simplices(k), want.simplices(k)) for k in (1, 2)]
        pairs += [(K.is_boundary(k), lattice_boundary(K, k)) for k in range(3)]
        for got, expected in pairs + [(K.cell_edges, want.cell_edges)]:
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert np.array_equal(grid.edge(*want.simplices(1).T)[0], np.arange(want.n_simplices(1)))
    assert np.array_equal(grid.triangle(want.simplices(2)), np.arange(want.n_simplices(2)))


def test_symmetric_area_partition():
    K = symmetric_mesh(3)
    tris = K.vertices[K.simplices(2)]
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    np.testing.assert_allclose(areas, SQRT3 / 4 * 0.5**6, rtol=1e-13)
    assert areas.sum() == pytest.approx(SQRT3 / 4, rel=1e-13)


# -- perturbed family ---------------------------------------------------------


def test_perturbed_zero_alpha_is_symmetric():
    K0 = symmetric_mesh(2)
    Kp = perturbed_mesh(2, seed=3, alpha=0.0)
    assert np.array_equal(K0.vertices, Kp.vertices)
    assert np.array_equal(K0.simplices(2), Kp.simplices(2))


@pytest.mark.parametrize(
    "m, seed, alpha", [(5, 1, 0.0), (3, -1, 0.0), (1, 1, 0.15), (1, 2**70, 0.45)]
)
def test_perturbed_without_displacement_is_symmetric(m, seed, alpha):
    """alpha = 0 moves nothing, and level 1 has no interior vertex."""
    K0 = symmetric_mesh(m)
    Kp = perturbed_mesh(m, seed, alpha)
    assert Kp.vertices.tobytes() == K0.vertices.tobytes()
    assert np.array_equal(K0.simplices(2), Kp.simplices(2))


def test_perturbed_failure_names_the_first_interior_vertex(monkeypatch):
    """No acute triangle clears a tolerance above 1/3, so every attempt of
    the first interior vertex fails and the error names it."""
    monkeypatch.setattr(meshes_module, "WELL_CENTERED_TOL", 0.34)
    with pytest.raises(MeshError) as want:
        perturbed_mesh_sequential(3, 1)
    with pytest.raises(MeshError) as got:
        perturbed_mesh(3, 1)
    assert str(got.value) == str(want.value)
    base = tuple(symmetric_mesh(3).vertices[10].tolist())
    assert str(got.value) == (
        f"could not keep the mesh well-centered around vertex 10 at {base} "
        f"after 20 radius halvings"
    )
    assert "np.float64" not in str(got.value)


def test_perturbed_mesh_final_check_names_the_first_offender(monkeypatch):
    """The whole-mesh well-centeredness check after the vertex visit is the
    last guard on a generated mesh; its error gives the count of offending
    triangles, the first one and its vertices.  The visit's own test does
    not call is_well_centered, so only the final check sees the patch."""
    offenders = np.array([7, 12])
    monkeypatch.setattr(meshes_module, "is_well_centered", lambda K: (False, offenders))
    with pytest.raises(MeshError) as got:
        perturbed_mesh(3, 1)
    # level 3: triangle 7 is the up triangle of vertex 4, (0, 4) (0, 5) (1, 4)
    assert str(got.value) == (
        "perturbed mesh lost well-centeredness at 2 triangle(s), "
        "first triangle 7 with vertices [4, 5, 13]"
    )


def test_perturbed_is_deterministic_and_seed_dependent():
    a = perturbed_mesh(3, seed=1)
    b = perturbed_mesh(3, seed=1)
    c = perturbed_mesh(3, seed=2)
    assert np.array_equal(a.vertices, b.vertices)
    assert not np.array_equal(a.vertices, c.vertices)


def test_perturbed_moves_only_interior_vertices_within_alpha_h():
    m, alpha = 3, 0.15
    K0 = symmetric_mesh(m)
    Kp = perturbed_mesh(m, seed=1, alpha=alpha)
    disp = np.linalg.norm(Kp.vertices - K0.vertices, axis=1)
    boundary = K0.is_boundary(0)
    assert np.abs(disp[boundary]).max() == 0.0
    assert disp[~boundary].max() <= alpha * 0.5**m + 1e-15
    assert disp[~boundary].max() > 0.0
    ok, _ = is_well_centered(Kp)
    assert ok


def test_perturbed_mesh_holds_a_few_copies_of_its_tables_at_most():
    """The traced peak of perturbed_mesh(8, 1) stays within 2.3 times the
    bytes of the tables it returns (3.0 MB, all int32): 2.16 times (6.5 MB),
    at the final blocked check, plus 0.14 (0.4 MB) of margin.  Batches of
    4096 vertices took it to 2.7 times against int32 tables (8.2 MB, at the
    perturbation loop).  Against int64 tables (5.5 MB) int64 temporaries in
    `_Grid.complex` took it to 2.0 times, eager boundary flags and a copy of
    the vertex table to 2.2, cell edges looked up through `_Grid.edge` on
    int64 corner pairs and a whole-mesh final check to 3.8, and sorting
    every corner to find the cells around each vertex to 5.5."""
    K = perturbed_mesh(8, 1)
    size = K.vertices.nbytes + K.cell_edges.nbytes + sum(K.simplices(k).nbytes for k in range(3))
    del K
    tracemalloc.start()
    try:
        perturbed_mesh(8, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * size


def test_perturbed_meshes_stay_well_centered_across_seeds():
    for seed in range(1, 6):
        K = perturbed_mesh(2, seed=seed)
        build_dual(K)  # raises if any triangle is not strictly acute


def test_mesh_family_spec_validation_and_dispatch():
    K = build_mesh(MeshFamilySpec("symmetric", 1))
    assert K.n_simplices(2) == 4
    Kp = build_mesh(MeshFamilySpec("perturbed", 2, seed=4))
    assert np.array_equal(Kp.vertices, perturbed_mesh(2, seed=4).vertices)
    with pytest.raises(ValueError, match="family"):
        MeshFamilySpec("random", 1)
    for level in (0, -2, 2.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="level"):
            MeshFamilySpec("symmetric", level)
        with pytest.raises(ValueError, match="level"):
            symmetric_mesh(level)
        with pytest.raises(ValueError, match="level"):
            perturbed_mesh(level, seed=1)
    for seed in (1.5, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="seed"):
            MeshFamilySpec("perturbed", 2, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            perturbed_mesh(2, seed)
    for alpha in (0.5, -0.1, float("nan"), "0.1", None, False, True):
        with pytest.raises(ValueError, match="alpha"):
            MeshFamilySpec("perturbed", 1, alpha=alpha)
        with pytest.raises(ValueError, match="alpha"):
            perturbed_mesh(2, 1, alpha)
    assert symmetric_mesh(np.int64(2)).vertices.tobytes() == symmetric_mesh(2).vertices.tobytes()
    want = perturbed_mesh(3, 1, 0.3).vertices.tobytes()
    assert perturbed_mesh(3, 1, np.float64(0.3)).vertices.tobytes() == want


# -- mesh file IO -------------------------------------------------------------


def test_write_read_round_trip(tmp_path):
    K = perturbed_mesh(2, seed=5)
    path = tmp_path / "mesh.txt"
    write_mesh(K, path)
    K2 = read_mesh(path)
    assert np.array_equal(K.vertices, K2.vertices)  # %.17g is exact for float64
    assert np.array_equal(K.simplices(2), K2.simplices(2))


def test_read_mesh_accepts_comments_and_whitespace(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(
        "# a single triangle\n2 3 1\n\n0.0 0.0\n1.0 0.0  # inline noise-free\n0.5 0.8\n0 1 2\n"
    )
    K = read_mesh(path)
    assert K.n_simplices(2) == 1


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "header"),
        ("2 x 3\n", "malformed mesh header: invalid literal for int"),
        ("3 3 1\n0 0\n1 0\n0.5 1\n0 1 2\n", "planar"),
        ("2 -3 -1\n", "negative count V=-3"),
        ("2 0 -1\n", "negative count C=-1"),
        ("2 3 1\n0 0\n1 0\n0.5 1\n0 1\n", "malformed|expected"),
        ("2 3 1\n0 0\n1 0\n0.5 1\n0 1 5\n", "out of range"),
        ("2 3 1\n0 0\nane 0\n0.5 1\n0 1 2\n", "malformed"),
        ("2 4 1\n0 0\n1 0\n0.5 1\n2 2\n0 1 2\n", "complex"),
    ],
)
def test_read_mesh_error_cases(tmp_path, text, match):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MeshError, match=match):
        read_mesh(path)


def test_read_mesh_missing_file():
    with pytest.raises(MeshError, match="cannot read"):
        read_mesh("/nonexistent/mesh.txt")


def test_read_mesh_binary_file_is_a_mesh_error(tmp_path):
    path = tmp_path / "mesh.bin"
    path.write_bytes(b"\xff\xfe\x00garbage\x80")
    with pytest.raises(MeshError, match="cannot read"):
        read_mesh(path)


def test_write_mesh_unwritable_path_is_a_mesh_error(tmp_path):
    with pytest.raises(MeshError, match="cannot write"):
        write_mesh(symmetric_mesh(1), tmp_path / "missing" / "mesh.txt")


# The meshes are part of the contract: bit-identical for each (level, seed,
# alpha) on every platform.  These digests of the written files pin them, so
# a rewritten generator must reproduce every coordinate to the last bit.
GOLDEN_MESHES = [
    ("symmetric", 3, 0, 0.15, "299cac7c8f4b8aafd6591a3bdd93b9a5799c5b9a64bf88b143944c67dd3507a6"),
    ("perturbed", 3, 1, 0.15, "510a0712930b18cbbfabe4cfccfeaf2f34804bec7a7688a4700b7fc1e55e6d04"),
    ("perturbed", 4, 2, 0.3, "27e74d5257f5c6ea235d2e74838d2db1a29d49fdd691079e0d8b04c38ca59492"),
    ("perturbed", 5, 7, 0.15, "b63ec890ee72598313cd55301e3ca35b8f503cb4936abf503b812b772b625e3d"),
    ("perturbed", 7, 1, 0.15, "409e0c36789944e84d8bdbcbf591a04dac6fec28562fd5c283988f09c6a31556"),
    ("perturbed", 6, 3, 0.45, "657b849380cff462550df328b06e001b055ab4bb83fcc0ac245b65cdd31c05a2"),
    ("symmetric", 8, 0, 0.15, "dc52c2bfbda30e709a898066f30471efd0f98d8beb11ff06397ce595c4b614dd"),
    ("perturbed", 8, 1, 0.15, "b5ef8255fd523b2d67bf3727e5b3d8162a63d341ad69f7d152eaaa83e35af3f9"),
]


@pytest.mark.parametrize("family, level, seed, alpha, digest", GOLDEN_MESHES)
def test_written_meshes_match_golden_digests(tmp_path, family, level, seed, alpha, digest):
    path = tmp_path / "mesh.txt"
    write_mesh(build_mesh(MeshFamilySpec(family, level, seed, alpha)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
