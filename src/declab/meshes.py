"""Mesh families for the convergence experiments, plus mesh file IO.

The domain is the equilateral triangle with vertices (0, 0), (1, 0),
(1/2, sqrt(3)/2).  The symmetric family subdivides it into 4^m congruent
equilateral triangles of side h = 2^-m.  The perturbed family displaces
each interior vertex by a uniform random vector in the disk of radius
alpha * h, retrying with a halved radius (up to 20 retries) whenever the
displacement would break well-centeredness; boundary vertices stay fixed.

Randomness is counter-based so meshes are reproducible from (m, seed,
alpha) alone, independent of platform or library versions.  Draw i of a
stream seeded with s is

    u_i = finalize((s + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64) / 2^64

with the standard 64-bit mix finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9;  (mod 2^64)
    z ^= z >> 27;  z *= 0x94D049BB133111EB;  (mod 2^64)
    z ^= z >> 31

and the quotient taken as (z >> 11) * 2^-53.  Each displacement attempt
consumes exactly two draws (radius and angle), and the counter advances
whether or not the attempt is accepted.  The vertices are visited in index
order, but the stream is evaluated speculatively, many vertices and draws
per numpy call (see `perturbed_mesh`), giving the same mesh to the bit.

The text format (shared with the complex builder): first line `n V C`,
then V lines of n coordinates, then C lines of n+1 zero-based vertex ids;
whitespace-separated, `#` starts a comment.  Coordinates are written with
17 significant digits, so round-trips are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complex import SimplicialComplex, build_complex
from .dual import WELL_CENTERED_TOL, _triangle_circum_bary, is_well_centered

__all__ = [
    "MeshError",
    "MeshFamilySpec",
    "symmetric_mesh",
    "perturbed_mesh",
    "build_mesh",
    "write_mesh",
    "read_mesh",
    "counter_uniform",
]

SQRT3 = np.sqrt(3.0)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# batch size of perturbed_mesh, in vertices: doubled after a batch that
# passes whole, halved after a failure; the cap keeps a batch near 1 MB
_BATCH_MIN, _BATCH_MAX = 8, 4096


class MeshError(Exception):
    """Mesh generation or mesh file failure."""


@dataclass(frozen=True)
class MeshFamilySpec:
    """Which mesh to build: family, refinement level, and perturbation."""

    family: str  # "symmetric" | "perturbed"
    level: int  # h = 2^-level
    seed: int = 0  # perturbed only
    alpha: float = 0.15  # displacement radius as a fraction of h

    def __post_init__(self):
        if self.family not in ("symmetric", "perturbed"):
            raise ValueError(f"unknown mesh family {self.family!r}")
        if self.level < 1:
            raise ValueError("refinement level must be >= 1")
        if not 0.0 <= self.alpha < 0.5:
            raise ValueError("alpha must lie in [0, 0.5)")


def build_mesh(spec: MeshFamilySpec) -> SimplicialComplex:
    if spec.family == "symmetric":
        return symmetric_mesh(spec.level)
    return perturbed_mesh(spec.level, spec.seed, spec.alpha)


def counter_uniform(seed: int, counter):
    """Draw `counter` of the stream seeded with `seed`, uniform on [0, 1).

    `counter` is a non-negative int (giving a float) or an integer array
    (giving a float64 array of the same shape); the arithmetic wraps in
    uint64, and the seed is reduced mod 2^64 first, so any int is exact.
    """
    z = np.array(counter, dtype=np.uint64, ndmin=1)
    z += 1
    z *= _GOLDEN
    z += int(seed) & _MASK64
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    u = np.ldexp((z >> 11).astype(np.float64), -53)
    return float(u[0]) if np.ndim(counter) == 0 else u


def _grid_layout(m: int):
    """Vertex layout of the level-m symmetric mesh.

    Row r (at height r * h * sqrt(3)/2) holds N + 1 - r vertices; vertices
    are numbered row by row, which is exactly lexicographic (y, x) order.
    Returns (N, offsets, coords) with offsets[r] the index of row r's
    first vertex.
    """
    n_rows = 2**m
    offsets = np.zeros(n_rows + 2, dtype=np.int64)
    np.cumsum(n_rows + 1 - np.arange(n_rows + 1), out=offsets[1:])
    h = 0.5**m
    coords = np.empty((offsets[-1], 2))
    for r in range(n_rows + 1):
        j = np.arange(n_rows + 1 - r)
        coords[offsets[r] : offsets[r + 1], 0] = j * h + 0.5 * r * h
        coords[offsets[r] : offsets[r + 1], 1] = r * (SQRT3 / 2.0) * h
    return n_rows, offsets, coords


def _grid_cells(n_rows: int, offsets: np.ndarray) -> np.ndarray:
    cells = []
    for r in range(n_rows):
        up = np.arange(n_rows - r)
        cells.append(
            np.stack(
                [offsets[r] + up, offsets[r] + up + 1, offsets[r + 1] + up],
                axis=1,
            )
        )
        down = np.arange(n_rows - r - 1)
        if len(down):
            cells.append(
                np.stack(
                    [
                        offsets[r] + down + 1,
                        offsets[r + 1] + down,
                        offsets[r + 1] + down + 1,
                    ],
                    axis=1,
                )
            )
    return np.concatenate(cells, axis=0)


def symmetric_mesh(m: int) -> SimplicialComplex:
    """Uniform equilateral subdivision of the domain triangle, h = 2^-m."""
    if m < 1:
        raise ValueError("refinement level must be >= 1")
    n_rows, offsets, coords = _grid_layout(m)
    return build_complex(coords, _grid_cells(n_rows, offsets))


def perturbed_mesh(m: int, seed: int, alpha: float = 0.15) -> SimplicialComplex:
    """Random well-centered perturbation of the symmetric mesh.

    Interior vertices are visited in index order; each is displaced by a
    uniform draw from the disk of radius alpha * h, re-drawn with the
    radius halved (up to 20 retries) until all triangles incident to the
    vertex stay strictly acute against the already-updated coordinates.
    Boundary vertices are never moved.  Deterministic in (m, seed, alpha).

    The stream is evaluated speculatively, whole arrays at a time: vertices
    s, s + 1, ... are drawn and tested as one batch as if each accepts (s
    at its next attempt, the rest at their first), the longest passing
    prefix is kept, and the vertex after it heads the next batch.  The
    batch doubles after a full pass and halves after a failure.  The mesh
    is bit for bit that of the one-vertex-at-a-time visit.
    """
    if m < 1:
        raise ValueError("refinement level must be >= 1")
    if not 0.0 <= alpha < 0.5:
        raise ValueError("alpha must lie in [0, 0.5)")
    n_rows, offsets, coords = _grid_layout(m)
    cells = _grid_cells(n_rows, offsets)
    h = 0.5**m

    # interior vertices are those with six incident cells; `ring` holds the
    # vertex ids of each one's cells, `ring_pos` their interior positions
    # (visiting order), -1 on the boundary
    degree = np.bincount(cells.ravel(), minlength=len(coords))
    interior = np.flatnonzero(degree == 6)
    first = np.cumsum(degree)[interior] - 6
    ring = cells[np.argsort(cells.ravel(), kind="stable")[first[:, None] + np.arange(6)] // 3]
    pos = np.full(len(coords), -1)
    pos[interior] = np.arange(len(interior))
    ring_pos = pos[ring]
    base = coords[interior]

    # a batch starts at vertex s, at its attempt `attempt`, drawing from
    # `counter`; each corner at a batch vertex takes that vertex's candidate
    n = len(interior)
    s = counter = attempt = 0
    batch = _BATCH_MIN
    while s < n:
        count = min(batch, n - s)
        u = counter_uniform(seed, counter + np.arange(2 * count))
        radius = np.full(count, alpha * h)
        radius[0] = alpha * h * 0.5**attempt
        rho, theta = radius * np.sqrt(u[0::2]), 2.0 * np.pi * u[1::2]
        cand = base[s : s + count] + rho[:, None] * np.array([np.cos(theta), np.sin(theta)]).T
        rel = ring_pos[s : s + count] - s
        take = (rel >= 0) & (rel <= np.arange(count)[:, None, None])
        pts = coords[ring[s : s + count]]
        pts[take] = cand[rel[take]]
        bary = _triangle_circum_bary(pts.reshape(-1, 3, 2)).reshape(count, -1)
        ok = bary.min(axis=1) > WELL_CENTERED_TOL
        n_ok = count if ok.all() else int(np.argmin(ok))
        coords[interior[s : s + n_ok]] = cand[:n_ok]
        if n_ok == count:
            s, counter, attempt = s + count, counter + 2 * count, 0
            batch = min(2 * batch, _BATCH_MAX)
            continue
        s, counter, attempt = s + n_ok, counter + 2 * (n_ok + 1), (0 if n_ok else attempt) + 1
        batch = max(batch // 2, _BATCH_MIN)
        if attempt > 20:
            raise MeshError(
                f"could not keep the mesh well-centered around vertex "
                f"{interior[s]} at {tuple(base[s])} after 20 radius halvings"
            )

    K = build_complex(coords, cells)
    ok, offenders = is_well_centered(K)
    if not ok:
        t = offenders[0]
        raise MeshError(
            f"perturbed mesh lost well-centeredness at {len(offenders)} "
            f"triangle(s), first triangle {t} with vertices "
            f"{K.simplices(2)[t].tolist()}"
        )
    return K


# ---------------------------------------------------------------------------
# mesh file IO
# ---------------------------------------------------------------------------


def write_mesh(K: SimplicialComplex, path) -> None:
    """Write the shared text format with exact-round-trip coordinates;
    raises MeshError if the file cannot be written."""
    lines = [f"2 {K.n_simplices(0)} {K.n_simplices(2)}"]
    for p in K.vertices:
        lines.append(f"{p[0]:.17g} {p[1]:.17g}")
    for cell in K.simplices(2):
        lines.append(f"{cell[0]} {cell[1]} {cell[2]}")
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise MeshError(f"cannot write mesh file: {exc}") from exc


def read_mesh(path) -> SimplicialComplex:
    """Read the shared text format; raises MeshError on malformed input."""
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise MeshError(f"cannot read mesh file: {exc}") from exc

    tokens: list[str] = []
    for line in raw.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    if len(tokens) < 3:
        raise MeshError("mesh file is missing the `n V C` header")
    try:
        n, nv, nc = (int(t) for t in tokens[:3])
    except ValueError as exc:
        raise MeshError(f"malformed mesh header: {exc}") from exc
    if n != 2:
        raise MeshError(f"only planar meshes are supported, file says n={n}")
    expected = 3 + 2 * nv + 3 * nc
    if len(tokens) != expected:
        raise MeshError(
            f"mesh file has {len(tokens)} values, expected {expected} "
            f"for {nv} vertices and {nc} cells"
        )
    try:
        flat = np.array([float(t) for t in tokens[3 : 3 + 2 * nv]])
        cells = np.array(
            [int(t) for t in tokens[3 + 2 * nv :]], dtype=np.int64
        ).reshape(nc, 3)
    except ValueError as exc:
        raise MeshError(f"malformed mesh data: {exc}") from exc
    if cells.size and (cells.min() < 0 or cells.max() >= nv):
        raise MeshError("cell references a vertex id outside 0..V-1")
    try:
        return build_complex(flat.reshape(nv, 2), cells)
    except ValueError as exc:
        raise MeshError(f"mesh file is not a valid complex: {exc}") from exc
