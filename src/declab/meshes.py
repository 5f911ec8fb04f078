"""Mesh families for the convergence experiments, plus mesh file IO.

The domain is the equilateral triangle with vertices (0, 0), (1, 0),
(1/2, sqrt(3)/2).  The symmetric family subdivides it into 4^m congruent
equilateral triangles of side h = 2^-m.  The perturbed family displaces
each interior vertex by a uniform random vector in the disk of radius
alpha * h, retrying with a halved radius (up to 20 retries) whenever the
displacement would break well-centeredness; boundary vertices stay fixed.

Both families share the level-m lattice of n = 2^m rows (`_Grid`): row r
(0 <= r <= n, at height r * h * sqrt(3)/2) holds the vertices at places
j = 0..n-r, x = (j + r/2) * h.  Vertices are numbered row by row, which is
lexicographic (y, x) order, so point (r, j) has id r (n+1) - r (r-1)/2 + j.
Each cell is ascending: up triangles (r, j), (r, j+1), (r+1, j) and down
triangles (r, j), (r+1, j-1), (r+1, j).  The grid's tables come from the
lattice in lexicographic order, the order build_complex gives any complex:
from (r, j) edges run to (r, j+1), (r+1, j-1), (r+1, j), up triangle first.

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
order, so the lattice neighbours below a vertex, (r-1, j), (r-1, j+1) and
(r, j-1), have been visited and those above, (r, j+1), (r+1, j-1) and
(r+1, j), have not: a vertex is tested against the placed coordinates below
it and the lattice points above it.  The stream is evaluated speculatively,
many vertices and draws per numpy call (see `perturbed_mesh`), giving the
same mesh to the bit.

The text format (shared with the complex builder): first line `n V C`,
then V lines of n coordinates, then C lines of n+1 zero-based vertex ids;
whitespace-separated, `#` starts a comment.  Coordinates are written with
17 significant digits, so round-trips are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .complex import SimplicialComplex, _is_int, build_complex
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
# passes whole, halved after a failure; the cap keeps a batch's corner
# planes near 0.6 MB (at 4096 its temporaries set perturbed_mesh's peak)
_BATCH_MIN, _BATCH_MAX = 8, 2048


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
        _check_mesh_args(self.level, self.seed, self.alpha)


def _check_mesh_args(level, seed=0, alpha=0.0) -> None:
    """Raise ValueError unless level is an integer >= 1, seed an integer of
    any size, and alpha a real number in [0, 0.5); bools are not numbers here."""
    if not _is_int(level) or level < 1:
        raise ValueError(f"refinement level must be an integer >= 1, got {level!r}")
    if not _is_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if isinstance(alpha, bool) or not isinstance(alpha, Real) or not 0.0 <= alpha < 0.5:
        raise ValueError(f"alpha must lie in [0, 0.5), got {alpha!r}")


def build_mesh(spec: MeshFamilySpec) -> SimplicialComplex:
    if spec.family == "symmetric":
        return symmetric_mesh(spec.level)
    return perturbed_mesh(spec.level, spec.seed, spec.alpha)


def counter_uniform(seed: int, counter):
    """Draw `counter` of the stream seeded with `seed`, uniform on [0, 1).

    `counter` is a non-negative int (giving a float) or an integer array
    (giving a float64 array of the same shape); the arithmetic wraps in
    uint64, and the seed, an integer of any size, is reduced mod 2^64 first.
    Any other seed, or any other counter (negative, a float or a bool),
    raises ValueError.
    """
    if not _is_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    c = np.asarray(counter)
    if c.dtype.kind not in "iu" or (c.size and c.min() < 0):
        raise ValueError(f"counter must be a non-negative integer (array), got {counter!r}")
    z = np.array(c, dtype=np.uint64, ndmin=1)
    z += 1
    z *= _GOLDEN
    z += int(seed) & _MASK64
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    u = np.ldexp((z >> 11).astype(np.float64), -53)
    return float(u[0]) if c.ndim == 0 else u


def _vid(n: int, r, j):  # vertex id of lattice point (r, j) on the n-row grid
    return r * (n + 1) - r * (r - 1) // 2 + j


class _Grid:
    """Lattice coordinates and simplex numbering of the n-row grid in
    lexicographic order, build_complex's for any complex (module docstring),
    held as int32, which holds every id up to n = 2^15."""

    def __init__(self, n: int):
        self.n = n
        self.counts = ((n + 1) * (n + 2) // 2, 3 * n * (n + 1) // 2, n * n)
        self.r = np.repeat(np.arange(n + 1, dtype=np.int32), np.arange(n + 1, 0, -1))
        self.j = np.arange(len(self.r), dtype=np.int32) - _vid(n, self.r, 0)
        inner, left = self.j < n - self.r, self.j >= 1
        self.edge_rank = np.cumsum(np.stack([inner, left, inner], 1).ravel(), dtype=np.int32) - 1
        has_tri = np.stack([inner, inner & left], axis=1).ravel()
        self.tri_rank = np.cumsum(has_tri, dtype=np.int32) - 1
        a, down = np.divmod(np.flatnonzero(has_tri).astype(np.int32), 2)
        r, j = self.r[a], self.j[a]
        self.tri = np.stack([a, np.where(down, _vid(n, r + 1, j - 1), a + 1), _vid(n, r + 1, j)], 1)

    def edge(self, a, b):
        """Edge ids of the vertex pairs (a, b), with their tails and heads."""
        tail, head = np.minimum(a, b), np.maximum(a, b)
        step = self.r[head] - self.r[tail] + (self.j[head] == self.j[tail])
        return self.edge_rank[3 * tail + step], tail, head

    def triangle(self, v):
        """Triangle ids of the vertex triples in the last axis of v."""
        v = np.sort(v, axis=-1)
        return self.tri_rank[2 * v[..., 0] + (v[..., 1] != v[..., 0] + 1)]

    def complex(self, x: np.ndarray) -> SimplicialComplex:
        """The grid's complex at column-major vertex coordinates x (V, 2), the
        transpose of (2, V) planes, with the tables build_complex would
        derive: each vertex's edges in edge_rank's slots."""
        # the slots edge_rank counts, from (r, j) to (r, j+1), (r+1, j-1), (r+1, j),
        # all int32: a boolean mask picks the tails and heads of the edges in order
        tail = np.arange(len(self.r), dtype=np.int32)[:, None]
        below = tail + (self.n - self.r)[:, None]  # (r+1, j-1)
        has = (np.diff(self.edge_rank, prepend=np.int32(-1)) > 0).reshape(-1, 3)
        e = np.empty((self.counts[1], 2), dtype=np.int32)
        e[:, 0] = np.broadcast_to(tail, has.shape)[has]
        e[:, 1] = np.concatenate([tail + 1, below, below + 1], axis=1)[has]
        # (a, b), (a, c), (b, c) of cell [a, b, c] take slots 0, 2, 1 of a, a, b
        # in an up cell (b = a + 1), slots 1, 2, 0 in a down cell
        a, b = self.tri[:, :2].T
        slots = np.stack([3 * a + (b != a + 1), 3 * a + 2, 3 * b + (b == a + 1)], 1)
        return SimplicialComplex(x, e, self.tri, self.edge_rank[slots])


def _lattice(m: int) -> tuple[_Grid, np.ndarray]:
    """The level-m grid and its lattice points as x and y planes (2, V)."""
    g, h = _Grid(2**m), 0.5**m
    return g, np.stack([g.j * h + 0.5 * g.r * h, g.r * (SQRT3 / 2.0) * h])


def symmetric_mesh(m: int) -> SimplicialComplex:
    """Uniform equilateral subdivision of the domain triangle, h = 2^-m."""
    _check_mesh_args(m)
    g, x = _lattice(m)
    return g.complex(x.T)


# the 7-point stencil of lattice point (r, j) as steps in r and in j, in
# ascending vertex id: (r-1, j), (r-1, j+1), (r, j-1), (r, j), (r, j+1),
# (r+1, j-1), (r+1, j); and the six cells around (r, j) as ascending triples
# of stencil places, in the order of the cell table
_STEPS = np.array([[-1, -1, 0, 0, 0, 1, 1], [0, 1, -1, 0, 1, -1, 0]])
_STAR = np.array([[0, 1, 3], [0, 2, 3], [1, 3, 4], [2, 3, 5], [3, 4, 6], [3, 5, 6]])


def perturbed_mesh(m: int, seed: int, alpha: float = 0.15) -> SimplicialComplex:
    """Random well-centered perturbation of the symmetric mesh.

    Interior vertices are visited in index order; each is displaced by a
    uniform draw from the disk of radius alpha * h, re-drawn with the
    radius halved (up to 20 retries) until all triangles incident to the
    vertex stay strictly acute against the already-updated coordinates.
    Boundary vertices are never moved.  Deterministic in (m, seed, alpha).

    In index order the three stencil neighbours below a vertex, (r-1, j),
    (r-1, j+1) and (r, j-1), have been visited and the three above, (r, j+1),
    (r+1, j-1) and (r+1, j), have not: they still sit at their lattice
    points.  The stream is evaluated speculatively, whole arrays at a time:
    vertices s, s + 1, ... are drawn and tested as one batch as if each
    accepts (s at its next attempt, the rest at their first), each reading
    its stencil below from the placed coordinates and the batch's
    candidates and above from the lattice; the longest passing prefix is
    kept, and the vertex after it heads the next batch.  The batch doubles
    after a full pass and halves after a failure.  The mesh is bit for bit
    that of the one-vertex-at-a-time visit.
    """
    _check_mesh_args(m, seed, alpha)
    g, lattice = _lattice(m)
    n, h = g.n, 0.5**m
    x = lattice.copy()  # placed vertices, then the candidates of a batch
    interior = np.flatnonzero((g.r > 0) & (g.j > 0) & (g.r + g.j < n))

    # a batch starts at vertex s, at its attempt `attempt`, drawing from `counter`
    s = counter = attempt = 0
    batch = _BATCH_MIN
    while s < len(interior):
        v = interior[s : s + batch]
        count = len(v)
        u = counter_uniform(seed, counter + np.arange(2 * count))
        radius = np.full(count, alpha * h)
        radius[0] = alpha * h * 0.5**attempt
        rho, theta = radius * np.sqrt(u[0::2]), 2.0 * np.pi * u[1::2]
        x[:, v] += rho * np.array([np.cos(theta), np.sin(theta)])
        stencil = _vid(n, g.r[v] + _STEPS[0, :, None], g.j[v] + _STEPS[1, :, None])
        pts = np.concatenate([x.take(stencil[:4], axis=1), lattice.take(stencil[4:], axis=1)], 1)
        ok = _triangle_circum_bary(*pts[:, _STAR.T]).min(axis=(0, 1)) > WELL_CENTERED_TOL
        n_ok = count if ok.all() else int(np.argmin(ok))
        x[:, v[n_ok:]] = lattice[:, v[n_ok:]]
        if n_ok == count:
            s, counter, attempt = s + count, counter + 2 * count, 0
            batch = min(2 * batch, _BATCH_MAX)
            continue
        s, counter, attempt = s + n_ok, counter + 2 * (n_ok + 1), (0 if n_ok else attempt) + 1
        batch = max(batch // 2, _BATCH_MIN)
        if attempt > 20:
            raise MeshError(
                f"could not keep the mesh well-centered around vertex {interior[s]} at "
                f"{tuple(lattice[:, interior[s]].tolist())} after 20 radius halvings"
            )

    K = g.complex(x.T)
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
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
    for name, count in (("V", nv), ("C", nc)):
        if count < 0:
            raise MeshError(f"mesh header has a negative count {name}={count}")
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
    try:
        return build_complex(flat.reshape(nv, 2), cells)
    except ValueError as exc:
        raise MeshError(f"mesh file is not a valid complex: {exc}") from exc
