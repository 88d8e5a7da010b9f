"""Triangle meshes: procedural cloth grids, midpoint subdivision, rest-state
geometric quantities, and plain-ASCII OBJ import/export.

All functions are pure; a TriMesh is never mutated after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import segment_sum
from .errors import FormatError, InvalidArgument, InvalidMesh, read_text, write_file

_MIN_AREA = 1e-14


@dataclass(frozen=True)
class MaterialParams:
    """Homogeneous cloth material. Units: Pa, Pa, N*m, kg/m^2, dimensionless."""

    lame_mu: float
    lame_lambda: float
    bending_coeff: float
    mass_density: float
    friction_coeff: float

    def __post_init__(self):
        if self.lame_mu <= 0:
            raise InvalidArgument("lame_mu must be positive")
        for name in ("lame_lambda", "bending_coeff", "mass_density", "friction_coeff"):
            if getattr(self, name) < 0:
                raise InvalidArgument(f"{name} must be nonnegative")

    def as_feature(self) -> np.ndarray:
        return np.array(
            [self.lame_mu, self.lame_lambda, self.bending_coeff, self.mass_density, self.friction_coeff],
            dtype=np.float64,
        )


DEFAULT_MATERIAL = MaterialParams(
    lame_mu=2000.0,
    lame_lambda=2000.0,
    bending_coeff=1e-5,
    mass_density=0.3,
    friction_coeff=0.5,
)


@dataclass(frozen=True)
class ScaleFactors:
    """Per-vertex mean incident rest edge length."""

    s: np.ndarray

    def __post_init__(self):
        if np.any(self.s <= 0):
            raise InvalidMesh("scale factors must be positive")


@dataclass(frozen=True)
class TriMesh:
    rest_positions: np.ndarray  # (V, 3) float64, meters
    triangles: np.ndarray       # (T, 3) int64
    edges: np.ndarray           # (E, 2) int64, unique pairs with i < j, lexicographic
    rest_edge_lengths: np.ndarray  # (E,) float64
    triangle_edges: np.ndarray  # (T, 3) int64, index in edges of sides (a,b), (b,c), (c,a)
    triangle_areas: np.ndarray  # (T,) float64, rest area of each triangle
    lumped_areas: np.ndarray    # (V,) float64, one third of the incident rest triangle area
    material: MaterialParams

    @property
    def vertex_count(self) -> int:
        return self.rest_positions.shape[0]

    @classmethod
    def from_triangles(cls, rest_positions, triangles, material: MaterialParams) -> "TriMesh":
        rest_positions = np.ascontiguousarray(rest_positions, dtype=np.float64)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if rest_positions.ndim != 2 or rest_positions.shape[1] != 3:
            raise InvalidMesh("rest positions must be (V, 3)")
        if triangles.ndim != 2 or triangles.shape[1] != 3 or triangles.shape[0] == 0:
            raise InvalidMesh("triangles must be (T, 3) with T >= 1")
        n = rest_positions.shape[0]
        if triangles.min() < 0 or triangles.max() >= n:
            raise InvalidMesh("triangle index out of range")
        unused = np.flatnonzero(np.bincount(triangles.ravel(), minlength=n) == 0)
        if unused.size:
            raise InvalidMesh(f"vertex {unused[0]} is used by no triangle ({unused.size} such vertices)")
        # huge finite coordinates overflow here; the checks below reject the result
        with np.errstate(over="ignore", invalid="ignore"):
            a = rest_positions[triangles[:, 1]] - rest_positions[triangles[:, 0]]
            b = rest_positions[triangles[:, 2]] - rest_positions[triangles[:, 0]]
            areas = 0.5 * np.linalg.norm(np.cross(a, b), axis=1)
        if not np.all(areas > _MIN_AREA):  # collinear overflowed sides give inf - inf = nan
            raise InvalidMesh("degenerate triangle (zero rest area)")
        # each vertex sums its corners column by column: all first corners, then second, then third
        lumped = segment_sum(np.tile(areas / 3.0, 3), triangles.T.ravel(), n)
        if not np.all(np.isfinite(lumped)):  # an overflowed area is inf, and so is its vertices' sum
            raise InvalidMesh("rest triangle area overflows float64")
        # the one place that decides which undirected edge a triangle side is
        sides = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        lo, hi = np.sort(sides, axis=1).T
        keys, inverse = np.unique(lo * n + hi, return_inverse=True)
        edges = np.stack(np.divmod(keys, n), axis=1)
        triangle_edges = inverse.reshape(-1, 3)
        side_edge = triangle_edges.ravel()
        owners = np.bincount(side_edge)
        if np.any(owners > 2):
            raise InvalidMesh("non-manifold edge shared by more than two triangles")
        # consistently wound neighbours traverse their shared edge in opposite directions
        direction = np.where(sides[:, 0] < sides[:, 1], 1, -1)
        if np.any(np.bincount(side_edge, weights=direction)[owners == 2] != 0):
            raise InvalidMesh("inconsistent triangle winding across a shared edge")
        with np.errstate(over="ignore"):
            lengths = np.linalg.norm(rest_positions[edges[:, 1]] - rest_positions[edges[:, 0]], axis=1)
        if not np.all(np.isfinite(lengths)):
            raise InvalidMesh("rest edge length overflows float64")
        if np.any(lengths <= 0):
            raise InvalidMesh("zero-length rest edge")
        return cls(rest_positions, triangles, edges, lengths, triangle_edges, areas, lumped, material)


def quad_triangles(ids: np.ndarray) -> np.ndarray:
    """The two triangles of every quad of a (rows, cols) array of vertex ids,
    quads in row-major order. A quad (a, b over c, d) splits along a-d into
    (a, d, c), (a, b, d)."""
    a, b, c, d = ids[:-1, :-1], ids[:-1, 1:], ids[1:, :-1], ids[1:, 1:]
    return np.stack([a, d, c, a, b, d], axis=-1).reshape(-1, 3)


def make_grid_cloth(n: int, side: float, material: MaterialParams) -> TriMesh:
    """n x n vertex grid in the x-z plane centered at the origin, each quad
    split along the same diagonal; counter-clockwise winding seen from +y."""
    if n < 2:
        raise InvalidArgument(f"grid needs n >= 2, got {n}")
    if side <= 0:
        raise InvalidArgument(f"side must be positive, got {side}")
    coords = np.linspace(-side / 2.0, side / 2.0, n)
    xs, zs = np.meshgrid(coords, coords, indexing="ij")
    positions = np.zeros((n * n, 3))
    positions[:, 0] = xs.reshape(-1)
    positions[:, 2] = zs.reshape(-1)
    return TriMesh.from_triangles(positions, quad_triangles(np.arange(n * n).reshape(n, n)), material)


def subdivide_midpoint(mesh: TriMesh) -> TriMesh:
    """Split each triangle into four via edge midpoints. Original vertices keep
    their indices; midpoints follow in the parent edge order."""
    midpoints = 0.5 * (mesh.rest_positions[mesh.edges[:, 0]] + mesh.rest_positions[mesh.edges[:, 1]])
    positions = np.concatenate([mesh.rest_positions, midpoints])
    a, b, c = mesh.triangles.T
    mab, mbc, mca = (mesh.vertex_count + mesh.triangle_edges).T
    tris = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca], axis=1).reshape(-1, 3)
    return TriMesh.from_triangles(positions, tris, mesh.material)


def mean_edge_length(mesh: TriMesh) -> float:
    return float(np.mean(mesh.rest_edge_lengths))


def rest_scale_factors(mesh: TriMesh) -> ScaleFactors:
    """s[i] = mean rest length of the mesh edges incident to vertex i.

    Incident lengths accumulate in ascending neighbour order, so any other
    traversal using the same canonical order reproduces s bitwise.
    """
    src = np.concatenate([mesh.edges[:, 0], mesh.edges[:, 1]])
    dst = np.concatenate([mesh.edges[:, 1], mesh.edges[:, 0]])
    lengths = np.concatenate([mesh.rest_edge_lengths, mesh.rest_edge_lengths])
    order = np.lexsort((dst, src))
    total = segment_sum(lengths[order], src[order], mesh.vertex_count)
    return ScaleFactors(total / np.bincount(src, minlength=mesh.vertex_count))


def vertex_normals(positions: np.ndarray, mesh: TriMesh) -> np.ndarray:
    """Area-weighted average of incident triangle normals, normalized; a
    degenerate fan falls back to +y (up, opposite the gravity axis)."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape != (mesh.vertex_count, 3):
        raise InvalidArgument(
            f"positions shape {positions.shape} does not match vertex count {mesh.vertex_count}"
        )
    a = positions[mesh.triangles[:, 1]] - positions[mesh.triangles[:, 0]]
    b = positions[mesh.triangles[:, 2]] - positions[mesh.triangles[:, 0]]
    face = np.cross(a, b)  # length = 2 * area, so summing is area weighting
    # corners summed in the lumped areas' order
    acc = segment_sum(np.tile(face, (3, 1)), mesh.triangles.T.ravel(), mesh.vertex_count)
    norms = np.linalg.norm(acc, axis=1)
    degenerate = norms < 1e-300
    acc[degenerate] = (0.0, 1.0, 0.0)
    norms[degenerate] = 1.0
    return acc / norms[:, None]


def write_obj(path, positions: np.ndarray, triangles: np.ndarray) -> None:
    """Vertices and triangular faces only, 1-based indices, LF line endings."""
    lines = []
    for x, y, z in np.asarray(positions, dtype=np.float64):
        lines.append(f"v {float(x)!r} {float(y)!r} {float(z)!r}")
    for i, j, k in np.asarray(triangles, dtype=np.int64):
        lines.append(f"f {i + 1} {j + 1} {k + 1}")
    write_file(path, "\n".join(lines) + "\n", "OBJ")


def read_obj(path) -> tuple[np.ndarray, np.ndarray]:
    text = read_text(path, "OBJ")
    verts: list[tuple[float, float, float]] = []
    faces: list[tuple[int, int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise FormatError(f"{path}:{lineno}: vertex needs 3 coordinates")
            try:
                xyz = (float(parts[1]), float(parts[2]), float(parts[3]))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad vertex coordinate") from exc
            if not np.all(np.isfinite(xyz)):
                raise FormatError(f"{path}:{lineno}: non-finite vertex coordinate")
            verts.append(xyz)
        elif parts[0] == "f":
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: only triangular faces are supported")
            idx = []
            for token in parts[1:]:
                head = token.split("/")[0]
                try:
                    value = int(head)
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: bad face index {token!r}") from exc
                if value < 1:
                    raise FormatError(f"{path}:{lineno}: face indices must be positive")
                idx.append(value - 1)
            faces.append(tuple(idx))
        # other keywords (vn, vt, o, g, s, usemtl, mtllib, ...) are ignored
    if not verts or not faces:
        raise FormatError(f"{path}: no vertices or no faces")
    last = max(map(max, faces))  # checked before int64 conversion, which a huge index would overflow
    if last >= len(verts):
        raise FormatError(f"{path}: face index {last + 1} past the last of {len(verts)} vertices")
    return np.array(verts, dtype=np.float64), np.array(faces, dtype=np.int64)


def load_obj_mesh(path, material: MaterialParams = DEFAULT_MATERIAL) -> TriMesh:
    positions, triangles = read_obj(path)
    return TriMesh.from_triangles(positions, triangles, material)
