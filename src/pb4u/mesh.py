"""Triangle meshes: procedural cloth grids, midpoint subdivision, rest-state
geometric quantities, and plain-ASCII OBJ import/export.

All functions are pure; a TriMesh is never mutated after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidArgument, InvalidMesh, IoError

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
        a = rest_positions[triangles[:, 1]] - rest_positions[triangles[:, 0]]
        b = rest_positions[triangles[:, 2]] - rest_positions[triangles[:, 0]]
        areas = 0.5 * np.linalg.norm(np.cross(a, b), axis=1)
        if np.any(areas <= _MIN_AREA):
            raise InvalidMesh("degenerate triangle (zero rest area)")
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
        lengths = np.linalg.norm(
            rest_positions[edges[:, 1]] - rest_positions[edges[:, 0]], axis=1
        )
        if np.any(lengths <= 0):
            raise InvalidMesh("zero-length rest edge")
        return cls(rest_positions, triangles, edges, lengths, triangle_edges, material)


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

    def vid(i, j):
        return i * n + j

    tris = []
    for i in range(n - 1):
        for j in range(n - 1):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v11, v10))
            tris.append((v00, v01, v11))
    return TriMesh.from_triangles(positions, np.array(tris, dtype=np.int64), material)


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
    if mesh.edges.shape[0] == 0:
        raise InvalidArgument("mesh has no edges")
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
    total = np.zeros(mesh.vertex_count)
    count = np.zeros(mesh.vertex_count)
    np.add.at(total, src[order], lengths[order])
    np.add.at(count, src, 1.0)
    return ScaleFactors(total / count)


def triangle_areas(positions: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = positions[triangles[:, 1]] - positions[triangles[:, 0]]
    b = positions[triangles[:, 2]] - positions[triangles[:, 0]]
    return 0.5 * np.linalg.norm(np.cross(a, b), axis=1)


def lumped_vertex_areas(mesh: TriMesh) -> np.ndarray:
    """One third of the incident rest triangle area per vertex."""
    areas = triangle_areas(mesh.rest_positions, mesh.triangles)
    out = np.zeros(mesh.vertex_count)
    for col in range(3):
        np.add.at(out, mesh.triangles[:, col], areas / 3.0)
    return out


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
    acc = np.zeros_like(positions)
    for col in range(3):
        np.add.at(acc, mesh.triangles[:, col], face)
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
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write OBJ {path}: {exc}") from exc


def read_obj(path) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read OBJ {path}: {exc}") from exc
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
    triangles = np.array(faces, dtype=np.int64)
    if triangles.max() >= len(verts):
        raise FormatError(f"{path}: face index {triangles.max() + 1} past the last of {len(verts)} vertices")
    return np.array(verts, dtype=np.float64), triangles


def load_obj_mesh(path, material: MaterialParams = DEFAULT_MATERIAL) -> TriMesh:
    positions, triangles = read_obj(path)
    return TriMesh.from_triangles(positions, triangles, material)
