"""The array mesh builders against the loop builders they replaced.

The grid cloth and the UV sphere build their triangles with
``mesh.quad_triangles``. The oracles below build the same meshes one vertex
and one triangle at a time. Lumped areas, vertex normals and triangle edges
sum or index corners in triangle-row order, so the builders must match the
oracles bit for bit: positions bitwise, triangles in value, dtype and row
order.
"""

import numpy as np
import pytest

from pb4u.mesh import DEFAULT_MATERIAL, TriMesh, make_grid_cloth, quad_triangles
from pb4u.scenes import uv_sphere


def loop_grid_cloth(n: int, side: float) -> tuple[np.ndarray, np.ndarray]:
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
    return positions, np.array(tris, dtype=np.int64)


def loop_uv_sphere(radius: float, lat: int, lon: int) -> tuple[np.ndarray, np.ndarray]:
    verts = [(0.0, radius, 0.0)]
    for i in range(1, lat):
        theta = np.pi * i / lat
        y = radius * np.cos(theta)
        ring = radius * np.sin(theta)
        for j in range(lon):
            phi = 2.0 * np.pi * j / lon
            verts.append((ring * np.cos(phi), y, ring * np.sin(phi)))
    verts.append((0.0, -radius, 0.0))
    south = len(verts) - 1

    def ring_vertex(i, j):
        return 1 + (i - 1) * lon + (j % lon)

    tris = []
    for j in range(lon):
        tris.append((0, ring_vertex(1, j + 1), ring_vertex(1, j)))
    for i in range(1, lat - 1):
        for j in range(lon):
            a, b = ring_vertex(i, j), ring_vertex(i, j + 1)
            c, d = ring_vertex(i + 1, j), ring_vertex(i + 1, j + 1)
            tris.append((a, d, c))
            tris.append((a, b, d))
    for j in range(lon):
        tris.append((south, ring_vertex(lat - 1, j), ring_vertex(lat - 1, j + 1)))
    return np.array(verts), np.array(tris, dtype=np.int64)


def assert_same_mesh(mesh: TriMesh, positions: np.ndarray, triangles: np.ndarray) -> None:
    assert mesh.rest_positions.dtype == positions.dtype
    assert mesh.rest_positions.tobytes() == positions.tobytes()
    assert mesh.triangles.dtype == triangles.dtype == np.int64
    np.testing.assert_array_equal(mesh.triangles, triangles)
    oracle = TriMesh.from_triangles(positions, triangles, DEFAULT_MATERIAL)
    for name in ("edges", "triangle_edges", "lumped_areas"):
        built, expected = getattr(mesh, name), getattr(oracle, name)
        assert built.dtype == expected.dtype
        assert built.shape == expected.shape
        assert built.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("n", [2, 3, 24, 97])
def test_grid_cloth_matches_loop_oracle(n):
    assert_same_mesh(make_grid_cloth(n, 1.0, DEFAULT_MATERIAL), *loop_grid_cloth(n, 1.0))


@pytest.mark.parametrize("radius", [0.18, 0.25])
@pytest.mark.parametrize("lat, lon", [(3, 3), (12, 18), (64, 96), (33, 7)])
def test_uv_sphere_matches_loop_oracle(lat, lon, radius):
    assert_same_mesh(uv_sphere(radius, lat, lon, DEFAULT_MATERIAL), *loop_uv_sphere(radius, lat, lon))


def test_quad_split_runs_along_a_d():
    ids = np.array([[10, 11], [20, 21]])  # a b over c d
    np.testing.assert_array_equal(quad_triangles(ids), [[10, 21, 20], [10, 11, 21]])


def test_oracle_comparison_catches_a_flipped_diagonal():
    """Splitting the same quads along b-c keeps the vertex set and the
    winding but is a different mesh, which the comparison must reject."""
    positions, triangles = loop_grid_cloth(3, 1.0)
    a, d, c = triangles[0::2].T
    b = triangles[1::2, 1]
    flipped = np.stack([a, b, c, b, d, c], axis=1).reshape(-1, 3)
    mesh = TriMesh.from_triangles(positions, flipped, DEFAULT_MATERIAL)
    with pytest.raises(AssertionError):
        assert_same_mesh(mesh, positions, triangles)
