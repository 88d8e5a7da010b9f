"""Per-mesh rest quantities against loop oracles, bitwise.

Hinges, hinge weights, rest dihedrals and midpoint subdivision are built from
``TriMesh.triangle_edges``; the oracles below rebuild each from the triangle
list alone, keying every side by its sorted vertex pair. Lumped areas,
vertex normals and scale factors go through ``segment_sum``; their oracles
are the per-corner ``np.add.at`` loops it replaced. Triangle areas and
dihedral angles are checked against plain numpy formulas, and mesh-edge
features against the per-directed-edge formula that recomputed every rest
length. The results must match bitwise.
"""

import numpy as np
import pytest

from pb4u import graph
from pb4u import mesh as m
from pb4u import physics
from pb4u.diffcore import Tensor
from pb4u.scenes import uv_sphere

MAT = m.DEFAULT_MATERIAL


def _permuted(mesh, seed):
    """Same surface with triangles shuffled and each one's vertex order
    rotated, which keeps its winding."""
    r = np.random.default_rng(seed)
    tris = mesh.triangles[r.permutation(mesh.triangles.shape[0])]
    shift = r.integers(0, 3, size=tris.shape[0])
    rotated = np.take_along_axis(tris, (np.arange(3)[None, :] + shift[:, None]) % 3, axis=1)
    return m.TriMesh.from_triangles(mesh.rest_positions, rotated, MAT)


@pytest.fixture(scope="module", params=["grid24", "grid24-subdivided", "uv-sphere-64x96", "grid24-permuted"])
def mesh(request):
    grid = m.make_grid_cloth(24, 1.0, MAT)
    return {
        "grid24": lambda: grid,
        "grid24-subdivided": lambda: m.subdivide_midpoint(grid),
        "uv-sphere-64x96": lambda: uv_sphere(0.3, 64, 96, MAT),
        "grid24-permuted": lambda: _permuted(grid, 11),
    }[request.param]()


def _cross_areas(positions, triangles):
    a = positions[triangles[:, 1]] - positions[triangles[:, 0]]
    b = positions[triangles[:, 2]] - positions[triangles[:, 0]]
    return 0.5 * np.linalg.norm(np.cross(a, b), axis=1)


def _numpy_dihedrals(positions, hinges):
    xi, xj, xk, xl = (positions[hinges[:, c]] for c in range(4))
    edge = xj - xi
    n1 = np.cross(xj - xi, xk - xi)
    n2 = np.cross(xi - xj, xl - xj)
    sin_part = (np.cross(n1, n2) * edge).sum(axis=1) / np.linalg.norm(edge, axis=1)
    return np.arctan2(sin_part, (n1 * n2).sum(axis=1))


def _per_corner_sum(mesh, values):
    """values[t] added to each corner of triangle t, first corners first."""
    out = np.zeros((mesh.vertex_count,) + values.shape[1:])
    for col in range(3):
        np.add.at(out, mesh.triangles[:, col], values)
    return out


def _oracle_hinges(mesh):
    """Sides grouped by sorted vertex pair in first-seen order; an edge with
    two sides is a hinge (i, j, k, l) with the first side running i -> j."""
    areas = _cross_areas(mesh.rest_positions, mesh.triangles)
    owners = {}
    area_sums = {}
    for t, (a, b, c) in enumerate(mesh.triangles.tolist()):
        for i, j, opp in ((a, b, c), (b, c, a), (c, a, b)):
            key = (min(i, j), max(i, j))
            owners.setdefault(key, []).append((i, j, opp))
            area_sums[key] = area_sums.get(key, 0.0) + float(areas[t])
    hinges, sums = [], []
    for key in sorted(owners):
        if len(owners[key]) == 2:
            (i, j, k), (_, _, l) = owners[key]
            hinges.append((i, j, k, l))
            sums.append(area_sums[key])
    return np.array(hinges, dtype=np.int64).reshape(-1, 4), np.array(sums)


def _oracle_subdivide(mesh):
    n = mesh.vertex_count
    midpoint = {(int(i), int(j)): n + e for e, (i, j) in enumerate(mesh.edges)}
    tris = []
    for a, b, c in mesh.triangles.tolist():
        mab = midpoint[(min(a, b), max(a, b))]
        mbc = midpoint[(min(b, c), max(b, c))]
        mca = midpoint[(min(c, a), max(c, a))]
        tris.extend([(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)])
    mids = 0.5 * (mesh.rest_positions[mesh.edges[:, 0]] + mesh.rest_positions[mesh.edges[:, 1]])
    return np.concatenate([mesh.rest_positions, mids]), np.array(tris, dtype=np.int64)


def test_rest_hinges_match_dict_oracle_bitwise(mesh):
    rest = physics.build_rest_geometry(mesh)
    hinges, area_sums = _oracle_hinges(mesh)
    pos = mesh.rest_positions
    edge_len = np.linalg.norm(pos[hinges[:, 1]] - pos[hinges[:, 0]], axis=1)
    assert hinges.shape[0] > 0
    assert np.array_equal(rest.hinges, hinges)
    assert np.array_equal(rest.hinge_weights, edge_len / area_sums)
    assert np.array_equal(rest.rest_dihedrals, _numpy_dihedrals(pos, hinges))


def test_dihedral_angles_match_numpy_formula_on_moved_positions(mesh):
    rest = physics.build_rest_geometry(mesh)
    pos = mesh.rest_positions + 0.02 * np.random.default_rng(5).standard_normal(mesh.rest_positions.shape)
    got = physics.dihedral_angles(Tensor(pos), rest.hinges).data
    assert np.array_equal(got, _numpy_dihedrals(pos, rest.hinges))


def test_areas_and_masses_match_per_corner_oracle_bitwise(mesh):
    assert np.array_equal(mesh.triangle_areas, _cross_areas(mesh.rest_positions, mesh.triangles))
    lumped = _per_corner_sum(mesh, mesh.triangle_areas / 3.0)
    assert np.array_equal(mesh.lumped_areas, lumped)
    assert np.array_equal(physics.build_rest_geometry(mesh).vertex_masses, MAT.mass_density * lumped)


def test_vertex_normals_match_per_corner_oracle_bitwise(mesh):
    pos = mesh.rest_positions + 0.05 * np.random.default_rng(7).standard_normal(mesh.rest_positions.shape)
    a = pos[mesh.triangles[:, 1]] - pos[mesh.triangles[:, 0]]
    b = pos[mesh.triangles[:, 2]] - pos[mesh.triangles[:, 0]]
    acc = _per_corner_sum(mesh, np.cross(a, b))
    expected = acc / np.linalg.norm(acc, axis=1)[:, None]
    assert np.array_equal(m.vertex_normals(pos, mesh), expected)


def test_scale_factors_match_sorted_neighbour_oracle_bitwise(mesh):
    src = np.concatenate([mesh.edges[:, 0], mesh.edges[:, 1]])
    dst = np.concatenate([mesh.edges[:, 1], mesh.edges[:, 0]])
    lengths = np.concatenate([mesh.rest_edge_lengths, mesh.rest_edge_lengths])
    order = np.lexsort((dst, src))
    total = np.zeros(mesh.vertex_count)
    count = np.zeros(mesh.vertex_count)
    np.add.at(total, src[order], lengths[order])
    np.add.at(count, src, 1.0)
    assert np.array_equal(m.rest_scale_factors(mesh).s, total / count)


def test_subdivision_matches_loop_oracle_bitwise(mesh):
    fine = m.subdivide_midpoint(mesh)
    positions, triangles = _oracle_subdivide(mesh)
    assert np.array_equal(fine.rest_positions, positions)
    assert np.array_equal(fine.triangles, triangles)


def _directed_edge_features(current_pos, rest_pos, edges):
    """Each directed edge's features computed on its own, rest length included."""
    cur = current_pos[edges[:, 1]] - current_pos[edges[:, 0]]
    rest = rest_pos[edges[:, 1]] - rest_pos[edges[:, 0]]
    out = np.empty((edges.shape[0], graph.EDGE_FEATURE_DIM))
    out[:, 0:3] = cur
    out[:, 3:6] = rest
    out[:, 6] = np.linalg.norm(cur, axis=1) / np.linalg.norm(rest, axis=1)
    return out


def test_mesh_edge_features_match_per_directed_edge_formula_bitwise(mesh):
    pos = mesh.rest_positions + 0.05 * np.random.default_rng(9).standard_normal(mesh.rest_positions.shape)
    directed = np.concatenate([mesh.edges, mesh.edges[:, ::-1]])
    body = m.make_grid_cloth(2, 0.4, MAT)
    far = body.rest_positions + 100.0
    for current in (mesh.rest_positions, pos):
        got = graph.edge_features(current, mesh)
        want = _directed_edge_features(current, mesh.rest_positions, directed)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()   # the sign of every zero too
        state = graph.SimState(current, np.zeros_like(current), far, far, 0.02)
        sg = graph.build_graph(state, mesh, body, world_radius=0.1, dtype=np.float32)
        assert sg.world_edges.shape[0] == 0
        assert np.array_equal(sg.edge_features, want.astype(np.float32))
