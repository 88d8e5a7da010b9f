"""Mesh construction, subdivision, and rest-geometry tests.

Derived expectations are computed by independent brute-force loops over the
edge/triangle lists rather than by the code paths under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pb4u import mesh as m
from pb4u.errors import FormatError, InvalidArgument, InvalidMesh

MAT = m.DEFAULT_MATERIAL


def test_smallest_grid():
    grid = m.make_grid_cloth(2, 1.0, MAT)
    assert grid.vertex_count == 4
    assert grid.triangles.shape == (2, 3)
    assert grid.edges.shape == (5, 2)


def test_three_grid_edge_set_matches_hand_enumeration():
    grid = m.make_grid_cloth(3, 1.0, MAT)
    assert grid.vertex_count == 9
    assert grid.triangles.shape == (8, 3)
    # vertex (i, j) -> 3*i + j; axis edges plus one diagonal per quad,
    # the diagonal joining (i, j) and (i+1, j+1)
    expected = set()
    for i in range(3):
        for j in range(2):
            expected.add((3 * i + j, 3 * i + j + 1))        # along z
            expected.add((3 * j + i, 3 * (j + 1) + i))      # along x
    for i in range(2):
        for j in range(2):
            expected.add((3 * i + j, 3 * (i + 1) + j + 1))  # diagonals
    got = {tuple(sorted(e)) for e in grid.edges.tolist()}
    assert got == {tuple(sorted(e)) for e in expected}
    assert len(got) == 16


def test_grid_spacing():
    grid = m.make_grid_cloth(24, 1.0, MAT)
    d = grid.rest_positions[1] - grid.rest_positions[0]
    assert np.linalg.norm(d) == pytest.approx(1.0 / 23.0, rel=1e-15)


def test_grid_preconditions():
    with pytest.raises(InvalidArgument):
        m.make_grid_cloth(1, 1.0, MAT)
    with pytest.raises(InvalidArgument):
        m.make_grid_cloth(3, 0.0, MAT)
    with pytest.raises(InvalidArgument):
        m.make_grid_cloth(3, -2.0, MAT)


def test_subdivide_one_to_four():
    grid = m.make_grid_cloth(2, 1.0, MAT)
    fine = m.subdivide_midpoint(grid)
    assert fine.triangles.shape == (8, 3)
    assert fine.vertex_count == 9


def test_subdivide_halves_power_of_two_spacing_exactly():
    grid = m.make_grid_cloth(3, 1.0, MAT)  # axis spacing 0.5, exactly representable
    fine = m.subdivide_midpoint(grid)
    axis = np.isclose(fine.rest_edge_lengths, 0.25)
    assert axis.any()
    assert np.all(fine.rest_edge_lengths[axis] == 0.25)


def test_subdivide_uniform_tenth_spacing():
    grid = m.make_grid_cloth(11, 1.0, MAT)  # spacing 0.1
    fine = m.subdivide_midpoint(grid)
    axis_parent = np.isclose(grid.rest_edge_lengths, 0.1)
    assert axis_parent.any()
    axis_child = np.isclose(fine.rest_edge_lengths, 0.05)
    assert np.allclose(fine.rest_edge_lengths[axis_child], 0.05, rtol=1e-12)


def test_subdivided_mean_edge_matches_enumeration_oracle():
    grid = m.make_grid_cloth(3, 1.0, MAT)
    fine = m.subdivide_midpoint(grid)
    # independent oracle: enumerate child edges straight from the triangle list
    seen = set()
    total = 0.0
    for tri in fine.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            if key not in seen:
                seen.add(key)
                total += np.linalg.norm(fine.rest_positions[a] - fine.rest_positions[b])
    oracle_mean = total / len(seen)
    assert m.mean_edge_length(fine) == pytest.approx(oracle_mean, rel=1e-12)
    # new interior edge classes shift the average slightly off parent/2 on
    # mixed-length grids: 40 axis + 16 diagonal children vs 12 + 4 parents
    assert oracle_mean == pytest.approx((5 + 2 * np.sqrt(2)) / 28, rel=1e-12)


def test_subdivided_mean_edge_exactly_halves_on_uniform_mesh():
    # equilateral triangle: every edge the same length, so each child class
    # is exactly half and the mean follows exactly
    tri = m.TriMesh.from_triangles(
        np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.25, 0.0, 0.5 * np.sqrt(3) / 2]]),
        np.array([[0, 2, 1]]),
        MAT,
    )
    fine = m.subdivide_midpoint(tri)
    assert m.mean_edge_length(fine) == pytest.approx(m.mean_edge_length(tri) / 2.0, rel=1e-15)


def test_mean_edge_uniform():
    tri = m.TriMesh.from_triangles(
        np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.05, 0.0, 0.1 * np.sqrt(3) / 2]]),
        np.array([[0, 1, 2]]),
        MAT,
    )
    assert m.mean_edge_length(tri) == pytest.approx(0.1, rel=1e-12)


def test_mean_edge_three_grid_value():
    grid = m.make_grid_cloth(3, 1.0, MAT)
    # brute force over the edge list, lengths recomputed from positions
    lengths = [
        np.linalg.norm(grid.rest_positions[i] - grid.rest_positions[j])
        for i, j in grid.edges
    ]
    assert len(lengths) == 16
    oracle = sum(lengths) / 16.0
    assert oracle == pytest.approx((12 * 0.5 + 4 * 0.5 * np.sqrt(2)) / 16, rel=1e-12)
    assert m.mean_edge_length(grid) == pytest.approx(oracle, rel=1e-15)
    assert m.mean_edge_length(grid) == pytest.approx(0.5518, abs=1e-4)


def test_scale_factors_uniform_mesh():
    tri = m.TriMesh.from_triangles(
        np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.1, 0.0, 0.2 * np.sqrt(3) / 2]]),
        np.array([[0, 2, 1]]),
        MAT,
    )
    s = m.rest_scale_factors(tri).s
    assert np.allclose(s, 0.2, rtol=1e-12)


def test_scale_factors_three_grid_corner():
    grid = m.make_grid_cloth(3, 1.0, MAT)
    s = m.rest_scale_factors(grid).s
    # corner vertex 0 = (i=0, j=0) lies on a quad diagonal: edges 0.5, 0.5, 0.5*sqrt(2)
    expected = (0.5 + 0.5 + 0.5 * np.sqrt(2)) / 3.0
    assert s[0] == pytest.approx(expected, rel=1e-12)
    assert s[0] == pytest.approx(0.56904, abs=1e-5)


def test_scale_factors_match_independent_edge_loop():
    grid = m.subdivide_midpoint(m.make_grid_cloth(4, 1.0, MAT))
    s = m.rest_scale_factors(grid).s
    # second traversal: per-vertex loop over the edge list, summing incident
    # lengths in the canonical ascending-neighbour order
    oracle = np.zeros(grid.vertex_count)
    for v in range(grid.vertex_count):
        incident = []
        for (i, j), length in zip(grid.edges.tolist(), grid.rest_edge_lengths):
            if i == v:
                incident.append((j, length))
            elif j == v:
                incident.append((i, length))
        incident.sort(key=lambda pair: pair[0])
        acc = 0.0
        for _, length in incident:
            acc += length
        oracle[v] = acc / len(incident)
    assert np.array_equal(s, oracle)


def test_scale_factors_permutation_equivariant():
    grid = m.make_grid_cloth(3, 1.0, MAT)
    perm = np.random.default_rng(3).permutation(grid.vertex_count)
    inverse = np.argsort(perm)
    relabeled = m.TriMesh.from_triangles(
        grid.rest_positions[perm], inverse[grid.triangles], MAT
    )
    s = m.rest_scale_factors(grid).s
    sp = m.rest_scale_factors(relabeled).s
    assert np.array_equal(sp, s[perm])


def test_isolated_vertex_rejected():
    positions = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 1.0], [5.0, 5, 5]])
    with pytest.raises(InvalidMesh, match="no triangle"):
        m.TriMesh.from_triangles(positions, np.array([[0, 2, 1]]), MAT)


def test_flat_grid_normals_point_up():
    grid = m.make_grid_cloth(4, 1.0, MAT)
    normals = m.vertex_normals(grid.rest_positions, grid)
    assert np.allclose(normals, [0.0, 1.0, 0.0], atol=1e-15)


def test_normals_translation_invariant():
    grid = m.make_grid_cloth(4, 1.0, MAT)
    base = m.vertex_normals(grid.rest_positions, grid)
    moved = m.vertex_normals(grid.rest_positions + np.array([3.0, -2.0, 7.0]), grid)
    assert np.allclose(moved, base, atol=1e-12)


def test_lifted_vertex_normal_matches_per_face_oracle():
    grid = m.make_grid_cloth(4, 1.0, MAT)
    positions = grid.rest_positions.copy()
    lifted = 5
    positions[lifted, 1] = 0.13
    normals = m.vertex_normals(positions, grid)
    acc = np.zeros(3)
    for tri in grid.triangles:
        if lifted in tri:
            a = positions[tri[1]] - positions[tri[0]]
            b = positions[tri[2]] - positions[tri[0]]
            cross = np.cross(a, b)
            area = 0.5 * np.linalg.norm(cross)
            unit = cross / np.linalg.norm(cross)
            acc += area * unit
    oracle = acc / np.linalg.norm(acc)
    assert np.max(np.abs(normals[lifted] - oracle)) <= 1e-12


def test_degenerate_triangle_rejected():
    positions = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    with pytest.raises(InvalidMesh):
        m.TriMesh.from_triangles(positions, np.array([[0, 1, 2]]), MAT)


def test_triangle_edges_index_every_sorted_side():
    mesh = m.subdivide_midpoint(m.make_grid_cloth(4, 1.0, MAT))
    assert mesh.triangle_edges.shape == mesh.triangles.shape
    for t, (a, b, c) in enumerate(mesh.triangles.tolist()):
        for s, (i, j) in enumerate(((a, b), (b, c), (c, a))):
            assert mesh.edges[mesh.triangle_edges[t, s]].tolist() == sorted((i, j))


def test_non_manifold_edge_rejected(tmp_path):
    # three triangles fanned around the edge 0-1
    positions = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, 1, 0], [0.5, -1, 0], [0.5, 0, 1]])
    path = tmp_path / "fan.obj"
    m.write_obj(path, positions, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]))
    with pytest.raises(InvalidMesh, match="non-manifold"):
        m.load_obj_mesh(path)


def test_flipped_triangle_rejected(tmp_path):
    grid = m.make_grid_cloth(3, 1.0, MAT)
    triangles = grid.triangles.copy()
    triangles[3] = triangles[3, ::-1]
    path = tmp_path / "flipped.obj"
    m.write_obj(path, grid.rest_positions, triangles)
    with pytest.raises(InvalidMesh, match="winding"):
        m.load_obj_mesh(path)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.floats(0.1, 4.0))
def test_grid_counts(n, side):
    grid = m.make_grid_cloth(n, side, MAT)
    assert grid.vertex_count == n * n
    assert grid.triangles.shape[0] == 2 * (n - 1) ** 2
    assert grid.edges.shape[0] == 2 * n * (n - 1) + (n - 1) ** 2


def test_material_validation():
    with pytest.raises(InvalidArgument):
        m.MaterialParams(0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidArgument):
        m.MaterialParams(1.0, -1.0, 1.0, 1.0, 1.0)


def test_obj_roundtrip(tmp_path):
    grid = m.make_grid_cloth(3, 1.0, MAT)
    path = tmp_path / "cloth.obj"
    m.write_obj(path, grid.rest_positions, grid.triangles)
    text = path.read_text()
    assert "\r" not in text
    assert text.startswith("v ")
    positions, triangles = m.read_obj(path)
    assert np.array_equal(positions, grid.rest_positions)
    assert np.array_equal(triangles, grid.triangles)


def test_obj_rejects_quads_and_garbage(tmp_path):
    quad = tmp_path / "quad.obj"
    quad.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(FormatError):
        m.read_obj(quad)
    junk = tmp_path / "junk.obj"
    junk.write_text("v 0 0 zero\n")
    with pytest.raises(FormatError):
        m.read_obj(junk)
