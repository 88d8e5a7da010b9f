"""World-edge proximity queries and feature-matrix invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pb4u import graph as g
from pb4u import mesh as m
from pb4u.errors import InvalidArgument, InvalidMesh

MAT = m.DEFAULT_MATERIAL


def brute_force_pairs(garment, body, radius):
    pairs = []
    for i, p in enumerate(garment):
        for j, q in enumerate(body):
            if np.linalg.norm(p - q) < radius:
                pairs.append((i, j))
    return sorted(pairs)


def make_state(garment_mesh, body_mesh, dt=0.02, garment_pos=None, body_pos=None):
    gp = garment_mesh.rest_positions.copy() if garment_pos is None else garment_pos
    bp = body_mesh.rest_positions.copy() if body_pos is None else body_pos
    return g.SimState(
        garment_pos=gp,
        garment_vel=np.zeros_like(gp),
        body_pos=bp,
        body_pos_prev=bp.copy(),
        time_step=dt,
    )


def test_world_edges_threshold():
    garment = np.array([[0.0, 0.0, 0.0]])
    body = np.array([[0.0, 0.5, 0.0]])
    assert g.build_world_edges(garment, body, 0.4).shape == (0, 2)
    edges = g.build_world_edges(garment, body, 0.6)
    assert edges.tolist() == [[0, 0]]


def test_world_edges_match_all_pairs_oracle():
    r = np.random.default_rng(0)
    garment = r.uniform(0, 1, size=(100, 3))
    body = r.uniform(0, 1, size=(100, 3))
    edges = g.build_world_edges(garment, body, 0.2)
    assert edges.tolist() == [list(p) for p in brute_force_pairs(garment, body, 0.2)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.9))
def test_world_edges_oracle_property(seed, radius):
    r = np.random.default_rng(seed)
    garment = r.uniform(-1, 1, size=(40, 3))
    body = r.uniform(-1, 1, size=(35, 3))
    edges = g.build_world_edges(garment, body, radius)
    assert edges.tolist() == [list(p) for p in brute_force_pairs(garment, body, radius)]


def test_world_edges_sorted_and_validated():
    r = np.random.default_rng(5)
    garment = r.uniform(0, 1, size=(30, 3))
    body = r.uniform(0, 1, size=(30, 3))
    edges = g.build_world_edges(garment, body, 0.3)
    assert edges.tolist() == sorted(edges.tolist())
    with pytest.raises(InvalidArgument):
        g.build_world_edges(garment, body, 0.0)


def exact_pairs(garment, body, radius):
    """All-pairs oracle in the search's own arithmetic, so points on a cell
    face round as they do there."""
    d = garment[:, None] - body[None]
    return np.argwhere((d * d).sum(-1) < radius * radius)


@st.composite
def point_clouds(draw):
    """Garment and body clouds at scales 1e-3 to 1e3 with a radius; some
    points snapped to multiples of the radius (cell faces), some repeated,
    either cloud possibly empty."""
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3, 3))
    radius = scale * draw(st.floats(0.05, 1.0))
    n_g, n_b = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    points = r.normal(size=(n_g + n_b, 3)) * scale
    snapped = r.random(n_g + n_b) < draw(st.floats(0, 1))
    points[snapped] = np.round(points[snapped] / radius) * radius
    if n_g + n_b:
        copies = r.integers(0, n_g + n_b, size=(n_g + n_b) // 4)
        points[r.integers(0, n_g + n_b, size=copies.shape[0])] = points[copies]
    return points[:n_g], points[n_g:], radius


@settings(max_examples=200, deadline=None)
@given(point_clouds())
def test_world_edges_match_exact_oracle(clouds):
    garment, body, radius = clouds
    edges = g.build_world_edges(garment, body, radius)
    assert edges.dtype == np.int64 and edges.shape[1:] == (2,)
    assert np.array_equal(edges, exact_pairs(garment, body, radius))


def test_world_edges_dedupe_when_every_cell_shares_a_key(monkeypatch):
    # every body vertex is then a candidate of each garment vertex through all
    # 27 offsets; the search must still return each close pair once
    monkeypatch.setattr(g, "_pack_cells", lambda cells: np.zeros(cells.shape[0], dtype=np.int64))
    r = np.random.default_rng(3)
    garment = r.uniform(0, 1, size=(30, 3))
    body = r.uniform(0, 1, size=(25, 3))
    want = exact_pairs(garment, body, 0.3)
    assert want.shape[0] > 0
    assert np.array_equal(g.build_world_edges(garment, body, 0.3), want)


def far_state(garment_mesh):
    """A state whose body is far from the garment: the garment rows of every
    feature are those of the garment alone."""
    body = m.make_grid_cloth(2, 0.4, MAT)
    return body, make_state(garment_mesh, body, body_pos=body.rest_positions + 100.0)


def test_vertex_features_rest_grid():
    grid = m.make_grid_cloth(3, 1.0, MAT)
    body, state = far_state(grid)
    feats = g.vertex_features(state, grid, m.vertex_normals(state.body_pos, body))
    assert feats.shape == (9 + 4, g.VERTEX_FEATURE_DIM)
    feats = feats[:9]
    assert np.all(feats[:, 0:3] == 0.0)          # zero velocity
    assert np.allclose(feats[:, 4:7], [0, 1, 0])  # flat grid normals
    assert np.all(feats[:, 12] == 1.0)            # garment one-hot
    assert np.all(feats[:, 13] == 0.0)


def test_vertex_mass_matches_per_face_area_oracle():
    grid = m.make_grid_cloth(3, 1.0, MAT)
    body, state = far_state(grid)
    feats = g.vertex_features(state, grid, m.vertex_normals(state.body_pos, body))
    center = 4  # interior vertex of the 3x3 grid
    area_sum = 0.0
    for tri in grid.triangles:
        if center in tri:
            a = grid.rest_positions[tri[1]] - grid.rest_positions[tri[0]]
            b = grid.rest_positions[tri[2]] - grid.rest_positions[tri[0]]
            area_sum += 0.5 * np.linalg.norm(np.cross(a, b))
    assert feats[center, 3] == pytest.approx(MAT.mass_density * area_sum / 3.0, rel=1e-12)


def test_features_translation_invariant():
    grid = m.make_grid_cloth(4, 1.0, MAT)
    body = m.make_grid_cloth(2, 0.4, MAT)
    state = make_state(grid, body)
    shift = np.array([5.0, 5.0, 5.0])
    moved = g.SimState(
        garment_pos=state.garment_pos + shift,
        garment_vel=state.garment_vel.copy(),
        body_pos=state.body_pos + shift,
        body_pos_prev=state.body_pos_prev + shift,
        time_step=state.time_step,
    )
    base = g.vertex_features(state, grid, m.vertex_normals(state.body_pos, body))
    trans = g.vertex_features(moved, grid, m.vertex_normals(moved.body_pos, body))
    # velocities are stored, normals are direction-only: exact invariance
    assert np.allclose(trans, base, atol=1e-12)
    assert np.array_equal(trans[:, 0:3], base[:, 0:3])


def test_edge_features_rest_and_stretched():
    grid = m.make_grid_cloth(3, 1.0, MAT)
    rest = g.edge_features(grid.rest_positions, grid)
    assert np.array_equal(rest[:, 0:3], rest[:, 3:6])
    assert np.all(rest[:, 6] == 1.0)
    doubled = g.edge_features(grid.rest_positions * 2.0, grid)
    assert np.allclose(doubled[:, 6], 2.0, rtol=1e-15)
    assert np.allclose(doubled[:, 0:3], 2.0 * doubled[:, 3:6], rtol=1e-15)


def test_edge_ratio_matches_per_edge_loop():
    grid = m.make_grid_cloth(3, 1.0, MAT)
    r = np.random.default_rng(2)
    deformed = grid.rest_positions + 0.05 * r.normal(size=grid.rest_positions.shape)
    directed = np.concatenate([grid.edges, grid.edges[:, ::-1]])
    feats = g.edge_features(deformed, grid)
    for row, (i, j) in enumerate(directed):
        cur = np.linalg.norm(deformed[j] - deformed[i])
        restl = np.linalg.norm(grid.rest_positions[j] - grid.rest_positions[i])
        assert abs(feats[row, 6] - cur / restl) <= 1e-12


def test_zero_rest_length_rejected():
    # rest lengths come from the mesh, which rejects coincident vertices
    pos = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
    with pytest.raises(InvalidMesh):
        m.TriMesh.from_triangles(pos, np.array([[0, 1, 2]]), MAT)


def test_build_graph_structure_and_world_direction():
    grid = m.make_grid_cloth(3, 1.0, MAT)
    body = m.make_grid_cloth(2, 0.5, MAT)
    body_pos = body.rest_positions + np.array([0.0, -0.01, 0.0])
    state = make_state(grid, body, body_pos=body_pos)
    sg = g.build_graph(state, grid, body, world_radius=0.4)
    assert sg.garment_count == 9
    assert sg.mesh_edges.shape == (32, 2)
    assert sg.world_edges.shape[0] > 0
    # world edges point body -> garment
    assert np.all(sg.world_edges[:, 0] >= 9)
    assert np.all(sg.world_edges[:, 1] < 9)
    assert sg.vertex_features.shape == (13, g.VERTEX_FEATURE_DIM)
    assert sg.edge_features.shape == (32 + sg.world_edges.shape[0], g.EDGE_FEATURE_DIM)
    # world ratio feature stays in [0, 1)
    world_rows = sg.edge_features[32:]
    assert np.all(world_rows[:, 6] < 1.0)


def test_graph_translation_invariance_bitwise_features():
    grid = m.make_grid_cloth(4, 1.0, MAT)
    body = m.make_grid_cloth(2, 0.4, MAT)
    state = make_state(grid, body)
    sg = g.build_graph(state, grid, body, world_radius=0.5)
    # translating by an exactly-representable offset keeps relative features
    # equal to high precision; the schema guarantees no absolute coordinates
    shift = np.array([4.0, -8.0, 16.0])
    moved = g.SimState(
        garment_pos=state.garment_pos + shift,
        garment_vel=state.garment_vel,
        body_pos=state.body_pos + shift,
        body_pos_prev=state.body_pos_prev + shift,
        time_step=state.time_step,
    )
    sg2 = g.build_graph(moved, grid, body, world_radius=0.5)
    assert np.array_equal(sg.world_edges, sg2.world_edges)
    assert np.allclose(sg2.vertex_features, sg.vertex_features, atol=1e-12)
    assert np.allclose(sg2.edge_features, sg.edge_features, atol=1e-12)


def test_feature_width_constant_across_resolution():
    grid = m.make_grid_cloth(3, 1.0, MAT)
    fine = m.subdivide_midpoint(grid)
    body, s1 = far_state(grid)
    _, s2 = far_state(fine)
    f1 = g.vertex_features(s1, grid, m.vertex_normals(s1.body_pos, body))
    f2 = g.vertex_features(s2, fine, m.vertex_normals(s2.body_pos, body))
    assert f1.shape[1] == f2.shape[1] == g.VERTEX_FEATURE_DIM


def test_state_validation():
    grid = m.make_grid_cloth(2, 1.0, MAT)
    gp = grid.rest_positions
    with pytest.raises(InvalidArgument):
        g.SimState(gp, np.zeros((3, 3)), np.zeros((0, 3)), np.zeros((0, 3)), 0.02)
    with pytest.raises(InvalidArgument):
        g.SimState(gp, np.zeros_like(gp), np.zeros((0, 3)), np.zeros((0, 3)), 0.0)
