"""One world-edge search per pre-step state: the friction term reads the
(garment, body) pairs the graph build found, and matches a fresh search."""

import dataclasses

import numpy as np
import pytest

from pb4u import diffcore as dc
from pb4u import graph
from pb4u import io as pio
from pb4u import network as net
from pb4u import physics
from pb4u.control import calibrate
from pb4u.diffcore import Tensor
from pb4u.mesh import mean_edge_length, vertex_normals
from pb4u.rollout import SimContext, advance, frame_loss
from pb4u.scenes import drape_sphere_preset, hang_pinned_preset

CONFIG = net.NetworkConfig(latent_dim=16, gamma=0.9, k_steps=3, processor_depth=1)


def _drape_frame():
    """Grid 9 lowered to 1 mm above the pole of the sphere: a frame with contacts."""
    scene = pio.scene_from_dict(drape_sphere_preset(9, frames=4))
    state = scene.initial_state()
    top = scene.body_positions(0)[:, 1].max()
    state.garment_pos[:, 1] += top + 1e-3
    return scene, state, 0


def _hang_frame():
    """Pinned hanging cloth at mid-episode, the sphere pushed through it."""
    scene = pio.scene_from_dict(hang_pinned_preset(8))
    frame = scene.frames // 2
    state = dataclasses.replace(
        scene.initial_state(), body_pos=scene.body_positions(frame), body_pos_prev=scene.body_positions(frame - 1)
    )
    return scene, state, frame


def _context(scene):
    ctx = SimContext.build(scene, CONFIG, calibrate(3, mean_edge_length(scene.garment)))
    return ctx, net.init_params(CONFIG, seed=5, dtype=np.float32)


def _oracle_friction(pred_pos, state, body_normals_t, masses, friction_coeff, radius, margin):
    """The friction term with its own world-edge search of the pre-step
    state, as it was computed before it took the graph build's pairs."""
    pairs = graph.build_world_edges(state.garment_pos, state.body_pos, radius)
    if pairs.shape[0] == 0:
        return Tensor(np.asarray(0.0, pred_pos.dtype))
    delta = state.garment_pos[pairs[:, 0]] - state.body_pos[pairs[:, 1]]
    order = np.lexsort((pairs[:, 1], (delta * delta).sum(axis=1), pairs[:, 0]))
    chosen = order[np.unique(pairs[order, 0], return_index=True)[1]]
    g_idx, b_idx = pairs[chosen, 0], pairs[chosen, 1]
    normals = body_normals_t[b_idx]
    touching = ((state.garment_pos[g_idx] - state.body_pos[b_idx]) * normals).sum(axis=1) < margin
    g_idx, normals = g_idx[touching], normals[touching]
    if g_idx.shape[0] == 0:
        return Tensor(np.asarray(0.0, pred_pos.dtype))
    dtype = pred_pos.dtype
    disp = dc.sub(dc.gather(pred_pos, g_idx), Tensor(state.garment_pos[g_idx].astype(dtype)))
    n_const = Tensor(normals.astype(dtype))
    tangential = dc.sub(disp, dc.scale_rows(n_const, dc.dot(disp, n_const)))
    coeff = (friction_coeff * masses[g_idx] / state.time_step**2).astype(dtype)
    return dc.sum_all(dc.mul(dc.dot(tangential, tangential), Tensor(coeff)))


def test_advance_and_frame_loss_search_world_edges_twice(monkeypatch):
    scene, state, frame = _drape_frame()
    ctx, params = _context(scene)
    calls = []
    search = graph.build_world_edges

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(graph, "build_world_edges", counted)
    monkeypatch.setattr(physics, "build_world_edges", counted)
    next_state, pred, pairs = advance(ctx, state, frame, params)
    frame_loss(ctx, pred, state, pairs, next_state)
    assert pairs.shape[0] > 0
    # one search for the graph of the pre-step state, one for the collision
    # term on the predicted frame
    assert len(calls) == 2
    assert calls[0][0] is state.garment_pos


@pytest.mark.parametrize("make_frame", [_drape_frame, _hang_frame], ids=["drape", "hang-pinned"])
def test_friction_from_graph_pairs_matches_fresh_search_bitwise(make_frame):
    scene, state, frame = make_frame()
    ctx, params = _context(scene)
    next_state, pred, pairs = advance(ctx, state, frame, params)
    assert np.array_equal(pairs, graph.build_world_edges(state.garment_pos, state.body_pos, scene.world_radius))
    normals_t = vertex_normals(state.body_pos, scene.body_mesh)
    masses, coeff = ctx.rest.vertex_masses, scene.garment.material.friction_coeff
    got = physics.friction_penalty(pred, state, pairs, normals_t, masses, coeff, scene.contact_margin)
    want = _oracle_friction(pred, state, normals_t, masses, coeff, scene.world_radius, scene.contact_margin)
    assert want.item() > 0.0
    assert got.dtype == want.dtype
    assert np.array_equal(got.data, want.data)
