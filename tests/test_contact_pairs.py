"""One world-edge search per state: ``SimState.contacts`` finds a state's
(garment, body) pairs and body normals on its first call and keeps them; the
graph build and the friction term read the pre-step state's, the collision
term the predicted frame's. The oracles below are the terms as they were
computed with their own searches; the results must match bitwise."""

import dataclasses
import sys

import numpy as np
import pytest

from pb4u import diffcore as dc
from pb4u import graph, mesh
from pb4u import io as pio
from pb4u import network as net
from pb4u import physics
from pb4u.control import calibrate
from pb4u.diffcore import Tensor
from pb4u.mesh import mean_edge_length, vertex_normals
from pb4u.rollout import SimContext, advance, frame_loss, run_rollout
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


def _oracle_collision(garment_pos, body_pos, body_normals, radius, margin):
    """The collision term with its own world-edge search of the predicted
    positions, as it was computed before it read the predicted frame's
    contacts."""
    positions = np.asarray(garment_pos.data, dtype=np.float64)
    pairs = graph.build_world_edges(positions, body_pos, radius)
    g_idx, b_idx = physics.nearest_contacts(positions, body_pos, pairs)
    dtype = garment_pos.dtype
    if g_idx.shape[0] == 0:
        return Tensor(np.asarray(0.0, dtype))
    xg = dc.gather(garment_pos, g_idx)
    xb = Tensor(body_pos[b_idx].astype(dtype))
    normals = Tensor(body_normals[b_idx].astype(dtype))
    d = dc.dot(dc.sub(xg, xb), normals)
    gap = dc.sub(Tensor(np.full(g_idx.shape[0], margin, dtype=dtype)), d)
    return dc.sum_all(dc.pow3(dc.relu(gap)))


def _count_calls(monkeypatch, fn):
    """Send every pb4u module binding of ``fn`` through a recorder; returns
    the list the argument tuples of its calls are appended to."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name == "pb4u" or name.startswith("pb4u."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def _value_and_grad(term, pred):
    """The term at ``pred`` and its gradient with respect to ``pred``."""
    leaf = Tensor(pred.data.copy(), track=True)
    tape = dc.Tape()
    with dc.recording(tape):
        out = term(leaf)
    tape.backward(out)
    return out.data, leaf.grad


def test_advance_and_frame_loss_search_world_edges_once(monkeypatch):
    scene, state, frame = _drape_frame()
    ctx, params = _context(scene)
    calls = _count_calls(monkeypatch, graph.build_world_edges)
    next_state, pred = advance(ctx, state, frame, params)
    frame_loss(ctx, pred, state, next_state)
    assert state.contacts(scene.body_mesh, scene.world_radius)[0].shape[0] > 0
    # the pre-step state once, for its graph and the friction term; the
    # predicted frame once, for the collision term
    assert len(calls) == 2
    assert calls[0][0] is state.garment_pos and calls[1][0] is next_state.garment_pos
    # the next step's graph reads the predicted frame's contacts
    advance(ctx, next_state, frame + 1, params)
    assert len(calls) == 2


def test_rollout_searches_and_computes_body_normals_once_per_state(monkeypatch):
    scene = pio.scene_from_dict(drape_sphere_preset(9, frames=8))
    ctx, params = _context(scene)
    start = scene.initial_state()
    searches = _count_calls(monkeypatch, graph.build_world_edges)
    normals = _count_calls(monkeypatch, mesh.vertex_normals)
    result = run_rollout(ctx, params, 5, start_state=start)
    assert len(result.states) == len(result.losses) == 5
    states = [start] + result.states
    # the start state and each predicted frame, once each (10 searches when
    # the collision term searched for itself and the graph searched again)
    assert len(searches) == 6
    assert all(a[0] is s.garment_pos for a, s in zip(searches, states))
    body_calls = [args for args in normals if args[1] is scene.body_mesh]
    assert len(body_calls) == 6
    assert all(a[0] is s.body_pos for a, s in zip(body_calls, states))


def test_contacts_match_a_fresh_search_and_are_kept(monkeypatch):
    scene, state, _ = _hang_frame()
    body, radius = scene.body_mesh, scene.world_radius
    want_pairs = graph.build_world_edges(state.garment_pos, state.body_pos, radius)
    want_normals = vertex_normals(state.body_pos, body)
    want_wider = graph.build_world_edges(state.garment_pos, state.body_pos, 2.0 * radius)
    assert want_pairs.shape[0] > 0 and want_wider.shape[0] > want_pairs.shape[0]
    searches = _count_calls(monkeypatch, graph.build_world_edges)
    pairs, normals = state.contacts(body, radius)
    assert np.array_equal(pairs, want_pairs) and np.array_equal(normals, want_normals)
    assert len(searches) == 1
    again = state.contacts(body, radius)
    assert again[0] is pairs and again[1] is normals and len(searches) == 1
    # another radius, or an equal body mesh that is another object, computes them again
    wider = state.contacts(body, 2.0 * radius)
    assert len(searches) == 2
    assert np.array_equal(wider[0], want_wider)
    other_body = pio.scene_from_dict(hang_pinned_preset(8)).body_mesh
    assert other_body is not body
    other = state.contacts(other_body, 2.0 * radius)
    assert len(searches) == 3 and other[0] is not wider[0] and np.array_equal(other[0], wider[0])
    # a replaced state has no contacts yet; the dataclass fields are the state alone
    replaced = dataclasses.replace(state)
    assert replaced == state
    replaced.contacts(body, radius)
    assert len(searches) == 4
    assert [f.name for f in dataclasses.fields(replaced)] == [
        "garment_pos", "garment_vel", "body_pos", "body_pos_prev", "time_step"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("make_frame", [_drape_frame, _hang_frame], ids=["drape", "hang-pinned"])
def test_collision_from_the_predicted_frame_contacts_matches_own_search_bitwise(make_frame, dtype):
    scene, state, frame = make_frame()
    ctx = SimContext.build(scene, CONFIG, calibrate(3, mean_edge_length(scene.garment)))
    params = net.init_params(CONFIG, seed=5, dtype=dtype)
    next_state, pred = advance(ctx, state, frame, params)
    assert pred.dtype == dtype
    if scene.pinned.size and dtype == np.float32:
        # the pinned rows of pred are float32-rounded targets, the state's are exact
        assert not np.array_equal(pred.data[scene.pinned], next_state.garment_pos[scene.pinned])
    pairs, normals = next_state.contacts(scene.body_mesh, scene.world_radius)
    margin = scene.contact_margin
    got, got_grad = _value_and_grad(
        lambda p: physics.collision_penalty(p, next_state.body_pos, normals, pairs, margin), pred)
    want, want_grad = _value_and_grad(
        lambda p: _oracle_collision(p, next_state.body_pos, normals, scene.world_radius, margin), pred)
    assert want > 0.0
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got, want)
    assert np.array_equal(got_grad, want_grad)


@pytest.mark.parametrize("make_frame", [_drape_frame, _hang_frame], ids=["drape", "hang-pinned"])
def test_friction_from_graph_pairs_matches_fresh_search_bitwise(make_frame):
    scene, state, frame = make_frame()
    ctx, params = _context(scene)
    next_state, pred = advance(ctx, state, frame, params)
    pairs, normals_t = state.contacts(scene.body_mesh, scene.world_radius)
    assert np.array_equal(pairs, graph.build_world_edges(state.garment_pos, state.body_pos, scene.world_radius))
    fresh_normals = vertex_normals(state.body_pos, scene.body_mesh)
    assert np.array_equal(normals_t, fresh_normals)
    masses, coeff = ctx.rest.vertex_masses, scene.garment.material.friction_coeff
    got = physics.friction_penalty(pred, state, pairs, normals_t, masses, coeff, scene.contact_margin)
    want = _oracle_friction(pred, state, fresh_normals, masses, coeff, scene.world_radius, scene.contact_margin)
    assert float(want.data) > 0.0
    assert got.dtype == want.dtype
    assert np.array_equal(got.data, want.data)
