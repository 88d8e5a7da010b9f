"""Every state is assembled by its Scene and every graph's precision is set by
build_graph. The oracles below are the assembly each caller did on its own
before (the network step's next state, the rollout's pin passes, the
free-fall loop, the initial state, per-function feature casts); the results
must match bitwise."""

import numpy as np
import pytest

from pb4u import diffcore as dc
from pb4u import graph
from pb4u import io as pio
from pb4u import network as net
from pb4u.control import calibrate
from pb4u.diffcore import Tensor
from pb4u.graph import SimState
from pb4u.mesh import mean_edge_length
from pb4u.rollout import SimContext, advance
from pb4u.scenes import drape_sphere_preset, hang_pinned_preset
from pb4u.train import _FREE_FALL_PENETRATION, _free_fall_states

CONFIG = net.NetworkConfig(latent_dim=16, gamma=0.9, k_steps=3, processor_depth=1)
FIELDS = ("garment_pos", "garment_vel", "body_pos", "body_pos_prev", "time_step")


@pytest.fixture(params=["drape-sphere", "hang-pinned"])
def scene(request):
    preset = {"drape-sphere": drape_sphere_preset, "hang-pinned": hang_pinned_preset}[request.param]
    return pio.scene_from_dict(preset(8, frames=12))


def _assert_same_state(got, want):
    for name in FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _old_initial_state(scene):
    body0 = scene.body_positions(0)
    return SimState(
        garment_pos=scene.initial_positions.copy(),
        garment_vel=np.zeros_like(scene.initial_positions),
        body_pos=body0,
        body_pos_prev=body0.copy(),
        time_step=scene.dt,
    )


def _old_apply_pins_tensor(scene, pred):
    pinned = scene.pinned
    if pinned.size == 0:
        return pred
    n = pred.data.shape[0]
    mask = np.ones((n, 3), dtype=pred.dtype)
    mask[pinned] = 0.0
    targets = np.zeros((n, 3), dtype=pred.dtype)
    targets[pinned] = scene.pinned_targets()
    return dc.add(dc.mul(pred, Tensor(mask)), Tensor(targets))


def _old_apply_pins_state(scene, state):
    if scene.pinned.size:
        state.garment_pos[scene.pinned] = scene.pinned_targets()
        state.garment_vel[scene.pinned] = 0.0
    return state


def _old_advance(ctx, state, frame, params):
    scene = ctx.scene
    pos_next, vel_next = net.step(
        state, scene.garment, scene.body_mesh, ctx.scale, params, ctx.config, ctx.k_steps, scene.world_radius
    )
    next_state = SimState(
        garment_pos=pos_next.data.astype(np.float64),
        garment_vel=vel_next.data.astype(np.float64),
        body_pos=np.asarray(scene.body_positions(frame + 1), dtype=np.float64),
        body_pos_prev=state.body_pos.copy(),
        time_step=state.time_step,
    )
    pred = _old_apply_pins_tensor(scene, pos_next)
    next_state.garment_pos = pred.data.astype(np.float64)
    _old_apply_pins_state(scene, next_state)
    return next_state, pred


def _old_free_fall_states(scene):
    states = [(0, _old_initial_state(scene))]
    state = states[0][1]
    for f in range(scene.frames - 1):
        vel = state.garment_vel + state.time_step * np.array([0.0, -scene.gravity, 0.0])
        pos = state.garment_pos + state.time_step * vel
        if scene.pinned.size:
            pos[scene.pinned] = scene.pinned_targets()
            vel[scene.pinned] = 0.0
        nxt = SimState(
            garment_pos=pos,
            garment_vel=vel,
            body_pos=scene.body_positions(f + 1),
            body_pos_prev=state.body_pos.copy(),
            time_step=state.time_step,
        )
        if scene.max_penetration(pos, f + 1) > _FREE_FALL_PENETRATION:
            break
        states.append((f + 1, nxt))
        state = nxt
    return states


def test_initial_state_matches_old_assembly(scene):
    _assert_same_state(scene.initial_state(), _old_initial_state(scene))


def test_free_fall_states_match_old_loop(scene):
    got = _free_fall_states(scene)
    want = _old_free_fall_states(scene)
    assert len(got) == len(want) > 1
    for entry, (frame, state) in zip(got, want):
        assert entry.frame == frame
        _assert_same_state(entry.state, state)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_advance_matches_old_assembly(scene, dtype):
    ctx = SimContext.build(scene, CONFIG, calibrate(3, mean_edge_length(scene.garment)))
    params = net.init_params(CONFIG, seed=4, dtype=dtype)
    frame, state = [(e.frame, e.state) for e in _free_fall_states(scene)][-1]
    assert frame > 0 and not np.array_equal(state.body_pos, state.body_pos_prev)
    got_state, got_pred = advance(ctx, state, frame, params)
    want_state, want_pred = _old_advance(ctx, state, frame, params)
    _assert_same_state(got_state, want_state)
    assert got_pred.dtype == want_pred.dtype == dtype
    assert np.array_equal(got_pred.data, want_pred.data)
    pairs = graph.build_world_edges(state.garment_pos, state.body_pos, scene.world_radius)
    assert np.array_equal(state.contacts(scene.body_mesh, scene.world_radius)[0], pairs)
    if scene.pinned.size:
        assert np.array_equal(got_state.garment_pos[scene.pinned], scene.pinned_targets())
        assert np.all(got_state.garment_vel[scene.pinned] == 0.0)


def test_state_at_frame_zero_starts_the_body_at_rest(scene):
    pos = scene.initial_positions + 0.01
    state = scene.state_at(0, pos, np.ones_like(pos))
    assert state.garment_pos is pos   # pinned rows are written in place
    assert np.array_equal(state.body_pos, state.body_pos_prev)
    assert np.array_equal(state.body_pos, scene.body_positions(0))
    assert np.array_equal(state.garment_pos[scene.pinned], scene.pinned_targets())


def test_build_graph_casts_the_float64_features_once(scene):
    # mid-episode the body moves and is within reach of the cloth
    state = scene.state_at(scene.frames // 2, scene.initial_positions.copy(), np.zeros_like(scene.initial_positions))
    wide = graph.build_graph(state, scene.garment, scene.body_mesh, scene.world_radius, dtype=np.float64)
    narrow = graph.build_graph(state, scene.garment, scene.body_mesh, scene.world_radius, dtype=np.float32)
    assert wide.world_edges.shape[0] > 0
    assert np.array_equal(narrow.world_edges, wide.world_edges)
    for name in ("vertex_features", "edge_features"):
        got, want = getattr(narrow, name), getattr(wide, name)
        assert got.dtype == np.float32 and want.dtype == np.float64
        assert got.tobytes() == want.astype(np.float32).tobytes(), name
