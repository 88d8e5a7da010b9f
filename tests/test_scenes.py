"""Procedural scene building: body primitives, keyframe interpolation, and
buffer sampling."""

import numpy as np
import pytest
from scipy import stats

from pb4u.errors import InvalidArgument, InvalidState
from pb4u.graph import SimState
from pb4u.mesh import DEFAULT_MATERIAL, mean_edge_length
from pb4u.scenes import (
    BodySpec,
    BufferedFrame,
    drape_sphere_preset,
    sample_frame,
    uv_sphere,
)
from pb4u import io as pio


def test_uv_sphere_outward_winding_and_radius():
    sphere = uv_sphere(0.3, 10, 14, DEFAULT_MATERIAL)
    radii = np.linalg.norm(sphere.rest_positions, axis=1)
    assert np.allclose(radii, 0.3, rtol=1e-12)
    from pb4u.mesh import vertex_normals

    normals = vertex_normals(sphere.rest_positions, sphere)
    outward = (normals * sphere.rest_positions).sum(axis=1)
    assert np.all(outward > 0)


def test_uv_sphere_tessellation_bounds():
    with pytest.raises(InvalidArgument):
        uv_sphere(0.3, 2, 14, DEFAULT_MATERIAL)


def test_body_keyframe_interpolation():
    body = BodySpec(
        kind="sphere",
        radius=0.2,
        keyframes=np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0]]),
    )
    assert np.allclose(body.center_at(-5.0), [0.0, 0.0, 0.0])
    assert np.allclose(body.center_at(0.5), [1.0, 0.0, 0.0])
    assert np.allclose(body.center_at(7.0), [2.0, 0.0, 0.0])


def test_body_spec_validation():
    with pytest.raises(InvalidArgument):
        BodySpec(kind="capsule", radius=0.2, keyframes=np.zeros((1, 4)))
    with pytest.raises(InvalidArgument):
        BodySpec(kind="sphere", radius=0.2, keyframes=np.array([[0.0, np.inf, 0, 0]]))


def scene_with_buffer(n_states):
    scene = pio.scene_from_dict(drape_sphere_preset(4, frames=8))
    base = scene.initial_state()
    for f in range(n_states):
        shifted = SimState(
            garment_pos=base.garment_pos + f * 0.01,
            garment_vel=base.garment_vel.copy(),
            body_pos=base.body_pos.copy(),
            body_pos_prev=base.body_pos_prev.copy(),
            time_step=base.time_step,
        )
        scene.buffer.append(BufferedFrame(f, shifted))
    return scene


def test_sample_frame_singleton_and_empty():
    scene = scene_with_buffer(1)
    rng = np.random.default_rng(0)
    assert sample_frame(scene, rng) is scene.buffer[0]
    scene.buffer.clear()
    with pytest.raises(InvalidState):
        sample_frame(scene, rng)


def test_sample_frame_deterministic_replay():
    scene = scene_with_buffer(12)
    draws_a = [sample_frame(scene, np.random.default_rng(42)).frame for _ in range(1)]
    seq_a = [sample_frame(scene, rng).frame for rng in [np.random.default_rng(42)]]
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    seq1 = [sample_frame(scene, rng1).frame for _ in range(50)]
    seq2 = [sample_frame(scene, rng2).frame for _ in range(50)]
    assert seq1 == seq2


def test_sample_frame_uniform_chi_square():
    scene = scene_with_buffer(20)
    rng = np.random.default_rng(123)
    counts = np.zeros(20)
    draws = 10_000
    for _ in range(draws):
        counts[sample_frame(scene, rng).frame] += 1
    chi2, p = stats.chisquare(counts)
    assert p > 1e-3


def test_preset_world_radius_tracks_base_mesh():
    doc = drape_sphere_preset(10)
    scene = pio.scene_from_dict(doc)
    assert doc["world_edge_radius"] == pytest.approx(1.5 * mean_edge_length(scene.garment), rel=1e-12)


def test_initial_state_has_zero_body_velocity():
    scene = pio.scene_from_dict(drape_sphere_preset(5, frames=6))
    state = scene.initial_state()
    assert np.array_equal(state.body_pos, state.body_pos_prev)
    assert np.all(state.garment_vel == 0.0)
