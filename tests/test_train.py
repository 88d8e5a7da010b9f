"""Training loop: determinism, optimizer behaviour, logging contract."""

import numpy as np
import pytest

from pb4u import io as pio
from pb4u.errors import InvalidArgument
from pb4u.physics import LossWeights
from pb4u.scenes import drape_sphere_preset
from pb4u import train as tr
from pb4u.control import calibrate
from pb4u.mesh import mean_edge_length
from pb4u.rollout import SimContext, run_rollout
from pb4u.train import Adam, TrainConfig, clip_gradients, train
from pb4u.diffcore import Tensor


def tiny_config(**overrides):
    defaults = dict(
        scenes=["unused"],
        iterations=6,
        learning_rate=1e-4,
        seed=11,
        k_base=3,
        processor_depth=1,
        latent_dim=32,
        buffer_refresh=3,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def tiny_scene(frames=8, grid=6):
    return pio.scene_from_dict(drape_sphere_preset(grid, frames=frames))


def named_copy(params):
    return {k: t.data.copy() for k, t in params.named_tensors().items()}


def test_zero_learning_rate_keeps_weights_bitwise():
    from pb4u.train import initial_training_params

    config = tiny_config(learning_rate=0.0)
    initial = initial_training_params(config, [tiny_scene()])
    before = {k: t.data.copy() for k, t in initial.named_tensors().items()}
    result = train(config, [tiny_scene()])
    after = named_copy(result.params)
    assert set(before) == set(after)
    for key in before:
        assert np.array_equal(before[key], after[key]), key


def test_single_iteration_logs_once():
    result = train(tiny_config(iterations=1), [tiny_scene()])
    assert len(result.log) == 1


def test_log_rows_are_weighted_sums():
    weights = LossWeights(stretch=2.0, bending=1.0, collision=1.0, gravity=0.5, friction=1.0, inertia=3.0)
    result = train(tiny_config(weights=weights), [tiny_scene()])
    for row in result.log:
        acc = 0.0
        for name in ("stretch", "bending", "collision", "gravity", "friction", "inertia"):
            acc += getattr(row, name)
        assert row.total == acc
        assert np.isfinite(row.total)


def test_training_is_bitwise_deterministic():
    a = train(tiny_config(), [tiny_scene()])
    b = train(tiny_config(), [tiny_scene()])
    na, nb = named_copy(a.params), named_copy(b.params)
    for key in na:
        assert np.array_equal(na[key], nb[key]), key
    for ra, rb in zip(a.log, b.log):
        assert ra.as_dict() == rb.as_dict()


def test_different_seed_changes_weights():
    a = train(tiny_config(seed=1), [tiny_scene()])
    b = train(tiny_config(seed=2), [tiny_scene()])
    na, nb = named_copy(a.params), named_copy(b.params)
    assert any(not np.array_equal(na[k], nb[k]) for k in na)


def test_control_calibration_uses_base_mesh():
    from pb4u.mesh import mean_edge_length

    scene = tiny_scene()
    result = train(tiny_config(), [scene])
    assert result.control.l_base == mean_edge_length(scene.garment)
    assert result.control.k_base == 3
    assert result.control.d == 3 * result.control.l_base


def test_config_validation():
    with pytest.raises(InvalidArgument):
        tiny_config(iterations=0)
    with pytest.raises(InvalidArgument):
        tiny_config(rollout_steps=0)
    with pytest.raises(InvalidArgument):
        tiny_config(learning_rate=-1.0)


def test_model_size_bounds_are_inclusive():
    config = tiny_config(latent_dim=1024, processor_depth=16)
    assert (config.latent_dim, config.processor_depth) == (1024, 16)


def test_adam_matches_reference_formula():
    t = Tensor(np.array([1.0, -2.0], dtype=np.float32), track=True)
    named = {"w": t}
    opt = Adam(named, lr=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8)
    g = np.array([0.5, -1.0], dtype=np.float32)
    opt.step(named, {"w": g.copy()})
    m = 0.1 * g
    v = 0.001 * g * g
    m_hat = m / (1 - 0.9)
    v_hat = v / (1 - 0.999)
    expected = np.array([1.0, -2.0], dtype=np.float32) - (0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)).astype(np.float32)
    assert np.allclose(t.data, expected, rtol=1e-6)


def test_gradient_clipping_scales_to_unit_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0)
    clipped = np.sqrt(grads["a"][0] ** 2 + grads["b"][0] ** 2)
    assert clipped == pytest.approx(1.0, rel=1e-12)
    small = {"a": np.array([0.1])}
    clip_gradients(small, 1.0)
    assert small["a"][0] == 0.1


def test_multi_step_rollout_config_runs():
    result = train(tiny_config(rollout_steps=2, iterations=2), [tiny_scene()])
    assert len(result.log) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_nonfinite_loss_aborts_with_diagnostic_dump(tmp_path):
    from pb4u.errors import NumericDivergence

    # an absurd learning rate explodes the parameters after the first update
    config = tiny_config(learning_rate=1e22, iterations=10)
    with pytest.raises(NumericDivergence):
        train(config, [tiny_scene()], diagnostics_dir=tmp_path)
    dumps = sorted(tmp_path.glob("diverged_iter*"))
    assert any(p.suffix == ".obj" for p in dumps)
    assert any(p.suffix == ".json" for p in dumps)


def test_short_model_roll_continues_with_the_free_fall_frames_past_it(monkeypatch):
    scene = tiny_scene(frames=16)
    config = tiny_config()
    ctx = SimContext.build(scene, config.network_config(), calibrate(config.k_base, mean_edge_length(scene.garment)))
    params = tr.initial_training_params(config, [scene])
    checked = []
    monkeypatch.setattr(tr, "_state_is_sane", lambda scene, state, frame: checked.append(frame) or frame < 3)
    tr.refresh_buffer(scene, ctx, params, use_model=True)
    assert checked == [1, 2, 3]   # the roll stops at the first rejected frame
    free_fall = tr._free_fall_states(scene)
    assert len(free_fall) > 3 and 3 < scene.frames // 2
    assert [entry.frame for entry in scene.buffer] == list(range(len(free_fall)))
    assert not np.array_equal(scene.buffer[2].state.garment_pos, free_fall[2].state.garment_pos)
    for got, want in zip(scene.buffer[3:], free_fall[3:]):
        assert np.array_equal(got.state.garment_pos, want.state.garment_pos)
        assert np.array_equal(got.state.garment_vel, want.state.garment_vel)


def test_model_refresh_keeps_the_sane_prefix_of_a_full_roll_bitwise():
    scene = tiny_scene(frames=40)
    config = tiny_config()
    ctx = SimContext.build(scene, config.network_config(), calibrate(config.k_base, mean_edge_length(scene.garment)))
    params = tr.initial_training_params(config, [scene])
    for key, t in params.named_tensors().items():
        if key.startswith("decoder."):
            t.data *= 3.0   # a wilder model, so that the roll turns insane part way
    # the oracle rolls every frame and keeps the frames before the first insane one
    full = run_rollout(ctx, params, scene.frames - 1, compute_losses=False, start_state=scene.initial_state())
    kept = []
    for f, state in enumerate(full.states):
        if not tr._state_is_sane(scene, state, f + 1):
            break
        kept.append(state)
    assert 0 < len(kept) < len(full.states)
    tr.refresh_buffer(scene, ctx, params, use_model=True)
    assert [entry.frame for entry in scene.buffer[:len(kept) + 1]] == list(range(len(kept) + 1))
    for entry, want in zip(scene.buffer[1:], kept):
        assert np.array_equal(entry.state.garment_pos, want.garment_pos)
        assert np.array_equal(entry.state.garment_vel, want.garment_vel)


def test_stats_record_each_iterations_grad_norm_buffer_and_depth(monkeypatch):
    norms = []
    clip = tr.clip_gradients
    monkeypatch.setattr(tr, "clip_gradients", lambda grads, max_norm: norms.append(clip(grads, max_norm)) or norms[-1])
    scene = tiny_scene()
    result = train(tiny_config(iterations=4), [scene])
    assert [s.grad_norm for s in result.stats] == norms and len(norms) == 4
    assert all(s.buffer_len == len(scene.buffer) and s.k_steps == 3 for s in result.stats)
    rows = result.log_rows()
    assert list(rows[0]) == list(tr.TRAIN_LOG_COLUMNS)
    assert [row["total"] for row in rows] == [row.total for row in result.log]
