"""Acceptance suite: one test per criterion, each enforcing its stated
tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. Criteria 8-11 share one trained checkpoint (24x24 drape-over-sphere
scene, 500 iterations, fixed seed) built by the module fixture; expect a few
minutes of training time on first use.
"""

import json
import math
import struct
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pb4u import control, diffcore as dc, io as pio, network as net, physics, validate
from pb4u.cli import main
from pb4u.diffcore import Tensor
from pb4u.errors import FormatError, IoError
from pb4u.graph import (
    EDGE_FEATURE_DIM,
    VERTEX_FEATURE_DIM,
    SimGraph,
    SimState,
    build_graph,
    build_world_edges,
)
from pb4u.mesh import (
    DEFAULT_MATERIAL,
    MaterialParams,
    ScaleFactors,
    TriMesh,
    make_grid_cloth,
    mean_edge_length,
    rest_scale_factors,
    subdivide_midpoint,
    write_obj,
)
from pb4u.rollout import SimContext, frame_loss, run_rollout, write_rollout_outputs
from pb4u.train import TrainConfig, initial_training_params, refresh_buffer, train

SEED = 7
TRAIN_ITERATIONS = 500


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def trained(workspace):
    """The shared desk-scale training run: scene generation plus 500 training
    iterations through the CLI, timed for the criterion-8 budget."""
    scene_path = workspace / "drape24.json"
    assert main(["gen-scene", "--preset", "drape-sphere", "--grid", "24", "--out", str(scene_path)]) == 0
    config = {
        "iterations": TRAIN_ITERATIONS,
        "seed": SEED,
        "scenes": ["drape24.json"],
    }
    config_path = workspace / "train.json"
    config_path.write_text(json.dumps(config))
    ckpt = workspace / "model.ckpt"
    started = time.perf_counter()
    assert main(["train", "--config", str(config_path), "--out", str(ckpt)]) == 0
    elapsed = time.perf_counter() - started
    return {
        "scene": scene_path,
        "config": config_path,
        "ckpt": ckpt,
        "log": Path(f"{ckpt}.log.csv"),
        "train_seconds": elapsed,
    }


def test_criterion_01_gradient_fidelity():
    started = time.perf_counter()
    errors = validate.energy_gradchecks(seed=SEED, h=1e-6)
    elapsed = time.perf_counter() - started
    for name in validate.ENERGY_NAMES:
        assert errors[name] <= 1e-4, f"{name}: {errors[name]}"
    assert elapsed < 30.0


def test_criterion_02_propagation_control_arithmetic():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    guard = Fraction(1) + 4 * Fraction(float(np.finfo(np.float64).eps))

    for _ in range(1000):  # calibration identity
        k_base = int(rng.integers(1, 65))
        l_base = float(rng.uniform(1e-4, 10.0))
        cfg = control.calibrate(k_base, l_base)
        assert control.propagation_steps(cfg, l_base) == k_base

    for _ in range(200):  # halving doubles K whenever D / L is integral
        k_base = int(rng.integers(1, 41))
        l_base = 2.0 ** -int(rng.integers(1, 20))
        cfg = control.calibrate(k_base, l_base)
        assert control.propagation_steps(cfg, l_base / 2.0) == 2 * k_base

    for _ in range(1000):  # floor against the exact integer-rational oracle
        k_base = int(rng.integers(1, 65))
        l_base = float(rng.uniform(1e-4, 10.0))
        mean_edge = float(rng.uniform(1e-4, 10.0))
        cfg = control.calibrate(k_base, l_base)
        exact = Fraction(cfg.d) / Fraction(mean_edge) * guard
        assert control.propagation_steps(cfg, mean_edge) == max(1, math.floor(exact))
    assert time.perf_counter() - started < 1.0


def _path_graph(n=6, seed=SEED):
    r = np.random.default_rng(seed)
    pairs = np.array([[i, i + 1] for i in range(n - 1)], dtype=np.int64)
    directed = np.concatenate([pairs, pairs[:, ::-1]])
    return SimGraph(
        mesh_edges=directed,
        world_edges=np.zeros((0, 2), dtype=np.int64),
        vertex_features=r.normal(size=(n, VERTEX_FEATURE_DIM)),
        edge_features=r.normal(size=(directed.shape[0], EDGE_FEATURE_DIM)),
        garment_count=n,
    )


def test_criterion_03_k_hop_locality():
    started = time.perf_counter()
    config = net.NetworkConfig(processor_depth=0)
    params = net.init_params(config, seed=SEED, dtype=np.float64)
    base_graph = _path_graph()
    for k in (1, 2, 3):
        base = net.propagate(net.encode(base_graph, params), k, config.gamma, params).data
        perturbed_graph = _path_graph()
        perturbed_graph.vertex_features = perturbed_graph.vertex_features.copy()
        perturbed_graph.vertex_features[0] += 0.5
        perturbed = net.propagate(net.encode(perturbed_graph, params), k, config.gamma, params).data
        for vertex in range(6):
            if vertex <= k:
                assert not np.array_equal(perturbed[vertex], base[vertex]), (k, vertex)
            else:
                assert np.array_equal(perturbed[vertex], base[vertex]), (k, vertex)
    assert time.perf_counter() - started < 1.0


def _brute_force_scale(mesh: TriMesh) -> np.ndarray:
    out = np.zeros(mesh.vertex_count)
    for v in range(mesh.vertex_count):
        incident = []
        for (i, j), length in zip(mesh.edges.tolist(), mesh.rest_edge_lengths):
            if i == v:
                incident.append((j, length))
            elif j == v:
                incident.append((i, length))
        incident.sort(key=lambda pair: pair[0])
        acc = 0.0
        for _, length in incident:
            acc += length
        out[v] = acc / len(incident)
    return out


def test_criterion_04_update_scaling_law():
    started = time.perf_counter()
    config = net.NetworkConfig(processor_depth=2)
    params = net.init_params(config, seed=SEED, dtype=np.float64)
    for mesh in (make_grid_cloth(3, 1.0, DEFAULT_MATERIAL),
                 subdivide_midpoint(make_grid_cloth(3, 1.0, DEFAULT_MATERIAL))):
        scale = rest_scale_factors(mesh)
        assert np.array_equal(scale.s, _brute_force_scale(mesh))

        body = make_grid_cloth(2, 0.4, DEFAULT_MATERIAL)
        far = body.rest_positions + 100.0
        state = SimState(
            garment_pos=mesh.rest_positions.copy(),
            garment_vel=np.zeros((mesh.vertex_count, 3)),
            body_pos=far,
            body_pos_prev=far.copy(),
            time_step=0.02,
        )
        graph = build_graph(state, mesh, body, world_radius=0.1, dtype=np.float64)
        assert graph.world_edges.shape[0] == 0
        latent = net.encode(graph, params)
        v = net.process(latent, net.update(latent, net.propagate(latent, 2, config.gamma, params), params), params)
        raw = net.decode_and_scale(v, ScaleFactors(np.ones(mesh.vertex_count)), params).data
        scaled = net.decode_and_scale(v, scale, params).data
        ratio = scaled / raw
        assert np.max(np.abs(ratio / scale.s[:, None] - 1.0)) <= 1e-12
    assert time.perf_counter() - started < 1.0


def test_criterion_05_translation_invariance(workspace):
    started = time.perf_counter()
    scene = pio.load_scene(_drape_scene_path(workspace, grid=12))
    config = net.NetworkConfig()
    params = net.init_params(config, seed=SEED, dtype=np.float64)
    scale = rest_scale_factors(scene.garment)
    state = scene.initial_state()
    shift = np.array([17.3, -4.2, 8.9])
    moved = SimState(
        garment_pos=state.garment_pos + shift,
        garment_vel=state.garment_vel.copy(),
        body_pos=state.body_pos + shift,
        body_pos_prev=state.body_pos_prev + shift,
        time_step=state.time_step,
    )
    base_pos, base_vel = net.step(state, scene.garment, scene.body_mesh, scale, params, config, 8,
                                  scene.world_radius)
    trans_pos, trans_vel = net.step(moved, scene.garment, scene.body_mesh, scale, params, config, 8,
                                    scene.world_radius)
    accel_base = (base_vel.data - state.garment_vel) / state.time_step
    accel_trans = (trans_vel.data - moved.garment_vel) / state.time_step
    assert np.max(np.abs(accel_trans - accel_base)) <= 1e-6
    # float addition is not associative, so "exactly the translation" is
    # asserted at the accumulated-rounding scale rather than bitwise
    assert np.max(np.abs((trans_pos.data - base_pos.data) - shift)) <= 1e-9
    assert time.perf_counter() - started < 5.0


def test_criterion_06_world_edge_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    garment = rng.uniform(-1.0, 1.0, size=(200, 3))
    body = rng.uniform(-1.0, 1.0, size=(200, 3))
    # all-pairs oracle: the full 200 x 200 distance matrix
    distances = np.linalg.norm(garment[:, None, :] - body[None, :, :], axis=2)
    for _ in range(10):
        radius = float(rng.uniform(0.05, 1.2))
        got = {tuple(p) for p in build_world_edges(garment, body, radius).tolist()}
        expected = {(int(i), int(j)) for i, j in zip(*np.nonzero(distances < radius))}
        assert got == expected
    assert time.perf_counter() - started < 1.0


def test_criterion_07_physics_zero_and_reference_cases():
    started = time.perf_counter()
    # rest flat cloth at y = 0: all six terms exactly zero
    material = MaterialParams(1.0, 1.0, 1.0, 1.0, 1.0)
    mesh = make_grid_cloth(4, 1.0, material)
    rest = physics.build_rest_geometry(mesh)
    body = make_grid_cloth(2, 0.5, material)
    body_pos = body.rest_positions + np.array([0.0, -5.0, 0.0])
    state = SimState(
        garment_pos=mesh.rest_positions.copy(),
        garment_vel=np.zeros((16, 3)),
        body_pos=body_pos,
        body_pos_prev=body_pos.copy(),
        time_step=0.02,
    )
    _, breakdown = physics.total_loss(
        Tensor(state.garment_pos.copy()), state, state, body,
        mesh, rest, physics.LossWeights(), gravity=9.81, contact_radius=0.05,
    )
    for name, value in breakdown.as_dict().items():
        assert value == 0.0, name

    # uniform x2 in-plane stretch of the unit right triangle, mu = lambda = 1
    tri = TriMesh.from_triangles(
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        np.array([[0, 2, 1]]),
        material,
    )
    tri_rest = physics.build_rest_geometry(tri)
    energy = physics.stretch_energy(Tensor(2.0 * tri.rest_positions), tri_rest, material, tri.triangles)
    assert abs(float(energy.data) - 4.5) <= 1e-9

    # single penetration d = -1e-3 with margin 1e-3: exactly (2e-3)^3
    penalty = physics.collision_penalty(
        Tensor(np.array([[0.0, -1e-3, 0.0]])),
        np.array([[0.0, 0.0, 0.0]]),
        np.array([[0.0, 1.0, 0.0]]),
        build_world_edges(np.array([[0.0, -1e-3, 0.0]]), np.array([[0.0, 0.0, 0.0]]), 0.2),
        margin=1e-3,
    )
    assert float(penalty.data) == (2e-3) * (2e-3) * (2e-3)
    assert abs(float(penalty.data) - 8e-9) < 1e-22
    assert time.perf_counter() - started < 1.0


def _drape_scene_path(workspace, grid):
    path = workspace / f"drape{grid}.json"
    if not path.exists():
        assert main(["gen-scene", "--preset", "drape-sphere", "--grid", str(grid), "--out", str(path)]) == 0
    return path


def _probe_mean_total(scene_path, params, config: TrainConfig) -> float:
    """Mean one-step composite loss over the scene's deterministic free-fall
    states: the fixed evaluation batch for before/after training comparison."""
    from pb4u.rollout import advance

    scene = pio.load_scene(scene_path)
    ctrl = control.calibrate(config.k_base, mean_edge_length(scene.garment))
    ctx = SimContext.build(scene, config.network_config(), ctrl)
    refresh_buffer(scene, ctx, params, use_model=False)
    totals = []
    for entry in scene.buffer[:: max(1, len(scene.buffer) // 16)]:
        next_state, _ = advance(ctx, entry.state, entry.frame, params)
        _, breakdown = frame_loss(ctx, Tensor(next_state.garment_pos.copy()), entry.state, next_state)
        totals.append(breakdown.total)
    return float(np.mean(totals))


def test_criterion_08_training_smoke(trained):
    assert trained["train_seconds"] < 1200.0, "training exceeded the 20 minute budget"
    config = pio.load_train_config(trained["config"])
    initial_params = initial_training_params(config, [pio.load_scene(trained["scene"])])
    trained_params, _ = pio.load_checkpoint(trained["ckpt"])
    # final total loss strictly below initial, on the same fixed probe states
    loss_before = _probe_mean_total(trained["scene"], initial_params, config)
    loss_after = _probe_mean_total(trained["scene"], trained_params, config)
    assert np.isfinite(loss_before) and np.isfinite(loss_after)
    assert loss_after < loss_before

    # every logged iteration is finite and the log has one row per iteration
    rows = trained["log"].read_text().strip().splitlines()
    assert len(rows) == 1 + TRAIN_ITERATIONS
    for row in rows[1:]:
        values = [float(v) for v in row.split(",")[1:]]
        assert all(np.isfinite(values))

    # 50-frame base-resolution rollout: all losses finite, no divergence abort
    out_dir = trained["scene"].parent / "smoke_frames"
    metrics = trained["scene"].parent / "smoke_metrics.csv"
    rc = main(["rollout", "--ckpt", str(trained["ckpt"]), "--scene", str(trained["scene"]),
               "--frames", "50", "--out-dir", str(out_dir), "--metrics", str(metrics)])
    assert rc == 0
    data = metrics.read_text().strip().splitlines()
    assert len(data) == 1 + 50
    for row in data[1:]:
        assert all(np.isfinite(float(v)) for v in row.split(",")[1:])


def _subdivided_scene(trained, workspace):
    path = workspace / "drape24_fine.json"
    if path.exists():
        return path
    base_doc = json.loads(trained["scene"].read_text())
    grid = make_grid_cloth(24, 1.0, DEFAULT_MATERIAL)
    base_obj = workspace / "garment24.obj"
    write_obj(base_obj, grid.rest_positions, grid.triangles)
    fine_obj = workspace / "garment24_fine.obj"
    assert main(["subdivide", "--in", str(base_obj), "--levels", "1", "--out", str(fine_obj)]) == 0
    base_doc["garment"] = {"kind": "obj", "path": fine_obj.name, "origin": [0.0, 0.0, 0.0], "pinned": []}
    pio.save_scene(base_doc, path)
    return path


def _mean_stretch(metrics_path) -> float:
    rows = metrics_path.read_text().strip().splitlines()
    header = rows[0].split(",")
    column = header.index("stretch")
    values = [float(r.split(",")[column]) for r in rows[1:]]
    assert values, "no completed frames to compare"
    return float(np.mean(values))


def test_criterion_09_cross_resolution_ablation_direction(trained, workspace):
    started = time.perf_counter()
    fine_scene = _subdivided_scene(trained, workspace)
    fine = pio.load_scene(fine_scene)
    base = pio.load_scene(trained["scene"])
    assert fine.garment.triangles.shape[0] == 4 * base.garment.triangles.shape[0]

    full_metrics = workspace / "fine_full.csv"
    rc = main(["rollout", "--ckpt", str(trained["ckpt"]), "--scene", str(fine_scene), "--frames", "30",
               "--out-dir", str(workspace / "fine_full"), "--metrics", str(full_metrics)])
    assert rc == 0, "full model must complete the subdivided rollout"
    rows = full_metrics.read_text().strip().splitlines()
    assert len(rows) == 1 + 30
    for row in rows[1:]:
        assert all(np.isfinite(float(v)) for v in row.split(",")[1:])

    ablated_metrics = workspace / "fine_ablated.csv"
    rc = main(["rollout", "--ckpt", str(trained["ckpt"]), "--scene", str(fine_scene), "--frames", "30",
               "--out-dir", str(workspace / "fine_ablated"), "--metrics", str(ablated_metrics),
               "--no-adaptive-k", "--no-update-scaling"])
    assert rc in (0, 3)  # divergence aborts keep partial metrics
    assert _mean_stretch(ablated_metrics) > _mean_stretch(full_metrics)
    assert time.perf_counter() - started < 600.0


def test_criterion_10_determinism_and_persistence(workspace):
    started = time.perf_counter()
    scene_path = _drape_scene_path(workspace, grid=12)
    config = TrainConfig(
        scenes=[str(scene_path)], iterations=30, seed=99,
        k_base=4, processor_depth=2, latent_dim=64, buffer_refresh=10,
    )

    results = []
    for _ in range(2):
        scene = pio.load_scene(scene_path)
        results.append(train(config, [scene]))
    ckpt_a, ckpt_b = workspace / "det_a.ckpt", workspace / "det_b.ckpt"
    pio.save_checkpoint(results[0].params, ckpt_a, meta=results[0].checkpoint_meta())
    pio.save_checkpoint(results[1].params, ckpt_b, meta=results[1].checkpoint_meta())
    assert ckpt_a.read_bytes() == ckpt_b.read_bytes(), "same seed must give bitwise-identical checkpoints"

    scene = pio.load_scene(scene_path)
    ctx = SimContext.build(scene, config.network_config(), results[0].control)
    in_memory = run_rollout(ctx, results[0].params, 10)
    assert not in_memory.diverged
    dir_mem = workspace / "rollout_mem"
    write_rollout_outputs(in_memory, scene, dir_mem, workspace / "mem.csv")

    again = run_rollout(SimContext.build(pio.load_scene(scene_path), config.network_config(),
                                         results[0].control), results[0].params, 10)
    dir_rep = workspace / "rollout_rep"
    write_rollout_outputs(again, scene, dir_rep, workspace / "rep.csv")

    loaded_params, meta = pio.load_checkpoint(ckpt_a)
    ctrl = control.calibrate(int(meta["k_base"]), meta["l_base"])
    loaded = run_rollout(SimContext.build(pio.load_scene(scene_path), config.network_config(), ctrl),
                         loaded_params, 10)
    dir_load = workspace / "rollout_load"
    write_rollout_outputs(loaded, scene, dir_load, workspace / "load.csv")

    for frame in range(10):
        name = f"frame_{frame:04d}.obj"
        reference = (dir_mem / name).read_bytes()
        assert (dir_rep / name).read_bytes() == reference, "replay must be bitwise identical"
        assert (dir_load / name).read_bytes() == reference, "save->load->rollout must match in-memory"

    blob = bytearray(ckpt_a.read_bytes())
    header_len = struct.unpack_from("<Q", blob, 12)[0]
    blob[8 + 4 + 8 + header_len + 321] ^= 0x10
    corrupt = workspace / "corrupt.ckpt"
    corrupt.write_bytes(bytes(blob))
    with pytest.raises((FormatError, IoError), match="CRC"):
        pio.load_tensors(corrupt)
    assert time.perf_counter() - started < 300.0


def test_criterion_11_sweep_machinery(trained, workspace):
    started = time.perf_counter()
    sweep_a = workspace / "sweep_a.csv"
    sweep_b = workspace / "sweep_b.csv"
    base = ["sweep-k", "--ckpt", str(trained["ckpt"]), "--scene", str(trained["scene"]),
            "--k-range", "1:12", "--frames", "5"]
    rc_a = main(base + ["--out", str(sweep_a)])
    rc_b = main(base + ["--out", str(sweep_b)])
    assert rc_a in (0, 3) and rc_b in (0, 3)
    rows = sweep_a.read_text().strip().splitlines()
    assert rows[0] == "k,total"
    assert len(rows) == 1 + 12
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(1, 13))
    assert sweep_a.read_text() == sweep_b.read_text(), "sweep must be deterministic"
    # the loss-vs-K trend is reported, not asserted: desk-scale training is
    # too stochastic to pin its shape
    totals = [float(r.split(",")[1]) for r in rows[1:]]
    print("\nsweep-k totals (K=1..12):", ", ".join(f"{t:.4g}" for t in totals))
    assert time.perf_counter() - started < 600.0
