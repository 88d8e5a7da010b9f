"""Output checks for the benchmark.

- ``first_step_errors``: the program's first step on the seeded inputs
  against an independent float64 reimplementation of the graph network
  (direct indexing, ``np.add.at`` scatter) and a brute-force world-edge
  search. Holds for every seed.
- ``reference_errors``: per-frame loss terms (rollouts) or the per-iteration
  loss log (training) of the fixed reference case ``REFERENCE_SEED`` against
  the values stored in ``reference.json``.
- ``train_errors``: the final training loss lies in a stated band, and
  repeated ``train()`` calls on the same inputs give identical logs.

Tolerances let float32 reassociation pass and make a wrong gather or scatter
fail. Record the reference from a known-good tree with
``python3 perfbench/checks.py --record``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    import run  # noqa: F401  pins BLAS threads as benchmark runs do, before numpy loads

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
REFERENCE_SEED = 0
REFERENCE_FRAMES = {"rollout-fine": 2, "rollout-dense-body": 3}
REFERENCE_TRAIN = {"iterations": 2, "buffer_refresh": 1}   # one free-fall and one model-driven refresh

POS_ATOL = 1e-6          # metres: first-step positions, float32 state of O(1) m
LOSS_RTOL = 1e-3         # per loss term, as a share of that term
LOSS_FLOOR = 1e-9        # per loss term, as a share of the frame's largest term
TRAIN_FINAL_BAND = (-1e-2, 1e-2)   # final loss of a train() call; 14 seeds gave |loss| <= 2.3e-3


# --- independent float64 reference of one network step -----------------------

def _mlp(weights: dict, prefix: str, x: np.ndarray) -> np.ndarray:
    i = 0
    while f"{prefix}.w{i}" in weights:
        if i:
            x = np.maximum(x, 0.0)
        x = x @ weights[f"{prefix}.w{i}"] + weights[f"{prefix}.b{i}"]
        i += 1
    return x


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def reference_accelerations(graph, params, k_steps: int, gamma: float, scale: np.ndarray) -> np.ndarray:
    """Encode, K propagation steps, update, processor blocks, decode and
    scale, written from the model description with no pb4u kernels."""
    w = {name: t.data.astype(np.float64) for name, t in params.named_tensors().items()}
    n_g = graph.garment_count
    send = np.concatenate([graph.mesh_edges[:, 0], graph.world_edges[:, 0]])
    recv = np.concatenate([graph.mesh_edges[:, 1], graph.world_edges[:, 1]])
    v = _mlp(w, "vertex_encoder", graph.vertex_features.astype(np.float64))
    e = _mlp(w, "edge_encoder", graph.edge_features.astype(np.float64))
    h = v.copy()
    for _ in range(k_steps):
        messages = _mlp(w, "message_fn", np.concatenate([h[recv], h[send], e], axis=1))
        summed = np.zeros((n_g, h.shape[1]))
        np.add.at(summed, recv, messages)
        h[:n_g] = gamma * h[:n_g] + _layer_norm(summed, w["prop_norm.gain"], w["prop_norm.bias"])
    x = v.copy()
    x[:n_g] = _mlp(w, "update_fn", np.concatenate([v[:n_g], h[:n_g]], axis=1))
    blocks = sorted({name.split(".")[1] for name in w if name.startswith("blocks.")})
    for b in blocks:
        e = e + _mlp(w, f"blocks.{b}.edge", np.concatenate([e, x[recv], x[send]], axis=1))
        incoming = np.zeros((n_g, e.shape[1]))
        np.add.at(incoming, recv, e)
        x[:n_g] = x[:n_g] + _mlp(w, f"blocks.{b}.vertex", np.concatenate([x[:n_g], incoming], axis=1))
    return _mlp(w, "decoder", x[:n_g]) * scale[:, None]


def brute_force_world_edges(garment_pos: np.ndarray, body_pos: np.ndarray, radius: float) -> np.ndarray:
    pairs = []
    for start in range(0, garment_pos.shape[0], 256):
        chunk = garment_pos[start:start + 256]
        d2 = ((chunk[:, None, :] - body_pos[None, :, :]) ** 2).sum(axis=2)
        g, b = np.nonzero(d2 < radius * radius)
        pairs.append(np.stack([g + start, b], axis=1))
    return np.concatenate(pairs) if pairs else np.zeros((0, 2), dtype=np.int64)


def first_step_errors(ctx, params, predicted: np.ndarray | None = None) -> dict:
    """Deviations of the program's first step from the reference, each
    divided by its tolerance (a value above 1 fails). ``predicted`` is the
    program's garment positions after frame 0; computed here when omitted."""
    from pb4u.graph import build_graph
    from pb4u.rollout import advance

    scene = ctx.scene
    state = scene.initial_state()
    graph = build_graph(state, scene.garment, scene.body_mesh, scene.world_radius, dtype=np.float64)
    expected_pairs = brute_force_world_edges(state.garment_pos, state.body_pos, scene.world_radius)
    got_pairs = np.stack([graph.world_edges[:, 1], graph.world_edges[:, 0] - graph.garment_count], axis=1)
    same_edges = {tuple(p) for p in expected_pairs.tolist()} == {tuple(p) for p in got_pairs.tolist()}

    acc_ref = reference_accelerations(graph, params, ctx.k_steps, ctx.config.gamma, ctx.scale.s)
    dt = state.time_step
    pos_ref = state.garment_pos + dt * (state.garment_vel + dt * acc_ref)
    if scene.pinned.size:
        pos_ref[scene.pinned] = scene.pinned_targets()
    if predicted is None:
        predicted = advance(ctx, state, 0, params)[0].garment_pos
    return {
        "world_edges": 0.0 if same_edges else float("inf"),
        "first_step_positions": float(np.abs(predicted - pos_ref).max()) / POS_ATOL,
    }


# --- recorded reference case ----------------------------------------------

def _reference_values(name: str, workdir: Path) -> list[dict]:
    """Loss terms per frame (rollouts) or per iteration (training) of the
    reference case, computed by the tree under test."""
    import workloads as wl
    from pb4u import io as pio
    from pb4u.rollout import SimContext, run_rollout
    from pb4u.train import train

    spec = wl.WORKLOADS[name]
    wl.write_inputs(spec, REFERENCE_SEED, workdir)
    if spec.trains:
        config = dataclasses.replace(pio.load_train_config(workdir / "train.json"), **REFERENCE_TRAIN)
        rows = train(config, [pio.load_scene(p) for p in config.scenes]).log
    else:
        params, config, ctrl = wl.load_model(workdir / "model0.ckpt")
        ctx = SimContext.build(pio.load_scene(workdir / "scene.json"), config, ctrl)
        result = run_rollout(ctx, params, REFERENCE_FRAMES[name], compute_losses=True)
        rows = result.losses
    return [row.as_dict() for row in rows]


def reference_errors(name: str, workdir: Path) -> dict:
    stored = json.loads(REFERENCE_FILE.read_text())[name]
    got = _reference_values(name, workdir)
    if len(got) != len(stored):
        return {"reference_rows": float("inf")}
    worst = 0.0
    for want, have in zip(stored, got):
        floor = LOSS_FLOOR * max(abs(v) for v in want.values())
        for key, value in want.items():
            worst = max(worst, abs(have[key] - value) / (LOSS_RTOL * abs(value) + floor))
    return {"reference_losses": worst}


def train_errors(results: list) -> dict:
    """Final-loss band and run-to-run equality of the timed train() calls."""
    lo, hi = TRAIN_FINAL_BAND
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    logs = [[row.as_dict() for row in r.log] for r in results]
    identical = all(log == logs[0] for log in logs)
    return {"final_loss_band": max((abs(log[-1]["total"] - mid) / half for log in logs), default=float("inf")),
            "repeat_identical": 0.0 if identical else float("inf")}


def record(workdir: Path) -> None:
    """Write ``reference.json`` from the tree under test."""
    values = {}
    for name in ("rollout-fine", "train-base", "rollout-dense-body"):
        values[name] = _reference_values(name, workdir / name)
    REFERENCE_FILE.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/checks.py --record")
    import tempfile

    root = HERE.parent
    sys.path[:0] = [str(root / "src"), str(HERE)]
    (root / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".bench_work") as tmp:
        record(Path(tmp))
