"""The benchmark's workloads: inputs generated from a seed, set-up, and the
closed timed loop (one caller that waits for each frame or iteration before
issuing the next).

Every input the program sees is written to a work directory first and read
back through ``pb4u.io``: the scene file (with an OBJ garment when the mesh is
subdivided), the model checkpoint, and the training configuration.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pb4u import io as pio
from pb4u import network as net
from pb4u.control import calibrate
from pb4u.errors import NumericDivergence
from pb4u.graph import EDGE_FEATURE_DIM, VERTEX_FEATURE_DIM
from pb4u.mesh import MaterialParams, make_grid_cloth, mean_edge_length, subdivide_midpoint, write_obj
from pb4u.rollout import SimContext, run_rollout
from pb4u.scenes import PRESETS
from pb4u.train import train

GRID = 24
SIDE = 1.0
K_BASE = 8
GAMMA = 0.9
LATENT_DIM = 128
PROCESSOR_DEPTH = 3


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    preset: str
    level: int = 0                  # midpoint subdivisions of the garment
    body_lat: int | None = None     # body tessellation override
    body_lon: int | None = None
    frames: int = 48                # scene length; rollouts restart after it
    models: int = 1                 # seeded checkpoints; each rollout restart takes the next
    train_iterations: int = 0       # > 0 makes this a training workload
    buffer_refresh: int = 0

    @property
    def trains(self) -> bool:
        return self.train_iterations > 0


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec("rollout-fine",
             "drape-sphere subdivided once (2209 vertices, K=15): propagation and E-row kernels dominate",
             "drape-sphere", level=1),
        # Each timed train() call: free-fall buffer, two iterations, a
        # model-driven refresh (a 7-frame rollout), two more iterations.
        Spec("train-base",
             "drape-sphere base mesh (576 vertices, K=8) through train(): the only workload with a tape and backward",
             "drape-sphere", frames=8, train_iterations=4, buffer_refresh=2),
        # How far the cloth is pushed into the body's path depends on the
        # random model, and world edges per frame vary 3-5x between models;
        # short episodes, each with the next of several models, average that
        # out within a run.
        Spec("rollout-dense-body",
             "hang-pinned with a 6050-vertex body swinging through the cloth: world-edge search, normals, contacts",
             "hang-pinned", body_lat=64, body_lon=96, frames=16, models=8),
    )
}


def scene_doc(spec: Spec) -> dict:
    doc = PRESETS[spec.preset](GRID, SIDE, frames=spec.frames)
    if spec.body_lat is not None:
        doc["body"]["lat"], doc["body"]["lon"] = spec.body_lat, spec.body_lon
    return doc


def model_seeds(seed: int, count: int) -> list[int]:
    """``seed`` itself, then ``count - 1`` seeds derived from it."""
    return [seed] + [int(s) for s in np.random.SeedSequence(seed).generate_state(count - 1)]


def base_edge_length(doc: dict) -> float:
    """Calibration edge length: the mean edge of the unsubdivided garment."""
    return mean_edge_length(make_grid_cloth(GRID, SIDE, MaterialParams(**doc["material"])))


@dataclass
class Prepared:
    """What the timed loop runs on, produced by one set-up."""

    ctx: SimContext | None = None
    models: list | None = None      # ModelParams, one per seeded checkpoint
    train_config: object = None
    scene_path: Path | None = None
    first: object = None            # RolloutResult of the warm-up frame


def write_inputs(spec: Spec, seed: int, workdir: Path) -> Path:
    """Write the scene, and the model checkpoints or the training config
    seeded by ``seed``, under ``workdir``; returns the scene path."""
    workdir.mkdir(parents=True, exist_ok=True)
    doc = scene_doc(spec)
    if spec.level:
        mesh = make_grid_cloth(GRID, SIDE, MaterialParams(**doc["material"]))
        for _ in range(spec.level):
            mesh = subdivide_midpoint(mesh)
        write_obj(workdir / "garment.obj", mesh.rest_positions, mesh.triangles)
        doc["garment"] = {"kind": "obj", "path": "garment.obj", "plane": doc["garment"]["plane"],
                          "origin": doc["garment"]["origin"], "pinned": []}
    scene_path = workdir / "scene.json"
    pio.save_scene(doc, scene_path)
    if spec.trains:
        (workdir / "train.json").write_text(json.dumps({
            "scenes": ["scene.json"], "iterations": spec.train_iterations, "seed": seed,
            "buffer_refresh": spec.buffer_refresh, "k_base": K_BASE, "gamma": GAMMA,
            "latent_dim": LATENT_DIM, "processor_depth": PROCESSOR_DEPTH,
        }))
    else:
        config = net.NetworkConfig(latent_dim=LATENT_DIM, gamma=GAMMA, k_steps=K_BASE,
                                   processor_depth=PROCESSOR_DEPTH)
        meta = {"gamma": GAMMA, "k_base": K_BASE, "l_base": base_edge_length(doc)}
        for i, model_seed in enumerate(model_seeds(seed, spec.models)):
            params = net.init_params(config, seed=model_seed, dtype=np.float32)
            pio.save_checkpoint(params, workdir / f"model{i}.ckpt", meta=meta)
    return scene_path


def load_model(path: Path):
    params, meta = pio.load_checkpoint(path, expect_vertex_dim=VERTEX_FEATURE_DIM, expect_edge_dim=EDGE_FEATURE_DIM)
    config = net.NetworkConfig(latent_dim=params.latent_dim, gamma=meta["gamma"], k_steps=int(meta["k_base"]),
                               processor_depth=len(params.blocks))
    return params, config, calibrate(int(meta["k_base"]), meta["l_base"])


def setup(spec: Spec, seed: int, workdir: Path) -> Prepared:
    """Everything before the first timed step, ending with one warm-up step."""
    scene_path = write_inputs(spec, seed, workdir)
    if spec.trains:
        config = pio.load_train_config(workdir / "train.json")
        scenes = [pio.load_scene(p) for p in config.scenes]
        warm = train(dataclasses.replace(config, iterations=1), scenes)
        # what a user does next with the result: save it and load it to roll out
        pio.save_checkpoint(warm.params, workdir / "trained.ckpt", meta=warm.checkpoint_meta())
        load_model(workdir / "trained.ckpt")
        return Prepared(train_config=config, scene_path=scene_path)
    scene = pio.load_scene(scene_path)
    models = [load_model(workdir / f"model{i}.ckpt") for i in range(spec.models)]
    _, config, ctrl = models[0]
    ctx = SimContext.build(scene, config, ctrl)
    first = run_rollout(ctx, models[0][0], 1, compute_losses=True)
    return Prepared(ctx=ctx, models=[params for params, _, _ in models], scene_path=scene_path, first=first)


@dataclass
class Step:
    """One timed unit: a rollout frame, or one ``train()`` call of
    ``units`` iterations."""

    ms: float
    units: int
    ok: bool
    output: object = None


class RolloutLoop:
    """Closed loop over frames; after the scene's last frame the rollout
    restarts from the initial state with the next model."""

    def __init__(self, prepared: Prepared):
        self.ctx, self.models = prepared.ctx, prepared.models
        self.episode = -1
        self.restart()

    def restart(self) -> None:
        self.episode += 1
        self.params = self.models[self.episode % len(self.models)]
        self.state = self.ctx.scene.initial_state()
        self.frame = 0

    def step(self) -> Step:
        began = time.perf_counter()
        result = run_rollout(self.ctx, self.params, 1, compute_losses=True,
                             start_state=self.state, start_frame=self.frame)
        ms = 1000.0 * (time.perf_counter() - began)
        ok = (not result.diverged and len(result.states) == 1 and len(result.losses) == 1
              and bool(np.all(np.isfinite(result.states[0].garment_pos)))
              and bool(np.isfinite(result.losses[0].total)))
        if ok and self.frame + 2 < self.ctx.scene.frames:
            self.state, self.frame = result.states[0], self.frame + 1
        else:
            self.restart()
        return Step(ms, 1, ok, result.losses[0] if ok else None)


class TrainLoop:
    """Closed loop over ``train()`` calls, each on a freshly loaded scene
    because training overwrites ``scene.buffer``."""

    def __init__(self, prepared: Prepared):
        self.config, self.scene_path = prepared.train_config, prepared.scene_path

    def step(self) -> Step:
        scenes = [pio.load_scene(self.scene_path)]
        began = time.perf_counter()
        try:
            result = train(self.config, scenes)
        except NumericDivergence:
            result = None
        ms = 1000.0 * (time.perf_counter() - began)
        iterations = self.config.iterations
        ok = result is not None and len(result.log) == iterations and all(
            np.isfinite(row.total) for row in result.log)
        return Step(ms, iterations, ok, result if ok else None)


def make_loop(spec: Spec, prepared: Prepared):
    return TrainLoop(prepared) if spec.trains else RolloutLoop(prepared)
