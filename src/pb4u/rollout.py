"""Autoregressive rollout machinery shared by training, evaluation, and the
CLI: model steps over a scene's states, per-frame losses, divergence
handling, and OBJ/metrics output."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import network as net
from . import physics
from .control import ControlConfig, propagation_steps
from .diffcore import Tensor
from .errors import NumericDivergence, write_file
from .graph import SimState
from .mesh import ScaleFactors, mean_edge_length, rest_scale_factors, write_obj
from .physics import LossBreakdown, LossWeights
from .scenes import Scene

METRIC_COLUMNS = ("stretch", "bending", "collision", "inertia", "gravity", "friction", "total")


@dataclass
class SimContext:
    """Everything fixed across the frames of one rollout: meshes, rest
    geometry, scale factors, and the propagation depth chosen for this mesh."""

    scene: Scene
    config: net.NetworkConfig
    rest: physics.RestGeometry
    scale: ScaleFactors
    k_steps: int
    weights: LossWeights = field(default_factory=LossWeights)

    @classmethod
    def build(
        cls,
        scene: Scene,
        config: net.NetworkConfig,
        ctrl: ControlConfig,
        *,
        update_scaling: bool = True,
        forced_k: int | None = None,
        weights: LossWeights | None = None,
    ) -> "SimContext":
        """K follows the mesh resolution (``propagation_steps``) unless
        ``forced_k`` sets it outright."""
        k = propagation_steps(ctrl, mean_edge_length(scene.garment)) if forced_k is None else int(forced_k)
        scale = rest_scale_factors(scene.garment) if update_scaling else ScaleFactors(
            np.ones(scene.garment.vertex_count)
        )
        return cls(
            scene=scene,
            config=config,
            rest=physics.build_rest_geometry(scene.garment),
            scale=scale,
            k_steps=k,
            weights=weights or LossWeights(),
        )


def advance(
    ctx: SimContext,
    state: SimState,
    frame: int,
    params: net.ModelParams,
) -> tuple[SimState, Tensor]:
    """One model step from the state at ``frame`` to ``frame + 1``, with
    pinned vertices held at their scripted positions. Returns the next state
    (float64 master copy) and the predicted positions (a Tensor, for a
    training loss to backpropagate)."""
    scene = ctx.scene
    pred, vel = net.step(
        state, scene.garment, scene.body_mesh, ctx.scale, params, ctx.config, ctx.k_steps, scene.world_radius
    )
    pred = scene.hold_pins(pred)
    next_state = scene.state_at(frame + 1, pred.data.astype(np.float64), vel.data.astype(np.float64))
    return next_state, pred


def frame_loss(ctx: SimContext, pred: Tensor, pre_state: SimState, next_state: SimState):
    """Composite loss of a predicted frame, whose state is ``next_state``, against its pre-step state."""
    return physics.total_loss(
        pred,
        pre_state,
        next_state,
        ctx.scene.body_mesh,
        ctx.scene.garment,
        ctx.rest,
        ctx.weights,
        ctx.scene.gravity,
        ctx.scene.world_radius,
        ctx.scene.contact_margin,
    )


@dataclass
class RolloutResult:
    states: list
    losses: list            # LossBreakdown per completed frame
    latencies_ms: list
    diverged: bool = False

    @property
    def diverged_at(self) -> int | None:
        """The frame, counted from the rollout's first, whose step or loss
        diverged; the frames before it are kept."""
        return len(self.states) if self.diverged else None


def run_rollout(
    ctx: SimContext,
    params: net.ModelParams,
    frames: int,
    *,
    compute_losses: bool = True,
    start_state: SimState | None = None,
    start_frame: int = 0,
    keep: Callable[[SimState, int], bool] | None = None,
) -> RolloutResult:
    """Roll the model forward; on numeric divergence the frames completed so
    far are retained and the result is flagged. With ``keep``, the rollout
    ends at the first state for which ``keep(state, frame)`` is false, before
    that state's loss, and does not retain it."""
    state = start_state if start_state is not None else ctx.scene.initial_state()
    result = RolloutResult(states=[], losses=[], latencies_ms=[])
    for f in range(frames):
        began = time.perf_counter()
        try:
            next_state, _ = advance(ctx, state, start_frame + f, params)
            latency = 1000.0 * (time.perf_counter() - began)
            if keep is not None and not keep(next_state, start_frame + f + 1):
                break
            if compute_losses:
                _, breakdown = frame_loss(ctx, Tensor(next_state.garment_pos.copy()), state, next_state)
                result.losses.append(breakdown)
        except NumericDivergence:
            result.diverged = True
            break
        result.latencies_ms.append(latency)
        result.states.append(next_state)
        state = next_state
    return result


def write_rollout_outputs(result: RolloutResult, scene: Scene, out_dir, metrics_path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for f, state in enumerate(result.states):
        write_obj(out / f"frame_{f:04d}.obj", state.garment_pos, scene.garment.triangles)
    write_loss_csv([row.as_dict() for row in result.losses], metrics_path, "frame", METRIC_COLUMNS)


def write_loss_csv(rows: list, path, index: str, columns: tuple) -> None:
    """One line per row (a dict): its position in ``rows`` under the
    ``index`` header, then each of ``columns`` as repr (floats round-trip)."""
    lines = [f"{index}," + ",".join(columns)]
    for i, row in enumerate(rows):
        lines.append(f"{i}," + ",".join(repr(row[c]) for c in columns))
    write_file(path, "\n".join(lines) + "\n", "loss CSV")


def aggregate_losses(losses: list) -> dict:
    if not losses:
        return {c: None for c in METRIC_COLUMNS}
    return {c: float(np.mean([getattr(row, c) for row in losses])) for c in METRIC_COLUMNS}


def evaluation_report(ctx: SimContext, result: RolloutResult) -> dict:
    """Per-frame losses, latency, world-edge count, deepest penetration and
    greatest edge stretch (length over rest length) of a rollout from frame 0;
    entry f describes the state at scene frame f + 1."""
    scene = ctx.scene
    per_frame = []
    for f, row in enumerate(result.losses):
        state = result.states[f]
        pairs, _ = state.contacts(scene.body_mesh, scene.world_radius)   # found by the collision term
        penetration, _, stretch = scene.extremes(state.garment_pos, f + 1)
        entry = {"frame": f}
        entry.update(row.as_dict())
        entry.update(latency_ms=result.latencies_ms[f], world_edges=int(pairs.shape[0]),
                     max_penetration=penetration, max_stretch=stretch)
        per_frame.append(entry)
    return {
        "frames": per_frame,
        "aggregate": aggregate_losses(result.losses),
        "mesh": {
            "vertices": int(ctx.scene.garment.vertex_count),
            "triangles": int(ctx.scene.garment.triangles.shape[0]),
            "mean_edge_length": mean_edge_length(ctx.scene.garment),
            "k_steps": ctx.k_steps,
        },
        "latency_ms_mean": float(np.mean(result.latencies_ms)) if result.latencies_ms else None,
        "diverged": result.diverged,
        "diverged_at": result.diverged_at,
    }
