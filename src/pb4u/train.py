"""Self-supervised training: sample frames from procedural scene rollouts,
predict one step, minimize the composite physics loss by gradient descent.

The experience buffer holds pre-step states generated by rolling each scene
with the current model (free fall before the first refresh, since the initial
network is random); it is refreshed every ``buffer_refresh`` iterations.
Training always happens at the scenes' own (base) resolution; nothing here
ever subdivides a mesh.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import diffcore as dc
from . import network as net
from .control import ControlConfig, calibrate
from .errors import InvalidArgument, NumericDivergence, count, real, write_file
from .graph import SimState
from .mesh import mean_edge_length, write_obj
from .physics import LOSS_TERMS, LossBreakdown, LossWeights
from .rollout import SimContext, advance, frame_loss, run_rollout
from .scenes import BufferedFrame, Scene, sample_frame

# the loss columns, then each iteration's IterationStats
TRAIN_LOG_COLUMNS = LOSS_TERMS + ("total", "grad_norm", "buffer_len", "k_steps")

# the least and the greatest value of each count field of TrainConfig; the
# model-size bounds keep init_params within about 167 million parameters
_COUNT_RANGES = {
    "iterations": (1, None), "seed": (0, None), "k_base": (1, None), "processor_depth": (0, 16),
    "latent_dim": (1, 1024), "buffer_refresh": (1, None), "rollout_steps": (1, None),
}


@dataclass
class TrainConfig:
    scenes: list
    iterations: int = 500
    learning_rate: float = 1e-4
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    gamma: float = 0.9
    k_base: int = 8
    processor_depth: int = 3
    latent_dim: int = 128
    weights: LossWeights = field(default_factory=LossWeights)
    grad_clip: float = 1.0      # 0 disables clipping
    buffer_refresh: int = 50
    rollout_steps: int = 1

    def __post_init__(self):
        for name, (least, most) in _COUNT_RANGES.items():
            count(getattr(self, name), name, least, most)
        if real(self.learning_rate, "learning_rate") < 0:
            raise InvalidArgument("learning rate must be nonnegative")
        for name in ("beta1", "beta2"):
            if not 0 <= real(getattr(self, name), name) < 1:
                raise InvalidArgument(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if real(self.epsilon, "epsilon") <= 0:
            raise InvalidArgument(f"epsilon must be positive, got {self.epsilon}")
        if real(self.grad_clip, "grad_clip") < 0:
            raise InvalidArgument(f"grad_clip must be >= 0 (0 disables clipping), got {self.grad_clip}")
        self.network_config()  # a finite gamma in [0, 1]
        calibrate(self.k_base, 1.0)  # k_base within the float range

    def network_config(self) -> net.NetworkConfig:
        return net.NetworkConfig(
            latent_dim=self.latent_dim,
            gamma=self.gamma,
            processor_depth=self.processor_depth,
        )


class Adam:
    """Adaptive moment estimation over the named parameter tensors."""

    def __init__(self, named: dict, lr: float, beta1: float, beta2: float, epsilon: float):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = {k: np.zeros_like(t.data) for k, t in named.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in named.items()}

    def step(self, named: dict, grads: dict) -> None:
        self.t += 1
        correction1 = 1.0 - self.beta1**self.t
        correction2 = 1.0 - self.beta2**self.t
        for key, tensor in named.items():
            g = grads[key]
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / correction1
            v_hat = v / correction2
            tensor.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)).astype(tensor.data.dtype)


def clip_gradients(grads: dict, max_norm: float) -> float:
    total = 0.0
    for g in grads.values():
        total += float((g.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


# deep interpenetration produces huge one-sided collision gradients that
# teach erratic accelerations, so buffered states keep penetration near the
# scale a resting cloth actually reaches under the cubic penalty
_FREE_FALL_PENETRATION = 0.04
_REROLL_PENETRATION_FRACTION = 0.5
# a re-rolled state is kept while every coordinate stays within this many
# meters of the origin, every speed below this many m/s, and every edge
# within this factor of its rest length (either way)
_SANE_EXTENT = 5.0
_SANE_SPEED = 5.0
_SANE_STRETCH = 2.0


def _free_fall_states(scene: Scene) -> list:
    """Gravity-only rollout used to seed the buffer before the model has
    learned anything; stops at first meaningful body contact (free fall
    ignores collision, so deeper frames would be unphysical)."""
    states = [BufferedFrame(0, scene.initial_state())]
    state = states[0].state
    for f in range(scene.frames - 1):
        vel = state.garment_vel + state.time_step * np.array([0.0, -scene.gravity, 0.0])
        nxt = scene.state_at(f + 1, state.garment_pos + state.time_step * vel, vel)
        if scene.max_penetration(nxt.garment_pos, f + 1) > _FREE_FALL_PENETRATION:
            break
        states.append(BufferedFrame(f + 1, nxt))
        state = nxt
    return states


def _state_is_sane(scene: Scene, state: SimState, frame: int) -> bool:
    if np.abs(state.garment_pos).max() > _SANE_EXTENT:
        return False
    if float(np.linalg.norm(state.garment_vel, axis=1).max()) > _SANE_SPEED:
        return False
    penetration, least, greatest = scene.extremes(state.garment_pos, frame)
    if penetration > _REROLL_PENETRATION_FRACTION * scene.body.radius:
        return False
    return greatest <= _SANE_STRETCH and least >= 1.0 / _SANE_STRETCH


def refresh_buffer(scene: Scene, ctx: SimContext, params, use_model: bool) -> None:
    """Re-roll the scene with the current model, keeping the prefix of frames
    that stay physically plausible.

    An immature model amplifies its own velocity features over a long
    rollout; frames past the first position, speed, or edge-stretch blow-up
    are worthless as training data, so the roll stops at the first frame
    ``_state_is_sane`` rejects. The effective horizon grows by itself as the
    model stabilizes."""
    if not use_model:
        scene.buffer = _free_fall_states(scene)
        return
    frames = [BufferedFrame(0, scene.initial_state())]
    result = run_rollout(ctx, params, scene.frames - 1, compute_losses=False, start_state=frames[0].state,
                         keep=lambda state, frame: _state_is_sane(scene, state, frame))
    frames += [BufferedFrame(f + 1, state) for f, state in enumerate(result.states)]
    if len(frames) < scene.frames // 2:
        # an immature model yields a short usable roll; extend it with the
        # physical free-fall frames past it so sampling never degenerates to
        # one state (both lists hold frames 0, 1, ... in order)
        frames += _free_fall_states(scene)[len(frames):]
    scene.buffer = frames


@dataclass(frozen=True)
class IterationStats:
    grad_norm: float          # before clipping, as clip_gradients returns it
    buffer_len: int           # states in the sampled scene's buffer
    k_steps: int              # the sampled scene's propagation depth


@dataclass
class TrainResult:
    params: net.ModelParams
    log: list                 # one LossBreakdown per iteration
    control: ControlConfig
    config: TrainConfig
    stats: list               # one IterationStats per iteration

    def checkpoint_meta(self) -> dict:
        return {"gamma": self.config.gamma, "k_base": self.config.k_base, "l_base": self.control.l_base}

    def log_rows(self) -> list:
        """The train log's rows, one dict of TRAIN_LOG_COLUMNS per iteration."""
        return [{**loss.as_dict(), **asdict(stats)} for loss, stats in zip(self.log, self.stats)]


def initial_training_params(config: TrainConfig, scenes: list) -> net.ModelParams:
    """The exact model state training starts from."""
    return net.init_params(config.network_config(), seed=config.seed, dtype=np.float32)


def train(config: TrainConfig, scenes: list, diagnostics_dir=None) -> TrainResult:
    """Run the training loop. ``scenes`` are Scene objects (the CLI loads them
    from config paths). Identical config and scenes reproduce the checkpoint
    bitwise."""
    if not scenes:
        raise InvalidArgument("training needs at least one scene")
    rng = np.random.default_rng(config.seed)
    network_config = config.network_config()
    params = initial_training_params(config, scenes)
    named = params.named_tensors()
    optimizer = Adam(named, config.learning_rate, config.beta1, config.beta2, config.epsilon)

    ctrl = calibrate(config.k_base, mean_edge_length(scenes[0].garment))
    contexts = [
        SimContext.build(scene, network_config, ctrl, weights=config.weights)
        for scene in scenes
    ]

    log: list[LossBreakdown] = []
    stats: list[IterationStats] = []
    for iteration in range(config.iterations):
        if iteration % config.buffer_refresh == 0:
            for scene, ctx in zip(scenes, contexts):
                refresh_buffer(scene, ctx, params, use_model=iteration > 0)

        scene_idx = int(rng.integers(len(scenes))) if len(scenes) > 1 else 0
        scene, ctx = scenes[scene_idx], contexts[scene_idx]
        entry = sample_frame(scene, rng)

        tape = dc.Tape()
        try:
            with dc.recording(tape):
                state, frame = entry.state, entry.frame
                loss_tensor = None
                breakdown = None
                for k in range(config.rollout_steps):
                    next_state, pred = advance(ctx, state, frame + k, params)
                    step_loss, breakdown = frame_loss(ctx, pred, state, next_state)
                    loss_tensor = step_loss if loss_tensor is None else dc.add(loss_tensor, step_loss)
                    state = next_state  # gradients do not flow across steps
        except NumericDivergence as exc:
            _dump_divergence(diagnostics_dir, iteration, entry, scene)
            raise NumericDivergence(f"iteration {iteration}: {exc}") from exc

        tape.backward(loss_tensor)
        grads = {
            key: (t.grad if t.grad is not None else np.zeros_like(t.data)) for key, t in named.items()
        }
        grad_norm = clip_gradients(grads, config.grad_clip)
        optimizer.step(named, grads)
        for t in named.values():
            t.grad = None
        log.append(breakdown)
        stats.append(IterationStats(grad_norm, len(scene.buffer), ctx.k_steps))
    return TrainResult(params=params, log=log, control=ctrl, config=config, stats=stats)


def _dump_divergence(diagnostics_dir, iteration: int, entry: BufferedFrame, scene: Scene) -> None:
    if diagnostics_dir is None:
        return
    out = Path(diagnostics_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_obj(out / f"diverged_iter{iteration:06d}.obj", entry.state.garment_pos, scene.garment.triangles)
    info = {
        "iteration": iteration,
        "frame": entry.frame,
        "garment_vertices": int(scene.garment.vertex_count),
        "min_y": float(entry.state.garment_pos[:, 1].min()),
        "max_speed": float(np.linalg.norm(entry.state.garment_vel, axis=1).max()),
    }
    write_file(out / f"diverged_iter{iteration:06d}.json", json.dumps(info, indent=2, sort_keys=True),
               "divergence report")
