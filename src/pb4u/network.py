"""The simulator network: encoders, K-step decoupled message propagation, one
fused update, residual processor blocks, decoder with per-vertex update
scaling, and forward-Euler integration.

Propagation runs before any feature update: each garment vertex accumulates
h^k = gamma * h^{k-1} + LayerNorm(sum of messages), with one message MLP
shared across all K steps (K varies at inference, so per-step weights are
impossible). Body vertices are kinematic message sources; their latents are
never updated and only garment accelerations are decoded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .errors import InvalidArgument, NumericDivergence
from .graph import EDGE_FEATURE_DIM, VERTEX_FEATURE_DIM, SimGraph, SimState, build_graph
from .mesh import ScaleFactors, TriMesh


@dataclass(frozen=True)
class NetworkConfig:
    latent_dim: int = 128
    gamma: float = 0.9          # decay of earlier aggregated messages
    # nothing reads k_steps (K comes from ControlConfig); deleting it waits on
    # a change that may edit perfbench/, which sets it (ROADMAP item 5)
    k_steps: int = 8
    processor_depth: int = 3    # residual refinement blocks after the update

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidArgument(f"gamma must be in [0, 1], got {self.gamma}")
        if self.k_steps < 0:
            raise InvalidArgument(f"k_steps must be >= 0, got {self.k_steps}")
        if self.processor_depth < 0:
            raise InvalidArgument(f"processor_depth must be >= 0, got {self.processor_depth}")
        if self.latent_dim < 1:
            raise InvalidArgument(f"latent_dim must be >= 1, got {self.latent_dim}")


@dataclass
class Mlp:
    """Two ReLU hidden layers of the latent width, linear output."""

    weights: list
    biases: list

    def __call__(self, x: Tensor) -> Tensor:
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = dc.affine(x, w, b, relu=i < last)
        return x

    @property
    def in_dim(self) -> int:
        return self.weights[0].data.shape[0]


@dataclass
class ProcessorBlock:
    edge_mlp: Mlp
    vertex_mlp: Mlp


@dataclass
class ModelParams:
    vertex_encoder: Mlp
    edge_encoder: Mlp
    message_fn: Mlp   # shared across all propagation steps
    update_fn: Mlp
    blocks: list
    decoder: Mlp
    norm_gain: Tensor  # LayerNorm affine of the propagation aggregation
    norm_bias: Tensor

    @property
    def latent_dim(self) -> int:
        return self.decoder.in_dim

    @property
    def dtype(self) -> np.dtype:
        """The precision a step runs at: that of the parameters."""
        return self.decoder.weights[0].dtype

    def named_tensors(self) -> dict[str, Tensor]:
        """Stable name -> tensor map; block k is ``blocks.{k:02d}``, the ids
        ``io.load_checkpoint`` requires. Past 99 blocks the lexicographic
        order of the names is not the numeric one, so the loader builds the
        blocks by index, not by sorting the ids."""
        out: dict[str, Tensor] = {}

        def put(prefix: str, mlp: Mlp) -> None:
            for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
                out[f"{prefix}.w{i}"] = w
                out[f"{prefix}.b{i}"] = b

        put("vertex_encoder", self.vertex_encoder)
        put("edge_encoder", self.edge_encoder)
        put("message_fn", self.message_fn)
        put("update_fn", self.update_fn)
        for k, block in enumerate(self.blocks):
            put(f"blocks.{k:02d}.edge", block.edge_mlp)
            put(f"blocks.{k:02d}.vertex", block.vertex_mlp)
        put("decoder", self.decoder)
        out["prop_norm.gain"] = self.norm_gain
        out["prop_norm.bias"] = self.norm_bias
        return out


def _init_mlp(rng: np.random.Generator, dims: list, dtype) -> Mlp:
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)
        weights.append(Tensor(w, track=True))
        biases.append(Tensor(np.zeros(fan_out, dtype=dtype), track=True))
    return Mlp(weights, biases)


def init_params(config: NetworkConfig, seed: int = 0, dtype=np.float32) -> ModelParams:
    rng = np.random.default_rng(seed)
    d = config.latent_dim
    hidden = [d, d]
    blocks = []
    for _ in range(config.processor_depth):
        blocks.append(
            ProcessorBlock(
                edge_mlp=_init_mlp(rng, [3 * d] + hidden + [d], dtype),
                vertex_mlp=_init_mlp(rng, [2 * d] + hidden + [d], dtype),
            )
        )
    return ModelParams(
        vertex_encoder=_init_mlp(rng, [VERTEX_FEATURE_DIM] + hidden + [d], dtype),
        edge_encoder=_init_mlp(rng, [EDGE_FEATURE_DIM] + hidden + [d], dtype),
        message_fn=_init_mlp(rng, [3 * d] + hidden + [d], dtype),
        update_fn=_init_mlp(rng, [2 * d] + hidden + [d], dtype),
        blocks=blocks,
        decoder=_init_mlp(rng, [d] + hidden + [3], dtype),
        norm_gain=Tensor(np.ones(d, dtype=dtype), track=True),
        norm_bias=Tensor(np.zeros(d, dtype=dtype), track=True),
    )



@dataclass
class LatentGraph:
    """Encoded graph: V, E latents plus the topology needed to route messages."""

    V: Tensor
    E: Tensor
    senders: np.ndarray
    receivers: np.ndarray
    garment_count: int


def encode(graph: SimGraph, params: ModelParams) -> LatentGraph:
    vf, ef = graph.vertex_features, graph.edge_features
    if vf.shape[1] != params.vertex_encoder.in_dim:
        raise InvalidArgument(
            f"vertex feature width {vf.shape[1]} != encoder input {params.vertex_encoder.in_dim}"
        )
    if ef.shape[1] != params.edge_encoder.in_dim:
        raise InvalidArgument(
            f"edge feature width {ef.shape[1]} != encoder input {params.edge_encoder.in_dim}"
        )
    v = params.vertex_encoder(Tensor(vf))
    e = params.edge_encoder(Tensor(ef))
    return LatentGraph(
        V=v,
        E=e,
        senders=graph.senders,
        receivers=graph.receivers,
        garment_count=graph.garment_count,
    )


def propagate(latent: LatentGraph, k_steps: int, gamma: float, params: ModelParams) -> Tensor:
    """K rounds of message accumulation with no feature update in between.

    Returns the garment rows of H, which starts as V; receivers are garment
    vertices only, so body rows stay V's and K = 0 returns V's garment rows.
    """
    if k_steps < 0:
        raise InvalidArgument(f"k_steps must be >= 0, got {k_steps}")
    n_g = latent.garment_count
    h_garment = dc.gather(latent.V, np.arange(n_g))
    n_total = latent.V.data.shape[0]
    if latent.receivers.size and latent.receivers.max() >= n_g:
        raise InvalidArgument("message receivers must be garment vertices")
    h_body = dc.gather(latent.V, np.arange(n_g, n_total))
    for _ in range(k_steps):
        h_full = dc.concat([h_garment, h_body], axis=0)
        h_dst = dc.gather(h_full, latent.receivers)
        h_src = dc.gather(h_full, latent.senders)
        messages = params.message_fn(dc.concat([h_dst, h_src, latent.E], axis=1))
        aggregated = dc.scatter_add(messages, latent.receivers, n_g)
        normalized = dc.layer_norm(aggregated, params.norm_gain, params.norm_bias)
        h_garment = dc.add(dc.mul(h_garment, Tensor(gamma, dtype=h_garment.dtype)), normalized)
    return h_garment


def update(latent: LatentGraph, h_garment: Tensor, params: ModelParams) -> Tensor:
    """One collective fuse of original and propagated garment features."""
    v_garment = dc.gather(latent.V, np.arange(latent.garment_count))
    return params.update_fn(dc.concat([v_garment, h_garment], axis=1))


def process(latent: LatentGraph, v: Tensor, params: ModelParams) -> Tensor:
    """Residual edge/vertex refinement blocks over the garment rows ``v``;
    body rows stay V's and only send. Depth 0 is the identity."""
    n_g = latent.garment_count
    v_body = dc.gather(latent.V, np.arange(n_g, latent.V.data.shape[0]))
    e = latent.E
    for block in params.blocks:
        v_dst = dc.gather(v, latent.receivers)
        v_src = dc.gather(dc.concat([v, v_body], axis=0), latent.senders)
        e = dc.add(e, block.edge_mlp(dc.concat([e, v_dst, v_src], axis=1)))
        incoming = dc.scatter_add(e, latent.receivers, n_g)
        v = dc.add(v, block.vertex_mlp(dc.concat([v, incoming], axis=1)))
    return v


def decode_and_scale(v: Tensor, scale: ScaleFactors, params: ModelParams) -> Tensor:
    """Per-garment-vertex acceleration: s_i * decoder(v_i''). Pass unit scale
    factors to disable the resolution-aware scaling."""
    raw = params.decoder(v)
    return dc.scale_rows(raw, Tensor(scale.s.astype(raw.dtype)))


def forward_accelerations(
    graph: SimGraph,
    scale: ScaleFactors,
    params: ModelParams,
    config: NetworkConfig,
    k_steps: int,
) -> Tensor:
    latent = encode(graph, params)
    h_garment = propagate(latent, k_steps, config.gamma, params)
    v_prime = update(latent, h_garment, params)
    v_final = process(latent, v_prime, params)
    return decode_and_scale(v_final, scale, params)


def step(
    state: SimState,
    garment_mesh: TriMesh,
    body_mesh: TriMesh,
    scale: ScaleFactors,
    params: ModelParams,
    config: NetworkConfig,
    k_steps: int,
    world_radius: float,
) -> tuple[Tensor, Tensor]:
    """One simulator step at the precision of ``params``: build graph,
    predict accelerations, integrate forward Euler.

    Returns the next garment positions and velocities (Tensors, for a
    training loss to backpropagate).
    """
    dtype = params.dtype
    graph = build_graph(state, garment_mesh, body_mesh, world_radius, dtype=dtype)
    accel = forward_accelerations(graph, scale, params, config, k_steps)
    dt = Tensor(state.time_step, dtype=dtype)
    vel_next = dc.add(Tensor(state.garment_vel.astype(dtype)), dc.mul(accel, dt))
    pos_next = dc.add(Tensor(state.garment_pos.astype(dtype)), dc.mul(vel_next, dt))
    if not np.all(np.isfinite(pos_next.data)):
        raise NumericDivergence("non-finite positions after integration step")
    return pos_next, vel_next
