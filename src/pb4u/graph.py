"""Per-timestep simulation graph: garment mesh edges plus proximity world
edges, with translation-invariant vertex and edge feature matrices.

Graph vertex indexing is garment-first: garment vertices occupy rows
[0, n_g), body vertices [n_g, n_g + n_b). A directed edge (src, dst) carries
information into dst; world edges point body -> garment only, because the
body is kinematic and never updated.

Feature schema (fixed widths, independent of resolution):
  vertex (14): velocity (3), lumped mass (1), unit normal (3),
               material parameters under log1p (5), one-hot type garment/body (2)
  edge (7):    current relative vector (3), rest relative vector (3),
               current/rest length ratio (1)
No absolute positions or absolute lengths appear anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .mesh import TriMesh, vertex_normals

VERTEX_FEATURE_DIM = 14
EDGE_FEATURE_DIM = 7


@dataclass
class SimState:
    """Time-t positions and velocities; the body's previous positions give its
    velocity. The arrays do not change once the state is built, so
    ``contacts`` may keep what it computes from them."""

    garment_pos: np.ndarray       # (n_g, 3)
    garment_vel: np.ndarray       # (n_g, 3)
    body_pos: np.ndarray          # (n_b, 3)
    body_pos_prev: np.ndarray     # (n_b, 3)
    time_step: float

    def __post_init__(self):
        if self.time_step <= 0:
            raise InvalidArgument(f"time step must be positive, got {self.time_step}")
        n_g = self.garment_pos.shape[0]
        n_b = self.body_pos.shape[0]
        for name, arr, rows in (
            ("garment_pos", self.garment_pos, n_g),
            ("garment_vel", self.garment_vel, n_g),
            ("body_pos", self.body_pos, n_b),
            ("body_pos_prev", self.body_pos_prev, n_b),
        ):
            if arr.shape != (rows, 3):
                raise InvalidArgument(f"{name} must have shape ({rows}, 3), got {arr.shape}")
        self._contacts = None  # not a field, so fields() and replace() leave it out

    def contacts(self, body_mesh: TriMesh, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """``build_world_edges`` pairs within ``radius`` and the body's vertex
        normals, kept from the first call; another mesh (matched by identity:
        TriMesh's __eq__ compares arrays) or radius computes them again."""
        mesh, kept_radius, pairs, normals = self._contacts or (None, None, None, None)
        if mesh is not body_mesh or kept_radius != radius:
            normals = vertex_normals(self.body_pos, body_mesh)
            pairs = build_world_edges(self.garment_pos, self.body_pos, radius)
            self._contacts = (body_mesh, radius, pairs, normals)
        return pairs, normals


@dataclass
class SimGraph:
    mesh_edges: np.ndarray      # (Em, 2) directed (src, dst), graph indices
    world_edges: np.ndarray     # (Ew, 2) directed (src=body graph idx, dst=garment idx)
    vertex_features: np.ndarray
    edge_features: np.ndarray
    garment_count: int

    @property
    def senders(self) -> np.ndarray:
        return np.concatenate([self.mesh_edges[:, 0], self.world_edges[:, 0]])

    @property
    def receivers(self) -> np.ndarray:
        return np.concatenate([self.mesh_edges[:, 1], self.world_edges[:, 1]])


# classic spatial-hash primes; int64 products wrap, and key collisions only
# add candidate pairs that the exact distance test then rejects
_HASH_PRIMES = (np.int64(73856093), np.int64(19349663), np.int64(83492791))
_CELL_CLAMP = float(2**50)
_NEIGHBOUR_OFFSETS = np.stack(np.meshgrid([-1, 0, 1], [-1, 0, 1], [-1, 0, 1], indexing="ij"), -1).reshape(27, 3)


def _hash_cells(points: np.ndarray, radius: float) -> np.ndarray:
    scaled = np.clip(points / radius, -_CELL_CLAMP, _CELL_CLAMP)
    return np.floor(scaled).astype(np.int64)


def _pack_cells(cells: np.ndarray) -> np.ndarray:
    return (
        (cells[:, 0] * _HASH_PRIMES[0])
        ^ (cells[:, 1] * _HASH_PRIMES[1])
        ^ (cells[:, 2] * _HASH_PRIMES[2])
    )


def build_world_edges(garment_pos: np.ndarray, body_pos: np.ndarray, radius: float) -> np.ndarray:
    """All (garment, body) pairs with Euclidean distance strictly below
    radius, sorted by (garment index, body index).

    Uses a uniform spatial hash with cell size equal to the radius, so only
    the 27 neighbouring cells of each garment vertex are tested.
    """
    if radius <= 0:
        raise InvalidArgument(f"radius must be positive, got {radius}")
    garment_pos = np.asarray(garment_pos, dtype=np.float64)
    body_pos = np.asarray(body_pos, dtype=np.float64)
    body_keys = _pack_cells(_hash_cells(body_pos, radius))
    body_order = np.argsort(body_keys)
    sorted_keys = body_keys[body_order]
    # every garment cell plus each of the 27 offsets, garment-major
    neighbours = _hash_cells(garment_pos, radius)[:, None, :] + _NEIGHBOUR_OFFSETS
    keys = _pack_cells(neighbours.reshape(-1, 3))
    left = np.searchsorted(sorted_keys, keys, side="left")
    counts = np.searchsorted(sorted_keys, keys, side="right") - left
    # candidate j of key i is sorted body slot left[i] + j
    run_starts = np.repeat(left - (np.cumsum(counts) - counts), counts)
    b = body_order[run_starts + np.arange(run_starts.shape[0])]
    g = np.repeat(np.arange(keys.shape[0]) // 27, counts)
    delta = garment_pos[g] - body_pos[b]
    close = (delta * delta).sum(axis=1) < radius * radius
    # hash-key collisions between neighbouring cells can surface the same
    # pair through two offsets; the exact combined key dedupes and orders
    n_b = body_pos.shape[0]
    combined = np.unique(g[close] * n_b + b[close])
    return np.stack([combined // n_b, combined % n_b], axis=1)


def vertex_features(state: SimState, garment_mesh: TriMesh, body_normals: np.ndarray) -> np.ndarray:
    """Feature rows for garment then body vertices, given the body's vertex
    normals. Body velocity is the backward difference of its scripted
    motion; body mass is zero (kinematic)."""
    n_g = garment_mesh.vertex_count
    if state.garment_pos.shape[0] != n_g:
        raise InvalidArgument(
            f"state has {state.garment_pos.shape[0]} garment vertices, mesh has {n_g}"
        )
    n_b = state.body_pos.shape[0]

    # log1p keeps stiffness-scale parameters (Pa) at O(10) in the features;
    # MaterialParams guarantees nonnegative inputs
    material = np.log1p(garment_mesh.material.as_feature())
    out = np.zeros((n_g + n_b, VERTEX_FEATURE_DIM), dtype=np.float64)

    out[:n_g, 0:3] = state.garment_vel
    out[:n_g, 3] = garment_mesh.material.mass_density * garment_mesh.lumped_areas
    out[:n_g, 4:7] = vertex_normals(state.garment_pos, garment_mesh)
    out[:n_g, 7:12] = material
    out[:n_g, 12] = 1.0

    out[n_g:, 0:3] = (state.body_pos - state.body_pos_prev) / state.time_step
    out[n_g:, 4:7] = body_normals
    out[n_g:, 7:12] = material
    out[n_g:, 13] = 1.0
    return out


def edge_features(current_pos: np.ndarray, mesh: TriMesh) -> np.ndarray:
    """Relative-only features of the directed mesh edges: each edge i -> j of
    ``mesh.edges``, then each j -> i, the row order of ``SimGraph.mesh_edges``."""
    src, dst = mesh.edges[:, 0], mesh.edges[:, 1]
    cur = current_pos[dst] - current_pos[src]
    forward = np.empty((src.shape[0], EDGE_FEATURE_DIM), dtype=np.float64)
    forward[:, 0:3] = cur
    forward[:, 3:6] = mesh.rest_positions[dst] - mesh.rest_positions[src]
    forward[:, 6] = np.linalg.norm(cur, axis=1) / mesh.rest_edge_lengths
    # a reverse edge has the negated vectors and the same ratio; 0 - x, not
    # -x, keeps a zero difference +0 as the subtraction j -> i gives it
    backward = forward.copy()
    backward[:, 0:6] = 0.0 - forward[:, 0:6]
    return np.concatenate([forward, backward])


def world_edge_features(garment_pos: np.ndarray, body_pos: np.ndarray, pairs: np.ndarray, radius: float) -> np.ndarray:
    """World edges have no rest state; the rest slot is the current vector
    rescaled to the search radius, so the ratio feature is |current|/radius
    and stays in [0, 1)."""
    cur = garment_pos[pairs[:, 0]] - body_pos[pairs[:, 1]]
    length = np.linalg.norm(cur, axis=1)
    direction = np.where(length[:, None] > 1e-300, cur / np.maximum(length, 1e-300)[:, None], (0.0, 1.0, 0.0))
    out = np.empty((pairs.shape[0], EDGE_FEATURE_DIM), dtype=np.float64)
    out[:, 0:3] = cur
    out[:, 3:6] = direction * radius
    out[:, 6] = length / radius
    return out


def build_graph(
    state: SimState,
    garment_mesh: TriMesh,
    body_mesh: TriMesh,
    world_radius: float,
    dtype=np.float64,
) -> SimGraph:
    """The step graph of ``state``; features are built in float64 and cast
    once to ``dtype``, the precision the network runs at."""
    n_g = garment_mesh.vertex_count
    mesh_edges = np.concatenate([garment_mesh.edges, garment_mesh.edges[:, ::-1]])
    pairs, body_normals = state.contacts(body_mesh, world_radius)
    return SimGraph(
        mesh_edges=mesh_edges,
        world_edges=np.stack([pairs[:, 1] + n_g, pairs[:, 0]], axis=1),
        vertex_features=vertex_features(state, garment_mesh, body_normals).astype(dtype, copy=False),
        edge_features=np.concatenate([
            edge_features(state.garment_pos, garment_mesh),
            world_edge_features(state.garment_pos, state.body_pos, pairs, world_radius),
        ]).astype(dtype, copy=False),
        garment_count=n_g,
    )
