"""Procedural scenes: a cloth grid over an animated analytic body.

A Scene owns the garment mesh, its initial placement (optionally with pinned
vertices held fixed kinematically), a keyframed body primitive tessellated as
a triangle mesh, and the shared simulation constants. It is the one place
that assembles a state at a frame and holds the pins. Scenes also carry the
experience buffer that training samples from.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .diffcore import Tensor, add, mul
from .errors import InvalidArgument, InvalidState, real
from .graph import SimState
from .mesh import DEFAULT_MATERIAL, MaterialParams, TriMesh, make_grid_cloth, mean_edge_length, quad_triangles
from .physics import DEFAULT_CONTACT_MARGIN

DEFAULT_BODY_LAT = 12
DEFAULT_BODY_LON = 18


@dataclass(frozen=True)
class BodySpec:
    kind: str                 # "sphere" is the only analytic primitive
    radius: float
    keyframes: np.ndarray     # (K, 4) rows of (t, cx, cy, cz)
    lat: int = DEFAULT_BODY_LAT
    lon: int = DEFAULT_BODY_LON

    def __post_init__(self):
        if self.kind != "sphere":
            raise InvalidArgument(f"unsupported body primitive {self.kind!r}")
        if self.radius <= 0:
            raise InvalidArgument("body radius must be positive")
        kf = np.asarray(self.keyframes, dtype=np.float64)
        if kf.ndim != 2 or kf.shape[1] != 4 or kf.shape[0] < 1:
            raise InvalidArgument("keyframes must be (K, 4) rows of (t, x, y, z)")
        if not np.all(np.isfinite(kf)):
            raise InvalidArgument("keyframes must be finite")
        if np.any(np.diff(kf[:, 0]) <= 0) and kf.shape[0] > 1:
            raise InvalidArgument("keyframe times must be strictly increasing")
        object.__setattr__(self, "keyframes", kf)

    def center_at(self, t: float) -> np.ndarray:
        """Piecewise-linear center, clamped outside the keyframe range."""
        kf = self.keyframes
        times = kf[:, 0]
        if t <= times[0]:
            return kf[0, 1:].copy()
        if t >= times[-1]:
            return kf[-1, 1:].copy()
        hi = int(np.searchsorted(times, t, side="right"))
        lo = hi - 1
        span = times[hi] - times[lo]
        w = (t - times[lo]) / span
        return (1.0 - w) * kf[lo, 1:] + w * kf[hi, 1:]


def uv_sphere(radius: float, lat: int, lon: int, material: MaterialParams) -> TriMesh:
    """Latitude-longitude sphere centered at the origin, poles on the y axis,
    outward winding."""
    if lat < 3 or lon < 3:
        raise InvalidArgument("sphere tessellation needs lat >= 3 and lon >= 3")
    theta = np.pi * np.arange(1, lat) / lat
    phi = 2.0 * np.pi * np.arange(lon) / lon
    ring = (radius * np.sin(theta))[:, None]
    rings = np.stack(np.broadcast_arrays(
        ring * np.cos(phi), (radius * np.cos(theta))[:, None], ring * np.sin(phi)
    ), axis=-1).reshape(-1, 3)
    verts = np.concatenate([[(0.0, radius, 0.0)], rings, [(0.0, -radius, 0.0)]])
    south = verts.shape[0] - 1
    ids = 1 + np.arange((lat - 1) * lon).reshape(lat - 1, lon)
    ids = np.concatenate([ids, ids[:, :1]], axis=1)  # first column again closes the seam
    tris = np.concatenate([
        np.stack(np.broadcast_arrays(0, ids[0, 1:], ids[0, :-1]), axis=1),
        quad_triangles(ids),
        np.stack(np.broadcast_arrays(south, ids[-1, :-1], ids[-1, 1:]), axis=1),
    ])
    return TriMesh.from_triangles(verts, tris, material)


@dataclass
class BufferedFrame:
    """One sampled pre-step state plus the frame index it came from, so the
    body trajectory can supply the following keyframe."""

    frame: int
    state: SimState


@dataclass
class Scene:
    garment: TriMesh
    initial_positions: np.ndarray
    pinned: np.ndarray            # garment vertex indices held fixed
    body: BodySpec
    body_mesh: TriMesh            # template centered at the origin
    dt: float
    gravity: float
    world_radius: float
    frames: int
    contact_margin: float
    buffer: list = field(default_factory=list)

    def __post_init__(self):
        if self.initial_positions.shape != (self.garment.vertex_count, 3):
            raise InvalidArgument("initial positions do not match the garment mesh")
        if self.frames < 1:
            raise InvalidArgument("scene needs at least one frame")
        if not self.dt > 0:
            raise InvalidArgument(f"dt must be positive, got {self.dt}")
        if not self.world_radius > 0:
            raise InvalidArgument(f"world_edge_radius must be positive, got {self.world_radius}")
        if not self.contact_margin >= 0:
            raise InvalidArgument(f"contact_margin must be >= 0, got {self.contact_margin}")

    def body_positions(self, frame: int) -> np.ndarray:
        return self.body_mesh.rest_positions + self.body.center_at(frame * self.dt)

    def state_at(self, frame: int, garment_pos: np.ndarray, garment_vel: np.ndarray) -> SimState:
        """The state at ``frame`` over the given garment arrays, whose pinned
        rows are set in place to their targets at rest. The body follows its
        script from rest: frame 0 has no previous frame."""
        garment_pos[self.pinned] = self.pinned_targets()
        garment_vel[self.pinned] = 0.0
        return SimState(
            garment_pos=garment_pos,
            garment_vel=garment_vel,
            body_pos=self.body_positions(frame),
            body_pos_prev=self.body_positions(max(frame - 1, 0)),
            time_step=self.dt,
        )

    def initial_state(self) -> SimState:
        return self.state_at(0, self.initial_positions.copy(), np.zeros_like(self.initial_positions))

    def pinned_targets(self) -> np.ndarray:
        return self.initial_positions[self.pinned]

    def hold_pins(self, positions: Tensor) -> Tensor:
        """Predicted positions with the pinned rows replaced by their targets,
        as one differentiable mask-and-add."""
        if self.pinned.size == 0:
            return positions
        n = positions.data.shape[0]
        mask = np.ones((n, 3), dtype=positions.dtype)
        mask[self.pinned] = 0.0
        targets = np.zeros((n, 3), dtype=positions.dtype)
        targets[self.pinned] = self.pinned_targets()
        return add(mul(positions, Tensor(mask)), Tensor(targets))

    def max_penetration(self, garment_pos: np.ndarray, frame: int) -> float:
        """Deepest garment penetration into the analytic body at a frame;
        zero when every vertex is outside."""
        center = self.body.center_at(frame * self.dt)
        gaps = np.linalg.norm(garment_pos - center, axis=1) - self.body.radius
        return float(max(0.0, -gaps.min()))

    def extremes(self, garment_pos: np.ndarray, frame: int) -> tuple[float, float, float]:
        """The deepest penetration into the body at a frame, and the least and
        greatest ratio of a garment edge's length to its rest length."""
        edges = self.garment.edges
        lengths = np.linalg.norm(garment_pos[edges[:, 1]] - garment_pos[edges[:, 0]], axis=1)
        ratio = lengths / self.garment.rest_edge_lengths
        return self.max_penetration(garment_pos, frame), float(ratio.min()), float(ratio.max())


def sample_frame(scene: Scene, rng: np.random.Generator) -> BufferedFrame:
    """Uniform draw from the scene's populated rollout buffer."""
    if not scene.buffer:
        raise InvalidState("scene buffer is empty; roll the scene out first")
    return scene.buffer[int(rng.integers(len(scene.buffer)))]


def _grid_placement(positions: np.ndarray, plane: str, origin) -> np.ndarray:
    out = positions.copy()
    if plane == "xy":
        # rotate the x-z rest plane up by 90 degrees about x: (x, 0, z) -> (x, -z, 0)
        out = out[:, [0, 2, 1]]
        out[:, 1] = -out[:, 1]
    elif plane != "xz":
        raise InvalidArgument(f"unknown garment plane {plane!r}")
    return out + np.asarray(origin, dtype=np.float64)


def build_scene(
    garment: TriMesh,
    *,
    plane: str = "xz",
    origin=(0.0, 0.0, 0.0),
    pinned=(),
    body: BodySpec,
    material: MaterialParams,
    dt: float,
    gravity: float,
    world_radius: float,
    frames: int,
    contact_margin: float,
) -> Scene:
    initial = _grid_placement(garment.rest_positions, plane, origin)
    if not all(0 <= int(i) < garment.vertex_count for i in pinned):   # before they become int64
        raise InvalidArgument("pinned index out of range")
    return Scene(
        garment=garment,
        initial_positions=initial,
        pinned=np.asarray(sorted(set(int(i) for i in pinned)), dtype=np.int64),
        body=body,
        body_mesh=uv_sphere(body.radius, body.lat, body.lon, material),
        dt=dt,
        gravity=gravity,
        world_radius=world_radius,
        frames=frames,
        contact_margin=contact_margin,
    )


def _grid_preset(grid_n: int, side: float, frames: int, dt: float, garment: dict, body_radius: float,
                 body_centers: tuple) -> dict:
    """Scene document of an n x n grid garment placed by ``garment`` (plane,
    origin, pinned) and a sphere keyframed at ``body_centers``, the centres at
    the start, middle and end of the scene."""
    if grid_n < 2:
        raise InvalidArgument(f"grid needs n >= 2, got {grid_n}")
    if frames < 1:
        raise InvalidArgument(f"frames must be >= 1, got {frames}")
    for name, value in (("dt", dt), ("side", side)):
        if real(value, name) <= 0:
            raise InvalidArgument(f"{name} must be > 0, got {value}")
    probe = make_grid_cloth(grid_n, side, DEFAULT_MATERIAL)
    duration = frames * dt
    return {
        "format": "pb4u-scene",
        "version": 1,
        "garment": {"kind": "grid", "n": grid_n, "side": side, **garment},
        "body": {"type": "sphere", "radius": body_radius,
                 "keyframes": [[t, *c] for t, c in zip((0.0, duration / 2.0, duration), body_centers)],
                 "lat": DEFAULT_BODY_LAT, "lon": DEFAULT_BODY_LON},
        "material": asdict(DEFAULT_MATERIAL),
        "dt": dt,
        "gravity": 9.81,
        "world_edge_radius": 1.5 * mean_edge_length(probe),
        "frames": frames,
        "contact_margin": DEFAULT_CONTACT_MARGIN,
    }


def drape_sphere_preset(grid_n: int, side: float = 1.0, frames: int = 48, dt: float = 0.02) -> dict:
    """Cloth grid falling onto a gently swaying sphere."""
    return _grid_preset(
        grid_n, side, frames, dt,
        garment={"plane": "xz", "origin": [0.0, 0.0, 0.0], "pinned": []},
        body_radius=0.25,
        body_centers=([0.0, -0.3, 0.0], [0.06, -0.3, 0.0], [-0.06, -0.3, 0.0]),
    )


def hang_pinned_preset(grid_n: int, side: float = 1.0, frames: int = 48, dt: float = 0.02) -> dict:
    """Vertical cloth pinned along its top row; a sphere swings through it."""
    top = 0.05 + side / 2.0
    pinned = [i * grid_n for i in range(grid_n)]  # j = 0 column becomes the top row
    return _grid_preset(
        grid_n, side, frames, dt,
        garment={"plane": "xy", "origin": [0.0, top, 0.0], "pinned": pinned},
        body_radius=0.18,
        body_centers=([0.0, top, 0.45], [0.0, top, 0.14], [0.0, top, 0.45]),
    )


PRESETS = {
    "drape-sphere": drape_sphere_preset,
    "hang-pinned": hang_pinned_preset,
}
