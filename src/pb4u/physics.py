"""Differentiable cloth energies and the composite per-frame loss.

All energies take predicted garment positions as a diffcore Tensor; every
other quantity (rest geometry, body state, masses, contact sets) enters as a
constant. Run them under a recording tape during training, or with no tape
for cheap metric evaluation.

Raw energy functions return unnormalized sums. LossBreakdown reports each
term weighted and divided by the garment vertex count so values are
comparable across resolutions; its total is the plain sum of the six
reported terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .errors import InvalidArgument, InvalidMesh, NumericDivergence, real
from .graph import SimState, build_world_edges  # noqa: F401  (unused; perfbench's tracer test wants the binding)
from .mesh import TriMesh

DEFAULT_CONTACT_MARGIN = 2e-3  # meters

# the six loss terms, in the order the train log and LossBreakdown list them
LOSS_TERMS = ("stretch", "bending", "collision", "gravity", "friction", "inertia")


@dataclass(frozen=True)
class LossWeights:
    stretch: float = 1.0
    bending: float = 1.0
    collision: float = 1.0
    gravity: float = 1.0
    friction: float = 1.0
    inertia: float = 1.0

    def __post_init__(self):
        for name in LOSS_TERMS:
            if real(getattr(self, name), f"loss weight {name}") < 0:
                raise InvalidArgument(f"loss weight {name} must be >= 0, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class LossBreakdown:
    stretch: float
    bending: float
    collision: float
    gravity: float
    friction: float
    inertia: float
    total: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in LOSS_TERMS + ("total",)}


@dataclass(frozen=True)
class RestGeometry:
    """Per-triangle and per-hinge rest quantities for the energy terms.

    ``inv_shape`` holds the upper-triangular inverse rest-shape matrix
    [[a, b], [0, c]] per triangle; ``rest_gram`` the rest-state Gram entries
    (d1.d1, d1.d2, d2.d2) of the two edge vectors from vertex 0. Green strain
    is evaluated from the Gram difference, which makes the rest configuration
    exactly energy-free.
    """

    inv_shape: np.ndarray       # (T, 3): a, b, c
    rest_areas: np.ndarray      # (T,)
    rest_gram: np.ndarray       # (T, 3)
    hinges: np.ndarray          # (H, 4): edge i, j; opposite k (tri 1), l (tri 2)
    rest_dihedrals: np.ndarray  # (H,) signed angle, 0 when flat
    hinge_weights: np.ndarray   # (H,) rest edge length / (A1 + A2)
    vertex_masses: np.ndarray   # (V,) density * lumped rest area


def build_rest_geometry(mesh: TriMesh) -> RestGeometry:
    pos = mesh.rest_positions
    tris = mesh.triangles
    d1 = pos[tris[:, 1]] - pos[tris[:, 0]]
    d2 = pos[tris[:, 2]] - pos[tris[:, 0]]
    lu = np.linalg.norm(d1, axis=1)
    proj = (d1 * d2).sum(axis=1) / lu
    height_sq = (d2 * d2).sum(axis=1) - proj * proj
    if np.any(height_sq <= 0):
        raise InvalidMesh("degenerate rest triangle")
    height = np.sqrt(height_sq)
    areas = 0.5 * lu * height
    # rest shape Dm = [[lu, proj], [0, height]]; inverse stays upper triangular
    inv_shape = np.stack([1.0 / lu, -proj / (lu * height), 1.0 / height], axis=1)
    rest_gram = np.stack(
        [(d1 * d1).sum(axis=1), (d1 * d2).sum(axis=1), (d2 * d2).sum(axis=1)], axis=1
    )

    hinges, hinge_weights = _interior_hinges(mesh)
    return RestGeometry(
        inv_shape=inv_shape,
        rest_areas=areas,
        rest_gram=rest_gram,
        hinges=hinges,
        rest_dihedrals=dihedral_angles(Tensor(pos), hinges).data,
        hinge_weights=hinge_weights,
        vertex_masses=mesh.material.mass_density * mesh.lumped_areas,
    )


def _interior_hinges(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Edges shared by two triangles, in edge order, stored as (i, j, k, l)
    with the first triangle (lower side index 3*t + s) traversing i -> j and
    opposite vertices k, l; plus each hinge's weight, its rest edge length
    over the summed rest area of its two triangles."""
    side_edge = mesh.triangle_edges.ravel()
    order = np.argsort(side_edge, kind="stable")
    # from_triangles caps every edge at two sides, so equal neighbours in
    # edge order are exactly the interior pairs
    shared = np.flatnonzero(side_edge[order[1:]] == side_edge[order[:-1]])
    hinge_edges = side_edge[order[shared]]
    t1, s1 = np.divmod(order[shared], 3)
    t2, s2 = np.divmod(order[shared + 1], 3)
    tris = mesh.triangles
    hinges = np.stack(
        [tris[t1, s1], tris[t1, (s1 + 1) % 3], tris[t1, (s1 + 2) % 3], tris[t2, (s2 + 2) % 3]], axis=1
    )
    areas = mesh.triangle_areas
    return hinges, mesh.rest_edge_lengths[hinge_edges] / (areas[t1] + areas[t2])


def dihedral_angles(positions: Tensor, hinges: np.ndarray) -> Tensor:
    """Signed dihedral angle of each hinge (i, j, k, l), zero when flat: the
    angle between the normals of triangles (i, j, k) and (j, i, l), signed
    along the edge i -> j."""
    xi = dc.gather(positions, hinges[:, 0])
    xj = dc.gather(positions, hinges[:, 1])
    xk = dc.gather(positions, hinges[:, 2])
    xl = dc.gather(positions, hinges[:, 3])
    edge = dc.sub(xj, xi)
    n1 = dc.cross3(dc.sub(xj, xi), dc.sub(xk, xi))
    n2 = dc.cross3(dc.sub(xi, xj), dc.sub(xl, xj))
    sin_part = dc.div(dc.dot(dc.cross3(n1, n2), edge), dc.sqrt(dc.dot(edge, edge)))
    return dc.atan2(sin_part, dc.dot(n1, n2))


def stretch_energy(positions: Tensor, rest: RestGeometry, material, triangles: np.ndarray) -> Tensor:
    """St. Venant-Kirchhoff membrane energy.

    Green strain G = 1/2 * Dm^-T (C - C0) Dm^-1 with C the current Gram matrix
    of the two triangle edge vectors and C0 its rest value; the energy is
    sum over triangles of A_rest * (mu ||G||_F^2 + lambda/2 tr(G)^2).
    """
    x0 = dc.gather(positions, triangles[:, 0])
    x1 = dc.gather(positions, triangles[:, 1])
    x2 = dc.gather(positions, triangles[:, 2])
    d1 = dc.sub(x1, x0)
    d2 = dc.sub(x2, x0)
    dtype = positions.dtype
    c0 = rest.rest_gram.astype(dtype)
    p = dc.sub(dc.dot(d1, d1), Tensor(c0[:, 0]))
    q = dc.sub(dc.dot(d1, d2), Tensor(c0[:, 1]))
    r = dc.sub(dc.dot(d2, d2), Tensor(c0[:, 2]))
    a = rest.inv_shape[:, 0].astype(dtype)
    b = rest.inv_shape[:, 1].astype(dtype)
    c = rest.inv_shape[:, 2].astype(dtype)
    g11 = dc.mul(p, Tensor(0.5 * a * a))
    g12 = dc.add(dc.mul(p, Tensor(0.5 * a * b)), dc.mul(q, Tensor(0.5 * a * c)))
    g22 = dc.add(
        dc.add(dc.mul(p, Tensor(0.5 * b * b)), dc.mul(q, Tensor(b * c))),
        dc.mul(r, Tensor(0.5 * c * c)),
    )
    frob = dc.add(dc.add(dc.mul(g11, g11), dc.mul(dc.mul(g12, g12), Tensor(np.asarray(2.0, dtype)))), dc.mul(g22, g22))
    trace = dc.add(g11, g22)
    area = rest.rest_areas.astype(dtype)
    density = dc.add(
        dc.mul(frob, Tensor(material.lame_mu * area)),
        dc.mul(dc.mul(trace, trace), Tensor(0.5 * material.lame_lambda * area)),
    )
    return dc.sum_all(density)


def bending_energy(positions: Tensor, rest: RestGeometry, material) -> Tensor:
    """Hinge bending: sum over interior edges of
    coeff * (rest_len / (A1 + A2)) * (theta - theta_rest)^2 with theta the
    signed dihedral angle (zero when flat)."""
    dtype = positions.dtype
    dev = dc.sub(dihedral_angles(positions, rest.hinges), Tensor(rest.rest_dihedrals.astype(dtype)))
    weights = (material.bending_coeff * rest.hinge_weights).astype(dtype)
    return dc.sum_all(dc.mul(dc.mul(dev, dev), Tensor(weights)))


def nearest_contacts(
    garment_pos: np.ndarray,
    body_pos: np.ndarray,
    pairs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(garment index, nearest body index) for every garment vertex in the
    (garment, body) ``pairs`` of a world-edge search over these positions;
    ties break to the lower body index for determinism."""
    delta = garment_pos[pairs[:, 0]] - body_pos[pairs[:, 1]]
    dist_sq = (delta * delta).sum(axis=1)
    order = np.lexsort((pairs[:, 1], dist_sq, pairs[:, 0]))
    g_sorted = pairs[order, 0]
    first = np.unique(g_sorted, return_index=True)[1]
    chosen = order[first]
    return pairs[chosen, 0], pairs[chosen, 1]


def collision_penalty(
    garment_pos: Tensor,
    body_pos: np.ndarray,
    body_normals: np.ndarray,
    pairs: np.ndarray,
    margin: float = DEFAULT_CONTACT_MARGIN,
) -> Tensor:
    """Cubic penetration penalty: for each garment vertex in the world-edge
    ``pairs`` of the predicted frame, with x_b its nearest body vertex,
    d = n_b . (x_g - x_b); contributes max(0, margin - d)^3."""
    positions = np.asarray(garment_pos.data, dtype=np.float64)
    g_idx, b_idx = nearest_contacts(positions, body_pos, pairs)
    dtype = garment_pos.dtype
    xg = dc.gather(garment_pos, g_idx)
    xb = Tensor(body_pos[b_idx].astype(dtype))
    normals = Tensor(body_normals[b_idx].astype(dtype))
    d = dc.dot(dc.sub(xg, xb), normals)
    gap = dc.sub(Tensor(np.full(g_idx.shape[0], margin, dtype=dtype)), d)
    return dc.sum_all(dc.pow3(dc.relu(gap)))


def gravity_energy(garment_pos: Tensor, masses: np.ndarray, gravity: float) -> Tensor:
    """Potential energy sum(m_i g y_i); negative values mean vertices sit
    below the y=0 reference plane."""
    dtype = garment_pos.dtype
    n = garment_pos.data.shape[0]
    e_y = np.zeros((n, 3), dtype=dtype)
    e_y[:, 1] = 1.0
    height = dc.dot(garment_pos, Tensor(e_y))
    return dc.sum_all(dc.mul(height, Tensor((masses * gravity).astype(dtype))))


def friction_penalty(
    pred_pos: Tensor,
    state: SimState,
    pairs: np.ndarray,
    body_normals_t: np.ndarray,
    masses: np.ndarray,
    friction_coeff: float,
    margin: float = DEFAULT_CONTACT_MARGIN,
) -> Tensor:
    """Quadratic tangential-slip penalty at contacts established in the
    pre-step state, whose world-edge search found ``pairs``:
    friction * m * |tangential displacement|^2 / dt^2."""
    dtype = pred_pos.dtype
    g_idx, b_idx = nearest_contacts(state.garment_pos, state.body_pos, pairs)
    normals = body_normals_t[b_idx]
    depth = ((state.garment_pos[g_idx] - state.body_pos[b_idx]) * normals).sum(axis=1)
    touching = depth < margin
    g_idx, normals = g_idx[touching], normals[touching]
    disp = dc.sub(dc.gather(pred_pos, g_idx), Tensor(state.garment_pos[g_idx].astype(dtype)))
    n_const = Tensor(normals.astype(dtype))
    tangential = dc.sub(disp, dc.scale_rows(n_const, dc.dot(disp, n_const)))
    coeff = (friction_coeff * masses[g_idx] / state.time_step**2).astype(dtype)
    return dc.sum_all(dc.mul(dc.dot(tangential, tangential), Tensor(coeff)))


def inertia_term(pred_pos: Tensor, state: SimState, masses: np.ndarray) -> Tensor:
    """Deviation from the inertial free-flight trajectory:
    1/(2 dt^2) sum m_i |x_hat - (x + dt u)|^2."""
    dtype = pred_pos.dtype
    target = (state.garment_pos + state.time_step * state.garment_vel).astype(dtype)
    diff = dc.sub(pred_pos, Tensor(target))
    coeff = (masses / (2.0 * state.time_step**2)).astype(dtype)
    return dc.sum_all(dc.mul(dc.dot(diff, diff), Tensor(coeff)))


def total_loss(
    pred_pos: Tensor,
    state: SimState,
    next_state: SimState,
    body_mesh: TriMesh,
    mesh: TriMesh,
    rest: RestGeometry,
    weights: LossWeights,
    gravity: float,
    contact_radius: float,
    margin: float = DEFAULT_CONTACT_MARGIN,
) -> tuple[Tensor, LossBreakdown]:
    """Weighted, per-vertex-normalized sum of the six energies evaluated on a
    predicted frame. Friction reads the contacts of the pre-step ``state``,
    collision those of ``next_state``, the predicted frame's state. Returns
    the scalar Tensor (for backward) plus a float snapshot of the individual
    reported terms."""
    n_g = pred_pos.data.shape[0]
    material = mesh.material
    pairs_t, normals_t = state.contacts(body_mesh, contact_radius)
    pairs_next, normals_next = next_state.contacts(body_mesh, contact_radius)
    terms = {
        "stretch": stretch_energy(pred_pos, rest, material, mesh.triangles),
        "bending": bending_energy(pred_pos, rest, material),
        "collision": collision_penalty(pred_pos, next_state.body_pos, normals_next, pairs_next, margin),
        "gravity": gravity_energy(pred_pos, rest.vertex_masses, gravity),
        "friction": friction_penalty(
            pred_pos, state, pairs_t, normals_t, rest.vertex_masses, material.friction_coeff, margin
        ),
        "inertia": inertia_term(pred_pos, state, rest.vertex_masses),
    }
    total = None
    reported = {}
    reported_total = 0.0
    for name in LOSS_TERMS:
        factor = getattr(weights, name) / float(n_g)
        scaled = dc.mul(terms[name], Tensor(np.asarray(factor, pred_pos.dtype)))
        reported[name] = float(scaled.data)
        reported_total += reported[name]
        total = scaled if total is None else dc.add(total, scaled)
    # the reported total is the exact float sum of the reported terms; the
    # tape total may differ in its last bits at reduced precision
    breakdown = LossBreakdown(total=reported_total, **reported)
    if not np.isfinite(breakdown.total) or not all(np.isfinite(v) for v in reported.values()):
        raise NumericDivergence(f"non-finite loss term: {reported}")
    return total, breakdown
