"""Gradient validation of the energy terms on a randomized small scene.

Used by the ``gradcheck`` CLI command and by the test suite: a 5x5 cloth grid
with noisy positions hovers over a flat body patch so that every energy term
has active contributions, then each analytic gradient is compared against
central finite differences at float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import physics
from .diffcore import Tensor, grad_check
from .graph import SimState, build_world_edges
from .mesh import MaterialParams, TriMesh, make_grid_cloth

PROBE_MATERIAL = MaterialParams(
    lame_mu=3.0, lame_lambda=2.0, bending_coeff=0.5, mass_density=0.4, friction_coeff=0.6
)

ENERGY_NAMES = physics.LOSS_TERMS


@dataclass
class ProbeScene:
    mesh: TriMesh
    rest: physics.RestGeometry
    state: SimState
    body_mesh: TriMesh
    pred: np.ndarray
    radius: float
    margin: float
    gravity: float


def make_probe_scene(seed: int) -> ProbeScene:
    rng = np.random.default_rng(seed)
    mesh = make_grid_cloth(5, 0.5, PROBE_MATERIAL)
    rest = physics.build_rest_geometry(mesh)

    body_mesh = make_grid_cloth(6, 0.8, PROBE_MATERIAL)
    body_pos = body_mesh.rest_positions + np.array([0.0, -0.001, 0.0])
    body_prev = body_pos - np.array([0.0, 0.0, 0.002])

    garment_pos = mesh.rest_positions.copy()
    state = SimState(
        garment_pos=garment_pos,
        # two draws, one unused, so that each seed keeps the probe it always drew
        garment_vel=0.02 * rng.normal(size=(2, *garment_pos.shape))[0],
        body_pos=body_pos,
        body_pos_prev=body_prev,
        time_step=0.02,
    )
    pred = garment_pos + 0.01 * rng.normal(size=garment_pos.shape)
    return ProbeScene(
        mesh=mesh,
        rest=rest,
        state=state,
        body_mesh=body_mesh,
        pred=pred,
        radius=0.2,
        margin=0.004,
        gravity=9.81,
    )


def energy_gradchecks(seed: int, h: float = 1e-6) -> dict[str, float]:
    """Max relative finite-difference error of each energy gradient with
    respect to the predicted positions."""
    scene = make_probe_scene(seed)
    mesh, rest, state = scene.mesh, scene.rest, scene.state
    pairs, normals = state.contacts(scene.body_mesh, scene.radius)
    # the unperturbed prediction's contacts, held fixed across the probes
    pred_pairs = build_world_edges(scene.pred, state.body_pos, scene.radius)

    functions = {
        "stretch": lambda p: physics.stretch_energy(p, rest, mesh.material, mesh.triangles),
        "bending": lambda p: physics.bending_energy(p, rest, mesh.material),
        "collision": lambda p: physics.collision_penalty(p, state.body_pos, normals, pred_pairs, scene.margin),
        "gravity": lambda p: physics.gravity_energy(p, rest.vertex_masses, scene.gravity),
        "friction": lambda p: physics.friction_penalty(
            p, state, pairs, normals, rest.vertex_masses, mesh.material.friction_coeff, scene.margin
        ),
        "inertia": lambda p: physics.inertia_term(p, state, rest.vertex_masses),
    }
    errors = {}
    for name in ENERGY_NAMES:
        pred = Tensor(scene.pred.copy(), track=True)
        errors[name] = grad_check(functions[name], [pred], h=h)
    return errors
