"""Energy terms: closed-form cases, invariances, and finite-difference
gradient checks."""

import dataclasses

import numpy as np
import pytest

from pb4u import diffcore as dc
from pb4u import physics
from pb4u import validate
from pb4u.diffcore import Tensor
from pb4u.graph import SimState, build_world_edges
from pb4u.mesh import MaterialParams, TriMesh, make_grid_cloth, vertex_normals

MAT = MaterialParams(lame_mu=1.0, lame_lambda=1.0, bending_coeff=1.0, mass_density=1.0, friction_coeff=1.0)


def unit_right_triangle():
    positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    return TriMesh.from_triangles(positions, np.array([[0, 2, 1]]), MAT)


def assert_zero_through_tape(energy, positions):
    """``energy`` of tracked ``positions`` is an exact 0 in their dtype at
    float32 and float64, recorded on the tape, and backward gives an all-zero
    gradient."""
    for dtype in (np.float32, np.float64):
        x = Tensor(positions, track=True, dtype=dtype)
        tape = dc.Tape()
        with dc.recording(tape):
            e = energy(x)
        assert e.dtype == dtype and e.shape == () and e.item() == 0.0
        tape.backward(e)
        assert x.grad is not None and x.grad.dtype == dtype and not x.grad.any()


def test_stretch_zero_at_rest_exactly():
    grid = make_grid_cloth(4, 1.0, MAT)
    rest = physics.build_rest_geometry(grid)
    e = physics.stretch_energy(Tensor(grid.rest_positions.copy()), rest, MAT, grid.triangles)
    assert e.item() == 0.0


def test_stretch_uniform_double_scaling_closed_form():
    tri = unit_right_triangle()
    rest = physics.build_rest_geometry(tri)
    # G = 1.5 I, |G|_F^2 = 4.5, tr G = 3; E = 0.5 * (1*4.5 + 0.5*9) = 4.5
    e = physics.stretch_energy(Tensor(2.0 * tri.rest_positions), rest, MAT, tri.triangles)
    assert e.item() == pytest.approx(4.5, abs=1e-12)


def test_stretch_positive_and_rotation_invariant():
    grid = make_grid_cloth(3, 1.0, MAT)
    rest = physics.build_rest_geometry(grid)
    r = np.random.default_rng(0)
    deformed = grid.rest_positions + 0.02 * r.normal(size=grid.rest_positions.shape)
    e = physics.stretch_energy(Tensor(deformed.copy()), rest, MAT, grid.triangles)
    assert e.item() > 0.0
    rot = np.linalg.qr(r.normal(size=(3, 3)))[0]
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    e_rot = physics.stretch_energy(Tensor(deformed @ rot.T), rest, MAT, grid.triangles)
    assert e_rot.item() == pytest.approx(e.item(), rel=1e-9)


def test_bending_zero_for_flat_rest_exactly():
    grid = make_grid_cloth(4, 1.0, MAT)
    rest = physics.build_rest_geometry(grid)
    e = physics.bending_energy(Tensor(grid.rest_positions.copy()), rest, MAT)
    assert e.item() == 0.0
    tri = unit_right_triangle()  # no interior edge, so no hinge
    tri_rest = physics.build_rest_geometry(tri)
    assert tri_rest.hinges.shape == (0, 4)
    assert_zero_through_tape(lambda x: physics.bending_energy(x, tri_rest, MAT), 2.0 * tri.rest_positions)


def hinge_mesh():
    # two unit right triangles sharing edge (0, 1); flat rest in the x-z plane
    positions = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],   # opposite vertex, triangle 1
        [1.0, 0.0, -1.0],  # opposite vertex, triangle 2
    ])
    triangles = np.array([[0, 1, 2], [1, 0, 3]])
    return TriMesh.from_triangles(positions, triangles, MAT)


def test_bending_ninety_degree_fold():
    mesh = hinge_mesh()
    rest = physics.build_rest_geometry(mesh)
    assert rest.hinges.shape[0] == 1
    assert rest.rest_dihedrals[0] == 0.0
    folded = mesh.rest_positions.copy()
    folded[3] = [1.0, 1.0, 0.0]  # rotate triangle 2 up by 90 degrees about the shared edge
    e = physics.bending_energy(Tensor(folded), rest, MAT)
    w = rest.hinge_weights[0]  # rest edge length 1 over summed areas 1
    assert w == pytest.approx(1.0, rel=1e-12)
    assert e.item() == pytest.approx((np.pi / 2.0) ** 2, rel=1e-12)


def test_bending_sign_symmetric_fold():
    mesh = hinge_mesh()
    rest = physics.build_rest_geometry(mesh)
    up = mesh.rest_positions.copy()
    up[3] = [1.0, 1.0, 0.0]
    down = mesh.rest_positions.copy()
    down[3] = [1.0, -1.0, 0.0]
    e_up = physics.bending_energy(Tensor(up), rest, MAT)
    e_down = physics.bending_energy(Tensor(down), rest, MAT)
    assert e_up.item() == pytest.approx(e_down.item(), rel=1e-12)


def test_collision_inactive_outside_margin():
    garment = Tensor(np.array([[0.0, 0.05, 0.0]]))
    body = np.array([[0.0, 0.0, 0.0]])
    normals = np.array([[0.0, 1.0, 0.0]])
    e = physics.collision_penalty(garment, body, normals, build_world_edges(garment.data, body, 0.2), margin=1e-3)
    assert e.item() == 0.0
    far = body + np.array([[0.0, 1.0, 0.0]])  # outside the search radius: no pairs
    pairs = build_world_edges(garment.data, far, 0.2)
    assert pairs.shape == (0, 2)
    assert_zero_through_tape(lambda x: physics.collision_penalty(x, far, normals, pairs), garment.data)


def test_collision_single_pair_closed_form():
    garment = Tensor(np.array([[0.0, -1e-3, 0.0]]))
    body = np.array([[0.0, 0.0, 0.0]])
    normals = np.array([[0.0, 1.0, 0.0]])
    e = physics.collision_penalty(garment, body, normals, build_world_edges(garment.data, body, 0.2), margin=1e-3)
    assert abs(e.item() - 8e-9) < 1e-22
    assert e.item() == (2e-3) * (2e-3) * (2e-3)


def test_collision_monotone_with_depth():
    body = np.array([[0.0, 0.0, 0.0]])
    normals = np.array([[0.0, 1.0, 0.0]])
    last = -1.0
    for depth in np.linspace(0.0, 0.05, 20):
        garment = Tensor(np.array([[0.0, -depth, 0.0]]))
        pairs = build_world_edges(garment.data, body, 0.2)
        e = physics.collision_penalty(garment, body, normals, pairs, margin=2e-3).item()
        assert e >= last
        last = e


def test_collision_matches_brute_force_nearest():
    r = np.random.default_rng(4)
    garment = r.uniform(-0.1, 0.1, size=(20, 3))
    body = r.uniform(-0.12, 0.12, size=(15, 3))
    normals = r.normal(size=(15, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    radius, margin = 0.15, 0.02
    pairs = build_world_edges(garment, body, radius)
    e = physics.collision_penalty(Tensor(garment.copy()), body, normals, pairs, margin).item()
    expected = 0.0
    for i, xg in enumerate(garment):
        dists = np.linalg.norm(body - xg, axis=1)
        j = int(np.argmin(dists))
        if dists[j] < radius:
            d = float(normals[j] @ (xg - body[j]))
            expected += max(0.0, margin - d) ** 3
    assert e == pytest.approx(expected, rel=1e-12)


def test_gravity_point_mass():
    e = physics.gravity_energy(Tensor(np.array([[0.0, 2.0, 0.0]])), np.array([1.0]), 9.81)
    assert e.item() == pytest.approx(19.62, rel=1e-12)
    zero = physics.gravity_energy(Tensor(np.zeros((5, 3))), np.ones(5), 9.81)
    assert zero.item() == 0.0


def test_gravity_shift_linearity():
    r = np.random.default_rng(1)
    pos = r.normal(size=(12, 3))
    masses = r.uniform(0.1, 1.0, size=12)
    base = physics.gravity_energy(Tensor(pos.copy()), masses, 9.81).item()
    dy = 0.37
    shifted = physics.gravity_energy(Tensor(pos + np.array([0, dy, 0])), masses, 9.81).item()
    assert shifted - base == pytest.approx(masses.sum() * 9.81 * dy, rel=1e-9)


def contact_state(dt=0.02):
    garment = np.array([[0.0, 0.0005, 0.0]])
    body = np.array([[0.0, 0.0, 0.0]])
    return SimState(
        garment_pos=garment,
        garment_vel=np.zeros((1, 3)),
        body_pos=body,
        body_pos_prev=body.copy(),
        time_step=dt,
    )


def _pairs(state, radius):
    """The world-edge pairs of a pre-step state, as its graph build finds them."""
    return build_world_edges(state.garment_pos, state.body_pos, radius)


def _probe_frame(scene):
    """The state of the probe's predicted frame: the prediction, with the
    body where the pre-step state has it."""
    return dataclasses.replace(scene.state, garment_pos=scene.pred)


def test_friction_zero_without_contacts():
    state = contact_state()
    far = SimState(
        garment_pos=state.garment_pos + np.array([0.0, 1.0, 0.0]),
        garment_vel=state.garment_vel,
        body_pos=state.body_pos,
        body_pos_prev=state.body_pos_prev,
        time_step=state.time_step,
    )
    pred = Tensor(far.garment_pos + 0.01)
    e = physics.friction_penalty(pred, far, _pairs(far, 0.1), np.array([[0.0, 1.0, 0.0]]), np.ones(1), 0.7)
    assert e.item() == 0.0
    # a pair within the search radius but not touching: depth 0.05 >= margin
    above = dataclasses.replace(state, garment_pos=state.garment_pos + np.array([0.0, 0.05, 0.0]))
    pairs = _pairs(above, 0.1)
    assert pairs.shape == (1, 2)
    assert_zero_through_tape(
        lambda x: physics.friction_penalty(x, above, pairs, np.array([[0.0, 1.0, 0.0]]), np.ones(1), 0.7),
        above.garment_pos + 0.01,
    )


def test_friction_normal_motion_free():
    state = contact_state()
    pred = Tensor(state.garment_pos + np.array([[0.0, 0.003, 0.0]]))
    e = physics.friction_penalty(pred, state, _pairs(state, 0.1), np.array([[0.0, 1.0, 0.0]]), np.ones(1), 0.7)
    assert e.item() == pytest.approx(0.0, abs=1e-18)


def test_friction_tangential_slide_closed_form():
    dt = 0.02
    v = 0.3
    state = contact_state(dt)
    pred = Tensor(state.garment_pos + np.array([[v * dt, 0.0, 0.0]]))
    mass = np.array([0.25])
    e = physics.friction_penalty(pred, state, _pairs(state, 0.1), np.array([[0.0, 1.0, 0.0]]), mass, 0.7)
    # tangential displacement v*dt against normal +y: mu * m * v^2
    assert e.item() == pytest.approx(0.7 * 0.25 * v * v, rel=1e-12)


def test_inertia_free_flight_is_zero():
    r = np.random.default_rng(2)
    grid = make_grid_cloth(3, 1.0, MAT)
    vel = r.normal(size=(9, 3))
    state = SimState(
        garment_pos=grid.rest_positions.copy(),
        garment_vel=vel,
        body_pos=np.zeros((0, 3)),
        body_pos_prev=np.zeros((0, 3)),
        time_step=0.02,
    )
    target = state.garment_pos + state.time_step * vel
    e = physics.inertia_term(Tensor(target.copy()), state, np.ones(9))
    assert e.item() == 0.0


def test_inertia_single_deviation_closed_form():
    state = contact_state(dt=0.05)
    delta = np.array([0.003, -0.001, 0.002])
    pred = Tensor(state.garment_pos + delta[None, :])
    e = physics.inertia_term(pred, state, np.ones(1))
    assert e.item() == pytest.approx(float(delta @ delta) / (2 * 0.05**2), rel=1e-12)


def test_all_energy_gradients_match_finite_differences():
    errors = validate.energy_gradchecks(seed=1234)
    assert set(errors) == set(validate.ENERGY_NAMES)
    for name, err in errors.items():
        assert err <= 1e-4, f"{name}: {err}"


def test_translation_invariance_of_non_gravity_terms():
    scene = validate.make_probe_scene(7)
    shift = np.array([3.0, -1.5, 2.25])
    state2 = SimState(
        garment_pos=scene.state.garment_pos + shift,
        garment_vel=scene.state.garment_vel,
        body_pos=scene.state.body_pos + shift,
        body_pos_prev=scene.state.body_pos_prev + shift,
        time_step=scene.state.time_step,
    )
    mesh, rest = scene.mesh, scene.rest
    normals = vertex_normals(scene.state.body_pos, scene.body_mesh)
    for build in (
        lambda p, st: physics.stretch_energy(p, rest, mesh.material, mesh.triangles),
        lambda p, st: physics.bending_energy(p, rest, mesh.material),
        lambda p, st: physics.collision_penalty(
            p, st.body_pos, normals, build_world_edges(p.data, st.body_pos, scene.radius), scene.margin
        ),
        lambda p, st: physics.friction_penalty(
            p, st, _pairs(st, scene.radius), normals, rest.vertex_masses, mesh.material.friction_coeff,
            scene.margin,
        ),
        lambda p, st: physics.inertia_term(p, st, rest.vertex_masses),
    ):
        base = build(Tensor(scene.pred.copy()), scene.state).item()
        moved = build(Tensor(scene.pred + shift), state2).item()
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-15)


def test_rotation_invariance_of_stretch_bending_inertia():
    scene = validate.make_probe_scene(11)
    r = np.random.default_rng(3)
    rot = np.linalg.qr(r.normal(size=(3, 3)))[0]
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    mesh, rest, state = scene.mesh, scene.rest, scene.state
    rotated_state = SimState(
        garment_pos=state.garment_pos @ rot.T,
        garment_vel=state.garment_vel @ rot.T,
        body_pos=state.body_pos @ rot.T,
        body_pos_prev=state.body_pos_prev @ rot.T,
        time_step=state.time_step,
    )
    pairs = [
        (physics.stretch_energy(Tensor(scene.pred.copy()), rest, mesh.material, mesh.triangles),
         physics.stretch_energy(Tensor(scene.pred @ rot.T), rest, mesh.material, mesh.triangles)),
        (physics.bending_energy(Tensor(scene.pred.copy()), rest, mesh.material),
         physics.bending_energy(Tensor(scene.pred @ rot.T), rest, mesh.material)),
        (physics.inertia_term(Tensor(scene.pred.copy()), state, rest.vertex_masses),
         physics.inertia_term(Tensor(scene.pred @ rot.T), rotated_state, rest.vertex_masses)),
    ]
    for base, rotated in pairs:
        assert rotated.item() == pytest.approx(base.item(), rel=1e-9, abs=1e-14)


def rest_scene_at_origin():
    mesh = make_grid_cloth(4, 1.0, MAT)
    rest = physics.build_rest_geometry(mesh)
    body_mesh = make_grid_cloth(2, 0.5, MAT)
    body_pos = body_mesh.rest_positions + np.array([0.0, -5.0, 0.0])  # far below
    state = SimState(
        garment_pos=mesh.rest_positions.copy(),
        garment_vel=np.zeros((16, 3)),
        body_pos=body_pos,
        body_pos_prev=body_pos.copy(),
        time_step=0.02,
    )
    return mesh, rest, state, body_mesh


def test_total_loss_all_zero_at_rest():
    mesh, rest, state, body_mesh = rest_scene_at_origin()
    total, breakdown = physics.total_loss(
        Tensor(state.garment_pos.copy()), state, state, body_mesh,
        mesh, rest, physics.LossWeights(), gravity=9.81, contact_radius=0.05,
    )
    assert total.item() == 0.0
    for value in breakdown.as_dict().values():
        assert value == 0.0


def test_total_equals_sum_of_reported_terms_exactly():
    scene = validate.make_probe_scene(21)
    total, breakdown = physics.total_loss(
        Tensor(scene.pred.copy()), scene.state, _probe_frame(scene), scene.body_mesh, scene.mesh, scene.rest,
        physics.LossWeights(), gravity=scene.gravity, contact_radius=scene.radius,
        margin=scene.margin,
    )
    acc = 0.0
    for name in ("stretch", "bending", "collision", "gravity", "friction", "inertia"):
        acc += getattr(breakdown, name)
    assert breakdown.total == acc
    assert total.item() == breakdown.total


def test_total_loss_weighted_sum():
    scene = validate.make_probe_scene(22)
    weights = physics.LossWeights(stretch=2.0, bending=0.5, collision=3.0, gravity=1.5, friction=0.25, inertia=4.0)
    _, weighted = physics.total_loss(
        Tensor(scene.pred.copy()), scene.state, _probe_frame(scene), scene.body_mesh, scene.mesh, scene.rest,
        weights, gravity=scene.gravity, contact_radius=scene.radius, margin=scene.margin,
    )
    _, plain = physics.total_loss(
        Tensor(scene.pred.copy()), scene.state, _probe_frame(scene), scene.body_mesh, scene.mesh, scene.rest,
        physics.LossWeights(), gravity=scene.gravity, contact_radius=scene.radius, margin=scene.margin,
    )
    for name, w in (("stretch", 2.0), ("bending", 0.5), ("collision", 3.0), ("gravity", 1.5), ("friction", 0.25), ("inertia", 4.0)):
        assert getattr(weighted, name) == pytest.approx(w * getattr(plain, name), rel=1e-12, abs=1e-300)
