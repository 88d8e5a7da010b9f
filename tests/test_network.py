"""Network forward pass: shapes, locality, equivariances, determinism."""

import numpy as np
import pytest

from pb4u import diffcore as dc
from pb4u import io as pio
from pb4u import network as net
from pb4u.diffcore import Tensor
from pb4u.control import calibrate
from pb4u.errors import InvalidArgument, NumericDivergence
from pb4u.graph import EDGE_FEATURE_DIM, VERTEX_FEATURE_DIM, SimGraph, SimState, build_graph
from pb4u.mesh import DEFAULT_MATERIAL as MAT
from pb4u.mesh import ScaleFactors, make_grid_cloth, mean_edge_length, rest_scale_factors
from pb4u.rollout import SimContext, advance
from pb4u.scenes import drape_sphere_preset

CFG = net.NetworkConfig(latent_dim=32, gamma=0.9, k_steps=3, processor_depth=2)


def path_graph(n=6, seed=0, dtype=np.float64):
    """All-garment path graph with synthetic features."""
    r = np.random.default_rng(seed)
    vf = r.normal(size=(n, VERTEX_FEATURE_DIM)).astype(dtype)
    pairs = np.array([[i, i + 1] for i in range(n - 1)], dtype=np.int64)
    directed = np.concatenate([pairs, pairs[:, ::-1]])
    ef = r.normal(size=(directed.shape[0], EDGE_FEATURE_DIM)).astype(dtype)
    return SimGraph(
        mesh_edges=directed,
        world_edges=np.zeros((0, 2), dtype=np.int64),
        vertex_features=vf,
        edge_features=ef,
        garment_count=n,
    )


def make_params(seed=0, dtype=np.float64, config=CFG):
    return net.init_params(config, seed=seed, dtype=dtype)


def test_encode_shapes_and_h_initialization():
    graph = path_graph()
    params = make_params()
    latent = net.encode(graph, params)
    assert latent.V.data.shape == (6, CFG.latent_dim)
    assert latent.E.data.shape == (10, CFG.latent_dim)
    # the aggregate starts as V's garment rows
    assert np.array_equal(net.propagate(latent, 0, CFG.gamma, params).data, latent.V.data[:latent.garment_count])


def test_encode_zero_params_gives_zero_latents():
    graph = path_graph()
    params = make_params()
    for mlp in (params.vertex_encoder, params.edge_encoder):
        for w in mlp.weights:
            w.data[:] = 0.0
        for b in mlp.biases:
            b.data[:] = 0.0
    latent = net.encode(graph, params)
    assert np.all(latent.V.data == 0.0)
    assert np.all(latent.E.data == 0.0)


def test_encode_rejects_wrong_width():
    graph = path_graph()
    graph.vertex_features = graph.vertex_features[:, :5]
    with pytest.raises(InvalidArgument):
        net.encode(graph, make_params())


def test_propagate_zero_steps_is_identity():
    graph = path_graph()
    params = make_params()
    latent = net.encode(graph, params)
    assert np.array_equal(net.propagate(latent, 0, 0.9, params).data, latent.V.data[:latent.garment_count])


def test_propagate_single_step_matches_manual_unroll():
    graph = path_graph(n=4, seed=3)
    params = make_params(seed=1)
    latent = net.encode(graph, params)
    got = net.propagate(latent, 1, 0.8, params).data

    # manual unroll with plain numpy
    h = latent.V.data
    e = latent.E.data
    senders, receivers = graph.senders, graph.receivers

    def run_mlp(mlp, x):
        for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            x = x @ w.data + b.data
            if i < len(mlp.weights) - 1:
                x = np.maximum(x, 0.0)
        return x

    messages = run_mlp(params.message_fn, np.concatenate([h[receivers], h[senders], e], axis=1))
    agg = np.zeros((4, h.shape[1]))
    for row, dest in enumerate(receivers):
        agg[dest] += messages[row]
    mu = agg.mean(axis=1, keepdims=True)
    var = ((agg - mu) ** 2).mean(axis=1, keepdims=True)
    xhat = (agg - mu) / np.sqrt(var + dc.LAYER_NORM_EPS)
    tilde = xhat * params.norm_gain.data + params.norm_bias.data
    expected = 0.8 * h + tilde
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_hop_locality_on_path_graph(k):
    graph = path_graph(n=6, seed=5)
    params = make_params(seed=2)
    base = net.propagate(net.encode(graph, params), k, 0.9, params).data

    perturbed = path_graph(n=6, seed=5)
    perturbed.vertex_features = perturbed.vertex_features.copy()
    perturbed.vertex_features[0] += 1.0
    got = net.propagate(net.encode(perturbed, params), k, 0.9, params).data

    for vertex in range(6):
        if vertex <= k:
            assert not np.array_equal(got[vertex], base[vertex])
        else:
            assert np.array_equal(got[vertex], base[vertex])


def test_shared_weights_compose_across_splits():
    graph = path_graph(n=6, seed=8)
    params = make_params(seed=3)
    latent = net.encode(graph, params)
    h_full = net.propagate(latent, 5, 0.9, params).data

    h_a = net.propagate(latent, 2, 0.9, params)
    resumed = net.LatentGraph(
        V=h_a, E=latent.E,
        senders=latent.senders, receivers=latent.receivers,
        garment_count=latent.garment_count,
    )
    h_b = net.propagate(resumed, 3, 0.9, params).data
    assert np.array_equal(h_full, h_b)


def test_update_constant_map_with_zero_weights():
    graph = path_graph(n=5, seed=9)
    params = make_params(seed=4)
    for w in params.update_fn.weights:
        w.data[:] = 0.0
    for b in params.update_fn.biases:
        b.data[:] = 0.0
    params.update_fn.biases[-1].data[:] = 0.25
    latent = net.encode(graph, params)
    h_k = net.propagate(latent, 2, 0.9, params)
    v_prime = net.update(latent, h_k, params)
    assert v_prime.data.shape == latent.V.data.shape
    assert np.all(v_prime.data == 0.25)


def test_update_permutation_equivariance():
    graph = path_graph(n=6, seed=10)
    params = make_params(seed=5)
    latent = net.encode(graph, params)
    v_prime = net.update(latent, net.propagate(latent, 2, 0.9, params), params).data

    perm = np.array([3, 1, 5, 0, 4, 2])
    inverse = np.argsort(perm)
    permuted = SimGraph(
        mesh_edges=inverse[graph.mesh_edges],
        world_edges=graph.world_edges,
        vertex_features=graph.vertex_features[perm],
        edge_features=graph.edge_features,
        garment_count=6,
    )
    latent_p = net.encode(permuted, params)
    v_perm = net.update(latent_p, net.propagate(latent_p, 2, 0.9, params), params).data
    assert np.allclose(v_perm, v_prime[perm], rtol=1e-10, atol=1e-12)


def test_process_depth_zero_is_identity():
    graph = path_graph()
    params = net.init_params(net.NetworkConfig(latent_dim=32, processor_depth=0), seed=0, dtype=np.float64)
    latent = net.encode(graph, params)
    v = net.update(latent, net.propagate(latent, 1, 0.9, params), params)
    assert net.process(latent, v, params) is v


def test_process_zero_weights_identity():
    graph = path_graph()
    params = make_params(seed=6)
    for block in params.blocks:
        for mlp in (block.edge_mlp, block.vertex_mlp):
            for w in mlp.weights:
                w.data[:] = 0.0
            for b in mlp.biases:
                b.data[:] = 0.0
    latent = net.encode(graph, params)
    v = net.update(latent, net.propagate(latent, 1, 0.9, params), params)
    out = net.process(latent, v, params)
    assert np.array_equal(out.data, v.data)


def test_process_depth_two_composes_depth_one():
    graph = path_graph(n=4, seed=11)
    params = make_params(seed=7)
    latent = net.encode(graph, params)
    v = net.update(latent, net.propagate(latent, 1, 0.9, params), params)
    full = net.process(latent, v, params).data

    one_block = net.ModelParams(
        vertex_encoder=params.vertex_encoder,
        edge_encoder=params.edge_encoder,
        message_fn=params.message_fn,
        update_fn=params.update_fn,
        blocks=[params.blocks[0]],
        decoder=params.decoder,
        norm_gain=params.norm_gain,
        norm_bias=params.norm_bias,
    )
    two_block = net.ModelParams(
        vertex_encoder=params.vertex_encoder,
        edge_encoder=params.edge_encoder,
        message_fn=params.message_fn,
        update_fn=params.update_fn,
        blocks=[params.blocks[1]],
        decoder=params.decoder,
        norm_gain=params.norm_gain,
        norm_bias=params.norm_bias,
    )
    mid = net.process(latent, v, one_block)
    # the second block refines edges starting from the first block's edges
    latent_mid = net.LatentGraph(
        V=latent.V, E=_edges_after_block(latent, v, params.blocks[0]),
        senders=latent.senders, receivers=latent.receivers, garment_count=latent.garment_count,
    )
    manual = net.process(latent_mid, mid, two_block).data
    assert np.allclose(full, manual, rtol=1e-12, atol=1e-14)


def _edges_after_block(latent, v, block):
    v_dst = dc.gather(v, latent.receivers)
    v_src = dc.gather(v, latent.senders)
    return dc.add(latent.E, block.edge_mlp(dc.concat([latent.E, v_dst, v_src], axis=1)))


def test_decode_and_scale_ratio_matches_scale_factors():
    grid = make_grid_cloth(3, 1.0, MAT)
    body = make_grid_cloth(2, 0.4, MAT)
    far = body.rest_positions + 100.0
    state = SimState(
        garment_pos=grid.rest_positions.copy(),
        garment_vel=np.zeros((9, 3)),
        body_pos=far,
        body_pos_prev=far.copy(),
        time_step=0.02,
    )
    graph = build_graph(state, grid, body, world_radius=0.1, dtype=np.float64)
    assert graph.world_edges.shape[0] == 0
    params = net.init_params(CFG, seed=8, dtype=np.float64)
    latent = net.encode(graph, params)
    v = net.process(latent, net.update(latent, net.propagate(latent, 2, 0.9, params), params), params)

    unscaled = net.decode_and_scale(v, ScaleFactors(np.ones(9)), params).data
    scale = rest_scale_factors(grid)
    scaled = net.decode_and_scale(v, scale, params).data
    ratio = scaled / unscaled
    assert np.max(np.abs(ratio - scale.s[:, None])) <= 1e-12

    half = net.decode_and_scale(v, ScaleFactors(np.full(9, 0.5)), params).data
    assert np.allclose(half, unscaled * 0.5, rtol=1e-15)


def drape_state(grid, dt=0.02):
    body = make_grid_cloth(2, 0.4, MAT)
    body_pos = body.rest_positions + np.array([0.0, -0.15, 0.0])
    return body, SimState(
        garment_pos=grid.rest_positions.copy(),
        garment_vel=np.zeros((grid.vertex_count, 3)),
        body_pos=body_pos,
        body_pos_prev=body_pos.copy(),
        time_step=dt,
    )


def test_step_statics_and_drift_with_zero_decoder():
    grid = make_grid_cloth(3, 1.0, MAT)
    body, state = drape_state(grid)
    params = net.init_params(CFG, seed=9, dtype=np.float64)
    for w in params.decoder.weights:
        w.data[:] = 0.0
    for b in params.decoder.biases:
        b.data[:] = 0.0
    scale = rest_scale_factors(grid)
    pos, _ = net.step(state, grid, body, scale, params, CFG, 2, 0.3)
    assert np.array_equal(pos.data, state.garment_pos)

    state.garment_vel[:] = [0.1, 0.0, -0.2]
    pos, _ = net.step(state, grid, body, scale, params, CFG, 2, 0.3)
    assert np.allclose(pos.data, state.garment_pos + 0.02 * np.array([0.1, 0.0, -0.2]), atol=1e-15)


def test_step_deterministic_replay():
    grid = make_grid_cloth(4, 1.0, MAT)
    body, state = drape_state(grid)
    params = net.init_params(CFG, seed=10, dtype=np.float64)
    scale = rest_scale_factors(grid)
    a_pos, a_vel = net.step(state, grid, body, scale, params, CFG, 3, 0.3)
    b_pos, b_vel = net.step(state, grid, body, scale, params, CFG, 3, 0.3)
    assert np.array_equal(a_pos.data, b_pos.data)
    assert np.array_equal(a_vel.data, b_vel.data)


def test_step_translation_equivariance():
    grid = make_grid_cloth(4, 1.0, MAT)
    body, state = drape_state(grid)
    params = net.init_params(CFG, seed=11, dtype=np.float64)
    scale = rest_scale_factors(grid)
    shift = np.array([17.3, -4.2, 8.9])
    moved = SimState(
        garment_pos=state.garment_pos + shift,
        garment_vel=state.garment_vel.copy(),
        body_pos=state.body_pos + shift,
        body_pos_prev=state.body_pos_prev + shift,
        time_step=state.time_step,
    )
    base_pos, base_vel = net.step(state, grid, body, scale, params, CFG, 3, 0.3)
    trans_pos, trans_vel = net.step(moved, grid, body, scale, params, CFG, 3, 0.3)
    accel_base = (base_vel.data - state.garment_vel) / state.time_step
    accel_trans = (trans_vel.data - moved.garment_vel) / state.time_step
    assert np.max(np.abs(accel_trans - accel_base)) <= 1e-6
    assert np.max(np.abs((trans_pos.data - base_pos.data) - shift)) <= 1e-9


def test_full_step_permutation_equivariance():
    grid = make_grid_cloth(3, 1.0, MAT)
    body, state = drape_state(grid)
    params = net.init_params(CFG, seed=14, dtype=np.float64)
    base_pos, base_vel = net.step(state, grid, body, rest_scale_factors(grid), params, CFG, 2, 0.3)

    perm = np.random.default_rng(6).permutation(grid.vertex_count)
    inverse = np.argsort(perm)
    relabeled = make_grid_cloth(3, 1.0, MAT)
    relabeled = type(relabeled).from_triangles(
        grid.rest_positions[perm], inverse[grid.triangles], MAT
    )
    state_p = SimState(
        garment_pos=state.garment_pos[perm],
        garment_vel=state.garment_vel[perm],
        body_pos=state.body_pos,
        body_pos_prev=state.body_pos_prev,
        time_step=state.time_step,
    )
    permuted_pos, permuted_vel = net.step(state_p, relabeled, body, rest_scale_factors(relabeled), params,
                                             CFG, 2, 0.3)
    # edge orderings change under relabeling, so sums agree to rounding only
    assert np.allclose(permuted_pos.data, base_pos.data[perm], atol=1e-9)
    assert np.allclose(permuted_vel.data, base_vel.data[perm], atol=1e-9)


def test_step_divergence_detection():
    grid = make_grid_cloth(3, 1.0, MAT)
    body, state = drape_state(grid)
    params = net.init_params(CFG, seed=12, dtype=np.float64)
    params.decoder.biases[-1].data[:] = np.inf
    with pytest.raises(NumericDivergence):
        net.step(state, grid, body, rest_scale_factors(grid), params, CFG, 1, 0.3)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_advance_steps_at_the_parameters_precision(dtype):
    """A default SimContext steps at the precision of the parameters: advance
    equals build_graph + forward_accelerations + forward Euler at that dtype."""
    scene = pio.scene_from_dict(drape_sphere_preset(6, frames=4))
    ctx = SimContext.build(scene, CFG, calibrate(3, mean_edge_length(scene.garment)))
    params = net.init_params(CFG, seed=15, dtype=dtype)
    state = scene.initial_state()
    state.garment_pos[:, 1] += scene.body_positions(0)[:, 1].max() + 1e-3   # just above the sphere's pole
    next_state, pred = advance(ctx, state, 0, params)

    graph = build_graph(state, scene.garment, scene.body_mesh, scene.world_radius, dtype=dtype)
    accel = net.forward_accelerations(graph, ctx.scale, params, CFG, ctx.k_steps).data
    vel = state.garment_vel.astype(dtype) + accel * dtype(state.time_step)
    pos = state.garment_pos.astype(dtype) + vel * dtype(state.time_step)
    pairs = state.contacts(scene.body_mesh, scene.world_radius)[0]
    assert pairs.shape[0] > 0
    assert np.array_equal(graph.world_edges, np.stack([pairs[:, 1] + scene.garment.vertex_count, pairs[:, 0]], axis=1))
    assert pred.dtype == dtype and np.array_equal(pred.data, pos)
    assert np.array_equal(next_state.garment_vel, vel.astype(np.float64))


def test_config_validation():
    with pytest.raises(InvalidArgument):
        net.NetworkConfig(gamma=1.5)
    with pytest.raises(InvalidArgument):
        net.NetworkConfig(k_steps=-1)
    with pytest.raises(InvalidArgument):
        net.NetworkConfig(processor_depth=-2)


def _full_row_update(latent, h_garment, params):
    """Oracle: the update over every row of V, body rows passed through."""
    n_g = latent.garment_count
    n_total = latent.V.data.shape[0]
    v_garment = dc.gather(latent.V, np.arange(n_g))
    fused = params.update_fn(dc.concat([v_garment, h_garment], axis=1))
    return dc.concat([fused, dc.gather(latent.V, np.arange(n_g, n_total))], axis=0)


def _full_row_process(latent, v, params):
    """Oracle: processor blocks that split and rejoin the full rows of ``v``."""
    n_g = latent.garment_count
    n_total = v.data.shape[0]
    e = latent.E
    for block in params.blocks:
        v_dst = dc.gather(v, latent.receivers)
        v_src = dc.gather(v, latent.senders)
        e = dc.add(e, block.edge_mlp(dc.concat([e, v_dst, v_src], axis=1)))
        incoming = dc.scatter_add(e, latent.receivers, n_g)
        v_garment = dc.gather(v, np.arange(n_g))
        v_garment = dc.add(v_garment, block.vertex_mlp(dc.concat([v_garment, incoming], axis=1)))
        v = dc.concat([v_garment, dc.gather(v, np.arange(n_g, n_total))], axis=0)
    return v


def _full_row_decode_and_scale(v, scale, params):
    raw = params.decoder(dc.gather(v, np.arange(scale.s.shape[0])))
    return dc.scale_rows(raw, Tensor(scale.s.astype(raw.dtype)))


def _full_row_accelerations(graph, scale, params, config, k_steps):
    latent = net.encode(graph, params)
    h_garment = net.propagate(latent, k_steps, config.gamma, params)
    v = _full_row_process(latent, _full_row_update(latent, h_garment, params), params)
    return _full_row_decode_and_scale(v, scale, params)


def _drape_graph(dtype, grid=6):
    """Frame 0 of a drape: the garment starts within the world-edge radius
    of the sphere, so world edges carry the body rows into the garment."""
    scene = pio.scene_from_dict(drape_sphere_preset(grid, frames=4))
    graph = build_graph(scene.initial_state(), scene.garment, scene.body_mesh, scene.world_radius, dtype=dtype)
    assert graph.world_edges.shape[0] > 0
    return graph, rest_scale_factors(scene.garment)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_garment_row_network_matches_full_row_oracle_bitwise(dtype):
    """Updating garment rows only gives the accelerations and parameter
    gradients of the network that carries V's body rows through every stage."""
    graph, scale = _drape_graph(dtype)
    config = net.NetworkConfig(latent_dim=16, processor_depth=3)
    weights = np.random.default_rng(21).normal(size=(graph.garment_count, 3)).astype(dtype)

    def run(forward):
        params = net.init_params(config, seed=16, dtype=dtype)
        tape = dc.Tape()
        with dc.recording(tape):
            accel = forward(graph, scale, params, config, 4)
            tape.backward(dc.sum_all(dc.mul(accel, Tensor(weights))))
        return accel.data, {name: t.grad for name, t in params.named_tensors().items()}

    accel, grads = run(net.forward_accelerations)
    oracle_accel, oracle_grads = run(_full_row_accelerations)
    assert accel.dtype == dtype and np.array_equal(accel, oracle_accel)
    assert grads.keys() == oracle_grads.keys()
    for name, grad in grads.items():
        assert grad is not None and np.array_equal(grad, oracle_grads[name]), name
    # the body rows reach the garment: the vertex encoder gets gradient from both
    assert np.any(grads["vertex_encoder.w2"] != 0.0)


def test_network_backward_through_body_rows_matches_finite_differences():
    graph, scale = _drape_graph(np.float64)
    assert graph.world_edges.shape[0] == 672
    config = net.NetworkConfig(latent_dim=8, processor_depth=1)
    params = net.init_params(config, seed=17, dtype=np.float64)
    weights = Tensor(np.random.default_rng(22).normal(size=(graph.garment_count, 3)))

    def objective(*_):
        return dc.sum_all(dc.mul(net.forward_accelerations(graph, scale, params, config, 3), weights))

    encoder = params.vertex_encoder
    assert dc.grad_check(objective, [encoder.weights[2], encoder.biases[2]]) <= 1e-6


def _arrays_held(value, seen):
    """The ndarrays ``value`` reaches: itself, a Tensor's data, the items of a
    tuple or list, and what the cells of a function's closure hold."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, Tensor):
        yield value.data
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays_held(item, seen)
    elif callable(value):
        for cell in getattr(value, "__closure__", None) or ():
            yield from _arrays_held(cell.cell_contents, seen)


def test_training_tape_keeps_no_edge_input_matrix():
    """After a train-base-sized forward (grid-24 drape, latent 128, K = 8,
    depth 3) under a tape, no node's output and nothing its pull's closure
    holds is an (E, k d) edge-input matrix: the edge MLPs' first layers look
    their rows up again in backward."""
    d = 128
    scene = pio.scene_from_dict(drape_sphere_preset(24, 1.0, frames=8))
    config = net.NetworkConfig(latent_dim=d, processor_depth=3)
    ctx = SimContext.build(scene, config, calibrate(8, mean_edge_length(scene.garment)))
    assert ctx.k_steps == 8
    params = net.init_params(config, seed=0, dtype=np.float32)
    state = scene.initial_state()
    tape = dc.Tape()
    with dc.recording(tape):
        advance(ctx, state, 0, params)
    n_edges = build_graph(state, scene.garment, scene.body_mesh, scene.world_radius).receivers.size
    seen = set()
    shapes = {a.shape for node in tape.nodes for held in (node.out, node.pull) for a in _arrays_held(held, seen)}
    assert (n_edges, d) in shapes   # the walk reaches the edge latents and messages
    assert not shapes & {(n_edges, 2 * d), (n_edges, 3 * d)}
