"""Gradient and determinism tests for the autodiff core.

Every primitive is checked against central finite differences at float64;
structural ops (gather/scatter) additionally against per-index loop oracles.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pb4u import diffcore as dc
from pb4u import network as net
from pb4u import io as pio
from pb4u.control import calibrate
from pb4u.errors import InvalidArgument, NumericFailure
from pb4u.mesh import mean_edge_length
from pb4u.rollout import SimContext, advance, frame_loss
from pb4u.scenes import drape_sphere_preset


def rng(seed=0):
    return np.random.default_rng(seed)


def leaf(a):
    return dc.Tensor(np.asarray(a, dtype=np.float64), track=True)


def run_backward(fn, *inputs):
    tape = dc.Tape()
    with dc.recording(tape):
        out = fn(*inputs)
    tape.backward(out)
    return out, tape


def test_square_derivative_at_three():
    x = leaf(3.0)
    out, _ = run_backward(lambda t: dc.mul(t, t), x)
    assert out.item() == 9.0
    assert x.grad == pytest.approx(6.0, abs=0.0)


def test_layer_norm_two_point_row():
    x = leaf([[1.0, 3.0]])
    gain = dc.Tensor(np.ones(2))
    bias = dc.Tensor(np.zeros(2))
    out = dc.layer_norm(x, gain, bias)
    expected = 1.0 / np.sqrt(1.0 + dc.LAYER_NORM_EPS)
    assert out.data[0] == pytest.approx([-expected, expected], rel=1e-15)


def test_grad_check_linear_sum():
    # power-of-two data and step keep the central difference exact
    x = leaf([0.5, -0.25, 1.0, -2.0, 0.125, 4.0, -0.5])
    assert dc.grad_check(dc.sum_all, [x], h=2.0**-20) <= 1e-12
    assert np.array_equal(x.grad, np.ones(7))


def test_grad_check_euclidean_norm():
    x = leaf([[3.0, 4.0]])

    def norm(t):
        return dc.sum_all(dc.sqrt(dc.dot(t, t)))

    err = dc.grad_check(norm, [x])
    assert err <= 1e-9
    assert x.grad[0] == pytest.approx([0.6, 0.8], rel=1e-12)


def _random_inputs(name, r):
    """Scalar-valued composition exercising one primitive, plus its leaves."""
    n, d = 5, 4
    if name == "add":
        a, b = leaf(r.normal(size=(n, d))), leaf(r.normal(size=(n, d)))
        c = dc.Tensor(r.normal(size=(n, d)))
        return lambda x, y: dc.sum_all(dc.mul(dc.add(x, y), c)), [a, b]
    if name == "sub":
        a, b = leaf(r.normal(size=(n, d))), leaf(r.normal(size=(n, d)))
        c = dc.Tensor(r.normal(size=(n, d)))
        return lambda x, y: dc.sum_all(dc.mul(dc.sub(x, y), c)), [a, b]
    if name == "mul":
        a, b = leaf(r.normal(size=(n, d))), leaf(r.normal(size=(n, d)))
        return lambda x, y: dc.sum_all(dc.mul(x, y)), [a, b]
    if name == "div":
        a = leaf(r.normal(size=(n, d)))
        b = leaf(r.uniform(1.0, 2.0, size=(n, d)))
        return lambda x, y: dc.sum_all(dc.div(x, y)), [a, b]
    if name == "scalar_mix":
        a = leaf(r.normal(size=(n, d)))
        s = leaf(1.7)
        return lambda x, y: dc.sum_all(dc.sub(dc.mul(x, y), x)), [a, s]
    if name == "affine":
        x = leaf(r.normal(size=(5, 3)))
        w = leaf(r.normal(size=(3, 2)))
        b = leaf(r.normal(size=2))
        c = dc.Tensor(r.normal(size=(5, 2)))
        return lambda t, u, v: dc.sum_all(dc.mul(dc.affine(t, u, v), c)), [x, w, b]
    if name == "affine_relu":
        # both signs present, every pre-activation away from the kink
        while True:
            xd, wd, bd = r.normal(size=(5, 3)), r.normal(size=(3, 4)), r.normal(size=4)
            pre = xd @ wd + bd
            if np.abs(pre).min() > 0.05 and (pre < 0).any() and (pre > 0).any():
                break
        c = dc.Tensor(r.normal(size=(5, 4)))
        return lambda t, u, v: dc.sum_all(dc.mul(dc.affine(t, u, v, relu=True), c)), [leaf(xd), leaf(wd), leaf(bd)]
    if name == "relu":
        # keep inputs away from the kink
        vals = r.normal(size=(n, d))
        vals[np.abs(vals) < 1e-2] = 0.5
        a = leaf(vals)
        c = dc.Tensor(r.normal(size=(n, d)))
        return lambda x: dc.sum_all(dc.mul(dc.relu(x), c)), [a]
    if name == "concat":
        a, b = leaf(r.normal(size=(n, 2))), leaf(r.normal(size=(n, 3)))
        c = dc.Tensor(r.normal(size=(n, 5)))
        return lambda x, y: dc.sum_all(dc.mul(dc.concat([x, y], axis=1), c)), [a, b]
    if name == "sum":
        a = leaf(r.normal(size=(n, d)))
        return lambda x: dc.sum_all(x), [a]
    if name == "gather":
        a = leaf(r.normal(size=(n, d)))
        idx = np.array([4, 0, 0, 2, 3, 1])
        c = dc.Tensor(r.normal(size=(6, d)))
        return lambda x: dc.sum_all(dc.mul(dc.gather(x, idx), c)), [a]
    if name == "scatter_add":
        a = leaf(r.normal(size=(6, d)))
        idx = np.array([2, 0, 2, 1, 0, 2])
        c = dc.Tensor(r.normal(size=(3, d)))
        return lambda x: dc.sum_all(dc.mul(dc.scatter_add(x, idx, 3), c)), [a]
    if name == "layer_norm":
        x = leaf(r.normal(size=(n, d)))
        gain = leaf(r.uniform(0.5, 1.5, size=d))
        bias = leaf(r.normal(size=d))
        c = dc.Tensor(r.normal(size=(n, d)))
        return lambda t, u, v: dc.sum_all(dc.mul(dc.layer_norm(t, u, v), c)), [x, gain, bias]
    if name == "sqrt":
        a = leaf(r.uniform(0.5, 2.0, size=(n, d)))
        return lambda x: dc.sum_all(dc.sqrt(x)), [a]
    if name == "dot":
        a, b = leaf(r.normal(size=(n, 3))), leaf(r.normal(size=(n, 3)))
        c = dc.Tensor(r.normal(size=n))
        return lambda x, y: dc.sum_all(dc.mul(dc.dot(x, y), c)), [a, b]
    if name == "cross3":
        a, b = leaf(r.normal(size=(n, 3))), leaf(r.normal(size=(n, 3)))
        c = dc.Tensor(r.normal(size=(n, 3)))
        return lambda x, y: dc.sum_all(dc.mul(dc.cross3(x, y), c)), [a, b]
    if name == "pow3":
        a = leaf(r.normal(size=(n, d)))
        return lambda x: dc.sum_all(dc.pow3(x)), [a]
    if name == "atan2":
        a = leaf(r.uniform(0.2, 1.0, size=(n, d)))
        b = leaf(r.uniform(0.2, 1.0, size=(n, d)))
        return lambda y, x: dc.sum_all(dc.atan2(y, x)), [a, b]
    if name == "scale_rows":
        a = leaf(r.normal(size=(n, 3)))
        s = leaf(r.uniform(0.5, 1.5, size=n))
        return lambda x, t: dc.sum_all(dc.scale_rows(x, t)), [a, s]
    raise AssertionError(name)


PRIMITIVES = [
    "add", "sub", "mul", "div", "scalar_mix", "affine", "affine_relu", "relu", "concat",
    "sum", "gather", "scatter_add", "layer_norm", "sqrt", "dot", "cross3",
    "pow3", "atan2", "scale_rows",
]


@pytest.mark.parametrize("name", PRIMITIVES)
def test_every_primitive_matches_finite_differences(name):
    fn, inputs = _random_inputs(name, rng(hash(name) % 2**32))
    assert dc.grad_check(fn, inputs, h=1e-6) <= 1e-7


def test_scatter_add_matches_loop_oracle_exactly():
    r = rng(7)
    for shape in [(20, 3), (20,), (0, 3), (0,)]:  # 2-D, 1-D and zero-row values
        vals = r.normal(size=shape)
        idx = r.integers(0, 6, size=shape[0])
        got = dc.scatter_add(dc.Tensor(vals), idx, 6).data
        expected = np.zeros((6,) + shape[1:])
        for dest in range(6):  # ascending-destination accumulation, same as the op
            for row in range(shape[0]):
                if idx[row] == dest:
                    expected[dest] += vals[row]
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def test_scatter_then_gather_roundtrips_per_index_sums():
    r = rng(8)
    vals = r.normal(size=(30, 2))
    idx = r.integers(0, 5, size=30)
    summed = dc.scatter_add(dc.Tensor(vals), idx, 5)
    back = dc.gather(summed, idx).data
    for row in range(30):
        assert np.array_equal(back[row], summed.data[idx[row]])


def test_backward_is_linear_over_scalar_terms():
    r = rng(9)
    xdata = r.normal(size=(4, 3))
    c1 = dc.Tensor(r.normal(size=(4, 3)))
    c2 = dc.Tensor(r.normal(size=(4, 3)))

    def term1(x):
        return dc.sum_all(dc.mul(x, c1))

    def term2(x):
        return dc.sum_all(dc.mul(dc.relu(x), c2))

    x = leaf(xdata.copy())
    run_backward(lambda t: dc.add(term1(t), term2(t)), x)
    combined = x.grad.copy()

    xa = leaf(xdata.copy())
    run_backward(term1, xa)
    xb = leaf(xdata.copy())
    run_backward(term2, xb)
    assert np.array_equal(combined, xa.grad + xb.grad)


def test_two_backward_passes_are_bitwise_identical():
    r = rng(10)
    x = leaf(r.normal(size=(6, 4)))
    w = leaf(r.normal(size=(4, 4)))
    b = leaf(r.normal(size=4))
    tape = dc.Tape()
    with dc.recording(tape):
        out = dc.sum_all(dc.relu(dc.affine(x, w, b)))
    tape.backward(out)
    first = {id(t): t.grad.copy() for t in (x, w, b)}
    for t in (x, w, b):
        t.grad = None
    tape.backward(out)
    for t in (x, w, b):
        assert np.array_equal(first[id(t)], t.grad)


def test_backward_frees_every_intermediate_gradient():
    r = rng(11)
    x = leaf(r.normal(size=(6, 3)))
    w = leaf(r.normal(size=(3, 4)))
    b = leaf(r.normal(size=4))
    idx = np.array([0, 2, 2, 5, 1])
    tape = dc.Tape()
    with dc.recording(tape):
        h = dc.affine(x, w, b, relu=True)
        summed = dc.scatter_add(dc.gather(h, idx), idx, 6)
        out = dc.sum_all(dc.mul(dc.add(summed, h), h))
    tape.backward(out)
    assert len(tape.nodes) == 6  # the nodes stay for replay and inspection
    assert all(node.out.grad is None for node in tape.nodes)
    assert all(t.grad is not None and t.grad.shape == t.data.shape for t in (x, w, b))


def _oracle_mlp_call(self, x):
    """The unfused hidden layer: a separate affine node, then a relu node."""
    last = len(self.weights) - 1
    for i, (w, b) in enumerate(zip(self.weights, self.biases)):
        x = dc.affine(x, w, b)
        if i < last:
            x = dc.relu(x)
    return x


def _network_step_gradients():
    scene = pio.scene_from_dict(drape_sphere_preset(6, frames=4))
    config = net.NetworkConfig(latent_dim=16, gamma=0.9, k_steps=3, processor_depth=1)
    ctx = SimContext.build(scene, config, calibrate(3, mean_edge_length(scene.garment)))
    params = net.init_params(config, seed=5, dtype=np.float32)
    state = scene.initial_state()
    tape = dc.Tape()
    with dc.recording(tape):
        next_state, pred = advance(ctx, state, 0, params)
        loss, _ = frame_loss(ctx, pred, state, next_state)
    tape.backward(loss)
    return {k: t.grad for k, t in params.named_tensors().items()}, len(tape.nodes)


def test_fused_relu_network_gradients_match_unfused_oracle_bitwise(monkeypatch):
    fused, fused_nodes = _network_step_gradients()
    monkeypatch.setattr(net.Mlp, "__call__", _oracle_mlp_call)
    oracle, oracle_nodes = _network_step_gradients()
    assert fused_nodes < oracle_nodes
    assert set(fused) == set(oracle)
    for key in oracle:
        assert oracle[key] is not None, key
        assert np.array_equal(fused[key], oracle[key]), key


def _assert_no_shared_memory(grads):
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


def test_gradients_own_their_memory():
    """A pull hands _acc an array nobody else holds, so after backward no two
    tracked tensors share gradient memory, and a tensor used twice gets
    exactly twice the upstream gradient."""
    r = rng(12)
    a, b = leaf(r.normal(size=(4, 3))), leaf(r.normal(size=(4, 3)))
    c = dc.Tensor(r.normal(size=(4, 3)))
    run_backward(lambda a, b: dc.sum_all(dc.mul(dc.add(a, b), c)), a, b)
    _assert_no_shared_memory([a.grad, b.grad])
    assert np.array_equal(a.grad, c.data) and np.array_equal(b.grad, c.data)

    x, y = leaf(r.normal(size=(4, 3))), leaf(r.normal(size=(4, 2)))
    wide = dc.Tensor(r.normal(size=(4, 8)))
    run_backward(lambda x, y: dc.sum_all(dc.mul(dc.concat([x, y, x], axis=1), wide)), x, y)
    _assert_no_shared_memory([x.grad, y.grad])
    assert np.array_equal(x.grad, wide.data[:, :3] + wide.data[:, 5:])

    g = r.normal(size=(4, 3))
    x = leaf(r.normal(size=(4, 3)))
    run_backward(lambda x: dc.sum_all(dc.mul(dc.add(x, x), dc.Tensor(g))), x)
    assert np.array_equal(x.grad, 2 * g)
    x = leaf(r.normal(size=(4, 3)))
    run_backward(lambda x: dc.sum_all(dc.mul(dc.concat([x, x], axis=0), dc.Tensor(np.concatenate([g, g])))), x)
    assert np.array_equal(x.grad, 2 * g)

    grads, _ = _network_step_gradients()
    assert all(grad is not None for grad in grads.values())
    _assert_no_shared_memory(list(grads.values()))


def test_tape_is_per_thread():
    x = leaf([1.0, 2.0])

    def worker():
        dc.mul(x, x)  # no tape in this thread: must not reach the main thread's
        own = dc.Tape()
        with dc.recording(own):
            dc.sum_all(dc.mul(x, x))
        return len(own.nodes)

    tape = dc.Tape()
    with dc.recording(tape):
        with ThreadPoolExecutor(max_workers=1) as pool:
            worker_nodes = pool.submit(worker).result(timeout=60)
        dc.sum_all(x)
    assert worker_nodes == 2
    assert len(tape.nodes) == 1


def test_no_tape_means_no_tracking():
    x = leaf([1.0, 2.0])
    out = dc.mul(x, x)
    assert not out.tracked
    tape = dc.Tape()
    tape.backward(dc.sum_all(out))  # root untracked: no-op backward
    assert x.grad is None


def test_shape_mismatch_raises():
    a = dc.Tensor(np.zeros((2, 3)))
    b = dc.Tensor(np.zeros((3, 2)))
    with pytest.raises(InvalidArgument):
        dc.add(a, b)
    with pytest.raises(InvalidArgument):
        dc.dot(a, b)
    with pytest.raises(InvalidArgument):
        dc.scale_rows(a, dc.Tensor(np.zeros(5)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the zero divide is the point
def test_grad_check_rejects_nonfinite_forward():
    x = leaf([1.0])

    def bad(t):
        return dc.sum_all(dc.div(t, dc.Tensor(np.zeros(1))))

    with pytest.raises(NumericFailure):
        dc.grad_check(bad, [x])


def test_dtype_follows_inputs():
    for dtype in (np.float32, np.float64):
        x = dc.Tensor(np.ones((2, 2), dtype=dtype), track=True)
        two = dc.Tensor(2.0, dtype=dtype)
        assert dc.mul(x, two).dtype == dtype
        assert dc.add(x, two).dtype == dtype


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))
def test_sum_all_matches_numpy(values):
    x = dc.Tensor(np.asarray(values, dtype=np.float64))
    assert dc.sum_all(x).item() == np.asarray(values, dtype=np.float64).sum()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gather_rows_match_loop(seed):
    r = rng(seed)
    x = r.normal(size=(8, 3))
    idx = r.integers(0, 8, size=12)
    got = dc.gather(dc.Tensor(x), idx).data
    for k in range(12):
        assert np.array_equal(got[k], x[idx[k]])
