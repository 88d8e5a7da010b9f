"""Gradient and determinism tests for the autodiff core.

Every primitive is checked against central finite differences at float64;
structural ops (gather/scatter) additionally against per-index loop oracles.
"""

import contextlib
import sys
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
from pb4u.graph import build_graph
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
    assert float(out.data) == 9.0
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
    if name == "lookup_affine":
        # a source in two parts, a two-source part and a part with no index
        a, b, e = leaf(r.normal(size=(4, 3))), leaf(r.normal(size=(2, 3))), leaf(r.normal(size=(6, 3)))
        w, bias = leaf(r.normal(size=(9, 2))), leaf(r.normal(size=2))
        first, second = np.array([5, 0, 4, 4, 1, 3]), np.array([3, 3, 0, 2, 1, 0])
        c = dc.Tensor(r.normal(size=(6, 2)))
        return lambda x, y, z, u, v: dc.sum_all(dc.mul(
            dc.lookup_affine([([x, y], first), ([z], None), ([x], second)], u, v), c)), [a, b, e, w, bias]
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
    "sum", "gather", "lookup_affine", "scatter_add", "layer_norm", "sqrt", "dot", "cross3",
    "pow3", "atan2", "scale_rows",
]


@pytest.mark.parametrize("name", PRIMITIVES)
def test_every_primitive_matches_finite_differences(name):
    fn, inputs = _random_inputs(name, rng(hash(name) % 2**32))
    assert dc.grad_check(fn, inputs, h=1e-6) <= 1e-7


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div", "atan2", "dot", "cross3", "scale_rows", "concat",
                                  "affine"])
def test_an_untracked_operand_takes_no_gradient_and_changes_no_other(name):
    """Every pull computes a gradient for each parent and ``_acc`` drops the
    untracked one's, so the tracked operands get the bytes of the run where
    all are tracked."""
    fn, inputs = _random_inputs(name, rng(hash(name) % 2**32))
    run_backward(fn, *inputs)
    for skipped in range(len(inputs)):
        operands = [dc.Tensor(t.data.copy(), track=i != skipped) for i, t in enumerate(inputs)]
        run_backward(fn, *operands)
        for i, (got, want) in enumerate(zip(operands, inputs)):
            if i == skipped:
                assert got.grad is None
            else:
                assert got.grad.dtype == want.grad.dtype and got.grad.tobytes() == want.grad.tobytes()


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


def _segment_sum_loop(values, index, size):
    """Per-destination loop: each slot adds its rows in row order at float64."""
    out = np.zeros((size,) + values.shape[1:])
    for dest in range(size):
        for row in np.flatnonzero(index == dest):
            out[dest] += values[row]
    return out.astype(values.dtype)


@st.composite
def _segment_sum_cases(draw):
    """Values on both sides of the wide-row threshold, 1-D, 3-D and
    column-slice values, a slot of in-degree >= 96, empty slots, zero rows
    and size 0, float32 and float64, with signed zeros."""
    r = rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    size = draw(st.integers(0, 12))
    n = draw(st.sampled_from([0, 1, 7, 40])) if size else 0
    index = r.integers(0, size, size=n) if size else np.zeros(0, dtype=np.int64)
    if size and draw(st.booleans()):   # a hub slot, as at the body sphere's pole
        index = r.permutation(np.concatenate([index, np.full(draw(st.integers(96, 130)), r.integers(size))]))
    n = index.size
    layout = draw(st.sampled_from(["1-D", "narrow", "threshold-1", "threshold", "wide", "3-D", "slice"]))
    if layout == "1-D":
        values = r.normal(size=n).astype(dtype)
    elif layout == "3-D":
        values = r.normal(size=(n, 4, dc.WIDE_ROWS // 4 + 1)).astype(dtype)
    elif layout == "slice":   # strided columns of a wider array
        values = r.normal(size=(n, 3 * dc.WIDE_ROWS)).astype(dtype)[:, 1::3]
    else:
        width = {"narrow": 3, "threshold-1": dc.WIDE_ROWS - 1, "threshold": dc.WIDE_ROWS,
                 "wide": dc.WIDE_ROWS + 13}[layout]
        values = r.normal(size=(n, width)).astype(dtype)
    zeros = r.random(values.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    values[zeros] = np.where(r.random(values.shape) < 0.5, -0.0, 0.0)[zeros]
    return values, index, size


@settings(max_examples=150, deadline=None)
@given(_segment_sum_cases())
def test_segment_sum_matches_loop_oracle_bitwise(case):
    values, index, size = case
    got = dc.segment_sum(values, index, size)
    expected = _segment_sum_loop(values, index, size)
    assert got.dtype == values.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()   # signed zeros included


def _gather_concat_nodes(parts):
    """The edge-input matrix of ``parts`` as gather and concat nodes."""
    return dc.concat([dc.concat(srcs, axis=0) if index is None else dc.gather(dc.concat(srcs, axis=0), index)
                      for srcs, index in parts], axis=1)


def _propagate_parts(graph, h_garment, h_body, e):
    h_full = dc.concat([h_garment, h_body], axis=0)
    return [([h_full], graph.receivers), ([h_full], graph.senders), ([e], None)]


def _process_parts(graph, v, v_body, e):
    return [([e], None), ([v], graph.receivers), ([v, v_body], graph.senders)]


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", [_propagate_parts, _process_parts], ids=["propagate", "process"])
def test_lookup_affine_matches_gather_concat_affine_nodes_bitwise(layout, dtype, size, monkeypatch):
    """Forward data and the gradients of every source, w and b of the op and
    of the gather/concat/affine nodes it replaces, on a drape frame with
    world edges, with the products split into row blocks over the pool."""
    scene = pio.scene_from_dict(drape_sphere_preset(6, frames=4))
    graph = build_graph(scene.initial_state(), scene.garment, scene.body_mesh, scene.world_radius, dtype=dtype)
    assert graph.world_edges.shape[0] > 0
    width = 2 * dc.WIDE_ROWS   # the pull's sums take the wide-row path, the products may split
    n_g, n_total, n_edges = graph.garment_count, graph.vertex_features.shape[0], graph.receivers.size
    monkeypatch.setattr(dc, "ROW_BLOCK", 64)   # a small frame's rows still make several blocks
    assert n_edges >= 3 * dc.ROW_BLOCK
    results = []
    with worker_pool_of(size) as pool:
        for fused in (True, False):
            r = rng(31)
            sources = [dc.Tensor(r.normal(size=(n, width)).astype(dtype), track=True)
                       for n in (n_g, n_total - n_g, n_edges)]
            w = dc.Tensor(r.normal(size=(3 * width, width)).astype(dtype), track=True)
            b = dc.Tensor(r.normal(size=width).astype(dtype), track=True)
            weights = [dc.Tensor(r.normal(size=t.data.shape).astype(dtype)) for t in sources]
            c_hidden = dc.Tensor(r.normal(size=(n_edges, width)).astype(dtype))
            tape = dc.Tape()
            with dc.recording(tape):
                parts = layout(graph, *sources)
                hidden = (dc.lookup_affine(parts, w, b, relu=True) if fused
                          else dc.affine(_gather_concat_nodes(parts), w, b, relu=True))
                # the sources are read again after the op, so their gradients
                # already hold a term when its pull runs, as in the network
                total = dc.sum_all(dc.mul(hidden, c_hidden))
                for t, c in zip(sources, weights):
                    total = dc.add(total, dc.sum_all(dc.mul(t, c)))
            tape.backward(total)
            results.append((hidden.data, [t.grad for t in sources + [w, b]]))
        # each run's x @ w and g @ w.T asked size - 1 workers for help
        assert len(pool.submitted) == 2 * 2 * (size - 1)
    (fused_data, fused_grads), (oracle_data, oracle_grads) = results
    assert fused_data.dtype == dtype and fused_data.tobytes() == oracle_data.tobytes()
    for got, expected in zip(fused_grads, oracle_grads):
        assert got is not None and got.dtype == dtype and got.tobytes() == expected.tobytes()


# row counts that make one block, two, and two or three with a remainder;
# widths on each side of the split threshold and of the wide-row sums
_ROWS = st.sampled_from([2 * dc.ROW_BLOCK, 3 * dc.ROW_BLOCK + 7, 2 * dc.ROW_BLOCK + 1, 2 * dc.ROW_BLOCK - 1, 1023, 5])
_SPLIT_WIDTHS = st.sampled_from([dc.SPLIT_WIDTH, dc.SPLIT_WIDTH + 5, dc.SPLIT_WIDTH - 1])
_POOL_SIZES = st.sampled_from([2, 1])


def _splits(rows, w_shape, size):
    """Helpers ``_matmul`` asks the pool for: none unless both widths reach
    SPLIT_WIDTH and the rows make two blocks or more."""
    blocks = rows // dc.ROW_BLOCK
    return min(size, blocks) - 1 if min(w_shape) >= dc.SPLIT_WIDTH and blocks >= 2 else 0


@settings(max_examples=100, deadline=None)
@given(rows=_ROWS, k=_SPLIT_WIDTHS, m=_SPLIT_WIDTHS, transposed=st.booleans(), bias=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), size=_POOL_SIZES, seed=st.integers(0, 2**16))
def test_matmul_row_blocks_match_one_product_bitwise(rows, k, m, transposed, bias, dtype, size, seed):
    r = rng(seed)
    x = r.standard_normal((rows, k)).astype(dtype)
    w = r.standard_normal((m, k)).astype(dtype).T if transposed else r.standard_normal((k, m)).astype(dtype)
    b = r.standard_normal(m).astype(dtype)
    want = x @ w
    if bias:
        want += b

    def add_bias(block):
        block += b

    with worker_pool_of(size) as pool:
        got = dc._matmul(x, w, add_bias if bias else None)
        assert len(pool.submitted) == _splits(rows, w.shape, size)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def _lookup_layouts(draw):
    """Sources of one width, and 1-3 parts over them: a part reads one
    edge-row source as it is, or looks rows up in 1-2 stacked vertex sources
    (a source may recur); each source and w are tracked or not."""
    n = draw(_ROWS)
    width = draw(st.sampled_from([dc.SPLIT_WIDTH, dc.SPLIT_WIDTH // 2 + 1, dc.WIDE_ROWS, 8]))
    vertex_rows = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            parts.append(("edge", None))
        else:
            picks = draw(st.lists(st.integers(0, len(vertex_rows) - 1), min_size=1, max_size=2))
            parts.append((picks, draw(st.integers(0, 2**16))))
    tracked = draw(st.lists(st.booleans(), min_size=len(vertex_rows) + 2, max_size=len(vertex_rows) + 2))
    return n, width, vertex_rows, parts, tracked


def _lookup_affine_run(layout, dtype, out_width, relu, fused, seed):
    """Data and the gradients of every source, w and b of one layout, fused
    or as the oracle's nodes."""
    n, width, vertex_rows, parts, tracked = layout
    r = rng(seed)
    vertex = [dc.Tensor(r.normal(size=(rows, width)).astype(dtype), track=t) for rows, t in zip(vertex_rows, tracked)]
    edge = dc.Tensor(r.normal(size=(n, width)).astype(dtype), track=tracked[-2])
    w = dc.Tensor(r.normal(size=(len(parts) * width, out_width)).astype(dtype), track=tracked[-1])
    b = dc.Tensor(r.normal(size=out_width).astype(dtype), track=True)
    sources = vertex + [edge]
    c_hidden = dc.Tensor(r.normal(size=(n, out_width)).astype(dtype))
    c_sources = [dc.Tensor(r.normal(size=t.data.shape).astype(dtype)) for t in sources]
    built = []
    for picks, index_seed in parts:
        if picks == "edge":
            built.append(([edge], None))
        else:
            srcs = [vertex[i] for i in picks]
            built.append((srcs, rng(index_seed).integers(0, sum(t.data.shape[0] for t in srcs), size=n)))
    tape = dc.Tape()
    with dc.recording(tape):
        hidden = (dc.lookup_affine(built, w, b, relu=relu) if fused
                  else dc.affine(_gather_concat_nodes(built), w, b, relu=relu))
        total = dc.sum_all(dc.mul(hidden, c_hidden))
        for t, c in zip(sources, c_sources):   # read again after the op, as in the network
            total = dc.add(total, dc.sum_all(dc.mul(t, c)))
    tape.backward(total)
    return hidden.data, [t.grad for t in sources + [w, b]]


@settings(max_examples=80, deadline=None)
@given(layout=_lookup_layouts(), out_width=_SPLIT_WIDTHS, relu=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), size=_POOL_SIZES, seed=st.integers(0, 2**16))
def test_lookup_affine_matches_nodes_bitwise_over_random_layouts(layout, out_width, relu, dtype, size, seed):
    n, width, _, parts, _ = layout
    with worker_pool_of(size) as pool:
        fused_data, fused_grads = _lookup_affine_run(layout, dtype, out_width, relu, True, seed)
        # x @ w splits, and so does the pull's g @ w.T
        splits = _splits(n, (len(parts) * width, out_width), size) * 2
        assert len(pool.submitted) == splits
        oracle_data, oracle_grads = _lookup_affine_run(layout, dtype, out_width, relu, False, seed)
        assert len(pool.submitted) == 2 * splits
    assert fused_data.dtype == dtype and fused_data.tobytes() == oracle_data.tobytes()
    for got, want in zip(fused_grads, oracle_grads):
        assert (got is None) == (want is None)
        assert got is None or (got.dtype == dtype and got.tobytes() == want.tobytes())


def test_lookup_affine_rejects_bad_parts():
    a, b = dc.Tensor(np.zeros((3, 2))), dc.Tensor(np.zeros((3, 4)))
    w, bias = dc.Tensor(np.zeros((2, 1))), dc.Tensor(np.zeros(1))
    for parts in ([], [([], None)], [([a], None), ([b], None)], [([a], np.array([0, 3]))],
                  [([a], None), ([a], np.array([0, 1]))], [([a], np.zeros((3, 1), dtype=np.int64))],
                  [([a], None), ([dc.Tensor(np.zeros((3, 2), dtype=np.float32))], None)]):
        with pytest.raises(InvalidArgument):
            dc.lookup_affine(parts, w, bias)
    with pytest.raises(InvalidArgument):   # the matrix is 3 x 4, w takes 2 rows
        dc.lookup_affine([([a], None), ([a], None)], w, bias)


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
    """The unfused layers: an edge-input matrix of gather and concat nodes,
    and each hidden layer a separate affine node, then a relu node."""
    if not isinstance(x, dc.Tensor):
        x = _gather_concat_nodes(x)
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

    x, y = leaf(r.normal(size=(4, 3))), leaf(r.normal(size=(2, 3)))
    up = r.normal(size=(6, 6))   # x and y each in two parts, at both ends of the stacked rows
    identity = (dc.Tensor(np.eye(6)), dc.Tensor(np.zeros(6)))   # g @ w.T is g itself
    run_backward(lambda x, y: dc.sum_all(dc.mul(dc.lookup_affine([([x, y], None), ([y, x], None)], *identity),
                                                dc.Tensor(up))), x, y)
    _assert_no_shared_memory([x.grad, y.grad])
    assert np.array_equal(x.grad, up[:4, :3] + up[2:, 3:]) and np.array_equal(y.grad, up[4:, :3] + up[:2, 3:])

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


# (rows, in width, out width, splits): the message MLP's two layers at
# rollout-fine's 13151 edges split into row blocks; the decoder's 3-wide
# output and a 14-wide encoder input run as one call
AFFINE_SHAPES = [(13151, 384, 128, True), (13151, 128, 128, True), (13151, 128, 3, False), (13151, 14, 128, False)]
WAIT_S = 60   # bound on every wait for a thread, so a deadlock fails instead of hanging


@contextlib.contextmanager
def worker_pool_of(size):
    """diffcore's pool replaced by one of ``size`` workers that records what is submitted to it."""
    pool = dc.WorkerPool(size)
    pool.submitted = []
    submit = pool.submit

    def recorded(fn, *args, **kwargs):
        pool.submitted.append(fn)
        return submit(fn, *args, **kwargs)

    pool.submit = recorded
    saved, dc._pool = dc._pool, pool
    try:
        yield pool
    finally:
        dc._pool = saved
        pool.shutdown(wait=False)


@contextlib.contextmanager
def callers(n):
    """Plain threads for the test's callers, shut down without waiting, so a
    timed-out wait fails the test instead of hanging in the shutdown."""
    pool = ThreadPoolExecutor(max_workers=n)
    try:
        yield pool
    finally:
        pool.shutdown(wait=False)


def _affine_case(rows, k, m, dtype, seed=0):
    r = rng(seed)
    x = r.standard_normal((rows, k)).astype(dtype)
    w = (r.standard_normal((k, m)) / np.sqrt(k)).astype(dtype)
    return x, w, r.standard_normal(m).astype(dtype), r.standard_normal((rows, m)).astype(dtype)


def _single_calls(x, w, b, g):
    """Data and gradients of affine(x, w, b, relu=True) under upstream g, one numpy call each."""
    data = x @ w
    data += b
    np.maximum(data, 0, out=data)
    g = g * (data > 0)
    return data, g @ w.T, x.T @ g, g.sum(axis=0)


def _affine_through_tape(x, w, b, g):
    xt, wt, bt = (dc.Tensor(a, track=True) for a in (x, w, b))
    tape = dc.Tape()
    with dc.recording(tape):
        out = dc.affine(xt, wt, bt, relu=True)
        loss = dc.sum_all(dc.mul(out, dc.Tensor(g)))   # hands affine the upstream g exactly
    tape.backward(loss)
    return out.data, xt.grad, wt.grad, bt.grad


def _assert_affine_matches_single_calls(case):
    for name, got, want in zip(("data", "x grad", "w grad", "b grad"), _affine_through_tape(*case),
                               _single_calls(*case)):
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("size", [1, 2, 8])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_affine_row_blocks_match_single_numpy_calls_bitwise(dtype, size):
    with worker_pool_of(size) as pool, callers(1) as caller:
        for rows, k, m, splits in AFFINE_SHAPES:
            case = _affine_case(rows, k, m, dtype)
            del pool.submitted[:]
            caller.submit(_assert_affine_matches_single_calls, case).result(timeout=WAIT_S)
            # forward and x gradient each ask size - 1 workers to help, or none
            assert len(pool.submitted) == (2 * (size - 1) if splits else 0), (rows, k, m)


def _affine_data(case):
    return _affine_through_tape(*case)[0]


def test_affine_on_a_pool_worker_runs_whole():
    # workers issue wide products and ask the pool for no help: with every
    # worker busy, a product waiting on queued helpers would never return
    case = _affine_case(4100, 128, 128, np.float32)
    want = _single_calls(*case)[0]
    with worker_pool_of(3) as pool:
        jobs = [pool.submit(_affine_data, case) for _ in range(2)]
        for job in jobs:
            assert np.array_equal(job.result(timeout=WAIT_S), want)
        assert pool.submitted == [_affine_data] * 2


def test_affine_row_blocks_stay_bitwise_under_thread_churn():
    cases = [_affine_case(4100 + 7 * i, 128, 128, dtype, seed=i)
             for i, dtype in enumerate([np.float32, np.float64] * 2)]
    wants = [_single_calls(*case) for case in cases]

    def repeat(i):
        for _ in range(10):
            assert all(np.array_equal(a, b) for a, b in zip(_affine_through_tape(*cases[i]), wants[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with worker_pool_of(8), callers(len(cases)) as threads:
            for job in [threads.submit(repeat, i) for i in range(len(cases))]:
                job.result(timeout=WAIT_S)
    finally:
        sys.setswitchinterval(interval)


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
    assert float(dc.sum_all(x).data) == np.asarray(values, dtype=np.float64).sum()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gather_rows_match_loop(seed):
    r = rng(seed)
    x = r.normal(size=(8, 3))
    idx = r.integers(0, 8, size=12)
    got = dc.gather(dc.Tensor(x), idx).data
    for k in range(12):
        assert np.array_equal(got[k], x[idx[k]])
