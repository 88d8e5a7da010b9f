"""Tape-based reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps one ndarray. While a tape is active (``with recording(tape)``)
every operation whose inputs are tracked appends a local-gradient closure to
the tape; with no active tape the same functions are plain numpy, which keeps
rollouts and finite-difference probes cheap. The active tape is per thread
(a context variable). ``Tape.backward`` frees each intermediate gradient once
its node has pulled it, so only tracked leaves (``track=True``) keep ``.grad``;
the nodes stay on the tape. ``affine(..., relu=True)`` fuses a hidden layer's
ReLU into its affine node, so no pre-activation array is kept, and
``lookup_affine`` keeps no edge-input matrix: its backward looks it up again.

Wide products run as row blocks on the process's one worker pool
(``worker_pool``): a row of ``x @ w`` or ``g @ w.T`` reduces over a feature
width only, so its bits do not depend on how the rows are split.

Conventions:
  - elementwise binary ops accept equal shapes, or a scalar (shape ``()``) on
    either side; no other broadcasting is exposed
  - reductions with multiple contributions to one slot accumulate in ascending
    destination-index order, so backward passes are bitwise reproducible
  - dtype follows the inputs: build everything in float64 for gradient checks,
    float32 for training
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import InvalidArgument, NumericFailure

LAYER_NORM_EPS = 1e-5


class Tensor:
    """Dense array node; ``track=True`` marks a leaf whose gradient is wanted."""

    __slots__ = ("data", "grad", "tracked")

    def __init__(self, data, track: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.tracked = bool(track)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, tracked={self.tracked})"


class _Node:
    __slots__ = ("out", "pull")

    def __init__(self, out: Tensor, pull: Callable[[np.ndarray], None]):
        self.out = out
        self.pull = pull


class Tape:
    """Operations in forward order; reversal is a valid backward schedule
    because every parent is created before its children."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[_Node] = []

    def backward(self, root: Tensor) -> None:
        if root.data.shape != ():
            raise InvalidArgument(f"backward root must be scalar, got shape {root.data.shape}")
        root.grad = np.ones((), dtype=root.data.dtype)
        for node in reversed(self.nodes):
            if node.out.grad is not None:
                node.pull(node.out.grad)
                # every consumer of this output ran later and has pulled already
                node.out.grad = None


# a new thread starts with an empty context, so it sees no tape until it opens one
_ACTIVE: contextvars.ContextVar[Tape | None] = contextvars.ContextVar("pb4u_active_tape", default=None)


@contextlib.contextmanager
def recording(tape: Tape) -> Iterator[Tape]:
    if _ACTIVE.get() is not None:
        raise InvalidArgument("a tape is already active; one tape per step")
    token = _ACTIVE.set(tape)
    try:
        yield tape
    finally:
        _ACTIVE.reset(token)


def _record(out: Tensor, parents: tuple[Tensor, ...], pull: Callable[[np.ndarray], None]) -> Tensor:
    tape = _ACTIVE.get()
    if tape is not None and any(p.tracked for p in parents):
        out.tracked = True
        tape.nodes.append(_Node(out, pull))
    return out


def _acc(t: Tensor, g: np.ndarray) -> None:
    """Accumulate a gradient into a tracked tensor. Ownership of ``g``
    transfers: the first write keeps the array itself, so a pull must hand
    over memory that nothing else holds or will write to. An untracked
    tensor takes nothing, and this is the one place that drops a gradient:
    every pull computes one for each of its parents."""
    if not t.tracked:
        return
    if t.grad is None:
        t.grad = g if g.dtype == t.data.dtype and g.shape == t.data.shape else np.array(
            np.broadcast_to(g, t.data.shape), dtype=t.data.dtype
        )
    else:
        t.grad += g


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # the only mismatch our binary ops allow is a scalar parent
    return g if g.shape == shape else np.asarray(g.sum())


def _check_binary(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape and a.data.shape != () and b.data.shape != ():
        raise InvalidArgument(f"{op}: incompatible shapes {a.data.shape} and {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "add")
    out = Tensor(a.data + b.data)

    def pull(g):
        _acc(a, _reduce_to(g, a.data.shape))
        _acc(b, _reduce_to(g, b.data.shape).copy())   # a may own g now; b gets its own array

    return _record(out, (a, b), pull)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "sub")
    out = Tensor(a.data - b.data)

    def pull(g):
        _acc(a, _reduce_to(g, a.data.shape))
        _acc(b, _reduce_to(-g, b.data.shape))

    return _record(out, (a, b), pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "mul")
    out = Tensor(a.data * b.data)

    def pull(g):
        _acc(a, _reduce_to(g * b.data, a.data.shape))
        _acc(b, _reduce_to(g * a.data, b.data.shape))

    return _record(out, (a, b), pull)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "div")
    out = Tensor(a.data / b.data)

    def pull(g):
        _acc(a, _reduce_to(g / b.data, a.data.shape))
        _acc(b, _reduce_to(-g * a.data / (b.data * b.data), b.data.shape))

    return _record(out, (a, b), pull)


class WorkerPool(ThreadPoolExecutor):
    """A thread pool of ``size`` workers. A product issued on one of its
    workers runs whole, so a worker never waits on the pool."""

    def __init__(self, size: int):
        super().__init__(size, thread_name_prefix="pb4u-worker", initializer=_mark_worker)
        self.size = size


_pool: WorkerPool | None = None
_pool_lock = threading.Lock()
_thread = threading.local()   # .on_pool is set on the pool's own workers


def _mark_worker() -> None:
    _thread.on_pool = True


def worker_pool() -> WorkerPool:
    """The process's one pool, created on first use with one worker per core
    this process may run on (``taskset`` caps it). Split products and
    ``sweep-k``'s points run on it."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = WorkerPool(len(os.sched_getaffinity(0)))
        return _pool


# Rows per block of a split product, and the least width of both of its
# feature axes. Measured against the single numpy call (OpenBLAS 0.3.31,
# float32 and float64, 1 and 2 BLAS threads): row blocks keep every bit of
# products 64 or more wide on both axes, but not of a 3- or 7-wide output
# such as the decoder's; a 1-row block would be a matrix-vector call.
ROW_BLOCK = 1024
SPLIT_WIDTH = 64


def _matmul(x: np.ndarray, w: np.ndarray, finish: Callable[[np.ndarray], None] | None = None) -> np.ndarray:
    """x @ w, then ``finish`` in place on its rows. With both widths of ``w``
    at least ``SPLIT_WIDTH`` and two or more blocks, the rows are cut into
    blocks of ``ROW_BLOCK`` (the last one takes the remainder) from the row
    count alone; the calling thread and up to ``size - 1`` pool workers take
    blocks until none is left. A call made on a pool worker runs whole."""
    out = np.empty((x.shape[0], w.shape[1]), dtype=np.result_type(x, w))

    def block(start: int, stop: int) -> None:
        rows = out[start:stop]
        np.matmul(x[start:stop], w, out=rows)   # releases the GIL
        if finish is not None:
            finish(rows)

    cuts = [i * ROW_BLOCK for i in range(x.shape[0] // ROW_BLOCK)] + [x.shape[0]]
    if min(w.shape) < SPLIT_WIDTH or len(cuts) < 3 or getattr(_thread, "on_pool", False):
        block(0, x.shape[0])
        return out
    todo = zip(cuts[:-1], cuts[1:])   # shared by the threads; each next() is atomic under the GIL

    def drain() -> None:
        for start, stop in todo:
            block(start, stop)

    pool = worker_pool()
    helpers = [pool.submit(drain) for _ in range(min(pool.size, len(cuts) - 1) - 1)]
    try:
        drain()
    finally:
        for helper in helpers:
            helper.result()
    return out


def affine(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """x @ w + b with b a row vector, then max(., 0) when ``relu``, in the
    dtype of x @ w. Bias and ReLU are applied in place, and the fused form
    keeps tapes small (no pre-activation array is kept). ``x @ w`` and the
    pull's ``g @ w.T`` split into row blocks (``_matmul``); ``x.T @ g``
    reduces over the rows and ``g.sum(axis=0)`` too, so each stays one call
    on the calling thread."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise InvalidArgument(f"affine: incompatible shapes {x.data.shape} and {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise InvalidArgument(f"affine: bias shape {b.data.shape} does not match width {w.data.shape[1]}")

    def bias_relu(rows):
        rows += b.data
        if relu:
            np.maximum(rows, 0, out=rows)

    out = Tensor(_matmul(x.data, w.data, bias_relu))

    def pull(g):
        if relu:
            g = g * (out.data > 0)
        _acc(x, _matmul(g, w.data.T))
        _acc(w, x.data.T @ g)
        _acc(b, g.sum(axis=0))

    return _record(out, (x, w, b), pull)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))

    def pull(g):
        _acc(x, g * (x.data > 0))

    return _record(out, (x,), pull)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise InvalidArgument("concat: need at least one input")
    datas = [p.data for p in parts]
    ndim = datas[0].ndim
    for d in datas:
        if d.ndim != ndim:
            raise InvalidArgument("concat: rank mismatch")
    out = Tensor(np.concatenate(datas, axis=axis))
    sizes = [d.shape[axis] for d in datas]
    parents = tuple(parts)

    def pull(g):
        start = 0
        for p, size in zip(parents, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + size)
            _acc(p, g[tuple(sl)].copy())
            start += size

    return _record(out, parents, pull)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum()))

    def pull(g):
        _acc(x, g)

    return _record(out, (x,), pull)


# Row width from which segment_sum adds by slot rank instead of by bincount.
# Per call, 2-core host: on rollout-fine's 13151 edges (in-degree up to 12),
# width 16 took 3.2 ms with bincount and 1.3 ms by rank, width 128 13.7 and
# 4.8 ms; on the 6050-vertex body sphere's triangle corners (a pole of
# in-degree 96), width 3 took 1.0 and 3.3 ms, width 16 3.2 and 4.5 ms,
# width 32 7.5 and 6.3 ms.
WIDE_ROWS = 32


def segment_sum(values: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """out[i] = sum of the rows values[r] with index[r] == i, for values of
    any rank (zero rows included); the program's one scatter-add over plain
    arrays.

    Each output slot accumulates sequentially in row order (independent of
    the other slots) at float64, so the sums are deterministic and match a
    per-destination loop over the rows exactly; the result has the dtype of
    ``values``. Rows narrower than ``WIDE_ROWS`` go through one ``bincount``
    over a flat index; wider rows are grouped by slot and added by rank: the
    j-th pass adds the j-th row of every slot that has one, with slots
    ranked by row count so that each pass is one leading block.
    """
    row_shape = values.shape[1:]
    width = math.prod(row_shape)
    if width < WIDE_ROWS:
        flat = (index[:, None] * width + np.arange(width, dtype=np.int64)).reshape(-1)
        out = np.bincount(flat, weights=values.reshape(-1), minlength=size * width)
        return out.reshape((size,) + row_shape).astype(values.dtype, copy=False)
    rows = values.reshape(values.shape[0], width)
    order = np.argsort(index, kind="stable")        # rows grouped by slot, each group in row order
    counts = np.bincount(index, minlength=size)
    rank = np.argsort(-counts, kind="stable")       # slots by row count, most first
    ranked = counts[rank]
    first = (np.cumsum(counts) - counts)[rank]      # where each ranked slot's group starts in order
    acc = np.zeros((size, width))
    # pass j adds to the leading slots that have more than j rows
    for j, n in enumerate(np.searchsorted(-ranked, -np.arange(counts.max(initial=0)))):
        acc[:n] += rows[order[first[:n] + j]]
    out = np.empty((size, width), dtype=values.dtype)
    out[rank] = acc
    return out.reshape((size,) + row_shape)


def gather(x: Tensor, index) -> Tensor:
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1:
        raise InvalidArgument("gather: index must be 1-D")
    if index.size and (index.min() < 0 or index.max() >= x.data.shape[0]):
        raise InvalidArgument("gather: index out of range")
    out = Tensor(x.data[index])

    def pull(g):
        _acc(x, segment_sum(g, index, x.data.shape[0]))

    return _record(out, (x,), pull)


def scatter_add(values: Tensor, index, size: int) -> Tensor:
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1 or index.shape[0] != values.data.shape[0]:
        raise InvalidArgument("scatter_add: index must be 1-D matching the leading axis")
    if index.size and (index.min() < 0 or index.max() >= size):
        raise InvalidArgument("scatter_add: index out of range")
    out = Tensor(segment_sum(values.data, index, size))

    def pull(g):
        _acc(values, g[index])

    return _record(out, (values,), pull)


def lookup_affine(parts: Sequence[tuple[Sequence[Tensor], np.ndarray | None]], w: Tensor, b: Tensor,
                  relu: bool = False) -> Tensor:
    """``affine(x, w, b, relu)`` of the edge-input matrix ``x = concat([gather(
    concat(sources, axis=0), index) for sources, index in parts], axis=1)``,
    where a part with index None takes its stacked sources' rows as they are:
    the first layer of the message and edge MLPs.

    The sources are 2-D, of one width and one dtype. Their distinct arrays
    are stacked by rows in one table; one ``gather`` on that untracked table
    reads x and one ``affine`` on untracked Tensors multiplies it. The tape
    keeps neither x nor the table, only the sources, the lookup index, w and
    b: the pull looks x up again for the weight gradient ``x.T @ g`` and
    frees it before ``g @ w.T``, whose column blocks it walks in reverse,
    summing each with ``segment_sum`` (a part with no index copies it) into
    the part's sources in order. Data and gradients equal the
    gather/concat/affine nodes' bit for bit.
    """
    if not parts or not all(srcs for srcs, _ in parts):
        raise InvalidArgument("lookup_affine: need at least one part, each with a source")
    sources = list({id(s): s for srcs, _ in parts for s in srcs}.values())   # distinct, in first-use order
    first = sources[0].data
    if any(s.data.ndim != 2 or s.data.shape[1] != first.shape[1] or s.data.dtype != first.dtype
           for s in sources):
        raise InvalidArgument("lookup_affine: sources must be 2-D, of one width and one dtype")
    width = first.shape[1]
    table_start = dict(zip(map(id, sources), np.cumsum([0] + [s.data.shape[0] for s in sources])))
    plans, columns = [], []
    for srcs, index in parts:
        srcs = tuple(srcs)
        rows = np.concatenate([table_start[id(s)] + np.arange(s.data.shape[0]) for s in srcs])
        if index is not None:
            index = np.asarray(index, dtype=np.int64)
            if index.ndim != 1 or (index.size and (index.min() < 0 or index.max() >= rows.size)):
                raise InvalidArgument("lookup_affine: index must be 1-D and within its sources' rows")
            rows = rows[index]
        plans.append((srcs, index))
        columns.append(rows)
    if any(c.size != columns[0].size for c in columns):
        raise InvalidArgument("lookup_affine: parts have different row counts")
    lookup, shape = np.stack(columns, axis=1).reshape(-1), (columns[0].size, len(parts) * width)

    def edge_inputs() -> np.ndarray:
        table = Tensor(np.concatenate([s.data for s in sources]))
        return gather(table, lookup).data.reshape(shape)

    out = affine(Tensor(edge_inputs()), Tensor(w.data), Tensor(b.data), relu)

    def pull(g):
        if relu:
            g = g * (out.data > 0)
        _acc(w, edge_inputs().T @ g)   # the matrix lives only for this product
        _acc(b, g.sum(axis=0))
        gx = _matmul(g, w.data.T)
        for j in reversed(range(len(plans))):
            srcs, index = plans[j]
            block = gx[:, j * width:(j + 1) * width]
            summed = block.copy() if index is None else segment_sum(
                block, index, sum(s.data.shape[0] for s in srcs))
            start = 0
            for s in srcs:
                _acc(s, summed[start:start + s.data.shape[0]])
                start += s.data.shape[0]

    return _record(out, (*sources, w, b), pull)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of a 2-D input over its last axis, then apply the
    learnable affine map."""
    if x.data.ndim != 2:
        raise InvalidArgument("layer_norm: input must be 2-D")
    width = x.data.shape[1]
    if gain.data.shape != (width,) or bias.data.shape != (width,):
        raise InvalidArgument("layer_norm: affine parameter shape mismatch")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    out = Tensor(xhat * gain.data + bias.data)

    def pull(g):
        _acc(gain, (g * xhat).sum(axis=0))
        _acc(bias, g.sum(axis=0))
        gx = g * gain.data
        row_sum = gx.sum(axis=-1, keepdims=True)
        row_dot = (gx * xhat).sum(axis=-1, keepdims=True)
        _acc(x, (inv / width) * (width * gx - row_sum - xhat * row_dot))

    return _record(out, (x, gain, bias), pull)


def sqrt(x: Tensor) -> Tensor:
    out = Tensor(np.sqrt(x.data))

    def pull(g):
        _acc(x, g * (0.5 / out.data))

    return _record(out, (x,), pull)


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise dot product of two equally shaped 2-D arrays -> 1-D."""
    if a.data.ndim != 2 or a.data.shape != b.data.shape:
        raise InvalidArgument(f"dot: incompatible shapes {a.data.shape} and {b.data.shape}")
    out = Tensor((a.data * b.data).sum(axis=-1))

    def pull(g):
        col = g[:, None]
        _acc(a, col * b.data)
        _acc(b, col * a.data)

    return _record(out, (a, b), pull)


def cross3(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise 3-vector cross product."""
    if a.data.ndim != 2 or a.data.shape[1] != 3 or a.data.shape != b.data.shape:
        raise InvalidArgument(f"cross3: incompatible shapes {a.data.shape} and {b.data.shape}")
    out = Tensor(np.cross(a.data, b.data))

    def pull(g):
        _acc(a, np.cross(b.data, g))
        _acc(b, np.cross(g, a.data))

    return _record(out, (a, b), pull)


def pow3(x: Tensor) -> Tensor:
    d = x.data
    out = Tensor(d * d * d)

    def pull(g):
        _acc(x, g * (3.0 * (d * d)))

    return _record(out, (x,), pull)


def atan2(y: Tensor, x: Tensor) -> Tensor:
    _check_binary(y, x, "atan2")
    out = Tensor(np.arctan2(y.data, x.data))

    def pull(g):
        denom = y.data * y.data + x.data * x.data
        _acc(y, g * (x.data / denom))
        _acc(x, g * (-y.data / denom))

    return _record(out, (y, x), pull)


def scale_rows(x: Tensor, s: Tensor) -> Tensor:
    """Multiply row i of a 2-D array by scalar s[i]."""
    if x.data.ndim != 2 or s.data.ndim != 1 or s.data.shape[0] != x.data.shape[0]:
        raise InvalidArgument(f"scale_rows: incompatible shapes {x.data.shape} and {s.data.shape}")
    out = Tensor(x.data * s.data[:, None])

    def pull(g):
        _acc(x, g * s.data[:, None])
        _acc(s, (g * x.data).sum(axis=-1))

    return _record(out, (x, s), pull)


def grad_check(scalar_fn: Callable[..., Tensor], inputs: Sequence[Tensor], h: float = 1e-6) -> float:
    """Compare the tape gradient of ``scalar_fn(*inputs)`` against central
    finite differences, coordinate by coordinate.

    Returns the max over coordinates of |analytic - numeric| / max(1, |numeric|).
    Inputs are perturbed in place and restored; use float64 data.
    """
    if h <= 0:
        raise InvalidArgument("grad_check: step must be positive")
    for t in inputs:
        t.grad = None
        t.tracked = True
    tape = Tape()
    with recording(tape):
        out = scalar_fn(*inputs)
    if not np.isfinite(out.data):
        raise NumericFailure("grad_check: non-finite forward value")
    tape.backward(out)

    worst = 0.0
    for t in inputs:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            f_plus = float(scalar_fn(*inputs).data)
            flat[i] = saved - h
            f_minus = float(scalar_fn(*inputs).data)
            flat[i] = saved
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericFailure("grad_check: non-finite probe value")
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = abs(float(aflat[i]) - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
