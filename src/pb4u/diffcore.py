"""Tape-based reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps one ndarray. While a tape is active (``with recording(tape)``)
every operation whose inputs are tracked appends a local-gradient closure to
the tape; with no active tape the same functions are plain numpy, which keeps
rollouts and finite-difference probes cheap. The active tape is per thread
(a context variable). ``Tape.backward`` frees each intermediate gradient once
its node has pulled it, so only tracked leaves (``track=True``) keep ``.grad``;
the nodes stay on the tape. ``affine(..., relu=True)`` fuses a hidden layer's
ReLU into its affine node, so no pre-activation array is kept.

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
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

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
    """Accumulate a gradient that may alias caller-owned memory."""
    if not t.tracked:
        return
    if g.shape != t.data.shape:
        g = np.broadcast_to(g, t.data.shape)
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _acc_owned(t: Tensor, g: np.ndarray) -> None:
    """Accumulate a freshly allocated gradient; ownership transfers, so the
    first write skips the defensive copy."""
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
        _acc(b, _reduce_to(g, b.data.shape))

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
        _acc_owned(a, _reduce_to(g * b.data, a.data.shape))
        _acc_owned(b, _reduce_to(g * a.data, b.data.shape))

    return _record(out, (a, b), pull)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "div")
    out = Tensor(a.data / b.data)

    def pull(g):
        _acc(a, _reduce_to(g / b.data, a.data.shape))
        _acc(b, _reduce_to(-g * a.data / (b.data * b.data), b.data.shape))

    return _record(out, (a, b), pull)


def affine(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """x @ w + b with b a row vector, then max(., 0) when ``relu``, in the
    dtype of x @ w. Bias and ReLU are applied in place, and the fused form
    keeps tapes small (no pre-activation array is kept)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise InvalidArgument(f"affine: incompatible shapes {x.data.shape} and {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise InvalidArgument(f"affine: bias shape {b.data.shape} does not match width {w.data.shape[1]}")
    out = Tensor(x.data @ w.data)
    out.data += b.data
    if relu:
        np.maximum(out.data, 0, out=out.data)

    def pull(g):
        if relu:
            g = g * (out.data > 0)
        _acc_owned(x, g @ w.data.T)
        _acc_owned(w, x.data.T @ g)
        _acc_owned(b, g.sum(axis=0))

    return _record(out, (x, w, b), pull)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))

    def pull(g):
        _acc_owned(x, g * (x.data > 0))

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
            _acc(p, g[tuple(sl)])
            start += size

    return _record(out, parents, pull)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum()))

    def pull(g):
        _acc(x, g)

    return _record(out, (x,), pull)


def segment_sum(values: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """out[i] = sum of the rows values[r] with index[r] == i, for 1-D or 2-D
    values; the program's one scatter-add over plain arrays.

    Each output slot accumulates sequentially in row order (independent of
    the other slots) at float64, so the sums are deterministic and match a
    per-destination loop over the rows exactly; the result has the dtype of
    ``values``.
    """
    if values.ndim == 1:
        out = np.bincount(index, weights=values, minlength=size)
        return out.astype(values.dtype, copy=False)
    width = values.shape[1]
    flat = (index[:, None] * width + np.arange(width, dtype=np.int64)).reshape(-1)
    out = np.bincount(flat, weights=values.reshape(-1), minlength=size * width)
    return out.reshape(size, width).astype(values.dtype, copy=False)


def gather(x: Tensor, index) -> Tensor:
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1:
        raise InvalidArgument("gather: index must be 1-D")
    if index.size and (index.min() < 0 or index.max() >= x.data.shape[0]):
        raise InvalidArgument("gather: index out of range")
    out = Tensor(x.data[index])

    def pull(g):
        _acc_owned(x, segment_sum(g, index, x.data.shape[0]))

    return _record(out, (x,), pull)


def scatter_add(values: Tensor, index, size: int) -> Tensor:
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1 or index.shape[0] != values.data.shape[0]:
        raise InvalidArgument("scatter_add: index must be 1-D matching the leading axis")
    if index.size and (index.min() < 0 or index.max() >= size):
        raise InvalidArgument("scatter_add: index out of range")
    out = Tensor(segment_sum(values.data, index, size))

    def pull(g):
        _acc_owned(values, g[index])

    return _record(out, (values,), pull)


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
        _acc_owned(gain, (g * xhat).sum(axis=0))
        _acc_owned(bias, g.sum(axis=0))
        gx = g * gain.data
        row_sum = gx.sum(axis=-1, keepdims=True)
        row_dot = (gx * xhat).sum(axis=-1, keepdims=True)
        _acc_owned(x, (inv / width) * (width * gx - row_sum - xhat * row_dot))

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
