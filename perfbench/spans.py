"""Span tracer installed around pb4u's public functions from outside the
package.

``Tracer.installed()`` replaces each target function with a timing wrapper
and puts the originals back on exit. A module-level target is replaced under
every name that any ``pb4u`` module binds it to, so a function imported with
``from .rollout import advance`` (as ``pb4u.train`` does) is wrapped in the
importing module too. Class attributes (methods and classmethods) are
replaced on the class itself.

Spans are kept in memory: name, start, end, parent span index, the trace id
of the frame or iteration they belong to, and the phase (``setup`` or
``timed``). Counts are recorded at the same boundaries by per-target
observers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One traced function: ``module`` and ``attr`` locate the original
    (``attr`` may be ``Class.method``); ``name`` labels its spans."""

    module: str
    attr: str
    name: str
    observe: Callable | None = None   # (tracer, args, kwargs, result) -> None
    starts_trace: str | None = None   # trace-id prefix opened on each call


# --- observers: counts and computed work, recorded at span boundaries --------

def _affine_work(tr, args, kwargs, out):
    x, w = args[0].data, args[1].data
    tr.add("diffcore.affine_gflop", 2.0 * x.shape[0] * x.shape[1] * w.shape[1] / 1e9)


def _scatter_bytes(tr, args, kwargs, out):
    values, index = args[0].data, np.asarray(args[1])
    tr.add("diffcore.scatter_add_mb", (values.nbytes + index.nbytes + out.data.nbytes) / 1e6)


def _world_edges(tr, args, kwargs, graph):
    tr.add("graph.world_edges", graph.world_edges.shape[0])


def _search_call(tr, args, kwargs, pairs):
    tr.add("graph.world_search_calls", 1)


def _normals_call(tr, args, kwargs, out):
    tr.add("mesh.vertex_normals_calls", 1)


def _contacts(tr, args, kwargs, out):
    tr.add("physics.contacts", out[0].shape[0])


def _tape_nodes(tr, args, kwargs, out):
    tr.add("diffcore.tape_nodes", len(args[0].nodes))


def _k_steps(tr, args, kwargs, ctx):
    tr.gauge("control.k_steps", ctx.k_steps)


def _rolled(tr, args, kwargs, result):
    tr.last_rollout = result   # read by _refreshed when this roll feeds a buffer refresh


def _refreshed(tr, args, kwargs, out):
    scene = args[0]
    use_model = kwargs.get("use_model", args[3] if len(args) > 3 else None)
    tr.add("train.refreshes", 1)
    tr.add("train.buffer_len", len(scene.buffer))
    if use_model and tr.last_rollout is not None:
        rolled = {id(s) for s in tr.last_rollout.states}
        tr.add("train.refresh_rolled", len(rolled))
        tr.add("train.refresh_kept", sum(1 for e in scene.buffer if id(e.state) in rolled))
    tr.last_rollout = None


def _p(module, attr, name, observe=None, starts_trace=None):
    return Target(f"pb4u.{module}", attr, name, observe, starts_trace)


TARGETS = (
    # network: one simulator step and its stages
    _p("network", "encode", "network.encode"),
    _p("network", "propagate", "network.propagate"),
    _p("network", "update", "network.update"),
    _p("network", "process", "network.process"),
    _p("network", "decode_and_scale", "network.decode"),
    # diffcore kernels (forward) and the backward pass
    _p("diffcore", "affine", "diffcore.affine", _affine_work),
    _p("diffcore", "gather", "diffcore.gather"),
    _p("diffcore", "scatter_add", "diffcore.scatter_add", _scatter_bytes),
    _p("diffcore", "concat", "diffcore.concat"),
    _p("diffcore", "layer_norm", "diffcore.layer_norm"),
    _p("diffcore", "Tape.backward", "diffcore.backward", _tape_nodes),
    # graph build
    _p("graph", "build_graph", "graph.build_graph", _world_edges),
    _p("graph", "vertex_features", "graph.vertex_features"),
    _p("graph", "build_world_edges", "graph.world_search", _search_call),
    # mesh
    _p("mesh", "vertex_normals", "mesh.vertex_normals", _normals_call),
    _p("mesh", "subdivide_midpoint", "mesh.subdivide"),
    _p("mesh", "TriMesh.from_triangles", "mesh.from_triangles"),
    # physics
    _p("physics", "total_loss", "physics.total_loss"),
    _p("physics", "stretch_energy", "physics.stretch"),
    _p("physics", "bending_energy", "physics.bending"),
    _p("physics", "collision_penalty", "physics.collision"),
    _p("physics", "gravity_energy", "physics.gravity"),
    _p("physics", "friction_penalty", "physics.friction"),
    _p("physics", "inertia_term", "physics.inertia"),
    _p("physics", "nearest_contacts", "physics.nearest_contacts", _contacts),
    _p("physics", "build_rest_geometry", "physics.rest_geometry"),
    # training loop
    _p("train", "refresh_buffer", "train.refresh", _refreshed, starts_trace="refresh"),
    _p("train", "sample_frame", "train.sample_frame", starts_trace="iter"),
    _p("train", "Adam.step", "train.adam"),
    _p("train", "clip_gradients", "train.clip"),
    # rollout
    _p("rollout", "run_rollout", "rollout.run_rollout", _rolled),
    _p("rollout", "advance", "rollout.advance"),
    _p("rollout", "frame_loss", "rollout.frame_loss"),
    _p("rollout", "SimContext.build", "rollout.context_build", _k_steps),
    # scenes and io
    _p("scenes", "build_scene", "scenes.build_scene"),
    _p("io", "load_scene", "io.load_scene"),
    _p("io", "save_checkpoint", "io.save_checkpoint"),
    _p("io", "load_checkpoint", "io.load_checkpoint"),
)


class Tracer:
    """In-memory span and count recorder; single-threaded by design, like the
    program's own tape."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[tuple] = []         # (name, start, end, parent, trace_id, phase)
        self.counts: dict[str, Counter] = defaultdict(Counter)   # phase -> name -> total
        self.gauges: dict[str, float] = {}
        self.phase = "setup"
        self.trace_id = "setup"
        self.last_rollout = None
        self._stack: list[int] = []
        self._trace_serial: Counter = Counter()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        self.counts[self.phase][name] += amount

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if target.starts_trace and not tracer._stack:
                tracer._trace_serial[target.starts_trace] += 1
                tracer.trace_id = f"{target.starts_trace}-{tracer._trace_serial[target.starts_trace]}"
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (target.name, start, end, parent, tracer.trace_id, tracer.phase)
            if target.observe is not None:
                target.observe(tracer, args, kwargs, result)
            return result

        traced.__pb4u_traced__ = fn
        return traced

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block. A ``pb4u``
        module first imported inside the block keeps wrapped bindings."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    def _install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for target in self.targets:
            module = importlib.import_module(target.module)
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(original.__func__, target))
                else:
                    replacement = self._wrap(original, target)
                self._patches.append((cls, meth, original))
                setattr(cls, meth, replacement)
                continue
            original = getattr(module, target.attr)
            wrapped = self._wrap(original, target)
            for owner, name in bindings(original):
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapped)

    def _uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reporting -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part covered by its children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name and phase: calls, inclusive seconds, self seconds."""
        out: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, _, _, phase = span
            row = out.setdefault(f"{phase}:{name}", {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, trace_id, phase) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_us": round(1e6 * (start - t0), 1),
                    "end_us": round(1e6 * (end - t0), 1), "parent": parent,
                    "trace": trace_id, "phase": phase,
                }) + "\n")


def bindings(fn: Callable) -> list[tuple]:
    """Every (module, name) in the loaded ``pb4u`` package bound to ``fn``."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "pb4u" or mod_name.startswith("pb4u.")):
            continue
        for name, value in list(vars(module).items()):
            if value is fn:
                found.append((module, name))
    return found
