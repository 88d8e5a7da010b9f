"""Tests of the benchmark's tracer and output checks.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from pb4u import diffcore, graph, network, physics, rollout, train  # noqa: E402
from pb4u.rollout import SimContext  # noqa: E402


def _is_wrapped(fn) -> bool:
    return hasattr(fn, "__pb4u_traced__")


def test_wrappers_cover_every_binding_and_are_removed():
    originals = {
        (rollout, "advance"): rollout.advance, (train, "advance"): train.advance,
        (rollout, "frame_loss"): rollout.frame_loss, (train, "frame_loss"): train.frame_loss,
        (graph, "build_graph"): graph.build_graph, (network, "build_graph"): network.build_graph,
        (graph, "build_world_edges"): graph.build_world_edges,
        (physics, "build_world_edges"): physics.build_world_edges,
    }
    backward = diffcore.Tape.__dict__["backward"]
    build = SimContext.__dict__["build"]
    tracer = spans.Tracer()
    with tracer.installed():
        for (module, name) in originals:
            assert _is_wrapped(getattr(module, name)), f"{module.__name__}.{name} not wrapped"
        assert _is_wrapped(diffcore.Tape.__dict__["backward"])
        assert _is_wrapped(SimContext.__dict__["build"].__func__)
        for target in spans.TARGETS:
            if "." not in target.attr:
                original = getattr(sys.modules[target.module], target.attr).__pb4u_traced__
                assert spans.bindings(original) == [], f"unwrapped binding of {target.attr} left"
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn
    assert diffcore.Tape.__dict__["backward"] is backward
    assert SimContext.__dict__["build"] is build


def test_self_time_subtracts_children():
    tracer = spans.Tracer(targets=())
    tracer.spans = [
        ("outer", 0.0, 10.0, -1, "t", "timed"),
        ("inner", 2.0, 5.0, 0, "t", "timed"),
        ("leaf", 3.0, 4.0, 1, "t", "timed"),
        ("inner", 6.0, 7.0, 0, "t", "timed"),
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]
    summary = tracer.summary()
    assert summary["timed:inner"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}


def test_training_spans_go_through_the_train_module_bindings(tmp_path):
    spec = wl.Spec("tiny-train", "test", "drape-sphere", frames=6, train_iterations=2, buffer_refresh=1)
    tracer = spans.Tracer()
    with tracer.installed():
        prepared = wl.setup(spec, 0, tmp_path)
        tracer.phase = "timed"
        step = wl.make_loop(spec, prepared).step()
    assert step.ok and step.units == 2
    names = [s[0] for s in tracer.spans if s[5] == "timed"]
    for name in ("rollout.advance", "rollout.frame_loss", "diffcore.backward", "train.adam",
                 "train.refresh", "network.propagate", "graph.world_search"):
        assert name in names, name
    traces = {s[4] for s in tracer.spans if s[5] == "timed"}
    assert {"iter-2", "iter-3", "refresh-3"} <= traces   # the set-up call ran iter-1 and refresh-1
    counts = tracer.counts["timed"]
    assert counts["diffcore.tape_nodes"] > 0 and counts["train.refresh_rolled"] == spec.frames - 1


@pytest.fixture(scope="module")
def drape(tmp_path_factory):
    """Base-resolution drape rollout: cheap, with world edges at frame 0."""
    spec = wl.Spec("tiny-drape", "test", "drape-sphere")
    return wl.setup(spec, 5, tmp_path_factory.mktemp("drape"))


def _misroute_last_row(monkeypatch, name):
    original = getattr(diffcore, name)

    def broken(x, index, *rest):
        index = np.array(index, copy=True)
        if index.size > 100:
            index[-1] = index[0]
        return original(x, index, *rest)

    monkeypatch.setattr(diffcore, name, broken)


def test_first_step_check_passes_on_the_program(drape):
    errors = checks.first_step_errors(drape.ctx, drape.models[0], drape.first.states[0].garment_pos)
    assert max(errors.values()) <= 1.0, errors


@pytest.mark.parametrize("kernel", ["gather", "scatter_add"])
def test_first_step_check_catches_a_misrouted_row(drape, monkeypatch, kernel):
    _misroute_last_row(monkeypatch, kernel)
    errors = checks.first_step_errors(drape.ctx, drape.models[0])
    assert errors["first_step_positions"] > 1.0, errors


def test_first_step_check_catches_a_missing_world_edge(drape, monkeypatch):
    original = graph.build_world_edges
    monkeypatch.setattr(graph, "build_world_edges", lambda *a: original(*a)[:-1])
    state = drape.ctx.scene.initial_state()
    assert original(state.garment_pos, state.body_pos, drape.ctx.scene.world_radius).shape[0] > 0
    errors = checks.first_step_errors(drape.ctx, drape.models[0])
    assert errors["world_edges"] > 1.0


def test_reference_check_passes_and_catches_a_misrouted_scatter(tmp_path, monkeypatch):
    assert checks.reference_errors("rollout-dense-body", tmp_path / "ok")["reference_losses"] <= 1.0
    _misroute_last_row(monkeypatch, "scatter_add")
    assert checks.reference_errors("rollout-dense-body", tmp_path / "bad")["reference_losses"] > 1.0
