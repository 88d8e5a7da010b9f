#!/usr/bin/env python3
"""pb4u benchmark: rollout and training throughput, one workload per run.

    python3 perfbench/run.py --workload rollout-fine --seed 1 --seconds 20 --trace 0

Run from the repository root. Workloads are ``rollout-fine``, ``train-base``
and ``rollout-dense-body`` (see ``workloads.py``). Each run sets up the
workload several times (``setup_s`` is their median), then runs a closed loop
of frames or ``train()`` calls for ``--seconds`` and checks the outputs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` measures the
same steps twice, untraced and then with wrappers around pb4u's public
functions, and reports per-layer metrics plus the tracing overhead; the
spans go to ``.bench_out/``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

In that line a step is a frame (rollouts) or a training iteration
(``train-base``): ``step_ms_p50`` is the median frame time, or the median over
``train()`` calls of their time per iteration; ``steps_per_s`` is frames per
second, or iterations per second with buffer refresh amortized. The lines
before it give the same numbers as ``frames_per_s``, ``frame_ms_p50``,
``train_iter_ms``, ``peak_rss_mb`` and ``fail_ratio``.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)   # before numpy loads BLAS

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5

# Per-layer metrics reported on every workload: metric -> (source, unit).
# "ms/step" sources are span names summed over the timed steps; "ms/call"
# sources are averaged per call (set-up work); "count" sources are observer
# totals per timed step.
LAYER_METRICS = {
    "network.encode_ms": ("network.encode", "ms/step"),
    "network.propagate_ms": ("network.propagate", "ms/step"),
    "network.update_ms": ("network.update", "ms/step"),
    "network.process_ms": ("network.process", "ms/step"),
    "network.decode_ms": ("network.decode", "ms/step"),
    "diffcore.affine_ms": ("diffcore.affine", "ms/step"),
    "diffcore.affine_gflop": ("diffcore.affine_gflop", "count"),
    "diffcore.gather_ms": ("diffcore.gather", "ms/step"),
    "diffcore.scatter_add_ms": ("diffcore.scatter_add", "ms/step"),
    "diffcore.scatter_add_mb": ("diffcore.scatter_add_mb", "count"),
    "diffcore.concat_ms": ("diffcore.concat", "ms/step"),
    "diffcore.layer_norm_ms": ("diffcore.layer_norm", "ms/step"),
    "graph.build_graph_ms": ("graph.build_graph", "ms/step"),
    "graph.vertex_features_ms": ("graph.vertex_features", "ms/step"),
    "graph.world_search_ms": ("graph.world_search", "ms/step"),
    "graph.world_search_calls": ("graph.world_search_calls", "count"),
    "graph.world_edges": ("graph.world_edges", "count"),
    "mesh.vertex_normals_ms": ("mesh.vertex_normals", "ms/step"),
    "mesh.vertex_normals_calls": ("mesh.vertex_normals_calls", "count"),
    "mesh.from_triangles_ms": ("mesh.from_triangles", "ms/call"),
    "physics.total_loss_ms": ("physics.total_loss", "ms/step"),
    "physics.stretch_ms": ("physics.stretch", "ms/step"),
    "physics.bending_ms": ("physics.bending", "ms/step"),
    "physics.collision_ms": ("physics.collision", "ms/step"),
    "physics.gravity_ms": ("physics.gravity", "ms/step"),
    "physics.friction_ms": ("physics.friction", "ms/step"),
    "physics.inertia_ms": ("physics.inertia", "ms/step"),
    "physics.contacts": ("physics.contacts", "count"),
    "physics.rest_geometry_ms": ("physics.rest_geometry", "ms/call"),
    "rollout.advance_ms": ("rollout.advance", "ms/step"),
    "rollout.frame_loss_ms": ("rollout.frame_loss", "ms/step"),
    "rollout.context_build_ms": ("rollout.context_build", "ms/call"),
    "scenes.build_scene_ms": ("scenes.build_scene", "ms/call"),
    "io.load_scene_ms": ("io.load_scene", "ms/call"),
    "io.save_checkpoint_ms": ("io.save_checkpoint", "ms/call"),
    "io.load_checkpoint_ms": ("io.load_checkpoint", "ms/call"),
}
# Reported where their layer runs: training (backward, tape, Adam, refresh)
# and subdivision (rollout-fine only).
LAYER_METRICS_WHERE_RUN = {
    "diffcore.backward_ms": ("diffcore.backward", "ms/step"),
    "diffcore.tape_nodes": ("diffcore.tape_nodes", "count"),
    "train.refresh_ms": ("train.refresh", "ms/step"),
    "train.adam_ms": ("train.adam", "ms/step"),
    "train.clip_ms": ("train.clip", "ms/step"),
    "mesh.subdivide_ms": ("mesh.subdivide", "ms/call"),
}
UNITS = {"ms/step": "ms", "ms/call": "ms", "diffcore.affine_gflop": "GFLOP", "diffcore.scatter_add_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_context(args) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    src_lines = sum(p.read_bytes().count(b"\n") for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS, "src_lines": src_lines,
    }


def run_steps(loop, seconds: float | None = None, count: int | None = None, on_step=None) -> tuple[list, float]:
    """Closed loop: issue the next step only after the previous one returns.
    Stops after ``seconds`` of wall time (at least one step) or ``count`` steps."""
    steps = []
    began = time.perf_counter()
    while True:
        if on_step is not None:
            on_step(len(steps))
        steps.append(loop.step())
        elapsed = time.perf_counter() - began
        if (count is not None and len(steps) >= count) or (count is None and elapsed >= seconds):
            return steps, elapsed


def output_checks(spec, prepared, steps, workdir) -> dict:
    import checks

    if spec.trains:
        from pb4u import io as pio
        from pb4u.control import calibrate
        from pb4u.mesh import mean_edge_length
        from pb4u.rollout import SimContext
        from pb4u.train import initial_training_params

        config = prepared.train_config
        scene = pio.load_scene(prepared.scene_path)
        ctrl = calibrate(config.k_base, mean_edge_length(scene.garment))
        ctx = SimContext.build(scene, config.network_config(), ctrl, weights=config.weights)
        errors = checks.first_step_errors(ctx, initial_training_params(config, [scene]))
        errors.update(checks.train_errors([s.output for s in steps if s.ok]))
    else:
        errors = checks.first_step_errors(prepared.ctx, prepared.models[0], prepared.first.states[0].garment_pos)
    errors.update(checks.reference_errors(spec.name, workdir / "reference"))
    return errors


def report_checks(errors: dict) -> int:
    failures = 0
    for name, ratio in errors.items():
        ok = ratio <= 1.0
        failures += not ok
        print(f"check {name}: {'ok' if ok else 'FAILED'} (deviation / tolerance = {ratio:.3g})")
    return failures


def timed_run(spec, args, workdir: Path) -> dict:
    import workloads as wl

    setup_s = []
    for i in range(SETUPS):
        began = time.perf_counter()
        prepared = wl.setup(spec, args.seed, workdir / f"setup{i}")
        setup_s.append(time.perf_counter() - began)
    steps, wall = run_steps(wl.make_loop(spec, prepared), seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    units = sum(s.units for s in steps)
    per_unit_ms = [s.ms / s.units for s in steps]
    failed = sum(s.units for s in steps if not s.ok)
    failed += report_checks(output_checks(spec, prepared, steps, workdir))
    failed = min(failed, units)

    unit = "iteration" if spec.trains else "frame"
    p50 = statistics.median(per_unit_ms)
    print(f"metric setup_s {statistics.median(setup_s):.4f} s (median of {SETUPS} set-ups: "
          + ", ".join(f"{t:.3f}" for t in setup_s) + ")")
    if spec.trains:
        print(f"metric train_iter_ms {1000.0 * wall / units:.3f} ms ({units} iterations in {len(steps)} "
              f"train() calls of {steps[0].units}, buffer refresh amortized)")
    else:
        print(f"metric frames_per_s {units / wall:.4f} frames/s ({units} frames in {wall:.2f} s)")
        print(f"metric frame_ms_p50 {p50:.3f} ms (n={len(steps)})")
        if len(steps) > 1:
            p90 = statistics.quantiles(per_unit_ms, n=10, method="inclusive")[8]
            print(f"metric frame_ms_p90 {p90:.3f} ms (n={len(steps)}; informational)")
    print(f"metric peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"metric fail_ratio {failed / units:.4f} ({failed}/{units} {unit}s)")
    return {
        "correct": failed == 0, "attempted": units, "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "step_ms_p50": {"value": p50, "unit": "ms"},
            "steps_per_s": {"value": units / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }


def layer_metrics(tracer, units: int, table: dict) -> dict:
    summary = tracer.summary()
    timed_counts = tracer.counts["timed"]
    out = {}
    for metric, (source, kind) in table.items():
        if kind == "ms/step":
            row = summary.get(f"timed:{source}")
            value = None if row is None else 1000.0 * row["total_s"] / units
        elif kind == "ms/call":
            rows = [r for key, r in summary.items() if key.split(":", 1)[1] == source]
            calls = sum(r["calls"] for r in rows)
            value = 1000.0 * sum(r["total_s"] for r in rows) / calls if calls else None
        else:
            value = timed_counts[source] / units if source in timed_counts else None
        if value is not None:
            out[metric] = {"value": value, "unit": UNITS.get(source, UNITS.get(kind, "count"))}
    return out


def traced_run(spec, args, workdir: Path) -> dict:
    import spans
    import workloads as wl

    prepared = wl.setup(spec, args.seed, workdir / "untraced")
    plain, plain_s = run_steps(wl.make_loop(spec, prepared), seconds=args.seconds / 2.0)

    tracer = spans.Tracer()
    with tracer.installed():
        traced_prepared = wl.setup(spec, args.seed, workdir / "traced")
        tracer.phase = "timed"
        loop = wl.make_loop(spec, traced_prepared)

        def label_frame(i):   # train() opens its own per-iteration traces
            tracer.trace_id = f"frame-{i}"

        traced, traced_s = run_steps(loop, count=len(plain), on_step=None if spec.trains else label_frame)

    units = sum(s.units for s in traced)
    failed = sum(s.units for s in plain + traced if not s.ok)
    failed += report_checks(output_checks(spec, traced_prepared, traced, workdir))
    attempted = units + sum(s.units for s in plain)
    failed = min(failed, attempted)

    metrics = layer_metrics(tracer, units, LAYER_METRICS)
    metrics["network.propagate_ms_per_k"] = {
        "value": metrics["network.propagate_ms"]["value"] / tracer.gauges["control.k_steps"], "unit": "ms"}
    metrics["control.k_steps"] = {"value": tracer.gauges["control.k_steps"], "unit": "count"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_s / plain_s - 1.0), "unit": "%"}
    extra = layer_metrics(tracer, units, LAYER_METRICS_WHERE_RUN)
    counts = tracer.counts["timed"]
    if counts["train.refreshes"]:
        extra["train.buffer_len"] = {"value": counts["train.buffer_len"] / counts["train.refreshes"], "unit": "count"}
    if counts["train.refresh_rolled"]:
        extra["train.refresh_yield"] = {"value": counts["train.refresh_kept"] / counts["train.refresh_rolled"],
                                        "unit": "count"}

    step = "iteration" if spec.trains else "frame"
    print(f"trace: {units} {step}s untraced {1000.0 * plain_s / units:.2f} ms/{step}, "
          f"traced {1000.0 * traced_s / units:.2f} ms/{step}, overhead {metrics['trace.overhead_pct']['value']:+.2f}%")
    for name, m in list(metrics.items()) + list(extra.items()):
        print(f"layer {name} {m['value']:.6g} {m['unit']}")
    print_self_times(tracer, units, step)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"trace-{spec.name}-seed{args.seed}"
    tracer.write_jsonl(stem.with_suffix(".jsonl"))
    stem.with_suffix(".json").write_text(json.dumps(
        {"context": run_context(args), "metrics": {**metrics, **extra}, "spans": tracer.summary()}, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_self_times(tracer, units: int, step: str) -> None:
    rows = [(name.split(":", 1)[1], r) for name, r in tracer.summary().items() if name.startswith("timed:")]
    rows.sort(key=lambda item: -item[1]["self_s"])
    print(f"self time per {step} (span: calls, inclusive ms, self ms)")
    for name, r in rows:
        print(f"  {name:28s} {r['calls'] / units:9.1f} {1000.0 * r['total_s'] / units:10.2f} "
              f"{1000.0 * r['self_s'] / units:10.2f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pb4u" / "__init__.py").is_file():
        print(f"perfbench: no pb4u sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    print("context " + json.dumps(run_context(args)))
    spec = wl.WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-seed{args.seed}-", dir=work_root))
    try:
        result = (traced_run if args.trace else timed_run)(spec, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
