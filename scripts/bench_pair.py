#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written as one BENCH file.

    python3 scripts/bench_pair.py PARENT_DIR --workload rollout-fine --pairs 10 --out BENCH_<n>.json

Runs ``perfbench/run.py --trace 0`` of PARENT_DIR and of the checkout that
holds this script (the child) in alternation, each run as long as
``BENCHMARK.json``'s ``run_seconds``: pair i uses seed ``FIRST_SEED + i``, and
the parent runs first in even pairs and second in odd ones, so that a drift
of the host's speed hits both sides alike. Several ``--workload`` names run
one after another into the same file.

For every end-to-end metric of ``BENCHMARK.json`` the file holds each
side's values, median and quartiles, the child's wins (pairs in which the
child is better, in the metric's direction), the change of the medians in
percent and whether that change exceeds the parent's interquartile range;
plus the failed operations of each side, the machine, BLAS and each side's
``src/`` line count as ``perfbench/run.py`` reports them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("cpu", "nproc", "python", "numpy", "blas", "blas_threads")
FIRST_SEED = 101   # above the small seeds used while building and tracing


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run of the checkout ``root``: (context, result line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_pair: {' '.join(cmd)} in {root} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    context = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("context "))
    return context, json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def summarize(runs: dict, end_to_end: list) -> dict:
    metrics = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        child = [r["metrics"][name]["value"] for r in runs["child"]]
        p, c = spread(parent), spread(child)
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], "parent": p, "child": c,
            "child_wins": sum((b < a) if lower else (b > a) for a, b in zip(parent, child)),
            "median_change_pct": 100.0 * (c["median"] / p["median"] - 1.0),
            "change_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
        }
    return {
        "pairs": len(runs["parent"]),
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR", help="checkout to compare against")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"{parent} has no perfbench/run.py")
    benchmark = json.loads((CHILD / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    roots = {"parent": parent, "child": CHILD}
    report = {"seconds": seconds, "seeds": list(range(FIRST_SEED, FIRST_SEED + args.pairs)),
              "order": "parent first in even pairs, child first in odd pairs", "workloads": {}}
    for workload in args.workload:
        runs = {"parent": [], "child": []}
        for i, seed in enumerate(report["seeds"]):
            for side in ("parent", "child") if i % 2 == 0 else ("child", "parent"):
                context, result = run_once(roots[side], workload, seed, seconds)
                runs[side].append(result)
                report["machine"] = {k: context[k] for k in MACHINE_KEYS}
                report.setdefault("src_lines", {})[side] = context["src_lines"]
                step = result["metrics"]["step_ms_p50"]["value"]
                print(f"{workload} seed {seed} {side}: step_ms_p50 {step:.1f} ms, "
                      f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        report["workloads"][workload] = summarize(runs, benchmark["end_to_end"])
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
