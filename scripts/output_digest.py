#!/usr/bin/env python3
"""sha256 digests of training and rollout outputs on the benchmark's inputs.

    python3 scripts/output_digest.py [ROOT] [--against DIR]

ROOT is a checkout of this repository (default: the one holding this script);
its ``src`` and ``perfbench`` are imported. Two checkouts print the same
digests exactly when a change keeps the outputs bit-for-bit equal:

  - ``train-base``: the log rows and final parameters of a 6-iteration
    ``train()`` on the benchmark's training inputs (seed 0);
  - ``rollout-fine`` and ``rollout-dense-body``: states and loss rows of a
    4-frame rollout with the first seeded model (seed 0);
  - ``train-pinned``: the log rows, final parameters and final buffer
    states of a 6-iteration ``train()`` on a hang-pinned grid-10 scene, with
    a buffer refresh every 2 iterations and 2-step rollouts, so pinned
    vertices pass through free fall, model refreshes and training steps;
  - ``gradcheck``: the ``repr`` of ``validate.energy_gradchecks(seed)``
    (the ``pb4u gradcheck`` errors) for seeds 0-3;
  - ``cli-files``: the bytes of every file a fixed CLI session writes
    (``gen-scene`` hang-pinned grid 8, a 3-iteration ``train`` at
    ``latent_dim`` 16, ``rollout``, ``eval``, ``sweep-k`` and ``subdivide``):
    the scene, checkpoint, train log, metrics CSV, OBJ frames, sweep CSV,
    subdivided OBJ and the eval report without its ``latency_ms`` and
    ``latency_ms_mean`` lines, the only wall times written.

BLAS runs on one thread, as in the benchmark. ``--against DIR`` also runs
this script on the checkout DIR, in a subprocess with the same environment,
marks each line ``same`` or ``DIFFERENT`` and exits 1 on any difference.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"   # before numpy loads BLAS

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

_parser = argparse.ArgumentParser(description="sha256 digests of training and rollout outputs")
_parser.add_argument("root", nargs="?", default=Path(__file__).resolve().parent.parent)
_parser.add_argument("--against", metavar="DIR", help="compare with the digests of the checkout DIR")
ARGS = _parser.parse_args()
ROOT = Path(ARGS.root).resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402
from pb4u import io as pio  # noqa: E402
from pb4u import validate  # noqa: E402
from pb4u.cli import main as cli  # noqa: E402
from pb4u.rollout import SimContext, run_rollout  # noqa: E402
from pb4u.scenes import hang_pinned_preset  # noqa: E402
from pb4u.train import TrainConfig, train  # noqa: E402


def put_array(h, a) -> None:
    a = np.ascontiguousarray(a)
    h.update(f"{a.dtype}{a.shape}".encode())
    h.update(a.tobytes())


def put_row(h, row) -> None:
    for field in dataclasses.fields(row):
        h.update(f"{field.name}={getattr(row, field.name)!r};".encode())


def cli_files(tmp: Path) -> str:
    """sha256 over the relative path and bytes of every file the session writes
    under ``tmp / "out"``, in path order."""
    out = tmp / "out"
    scene, ckpt, config = out / "scene.json", out / "model.ckpt", tmp / "train.json"
    config.write_text(json.dumps({"scenes": [str(scene)], "iterations": 3, "latent_dim": 16}))
    roll = ["--ckpt", str(ckpt), "--scene", str(scene), "--frames", "3"]
    session = [
        ["gen-scene", "--preset", "hang-pinned", "--grid", "8", "--out", str(scene)],
        ["train", "--config", str(config), "--out", str(ckpt)],
        ["rollout", *roll, "--out-dir", str(out / "frames"), "--metrics", str(out / "metrics.csv")],
        ["eval", *roll, "--report", str(out / "report.json")],
        ["sweep-k", *roll, "--k-range", "1:3", "--out", str(out / "sweep.csv")],
        ["subdivide", "--in", str(out / "frames" / "frame_0002.obj"), "--levels", "1", "--out", str(out / "fine.obj")],
    ]
    out.mkdir()
    for argv in session:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli(argv)
        if code:
            sys.exit(f"pb4u {argv[0]} exited {code}")
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        lines = path.read_bytes().splitlines(keepends=True)
        h.update(f"{path.relative_to(out)}\n".encode())
        h.update(b"".join(line for line in lines if not line.lstrip().startswith(b'"latency_ms')))
    return h.hexdigest()


def digests():
    """Yield the output lines, one ``name  hexdigest`` per digest."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        wl.write_inputs(wl.WORKLOADS["train-base"], 0, tmp / "train")
        config = dataclasses.replace(pio.load_train_config(tmp / "train" / "train.json"), iterations=6)
        result = train(config, [pio.load_scene(p) for p in config.scenes])
        log, params = hashlib.sha256(), hashlib.sha256()
        for row in result.log:
            put_row(log, row)
        for name, t in sorted(result.params.named_tensors().items()):
            params.update(name.encode())
            put_array(params, t.data)
        yield f"train-base log     {log.hexdigest()}"
        yield f"train-base params  {params.hexdigest()}"
        for name in ("rollout-fine", "rollout-dense-body"):
            scene_path = wl.write_inputs(wl.WORKLOADS[name], 0, tmp / name)
            model, config, ctrl = wl.load_model(tmp / name / "model0.ckpt")
            ctx = SimContext.build(pio.load_scene(scene_path), config, ctrl)
            rolled = run_rollout(ctx, model, 4, compute_losses=True)
            h = hashlib.sha256()
            for state in rolled.states:
                put_array(h, state.garment_pos)
                put_array(h, state.garment_vel)
            for row in rolled.losses:
                put_row(h, row)
            yield f"{name:<18} {h.hexdigest()}"
        scene = pio.scene_from_dict(hang_pinned_preset(10, frames=12))
        config = TrainConfig(scenes=[], iterations=6, buffer_refresh=2, rollout_steps=2, latent_dim=16,
                             processor_depth=1, k_base=3, seed=3)
        result = train(config, [scene])
        h = hashlib.sha256()
        for row in result.log:
            put_row(h, row)
        for name, t in sorted(result.params.named_tensors().items()):
            h.update(name.encode())
            put_array(h, t.data)
        for entry in scene.buffer:
            h.update(f"frame={entry.frame};".encode())
            for field in dataclasses.fields(entry.state):
                put_array(h, getattr(entry.state, field.name))
        yield f"train-pinned       {h.hexdigest()}"
    h = hashlib.sha256()
    for seed in range(4):
        h.update(repr(validate.energy_gradchecks(seed)).encode())
    yield f"gradcheck          {h.hexdigest()}"
    with tempfile.TemporaryDirectory() as tmp:
        yield f"cli-files          {cli_files(Path(tmp))}"


def main() -> int:
    if ARGS.against is None:
        for line in digests():
            print(line, flush=True)
        return 0
    other = subprocess.Popen([sys.executable, __file__, ARGS.against], stdout=subprocess.PIPE, text=True)
    ours = list(digests())
    theirs = other.communicate()[0].splitlines()
    if other.returncode:
        print(f"digests of {ARGS.against} failed with exit code {other.returncode}", file=sys.stderr)
        return 1
    differ = False
    for mine, base in zip_longest(ours, theirs):
        if mine == base:
            print(f"{mine}  same")
        else:
            differ = True
            print(f"{mine}  DIFFERENT ({ARGS.against}: {base})")
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
