#!/usr/bin/env python3
"""sha256 digests of training and rollout outputs on the benchmark's inputs.

    python3 scripts/output_digest.py [ROOT]

ROOT is a checkout of this repository (default: the one holding this script);
its ``src`` and ``perfbench`` are imported. Two checkouts print the same
digests exactly when a change keeps the outputs bit-for-bit equal:

  - ``train-base``: the log rows and final parameters of a 6-iteration
    ``train()`` on the benchmark's training inputs (seed 0);
  - ``rollout-fine`` and ``rollout-dense-body``: states and loss rows of a
    4-frame rollout with the first seeded model (seed 0).

BLAS runs on one thread, as in the benchmark.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"   # before numpy loads BLAS

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402
from pb4u import io as pio  # noqa: E402
from pb4u.rollout import SimContext, run_rollout  # noqa: E402
from pb4u.train import train  # noqa: E402


def put_array(h, a) -> None:
    a = np.ascontiguousarray(a)
    h.update(f"{a.dtype}{a.shape}".encode())
    h.update(a.tobytes())


def put_row(h, row) -> None:
    for field in dataclasses.fields(row):
        h.update(f"{field.name}={getattr(row, field.name)!r};".encode())


def main() -> None:
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
        print(f"train-base log     {log.hexdigest()}")
        print(f"train-base params  {params.hexdigest()}")
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
            print(f"{name:<18} {h.hexdigest()}")


if __name__ == "__main__":
    main()
