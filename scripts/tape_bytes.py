#!/usr/bin/env python3
"""Memory one training step keeps on its tape, by op kind.

    python3 scripts/tape_bytes.py [ROOT]

ROOT is a checkout of this repository (default: the one holding this
script); its ``src`` and ``perfbench`` are imported. On the benchmark's
train-base inputs (seed 0) the step is ``train()``'s first iteration: the
free-fall buffer, the frame the config's seed samples first, then
``advance`` and ``frame_loss`` recorded on a tape and one backward.

Per op kind (the ``diffcore`` function that recorded the node) it prints the
nodes, the bytes of their outputs, and the bytes of the other arrays their
pulls' closures reach (each array counted once, node outputs and parameters
left out) after the forward. Then, from tracemalloc, the bytes the forward
allocated and still holds, and the peak the backward reaches above the
memory held before the forward. BLAS runs on one thread, as in the benchmark.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"   # before numpy loads BLAS

import sys
import tempfile
import tracemalloc
from collections import defaultdict
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402
from pb4u import diffcore as dc  # noqa: E402
from pb4u import io as pio  # noqa: E402
from pb4u.control import calibrate  # noqa: E402
from pb4u.mesh import mean_edge_length  # noqa: E402
from pb4u.rollout import SimContext, advance, frame_loss  # noqa: E402
from pb4u.scenes import sample_frame  # noqa: E402
from pb4u.train import initial_training_params, refresh_buffer  # noqa: E402

MB = 1e6


def arrays_held(value, seen):
    """The ndarrays ``value`` reaches that are not in ``seen`` (ids): itself,
    a Tensor's data, the items of a tuple or list, and what the cells of a
    function's closure hold."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dc.Tensor):
        yield from arrays_held(value.data, seen)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_held(item, seen)
    elif callable(value):
        for cell in getattr(value, "__closure__", None) or ():
            yield from arrays_held(cell.cell_contents, seen)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        wl.write_inputs(wl.WORKLOADS["train-base"], 0, Path(tmp))
        config = pio.load_train_config(Path(tmp) / "train.json")
        scene = pio.load_scene(config.scenes[0])
    params = initial_training_params(config, [scene])
    ctrl = calibrate(config.k_base, mean_edge_length(scene.garment))
    ctx = SimContext.build(scene, config.network_config(), ctrl, weights=config.weights)
    refresh_buffer(scene, ctx, params, use_model=False)
    entry = sample_frame(scene, np.random.default_rng(config.seed))

    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    tape = dc.Tape()
    with dc.recording(tape):
        next_state, pred = advance(ctx, entry.state, entry.frame, params)
        loss, _ = frame_loss(ctx, pred, entry.state, next_state)
    held = tracemalloc.get_traced_memory()[0] - before

    seen = {id(t.data) for t in params.named_tensors().values()} | {id(n.out.data) for n in tape.nodes}
    kinds = defaultdict(lambda: [0, 0, 0])   # nodes, output bytes, other bytes held
    for node in tape.nodes:
        row = kinds[node.pull.__qualname__.split(".")[0]]
        row[0] += 1
        row[1] += node.out.data.nbytes
        row[2] += sum(a.nbytes for a in arrays_held(node.pull, seen))
    print(f"{'op':<14} {'nodes':>6} {'out_mb':>9} {'held_mb':>9}")
    for kind, (nodes, out, other) in sorted(kinds.items(), key=lambda kv: -kv[1][1] - kv[1][2]):
        print(f"{kind:<14} {nodes:>6} {out / MB:>9.2f} {other / MB:>9.2f}")
    total_out = sum(row[1] for row in kinds.values())
    total_other = sum(row[2] for row in kinds.values())
    print(f"{'total':<14} {len(tape.nodes):>6} {total_out / MB:>9.2f} {total_other / MB:>9.2f}")

    tracemalloc.reset_peak()
    tape.backward(loss)
    peak = tracemalloc.get_traced_memory()[1] - before
    tracemalloc.stop()
    print(f"forward_held_mb    {held / MB:.1f}")
    print(f"backward_peak_mb   {peak / MB:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
