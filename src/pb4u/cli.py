"""Command-line surface.

Exit codes are a stable scripting contract:
    0  success
    1  usage error (bad flags, bad values)
    2  io/format error (missing or malformed files)
    3  numeric divergence (rollout produced non-finite positions)

sweep-k evaluates its K points on ``diffcore.worker_pool``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import diffcore as dc
from . import io as pio
from . import network as net
from . import validate
from .control import calibrate
from .errors import (
    ConfigMismatch,
    FormatError,
    InvalidArgument,
    InvalidMesh,
    InvalidState,
    NumericDivergence,
    UsageError,
    check_writable,
    write_file,
)
from .graph import EDGE_FEATURE_DIM, VERTEX_FEATURE_DIM
from .mesh import load_obj_mesh, subdivide_midpoint, write_obj
from .rollout import RolloutResult, SimContext, evaluation_report, run_rollout, write_loss_csv, write_rollout_outputs
from .scenes import PRESETS
from .train import TRAIN_LOG_COLUMNS, train

GRADCHECK_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pb4u", description="Neural cloth simulation engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="write a deterministic procedural scene file")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p.add_argument("--grid", type=int, required=True, help="garment grid resolution n (n x n vertices)")
    p.add_argument("--out", required=True)
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--frames", type=int, default=48)
    p.add_argument("--dt", type=float, default=0.02)
    p.set_defaults(run=_cmd_gen_scene)

    p = sub.add_parser("train", help="train from a config file, write checkpoint + log CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="training log CSV (default: <out>.log.csv)")
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p.set_defaults(run=_cmd_train)

    p = sub.add_parser("rollout", help="autoregressive rollout to OBJ frames + metrics CSV")
    _rollout_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--metrics", required=True)
    p.set_defaults(run=_cmd_rollout)

    p = sub.add_parser("eval", help="rollout and write an aggregate evaluation report")
    _rollout_flags(p)
    p.add_argument("--report", required=True)
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("sweep-k", help="evaluate a range of forced propagation depths")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--k-range", required=True, help="A:B inclusive")
    p.add_argument("--frames", type=_int_at_least(1), default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_sweep_k)

    p = sub.add_parser("gradcheck", help="finite-difference check of every energy gradient")
    p.add_argument("--seed", type=int, default=0, help="seed of the random probe scene")
    p.set_defaults(run=_cmd_gradcheck)

    p = sub.add_parser("subdivide", help="midpoint-subdivide an OBJ mesh")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--levels", type=_int_at_least(1), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_subdivide)
    return parser


def _rollout_flags(p) -> None:
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--frames", type=_int_at_least(1), required=True)
    p.add_argument("--no-adaptive-k", action="store_true", help="force K = K_base regardless of resolution")
    p.add_argument("--no-update-scaling", action="store_true", help="disable per-vertex acceleration scaling")
    p.add_argument("--forced-k", type=_int_at_least(0), default=None, help="override the propagation depth outright")


def _int_at_least(least: int):
    """argparse type for an integer flag that must be >= ``least``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _load_model(ckpt_path):
    params, meta = pio.load_checkpoint(
        ckpt_path, expect_vertex_dim=VERTEX_FEATURE_DIM, expect_edge_dim=EDGE_FEATURE_DIM
    )
    for key in ("gamma", "k_base", "l_base"):
        if key not in meta:
            raise FormatError(f"{ckpt_path}: checkpoint is missing meta.{key}")
    try:
        config = net.NetworkConfig(latent_dim=params.latent_dim, gamma=meta["gamma"],
                                   processor_depth=len(params.blocks))
        ctrl = calibrate(meta["k_base"], meta["l_base"])
    except InvalidArgument as exc:   # each message starts with the key's name
        raise FormatError(f"{ckpt_path}: meta.{exc}") from exc
    return params, config, ctrl


def _roll(args) -> tuple[SimContext, RolloutResult]:
    """Load the model and the scene, build the context the rollout flags ask
    for and roll out ``--frames`` frames."""
    params, config, ctrl = _load_model(args.ckpt)
    forced_k = args.forced_k
    if forced_k is None and args.no_adaptive_k:
        forced_k = ctrl.k_base
    ctx = SimContext.build(
        pio.load_scene(args.scene), config, ctrl, update_scaling=not args.no_update_scaling, forced_k=forced_k
    )
    return ctx, run_rollout(ctx, params, args.frames)


def _cmd_gen_scene(args) -> int:
    check_writable(args.out, "scene")
    scene_dict = PRESETS[args.preset](args.grid, side=args.side, frames=args.frames, dt=args.dt)
    pio.scene_from_dict(scene_dict)  # round-trip validation before writing
    pio.save_scene(scene_dict, args.out)
    print(f"wrote scene {args.out}")
    return 0


def _cmd_train(args) -> int:
    log_path = args.log if args.log else f"{args.out}.log.csv"
    check_writable(args.out, "checkpoint")
    check_writable(log_path, "loss CSV")
    config = pio.load_train_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    scenes = [pio.load_scene(p) for p in config.scenes]
    result = train(config, scenes, diagnostics_dir=Path(args.out).parent)
    pio.save_checkpoint(result.params, args.out, meta=result.checkpoint_meta())
    write_loss_csv(result.log_rows(), log_path, "iter", TRAIN_LOG_COLUMNS)
    first, last = result.log[0].total, result.log[-1].total
    print(f"trained {config.iterations} iterations: total {first:.6g} -> {last:.6g}")
    print(f"wrote checkpoint {args.out} and log {log_path}")
    return 0


def _cmd_rollout(args) -> int:
    check_writable(args.out_dir, "OBJ frames", folder=True)
    check_writable(args.metrics, "loss CSV")
    ctx, result = _roll(args)
    write_rollout_outputs(result, ctx.scene, args.out_dir, args.metrics)
    print(f"rolled {len(result.states)}/{args.frames} frames at K={ctx.k_steps} into {args.out_dir}")
    if result.diverged:
        print(f"numeric divergence at frame {result.diverged_at}; partial outputs retained", file=sys.stderr)
        return 3
    return 0


def _cmd_eval(args) -> int:
    check_writable(args.report, "report")
    ctx, result = _roll(args)
    report = evaluation_report(ctx, result)
    write_file(args.report, json.dumps(report, indent=2, sort_keys=True) + "\n", "report")
    print(f"evaluated {len(result.losses)} frames at K={ctx.k_steps}; report: {args.report}")
    if result.diverged:
        print(f"numeric divergence at frame {result.diverged_at}", file=sys.stderr)
        return 3
    return 0


def _parse_k_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise UsageError(f"--k-range must be A:B, got {text!r}") from exc
    if lo < 0 or hi < lo:
        raise UsageError(f"--k-range needs 0 <= A <= B, got {text!r}")
    return lo, hi


def _cmd_sweep_k(args) -> int:
    lo, hi = _parse_k_range(args.k_range)
    check_writable(args.out, "sweep-k CSV")
    params, config, ctrl = _load_model(args.ckpt)

    scene = pio.load_scene(args.scene)  # shared by the points: a rollout never mutates its scene

    def evaluate(k: int):
        ctx = SimContext.build(scene, config, ctrl, forced_k=k)
        result = run_rollout(ctx, params, args.frames)
        totals = [row.total for row in result.losses]
        mean_total = float(np.mean(totals)) if totals else float("nan")
        return k, mean_total, result.diverged

    rows = list(dc.worker_pool().map(evaluate, range(lo, hi + 1)))
    write_file(args.out, "k,total\n" + "".join(f"{k},{total!r}\n" for k, total, _ in rows), "sweep-k CSV")
    print(f"swept K={lo}..{hi} over {args.frames} frames -> {args.out}")
    if any(diverged for _, _, diverged in rows):
        print("some sweep points diverged", file=sys.stderr)
        return 3
    return 0


def _cmd_gradcheck(args) -> int:
    errors = validate.energy_gradchecks(args.seed)
    ok = True
    print(f"{'term':<10} {'max rel error':>14}   limit {GRADCHECK_TOLERANCE:g}")
    for name in validate.ENERGY_NAMES:
        err = errors[name]
        status = "ok" if err <= GRADCHECK_TOLERANCE else "FAIL"
        ok = ok and err <= GRADCHECK_TOLERANCE
        print(f"{name:<10} {err:>14.3e}   {status}")
    return 0 if ok else 1


def _cmd_subdivide(args) -> int:
    check_writable(args.out, "OBJ")
    mesh = load_obj_mesh(args.in_path)
    for _ in range(args.levels):
        mesh = subdivide_midpoint(mesh)
    write_obj(args.out, mesh.rest_positions, mesh.triangles)
    print(f"subdivided {args.levels}x: {mesh.vertex_count} vertices, {mesh.triangles.shape[0]} triangles")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InvalidArgument, InvalidMesh, InvalidState) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except (OSError, FormatError, ConfigMismatch) as exc:   # IoError is an OSError, as is a failed mkdir
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericDivergence as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
