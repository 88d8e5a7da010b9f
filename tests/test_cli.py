"""Command-line contract: exit codes, determinism, file outputs."""

import json
import struct

import numpy as np
import pytest

from pb4u import diffcore as dc
from pb4u import io as pio
from pb4u.cli import _build_parser, main
from pb4u.control import calibrate, propagation_steps
from pb4u.mesh import load_obj_mesh, make_grid_cloth, mean_edge_length, write_obj, DEFAULT_MATERIAL
from pb4u.scenes import drape_sphere_preset


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Scene + tiny trained checkpoint shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    scene = root / "scene.json"
    assert main(["gen-scene", "--preset", "drape-sphere", "--grid", "8", "--out", str(scene), "--frames", "12"]) == 0
    config = {
        "iterations": 8,
        "seed": 5,
        "scenes": ["scene.json"],
        "k_base": 3,
        "processor_depth": 1,
        "latent_dim": 32,
        "buffer_refresh": 4,
    }
    cfg_path = root / "train.json"
    cfg_path.write_text(json.dumps(config))
    ckpt = root / "model.ckpt"
    assert main(["train", "--config", str(cfg_path), "--out", str(ckpt)]) == 0
    return root


def test_gen_scene_counts_and_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen-scene", "--preset", "drape-sphere", "--grid", "24", "--out", str(a)]) == 0
    assert main(["gen-scene", "--preset", "drape-sphere", "--grid", "24", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    scene = pio.load_scene(a)
    assert scene.garment.vertex_count == 576


def test_gen_scene_usage_errors(tmp_path):
    assert main(["gen-scene", "--preset", "drape-sphere", "--grid", "1", "--out", str(tmp_path / "x.json")]) == 1
    assert main(["gen-scene", "--preset", "nonsense", "--grid", "8", "--out", str(tmp_path / "x.json")]) == 1


@pytest.mark.parametrize("flag, value, named", [
    ("--dt", "0", "dt"), ("--dt", "-1", "dt"), ("--dt", "nan", "dt"),
    ("--frames", "0", "frames"), ("--frames", "-3", "frames"), ("--side", "inf", "side"),
])
def test_gen_scene_names_the_bad_flag(tmp_path, capsys, flag, value, named):
    out = tmp_path / "x.json"
    assert main(["gen-scene", "--preset", "hang-pinned", "--grid", "4", "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {named} must be ") and "Warning" not in err
    assert not out.exists()


def test_train_missing_config_is_io_error(tmp_path):
    assert main(["train", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "m.ckpt")]) == 2


HUGE = 10**400   # an integer past the float range: not a finite number


@pytest.mark.parametrize("field, value", [
    ("iterations", 2.5), ("latent_dim", 8.5), ("processor_depth", 1.5), ("rollout_steps", 1.5),
    ("seed", 1.5), ("weights", {"stretch": "a"}), ("beta1", 1.0), ("epsilon", 0.0),
    ("buffer_refresh", 2.5), ("k_base", 8.5), ("iterations", True), ("grad_clip", -1),
    *(pytest.param(field, HUGE, id=f"{field}-10**400") for field in ("learning_rate", "gamma", "grad_clip", "k_base")),
    pytest.param("weights", {"stretch": HUGE}, id="weights.stretch-10**400"),
])
def test_train_bad_config_value_is_format_error(tmp_path, capsys, field, value):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"scenes": ["scene.json"], "iterations": 1, field: value}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad training config" in err and err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("path, value", [
    (("dt",), "a"), (("gravity",), None), (("world_edge_radius",), "x"), (("frames",), 2.5),
    (("garment", "n"), "x"), (("garment", "origin"), "ab"), (("garment", "pinned"), [1.5]),
    (("body", "keyframes"), "abc"), (("body", "lat"), 12.7), (("material", "lame_mu"), "x"),
    (("world_edge_radius",), -1.0), (("dt",), 0.0), (("contact_margin",), -1.0),
    pytest.param(("garment", "pinned"), [HUGE], id="garment.pinned-[10**400]"),   # past int64
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else json.dumps(v))
def test_train_bad_scene_value_is_format_error(tmp_path, capsys, path, value):
    doc = drape_sphere_preset(4, frames=4)
    *sections, key = path
    target = doc
    for section in sections:
        target = target[section]
    target[key] = value
    (tmp_path / "scene.json").write_text(json.dumps(doc))
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"scenes": ["scene.json"], "iterations": 1}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


def test_train_names_the_bad_scene_file(tmp_path, capsys):
    good, bad = drape_sphere_preset(4, frames=4), drape_sphere_preset(4, frames=4)
    bad["garment"]["pinned"] = [HUGE]
    (tmp_path / "good.json").write_text(json.dumps(good))
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"scenes": ["good.json", "bad.json"], "iterations": 1}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "bad.json") in err and "good.json" not in err


@pytest.mark.parametrize("field, value", [
    ("latent_dim", HUGE), ("latent_dim", 2**40), ("latent_dim", 1025),
    ("processor_depth", HUGE), ("processor_depth", 17),
], ids=["latent_dim-10**400", "latent_dim-2**40", "latent_dim-1025", "processor_depth-10**400",
        "processor_depth-17"])
def test_train_model_too_large_to_build_is_format_error(tmp_path, capsys, field, value):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"scenes": ["scene.json"], "iterations": 1, field: value}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be <= " in err and err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


def test_train_log_has_one_row_per_iteration(workdir):
    log = (workdir / "model.ckpt.log.csv").read_text().strip().splitlines()
    assert log[0] == "iter,stretch,bending,collision,gravity,friction,inertia,total,grad_norm,buffer_len,k_steps"
    assert len(log) == 1 + 8
    for line in log[1:]:
        row = dict(zip(log[0].split(","), line.split(",")))
        assert float(row["grad_norm"]) > 0 and int(row["buffer_len"]) >= 1 and int(row["k_steps"]) == 3


def test_train_deterministic_checkpoints(workdir, tmp_path):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({
        "iterations": 4, "seed": 9, "scenes": [str(workdir / "scene.json")],
        "k_base": 3, "processor_depth": 1, "latent_dim": 32, "buffer_refresh": 2,
    }))
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    assert main(["train", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rollout_outputs_and_metrics(workdir, tmp_path):
    out_dir = tmp_path / "frames"
    metrics = tmp_path / "metrics.csv"
    rc = main(["rollout", "--ckpt", str(workdir / "model.ckpt"), "--scene", str(workdir / "scene.json"),
               "--frames", "1", "--out-dir", str(out_dir), "--metrics", str(metrics)])
    assert rc == 0
    objs = sorted(out_dir.glob("frame_*.obj"))
    assert [p.name for p in objs] == ["frame_0000.obj"]
    rows = metrics.read_text().strip().splitlines()
    assert rows[0] == "frame,stretch,bending,collision,inertia,gravity,friction,total"
    assert len(rows) == 2


def test_rollout_determinism(workdir, tmp_path):
    args = ["rollout", "--ckpt", str(workdir / "model.ckpt"), "--scene", str(workdir / "scene.json"), "--frames", "3"]
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out-dir", str(d1), "--metrics", str(tmp_path / "m1.csv")]) == 0
    assert main(args + ["--out-dir", str(d2), "--metrics", str(tmp_path / "m2.csv")]) == 0
    for name in ("frame_0000.obj", "frame_0001.obj", "frame_0002.obj"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert (tmp_path / "m1.csv").read_text() == (tmp_path / "m2.csv").read_text()


def test_no_update_scaling_identical_when_scale_is_unit(workdir, tmp_path):
    # equilateral garment whose three edges compute to exactly 1.0, so every
    # scale factor is exactly 1 and the ablation flag cannot change anything
    from pb4u.mesh import TriMesh, rest_scale_factors
    from pb4u.scenes import drape_sphere_preset

    z = np.float64(0.8660254037844387)  # one ulp above sqrt(3)/2: edge norms == 1.0
    positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, z]])
    tri = TriMesh.from_triangles(positions, np.array([[0, 2, 1]]), DEFAULT_MATERIAL)
    assert np.all(rest_scale_factors(tri).s == 1.0)
    obj_path = tmp_path / "equilateral.obj"
    write_obj(obj_path, tri.rest_positions, tri.triangles)

    doc = drape_sphere_preset(8, frames=4)
    doc["garment"] = {"kind": "obj", "path": obj_path.name, "origin": [0.0, 0.3, 0.0], "pinned": []}
    scene_path = tmp_path / "unit_scale.json"
    pio.save_scene(doc, scene_path)

    base_args = ["rollout", "--ckpt", str(workdir / "model.ckpt"), "--scene", str(scene_path), "--frames", "2"]
    d1, d2 = tmp_path / "scaled", tmp_path / "unscaled"
    assert main(base_args + ["--out-dir", str(d1), "--metrics", str(tmp_path / "m1.csv")]) == 0
    assert main(base_args + ["--no-update-scaling", "--out-dir", str(d2), "--metrics", str(tmp_path / "m2.csv")]) == 0
    for name in ("frame_0000.obj", "frame_0001.obj"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert (tmp_path / "m1.csv").read_text() == (tmp_path / "m2.csv").read_text()


def test_sweep_k_csv_is_the_same_for_any_pool_size(workdir, tmp_path, monkeypatch):
    base = ["sweep-k", "--ckpt", str(workdir / "model.ckpt"), "--scene", str(workdir / "scene.json"),
            "--frames", "1", "--k-range", "1:3"]
    csvs = []
    for size in (1, 3):
        pool = dc.WorkerPool(size)
        monkeypatch.setattr(dc, "_pool", pool)
        csvs.append(tmp_path / f"pool{size}.csv")
        try:
            assert main(base + ["--out", str(csvs[-1])]) == 0
        finally:
            pool.shutdown()
    assert csvs[0].read_text() == csvs[1].read_text()


def test_eval_report_contract(workdir, tmp_path):
    report_path = tmp_path / "report.json"
    rc = main(["eval", "--ckpt", str(workdir / "model.ckpt"), "--scene", str(workdir / "scene.json"),
               "--frames", "4", "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert len(report["frames"]) == 4
    for column in ("stretch", "bending", "collision", "inertia", "gravity", "friction", "total"):
        mean = np.mean([row[column] for row in report["frames"]])
        assert report["aggregate"][column] == pytest.approx(mean, rel=1e-12, abs=1e-300)
    # K in the report equals the control arithmetic recomputed independently
    scene = pio.load_scene(workdir / "scene.json")
    _, meta = pio.load_checkpoint(workdir / "model.ckpt")
    ctrl = calibrate(int(meta["k_base"]), meta["l_base"])
    assert report["mesh"]["k_steps"] == propagation_steps(ctrl, mean_edge_length(scene.garment))
    assert report["mesh"]["triangles"] == scene.garment.triangles.shape[0]
    assert all(np.isfinite(row["latency_ms"]) for row in report["frames"])


def test_eval_report_frame_geometry(workdir, tmp_path):
    """Each report frame's world-edge count, deepest penetration and greatest
    edge stretch, recomputed by brute force from the rollout's OBJ frames."""
    common = ["--ckpt", str(workdir / "model.ckpt"), "--scene", str(workdir / "scene.json"), "--frames", "4"]
    assert main(["eval", *common, "--report", str(tmp_path / "report.json")]) == 0
    assert main(["rollout", *common, "--out-dir", str(tmp_path / "frames"), "--metrics", str(tmp_path / "m.csv")]) == 0
    frames = json.loads((tmp_path / "report.json").read_text())["frames"]
    scene = pio.load_scene(workdir / "scene.json")
    rest = scene.garment.rest_positions
    i, j = scene.garment.edges.T
    for f, row in enumerate(frames):
        pos = load_obj_mesh(tmp_path / "frames" / f"frame_{f:04d}.obj").rest_positions
        body = scene.body_positions(f + 1)
        delta = pos[:, None, :] - body[None, :, :]
        assert row["world_edges"] == int(((delta * delta).sum(axis=2) < scene.world_radius ** 2).sum())
        depth = scene.body.radius - np.sqrt(((pos - scene.body.center_at((f + 1) * scene.dt)) ** 2).sum(axis=1))
        assert row["max_penetration"] == pytest.approx(max(0.0, depth.max()), rel=1e-12, abs=1e-15)
        ratio = np.sqrt(((pos[j] - pos[i]) ** 2).sum(axis=1) / ((rest[j] - rest[i]) ** 2).sum(axis=1))
        assert row["max_stretch"] == pytest.approx(ratio.max(), rel=1e-12)
    assert any(row["world_edges"] > 0 for row in frames)


def test_eval_subdivided_scene_needs_k_at_least_base(workdir, tmp_path):
    scene = pio.load_scene(workdir / "scene.json")
    fine_doc = json.loads((workdir / "scene.json").read_text())
    fine_doc["garment"] = {"kind": "grid", "n": 15, "side": 1.0, "plane": "xz",
                           "origin": [0.0, 0.0, 0.0], "pinned": []}
    fine_path = tmp_path / "fine.json"
    pio.save_scene(fine_doc, fine_path)
    base_report, fine_report = tmp_path / "base.json", tmp_path / "fine_report.json"
    assert main(["eval", "--ckpt", str(workdir / "model.ckpt"), "--scene", str(workdir / "scene.json"),
                 "--frames", "1", "--report", str(base_report)]) == 0
    assert main(["eval", "--ckpt", str(workdir / "model.ckpt"), "--scene", str(fine_path),
                 "--frames", "1", "--report", str(fine_report)]) == 0
    k_base = json.loads(base_report.read_text())["mesh"]["k_steps"]
    k_fine = json.loads(fine_report.read_text())["mesh"]["k_steps"]
    assert k_fine >= k_base


def test_eval_k_flags(workdir, tmp_path):
    """K follows the mesh unless --no-adaptive-k pins it to K_base or
    --forced-k sets it; --forced-k wins when both are given."""
    fine_doc = json.loads((workdir / "scene.json").read_text())
    fine_doc["garment"]["n"] = 15
    fine_path = tmp_path / "fine.json"
    pio.save_scene(fine_doc, fine_path)
    _, meta = pio.load_checkpoint(workdir / "model.ckpt")

    def k_steps(*flags):
        report = tmp_path / "report.json"
        assert main(["eval", "--ckpt", str(workdir / "model.ckpt"), "--scene", str(fine_path),
                     "--frames", "1", "--report", str(report), *flags]) == 0
        return json.loads(report.read_text())["mesh"]["k_steps"]

    k_base = int(meta["k_base"])
    assert k_steps() > k_base
    assert k_steps("--no-adaptive-k") == k_base
    assert k_steps("--forced-k", "5") == 5
    assert k_steps("--no-adaptive-k", "--forced-k", "2") == 2


def test_sweep_k_rows_and_determinism(workdir, tmp_path):
    base = ["sweep-k", "--ckpt", str(workdir / "model.ckpt"), "--scene", str(workdir / "scene.json"),
            "--frames", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(base + ["--k-range", "3:3", "--out", str(a)]) == 0
    assert len(a.read_text().strip().splitlines()) == 2  # header + single row
    assert main(base + ["--k-range", "1:4", "--out", str(a)]) == 0
    assert main(base + ["--k-range", "1:4", "--out", str(b)]) == 0
    rows = a.read_text().strip().splitlines()
    assert rows[0] == "k,total"
    assert len(rows) == 5
    assert [int(r.split(",")[0]) for r in rows[1:]] == [1, 2, 3, 4]
    assert a.read_text() == b.read_text()
    assert main(base + ["--k-range", "4:1", "--out", str(a)]) == 1


@pytest.mark.parametrize("command, frames, rest", [
    ("rollout", "-2", ["--out-dir", "{tmp}/frames", "--metrics", "{tmp}/m.csv"]),
    ("eval", "0", ["--report", "{tmp}/r.json"]),
    ("sweep-k", "-1", ["--k-range", "1:2", "--out", "{tmp}/k.csv"]),
])
def test_frames_below_one_is_a_usage_error(workdir, tmp_path, capsys, command, frames, rest):
    args = [command, "--ckpt", str(workdir / "model.ckpt"), "--scene", str(workdir / "scene.json"),
            "--frames", frames] + [arg.format(tmp=tmp_path) for arg in rest]
    assert main(args) == 1
    assert "usage error: argument --frames: must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# was an InvalidArgument raised by propagate after the model and scene loaded;
# the checkpoint here does not exist, so only a parse-time check gives exit 1
@pytest.mark.parametrize("command, rest", [
    ("rollout", ["--out-dir", "{tmp}/frames", "--metrics", "{tmp}/m.csv"]),
    ("eval", ["--report", "{tmp}/r.json"]),
])
def test_forced_k_below_zero_is_a_usage_error(tmp_path, capsys, command, rest):
    args = [command, "--ckpt", str(tmp_path / "missing.ckpt"), "--scene", str(tmp_path / "missing.json"),
            "--frames", "1", "--forced-k", "-1"] + [arg.format(tmp=tmp_path) for arg in rest]
    assert main(args) == 1
    assert capsys.readouterr().err == "usage error: argument --forced-k: must be >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


def test_gradcheck_passes():
    assert main(["gradcheck", "--seed", "3"]) == 0


@pytest.mark.parametrize("args", [
    ["gen-scene", "--preset", "drape-sphere", "--grid", "4", "--out", "{tmp}/s.json"],
    ["rollout", "--ckpt", "{work}/model.ckpt", "--scene", "{work}/scene.json", "--frames", "1",
     "--out-dir", "{tmp}/frames", "--metrics", "{tmp}/m.csv"],
    ["eval", "--ckpt", "{work}/model.ckpt", "--scene", "{work}/scene.json", "--frames", "1",
     "--report", "{tmp}/r.json"],
    ["sweep-k", "--ckpt", "{work}/model.ckpt", "--scene", "{work}/scene.json", "--k-range", "1:2",
     "--out", "{tmp}/k.csv"],
    ["subdivide", "--in", "{tmp}/g.obj", "--levels", "1", "--out", "{tmp}/o.obj"],
])
def test_seed_is_a_usage_error_where_nothing_is_random(workdir, tmp_path, capsys, args):
    argv = [arg.format(tmp=tmp_path, work=workdir) for arg in args] + ["--seed", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "usage error: unrecognized arguments: --seed 3\n"
    assert list(tmp_path.iterdir()) == []


def test_seed_is_parsed_where_it_is_used():
    parser = _build_parser()
    assert parser.parse_args(["train", "--config", "c.json", "--out", "m.ckpt", "--seed", "4"]).seed == 4
    assert parser.parse_args(["train", "--config", "c.json", "--out", "m.ckpt"]).seed is None
    assert parser.parse_args(["gradcheck"]).seed == 0


def test_subdivide_growth_and_roundtrip(tmp_path, capsys):
    grid = make_grid_cloth(2, 1.0, DEFAULT_MATERIAL)
    src = tmp_path / "base.obj"
    write_obj(src, grid.rest_positions, grid.triangles)
    once = tmp_path / "once.obj"
    assert main(["subdivide", "--in", str(src), "--levels", "1", "--out", str(once)]) == 0
    assert load_obj_mesh(once).triangles.shape[0] == 8
    twice = tmp_path / "twice.obj"
    assert main(["subdivide", "--in", str(src), "--levels", "2", "--out", str(twice)]) == 0
    mesh = load_obj_mesh(twice)
    assert mesh.triangles.shape[0] == 32
    assert np.all(mesh.rest_edge_lengths > 0)
    capsys.readouterr()
    assert main(["subdivide", "--in", str(src), "--levels", "0", "--out", str(twice)]) == 1
    assert capsys.readouterr().err == "usage error: argument --levels: must be >= 1, got 0\n"


def test_subdivide_bad_obj_is_format_error(tmp_path):
    bad = tmp_path / "bad.obj"
    bad.write_text("v 0 0 0\nf 1 2 3 4\n")
    assert main(["subdivide", "--in", str(bad), "--levels", "1", "--out", str(tmp_path / "o.obj")]) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_subdivide_nonfinite_obj_is_format_error(tmp_path, value):
    bad = tmp_path / "bad.obj"
    bad.write_text(f"v {value} 0 0\nv 1 0 0\nv 0 0 1\nf 1 3 2\n")
    assert main(["subdivide", "--in", str(bad), "--levels", "1", "--out", str(tmp_path / "o.obj")]) == 2
    assert not (tmp_path / "o.obj").exists()


def test_subdivide_face_index_past_last_vertex_is_format_error(tmp_path):
    bad = tmp_path / "bad.obj"
    bad.write_text("v 0 0 0\nv 1 0 0\nv 0 0 1\nf 1 3 9\n")
    assert main(["subdivide", "--in", str(bad), "--levels", "1", "--out", str(tmp_path / "o.obj")]) == 2
    assert not (tmp_path / "o.obj").exists()


def test_subdivide_stray_vertex_obj_is_invalid_mesh(tmp_path):
    bad = tmp_path / "stray.obj"
    bad.write_text("v 0 0 0\nv 1 0 0\nv 0 0 1\nv 5 5 5\nf 1 3 2\n")
    assert main(["subdivide", "--in", str(bad), "--levels", "1", "--out", str(tmp_path / "o.obj")]) == 1
    assert not (tmp_path / "o.obj").exists()


def test_subdivide_non_manifold_obj_is_invalid_mesh(tmp_path):
    bad = tmp_path / "fan.obj"
    bad.write_text("v 0 0 0\nv 1 0 0\nv 0.5 1 0\nv 0.5 -1 0\nv 0.5 0 1\nf 1 2 3\nf 2 1 4\nf 1 2 5\n")
    assert main(["subdivide", "--in", str(bad), "--levels", "1", "--out", str(tmp_path / "o.obj")]) == 1


def test_corrupt_checkpoint_exit_code(workdir, tmp_path):
    blob = bytearray((workdir / "model.ckpt").read_bytes())
    header_len = struct.unpack_from("<Q", blob, 12)[0]
    blob[8 + 4 + 8 + header_len + 64] ^= 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    rc = main(["rollout", "--ckpt", str(bad), "--scene", str(workdir / "scene.json"),
               "--frames", "1", "--out-dir", str(tmp_path / "f"), "--metrics", str(tmp_path / "m.csv")])
    assert rc == 2


def _unwritable_or_undecodable(case, workdir, tmp_path):
    """The argv of one case and the path its error must name."""
    ckpt, scene = str(workdir / "model.ckpt"), str(workdir / "scene.json")
    folder, file = tmp_path / "folder", tmp_path / "file"
    folder.mkdir()
    file.write_text("")
    roll = ["--ckpt", ckpt, "--scene", scene, "--frames", "1"]
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"scenes": [scene], "iterations": 1, "latent_dim": 4, "processor_depth": 0}))
    bad = tmp_path / "bad.json"
    if case == "eval --report DIR":
        return ["eval", *roll, "--report", str(folder)], folder
    if case == "rollout --metrics DIR":
        return ["rollout", *roll, "--out-dir", str(tmp_path / "frames"), "--metrics", str(folder)], folder
    if case == "rollout --out-dir FILE":
        return ["rollout", *roll, "--out-dir", str(file), "--metrics", str(tmp_path / "m.csv")], file
    if case == "sweep-k --out DIR":
        return ["sweep-k", *roll, "--k-range", "1:2", "--out", str(folder)], folder
    if case == "train --log DIR":
        return ["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt"), "--log", str(folder)], folder
    if case == "scene not UTF-8":
        bad.write_bytes((workdir / "scene.json").read_bytes().replace(b'"pb4u-scene"', b'"pb4u-scene\xff"'))
        return ["eval", "--ckpt", ckpt, "--scene", str(bad), "--frames", "1", "--report", str(tmp_path / "r")], bad
    bad.write_bytes(cfg.read_bytes().replace(b'"scenes": [', b'"scenes": ["\xff", '))
    return ["train", "--config", str(bad), "--out", str(tmp_path / "m.ckpt")], bad


@pytest.mark.parametrize("case", [
    "eval --report DIR", "rollout --metrics DIR", "rollout --out-dir FILE", "sweep-k --out DIR",
    "train --log DIR", "scene not UTF-8", "training config not UTF-8",
])
def test_unwritable_output_or_undecodable_input_is_io_error(workdir, tmp_path, capsys, case):
    argv, named = _unwritable_or_undecodable(case, workdir, tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(named) in err
    assert sorted(tmp_path.rglob("*")) == before   # the bad path is found before the work writes anything


@pytest.mark.parametrize("field, value", [("shape", ["a"]), ("shape", 5), ("shape", [2, -2]), ("byte_offset", "x")],
                         ids=lambda v: v if v in ("shape", "byte_offset") else json.dumps(v))
def test_eval_bad_checkpoint_header_entry_is_format_error(workdir, tmp_path, capsys, field, value):
    blob = (workdir / "model.ckpt").read_bytes()
    header_len = struct.unpack_from("<Q", blob, 12)[0]
    header = json.loads(blob[20:20 + header_len])
    header["decoder.b0"][field] = value
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    bad = tmp_path / "bad.ckpt"
    # the payload and its CRC are untouched, so only the header entry is wrong
    bad.write_bytes(blob[:12] + struct.pack("<Q", len(header_bytes)) + header_bytes + blob[20 + header_len:])
    rc = main(["eval", "--ckpt", str(bad), "--scene", str(workdir / "scene.json"),
               "--frames", "1", "--report", str(tmp_path / "report.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "decoder.b0" in err and err.count("\n") == 1


# the workdir model has latent width d = 32; each edit breaks one width rule
@pytest.mark.parametrize("edits, named", [
    ({"decoder.w1": (5, 32)}, "decoder"),                                  # w1 rows != w0 columns
    ({"message_fn.w0": (64, 32)}, "message_fn"),                           # input 2d, need 3d
    ({"blocks.00.vertex.w0": (96, 32)}, "blocks.00.vertex"),               # input 3d, need 2d
    ({"vertex_encoder.w2": (32, 16), "vertex_encoder.b2": (16,)}, "vertex_encoder"),  # outputs d/2
    ({"decoder.w2": (32, 4), "decoder.b2": (4,)}, "decoder"),              # outputs 4, need 3
    ({"prop_norm.gain": (16,)}, "prop_norm.gain"),                         # shape (d/2,)
], ids=["chain", "message-input", "vertex-input", "encoder-output", "decoder-output", "norm-width"])
def test_eval_checkpoint_width_mismatch_is_format_error(workdir, tmp_path, capsys, edits, named):
    tensors = pio.load_tensors(workdir / "model.ckpt")
    for name, shape in edits.items():
        tensors[name] = np.zeros(shape, dtype=np.float32)
    bad = tmp_path / "bad.ckpt"
    pio.save_tensors(tensors, bad)
    rc = main(["eval", "--ckpt", str(bad), "--scene", str(workdir / "scene.json"),
               "--frames", "1", "--report", str(tmp_path / "report.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(named) in err and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


# nan and inf escaped as tracebacks; gamma nan, k_base 0, gamma 1.5 and
# l_base 0 exited 1 as invalid input; k_base 2.5 was truncated to 2
@pytest.mark.parametrize("key, value", [
    ("gamma", float("nan")), ("gamma", 1.5),
    ("k_base", float("nan")), ("k_base", 0.0), ("k_base", 2.5),
    ("l_base", float("nan")), ("l_base", float("inf")), ("l_base", 0.0),
])
def test_eval_bad_checkpoint_meta_is_format_error(workdir, tmp_path, capsys, key, value):
    params, meta = pio.load_checkpoint(workdir / "model.ckpt")
    bad = tmp_path / "bad.ckpt"
    pio.save_checkpoint(params, bad, meta={**meta, key: value})
    rc = main(["eval", "--ckpt", str(bad), "--scene", str(workdir / "scene.json"),
               "--frames", "1", "--report", str(tmp_path / "report.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"meta.{key}" in err and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


def test_divergent_checkpoint_exit_code_and_partial_outputs(workdir, tmp_path):
    params, meta = pio.load_checkpoint(workdir / "model.ckpt")
    params.decoder.biases[-1].data[:] = np.nan
    bad = tmp_path / "nan.ckpt"
    pio.save_checkpoint(params, bad, meta=meta)
    out_dir = tmp_path / "frames"
    rc = main(["rollout", "--ckpt", str(bad), "--scene", str(workdir / "scene.json"),
               "--frames", "3", "--out-dir", str(out_dir), "--metrics", str(tmp_path / "m.csv")])
    assert rc == 3
    assert out_dir.exists()  # partial outputs directory retained
