"""Checkpoint container: canonical bytes, CRC integrity, truncation fuzzing,
and scene/config file validation."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pb4u import io as pio
from pb4u import network as net
from pb4u.cli import main
from pb4u.diffcore import Tensor
from pb4u.errors import ConfigMismatch, FormatError, InvalidArgument, IoError
from pb4u.graph import SimGraph
from pb4u.mesh import ScaleFactors
from pb4u.scenes import Scene, drape_sphere_preset, hang_pinned_preset

CFG = net.NetworkConfig(latent_dim=16, processor_depth=2)


def small_params(seed=0):
    return net.init_params(CFG, seed=seed, dtype=np.float32)


def test_roundtrip_bitwise(tmp_path):
    params = small_params()
    path = tmp_path / "model.ckpt"
    pio.save_checkpoint(params, path, meta={"gamma": 0.9, "k_base": 8, "l_base": 0.05})
    loaded, meta = pio.load_checkpoint(path)
    src = params.named_tensors()
    dst = loaded.named_tensors()
    assert set(src) == set(dst)
    for name in src:
        assert np.array_equal(src[name].data, dst[name].data), name
    assert meta["k_base"] == 8.0
    assert meta["gamma"] == 0.9
    assert meta["l_base"] == 0.05  # meta scalars round-trip at full precision
    assert len(loaded.blocks) == 2


# True was stored as 1.0 and loaded as gamma 1.0 / k_base 1; a string
# escaped as a bare numpy ValueError
@pytest.mark.parametrize("value", [True, False, np.True_, "0.9", None])
def test_checkpoint_meta_must_be_a_real_number(tmp_path, value):
    path = tmp_path / "model.ckpt"
    with pytest.raises(InvalidArgument, match="meta.gamma"):
        pio.save_checkpoint(small_params(), path, meta={"gamma": value, "k_base": 8, "l_base": 0.05})
    assert not path.exists()


def test_canonical_serialization(tmp_path):
    params = small_params(seed=5)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    pio.save_checkpoint(params, a, meta={"gamma": 0.9, "k_base": 8, "l_base": 0.05})
    pio.save_checkpoint(params, b, meta={"gamma": 0.9, "k_base": 8, "l_base": 0.05})
    assert a.read_bytes() == b.read_bytes()


def test_single_byte_corruption_fails_crc(tmp_path):
    params = small_params()
    path = tmp_path / "model.ckpt"
    pio.save_checkpoint(params, path, meta={"gamma": 0.9, "k_base": 8, "l_base": 0.05})
    blob = bytearray(path.read_bytes())
    header_len = struct.unpack_from("<Q", blob, 12)[0]
    payload_start = 8 + 4 + 8 + header_len
    blob[payload_start + 100] ^= 0x01
    corrupted = tmp_path / "bad.ckpt"
    corrupted.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="CRC"):
        pio.load_tensors(corrupted)


def test_bad_magic_and_future_version(tmp_path):
    params = small_params()
    path = tmp_path / "model.ckpt"
    pio.save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())

    wrong = tmp_path / "magic.ckpt"
    wrong.write_bytes(b"NOTMAGIC" + bytes(blob[8:]))
    with pytest.raises(FormatError, match="magic"):
        pio.load_tensors(wrong)

    for version in (0, 99):   # version 0 used to load
        other = bytearray(blob)
        struct.pack_into("<I", other, 8, version)
        other_path = tmp_path / f"version{version}.ckpt"
        other_path.write_bytes(bytes(other))
        with pytest.raises(FormatError, match=f"version {version}"):
            pio.load_tensors(other_path)


def test_truncation_at_every_tensor_boundary(tmp_path):
    params = small_params()
    path = tmp_path / "model.ckpt"
    pio.save_checkpoint(params, path, meta={"gamma": 0.9, "k_base": 8, "l_base": 0.05})
    blob = path.read_bytes()
    header_len = struct.unpack_from("<Q", blob, 12)[0]
    payload_start = 8 + 4 + 8 + header_len
    header = json.loads(blob[payload_start - header_len:payload_start])
    cuts = {4, 12, payload_start - 1, payload_start, len(blob) - 5}
    for entry in header.values():
        cuts.add(payload_start + entry["byte_offset"])
        cuts.add(payload_start + entry["byte_offset"] + 2)
    for cut in sorted(cuts):
        truncated = tmp_path / "cut.ckpt"
        truncated.write_bytes(blob[:cut])
        with pytest.raises((IoError, FormatError)):
            pio.load_tensors(truncated)


def test_truncated_payload_reports_byte_counts(tmp_path):
    params = small_params()
    path = tmp_path / "model.ckpt"
    pio.save_checkpoint(params, path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[: len(blob) - 600])
    with pytest.raises((IoError, FormatError), match=r"\d+"):
        pio.load_tensors(cut)


def test_config_mismatch_on_wrong_feature_width(tmp_path):
    params = small_params()
    # a checkpoint for 9-wide vertex features: the encoder's first layer takes 9 inputs
    params.vertex_encoder.weights[0] = Tensor(np.ones((9, CFG.latent_dim), dtype=np.float32), track=True)
    path = tmp_path / "model.ckpt"
    pio.save_checkpoint(params, path)
    with pytest.raises(ConfigMismatch):
        pio.load_checkpoint(path, expect_vertex_dim=14, expect_edge_dim=7)


# past 99 blocks the ids were sorted as strings, so blocks.100 came back between 10 and 11
@pytest.mark.parametrize("d, depth", [(1, 0), (16, 2), (2, 101)], ids=["d1-depth0", "d16-depth2", "d2-depth101"])
def test_more_than_99_blocks_reload_in_order(tmp_path, d, depth):
    params = net.init_params(net.NetworkConfig(latent_dim=d, processor_depth=depth), seed=0, dtype=np.float32)
    path = tmp_path / "deep.ckpt"
    pio.save_checkpoint(params, path)
    loaded, _ = pio.load_checkpoint(path)
    src, dst = params.named_tensors(), loaded.named_tensors()
    assert list(src) == list(dst)
    for name in src:
        assert np.array_equal(src[name].data, dst[name].data), name


# the loader followed any chain of hidden widths, so both of these loaded
@pytest.mark.parametrize("layers, named", [
    ([(14, 8), (8, 8), (8, 16)], "'vertex_encoder'"),                       # hidden width 8, not d = 16
    ([(14, 16), (16, 16), (16, 16), (16, 16)], "'vertex_encoder.w3'"),      # a third hidden layer
], ids=["hidden-width", "hidden-depth"])
def test_mlp_off_the_layout_is_format_error(tmp_path, layers, named):
    tensors = {name: t.data for name, t in small_params().named_tensors().items()}
    for i, (fan_in, fan_out) in enumerate(layers):
        tensors[f"vertex_encoder.w{i}"] = np.zeros((fan_in, fan_out), dtype=np.float32)
        tensors[f"vertex_encoder.b{i}"] = np.zeros(fan_out, dtype=np.float32)
    path = tmp_path / "model.ckpt"
    pio.save_tensors(tensors, path)
    with pytest.raises(FormatError, match=named):
        pio.load_checkpoint(path)


def test_zero_latent_width_is_format_error(tmp_path):
    # the whole layout at d = 0 loaded, and eval exited 1 (latent_dim must be >= 1)
    path = tmp_path / "zero.ckpt"
    pio.save_tensors({name: np.zeros(shape, dtype=np.float32) for name, shape in _layout_shapes(0, 1, 14, 7).items()},
                     path)
    with pytest.raises(FormatError, match="'decoder.w0'"):
        pio.load_checkpoint(path)


def test_block_ids_with_a_gap_are_format_error(tmp_path, capsys):
    path = tmp_path / "model.ckpt"
    pio.save_checkpoint(small_params(), path, meta={"gamma": 0.9, "k_base": 8, "l_base": 0.05})
    tensors = pio.load_tensors(path)
    for name in [n for n in tensors if n.startswith("blocks.01.")]:
        tensors[name.replace("blocks.01.", "blocks.07.")] = tensors.pop(name)
    bad = tmp_path / "gap.ckpt"
    pio.save_tensors(tensors, bad)
    with pytest.raises(FormatError, match="gap.ckpt"):
        pio.load_checkpoint(bad)
    scene = tmp_path / "scene.json"
    pio.save_scene(drape_sphere_preset(4, frames=4), scene)
    rc = main(["eval", "--ckpt", str(bad), "--scene", str(scene), "--frames", "1",
               "--report", str(tmp_path / "report.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gap.ckpt" in err and err.count("\n") == 1


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        pio.load_tensors(tmp_path / "absent.ckpt")


def test_overlapping_tensors_rejected(tmp_path):
    header = {
        "a": {"dtype": "f32", "shape": [4], "byte_offset": 0},
        "b": {"dtype": "f32", "shape": [4], "byte_offset": 8},
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = b"\x00" * 24
    blob = (
        pio.MAGIC + struct.pack("<I", 1) + struct.pack("<Q", len(header_bytes))
        + header_bytes + payload + struct.pack("<I", __import__("zlib").crc32(payload))
    )
    path = tmp_path / "overlap.ckpt"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="overlap"):
        pio.load_tensors(path)


def test_scene_roundtrip_and_validation(tmp_path):
    doc = drape_sphere_preset(8, frames=12)
    path = tmp_path / "scene.json"
    pio.save_scene(doc, path)
    scene = pio.load_scene(path)
    assert scene.garment.vertex_count == 64
    assert scene.frames == 12
    assert scene.pinned.size == 0

    doc_bad = dict(doc)
    doc_bad["mystery"] = 1
    with pytest.raises(FormatError, match="unknown scene fields"):
        pio.scene_from_dict(doc_bad)

    doc_pen = json.loads(json.dumps(doc))
    doc_pen["body"]["keyframes"][0] = [0.0, 0.0, 0.0, 0.0]  # sphere at the cloth plane
    with pytest.raises(FormatError, match="inside the body"):
        pio.scene_from_dict(doc_pen)


@pytest.mark.parametrize("version", [True, 1.0, "1", 2])
def test_scene_version_must_be_the_integer_one(tmp_path, capsys, version):
    """JSON true and 1.0 compare equal to 1 in Python; neither is version 1."""
    doc = drape_sphere_preset(4, frames=4)
    doc["version"] = version
    pio.save_scene(doc, tmp_path / "scene.json")
    with pytest.raises(FormatError, match="unsupported scene version"):
        pio.load_scene(tmp_path / "scene.json")
    (tmp_path / "train.json").write_text(json.dumps({"scenes": ["scene.json"], "iterations": 1}))
    assert main(["train", "--config", str(tmp_path / "train.json"), "--out", str(tmp_path / "m.ckpt")]) == 2
    assert "unsupported scene version" in capsys.readouterr().err


def test_hang_preset_loads_with_pins(tmp_path):
    doc = hang_pinned_preset(6, frames=10)
    path = tmp_path / "hang.json"
    pio.save_scene(doc, path)
    scene = pio.load_scene(path)
    assert scene.pinned.size == 6
    top_y = scene.initial_positions[:, 1].max()
    assert np.allclose(scene.initial_positions[scene.pinned, 1], top_y)


def test_scene_obj_garment(tmp_path):
    from pb4u.mesh import make_grid_cloth, write_obj, DEFAULT_MATERIAL

    grid = make_grid_cloth(4, 1.0, DEFAULT_MATERIAL)
    write_obj(tmp_path / "cloth.obj", grid.rest_positions, grid.triangles)
    doc = drape_sphere_preset(4, frames=8)
    doc["garment"] = {"kind": "obj", "path": "cloth.obj", "origin": [0.0, 0.0, 0.0], "pinned": []}
    path = tmp_path / "scene.json"
    pio.save_scene(doc, path)
    scene = pio.load_scene(path)
    assert scene.garment.vertex_count == 16


def test_train_config_validation(tmp_path):
    good = {"iterations": 5, "scenes": ["s.json"], "weights": {"stretch": 2.0}}
    path = tmp_path / "train.json"
    path.write_text(json.dumps(good))
    cfg = pio.load_train_config(path)
    assert cfg.iterations == 5
    assert cfg.weights.stretch == 2.0
    assert cfg.weights.bending == 1.0
    assert cfg.scenes == [str(tmp_path / "s.json")]

    bad = dict(good)
    bad["optimizer"] = "sgd"
    path.write_text(json.dumps(bad))
    with pytest.raises(FormatError, match="unknown"):
        pio.load_train_config(path)

    path.write_text(json.dumps({"iterations": 5, "scenes": []}))
    with pytest.raises(FormatError, match="scene"):
        pio.load_train_config(path)


_COUNT_MINIMUMS = {"iterations": 1, "seed": 0, "k_base": 1, "processor_depth": 0, "latent_dim": 1,
                   "buffer_refresh": 1, "rollout_steps": 1}
_LOSS_NAMES = ("stretch", "bending", "collision", "gravity", "friction", "inertia")
# integers past the float range are no finite number, though float() of one raises instead of giving inf
_SCALAR = (st.none() | st.booleans() | st.integers(-3, 10**4) | st.integers(2**1024, 10**400) | st.floats(-2.0, 2.0)
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3))
_FIELD = st.integers(0, 64) | st.floats(0.0, 1.0, exclude_max=True) | _SCALAR   # often valid, often not
_JSON = st.recursive(
    _SCALAR,
    lambda kids: st.lists(kids, max_size=2) | st.dictionaries(st.text(max_size=3), kids, max_size=2),
    max_leaves=4,
)
_TRAIN_DOCS = st.fixed_dictionaries(
    {"scenes": st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=2) | _JSON},
    optional={
        **{name: _FIELD for name in (*_COUNT_MINIMUMS, "learning_rate", "beta1", "beta2", "epsilon", "gamma",
                                     "grad_clip")},
        "weights": st.dictionaries(st.sampled_from(_LOSS_NAMES), _FIELD, max_size=6) | _JSON,
        "optimizer": _JSON,
    },
) | _JSON


def _finite(value):
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_TRAIN_DOCS)
@example(doc={"scenes": ["s.json"], "gamma": 10**400})   # past the float range, drawn in only some runs
@example(doc={"scenes": ["s.json"], "weights": {"stretch": 10**400}})
def test_train_config_loader_returns_valid_config_or_format_error(tmp_path, doc):
    path = tmp_path / "train.json"
    path.write_text(json.dumps(doc))
    try:
        cfg = pio.load_train_config(path)
    except FormatError:
        return
    assert cfg.scenes and all(isinstance(p, str) for p in cfg.scenes)
    for name, least in _COUNT_MINIMUMS.items():
        value = getattr(cfg, name)
        assert type(value) is int and value >= least, (name, value)
    for name in ("learning_rate", "beta1", "beta2", "epsilon", "gamma", "grad_clip"):
        assert _finite(getattr(cfg, name)), name
    assert cfg.learning_rate >= 0 and cfg.epsilon > 0 and cfg.grad_clip >= 0
    assert 0 <= cfg.beta1 < 1 and 0 <= cfg.beta2 < 1 and 0 <= cfg.gamma <= 1
    for name in _LOSS_NAMES:
        assert _finite(getattr(cfg.weights, name)) and getattr(cfg.weights, name) >= 0, name


def _paths(node, prefix=()):
    """Every location inside a JSON document, as a tuple of keys and indices."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_DELETE = object()


def _mutated(doc, edits):
    """A deep copy of ``doc`` with each (path, value) edit applied where the
    path still exists; ``_DELETE`` removes the location instead."""
    doc = json.loads(json.dumps(doc))
    for path, value in edits:
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue
        if isinstance(parent, str):   # an earlier edit put a string where a container was
            continue
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


_SCENE_BASES = (drape_sphere_preset(4, frames=4), hang_pinned_preset(4, frames=4))
_SCENE_PATHS = sorted({path for doc in _SCENE_BASES for path in _paths(doc)}, key=repr)
# counts stay small: a large grid or sphere count is a valid scene that only
# costs memory, not a format fault
_SCENE_SCALAR = (st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-2.0, 2.0)
                 | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3))
_SCENE_VALUE = st.recursive(
    _SCENE_SCALAR,
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.text(max_size=3), kids, max_size=2),
    max_leaves=6,
) | st.just(_DELETE)


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from(_SCENE_BASES),
       edits=st.lists(st.tuples(st.sampled_from(_SCENE_PATHS), _SCENE_VALUE), min_size=1, max_size=3))
def test_scene_loader_returns_scene_or_format_error(base, edits):
    doc = json.loads(json.dumps(_mutated(base, edits)))   # as load_scene would read it
    try:
        scene = pio.scene_from_dict(doc)
    except FormatError:
        return
    assert isinstance(scene, Scene)
    assert type(scene.frames) is int and scene.frames >= 1
    for value in (scene.dt, scene.gravity, scene.world_radius, scene.contact_margin, scene.body.radius):
        assert _finite(value)
    assert scene.dt > 0 and scene.world_radius > 0 and scene.contact_margin >= 0
    assert np.all(np.isfinite(scene.body.keyframes)) and scene.pinned.dtype == np.int64


# one character inserted or replaced; no digit goes in, so no count can grow
_BYTE_CHARS = ["\udcff", "\udc80", "\udcc3", "\u00e9", "\u2028", "\n", "\x00", '"', ",", "]", "x"]
_BYTE_EDIT = st.tuples(st.booleans(), st.integers(0, 10**4), st.sampled_from(_BYTE_CHARS))


def _with_byte_edits(text: str, edits) -> bytes:
    for replace, at, char in edits:
        at %= len(text) + 1
        text = text[:at] + char + text[at + replace:]
    # lone surrogates become the raw bytes they stand for, so some files are not UTF-8
    return text.encode("utf-8", "surrogateescape")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(_SCENE_BASES), edits=st.lists(_BYTE_EDIT, min_size=1, max_size=4))
def test_scene_file_loader_returns_scene_or_format_error(tmp_path, base, edits):
    path = tmp_path / "scene.json"
    path.write_bytes(_with_byte_edits(json.dumps(base, sort_keys=True, indent=2), edits))
    try:
        scene = pio.load_scene(path)
    except (FormatError, IoError):
        return
    assert isinstance(scene, Scene)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_TRAIN_DOCS, edits=st.lists(_BYTE_EDIT, min_size=1, max_size=4))
def test_train_config_file_loader_returns_config_or_format_error(tmp_path, doc, edits):
    path = tmp_path / "train.json"
    path.write_bytes(_with_byte_edits(json.dumps(doc), edits))
    try:
        cfg = pio.load_train_config(path)
    except (FormatError, IoError):
        return
    assert cfg.scenes and all(isinstance(p, str) for p in cfg.scenes)


_CKPT_SCALAR = (st.none() | st.booleans() | st.integers(-2, 2**70) | st.floats(allow_nan=True, allow_infinity=True)
                | st.text(max_size=3))
_CKPT_VALUE = (
    _CKPT_SCALAR
    | st.lists(st.integers(-2, 2**40) | _CKPT_SCALAR, max_size=4)
    | st.lists(st.just(1), min_size=60, max_size=70)   # around numpy's limit on dimensions
    | st.lists(st.sampled_from([0, 2**63, 2**70]), min_size=1, max_size=3)   # zero elements, huge extents
    | st.tuples(st.sampled_from([3, 7, 14, 16, 32, 48]), st.just(16)).map(list)   # a d-wide weight of any input width
    | st.dictionaries(st.text(max_size=3), _CKPT_SCALAR, max_size=2)
    | st.just(_DELETE)
)


@pytest.fixture(scope="module")
def checkpoint_parts(tmp_path_factory):
    """Header dict, payload and CRC of a valid checkpoint."""
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    pio.save_checkpoint(small_params(), path, meta={"gamma": 0.9, "k_base": 8, "l_base": 0.05})
    blob = path.read_bytes()
    header_len = struct.unpack_from("<Q", blob, 12)[0]
    return json.loads(blob[20:20 + header_len]), blob[20 + header_len:]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_checkpoint_loader_returns_or_raises_format_or_io_error(tmp_path, checkpoint_parts, data):
    header, tail = checkpoint_parts
    names = sorted(header)
    edits = data.draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(["dtype", "shape", "byte_offset", None]), _CKPT_VALUE),
        min_size=1, max_size=3,
    ))
    header = _mutated(header, [((name,) if field is None else (name, field), value) for name, field, value in edits])
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path = tmp_path / "fuzzed.ckpt"
    # payload and CRC unchanged: only the header is wrong
    path.write_bytes(pio.MAGIC + struct.pack("<I", pio.VERSION) + struct.pack("<Q", len(header_bytes))
                     + header_bytes + tail)
    try:
        params, meta = pio.load_checkpoint(path)
    except (FormatError, IoError):
        return
    assert isinstance(params, net.ModelParams) and isinstance(meta, dict)
    layout = _layout_shapes(params.latent_dim, len(params.blocks), params.vertex_encoder.in_dim,
                            params.edge_encoder.in_dim)
    assert {name: t.data.shape for name, t in params.named_tensors().items()} == layout
    # every checkpoint that loads runs: its widths chain from the features to the accelerations
    graph = _tiny_graph(params.vertex_encoder.in_dim, params.edge_encoder.in_dim)
    with np.errstate(all="ignore"):  # a moved byte offset can read any float
        accel = net.forward_accelerations(graph, ScaleFactors(np.ones(3)), params, net.NetworkConfig(), 2)
    assert accel.data.shape == (3, 3)


def _layout_shapes(d: int, depth: int, vertex_dim: int, edge_dim: int) -> dict:
    """Name -> shape of every tensor of the checkpoint layout, from ``network.mlp_widths``."""
    out = {"prop_norm.gain": (d,), "prop_norm.bias": (d,)}
    for prefix, dims in net.mlp_widths(d, depth, vertex_dim, edge_dim).items():
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            out[f"{prefix}.w{i}"] = (fan_in, fan_out)
            out[f"{prefix}.b{i}"] = (fan_out,)
    return out


def _tiny_graph(vertex_dim: int, edge_dim: int) -> SimGraph:
    """A 3-vertex garment path with one body vertex messaging its middle."""
    r = np.random.default_rng(0)
    return SimGraph(
        mesh_edges=np.array([[0, 1], [1, 2], [1, 0], [2, 1]]),
        world_edges=np.array([[3, 1]]),
        vertex_features=r.normal(size=(4, vertex_dim)).astype(np.float32),
        edge_features=r.normal(size=(5, edge_dim)).astype(np.float32),
        garment_count=3,
    )
