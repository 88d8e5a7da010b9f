"""Persistence: the binary checkpoint container, scene files, and training
configuration files.

Checkpoint layout (little-endian throughout):

    magic   8 bytes  b"PB4UCKPT"
    version u32
    hlen    u64      length of the JSON header in bytes
    header  hlen     {"name": {"dtype": "f32", "shape": [...], "byte_offset": N}, ...}
    payload          raw float32 values, offsets relative to payload start
    crc     u32      CRC32 of the payload

Serialization is canonical: tensor names are sorted lexicographically, offsets
assigned densely in that order, and the header is minified sorted-key JSON, so
identical parameters always produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ConfigMismatch, FormatError, InvalidArgument, InvalidMesh, IoError
from .mesh import MaterialParams, load_obj_mesh, make_grid_cloth
from .network import Mlp, ModelParams, ProcessorBlock
from .diffcore import Tensor
from .physics import DEFAULT_CONTACT_MARGIN, LOSS_TERMS, LossWeights
from .scenes import DEFAULT_BODY_LAT, DEFAULT_BODY_LON, BodySpec, Scene, build_scene
from .train import TrainConfig

MAGIC = b"PB4UCKPT"
VERSION = 1


def _named_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in params.named_tensors().items()}


def save_checkpoint(params: ModelParams, path, meta: dict[str, float] | None = None) -> None:
    """Write model tensors plus scalar metadata in the canonical container
    layout. Meta scalars are float64 values stored bit-exactly as two f32
    lanes under ``meta.``, so quantities like the calibration edge length
    survive the round trip without rounding. A value that is a bool or not a
    real number is ``InvalidArgument``; nan and inf are stored as given."""
    named = _named_arrays(params)
    for key, value in (meta or {}).items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidArgument(f"checkpoint meta.{key} must be a real number, got {value!r}")
        named[f"meta.{key}"] = np.frombuffer(np.float64(value).tobytes(), dtype="<f4").copy()
    save_tensors(named, path)


def _decode_meta_scalar(lanes: np.ndarray, path, key: str) -> float:
    if lanes.shape != (2,):
        raise FormatError(f"{path}: meta tensor {key!r} must have shape (2,)")
    return float(np.frombuffer(np.asarray(lanes, dtype="<f4").tobytes(), dtype="<f8")[0])


def save_tensors(named: dict[str, np.ndarray], path) -> None:
    header: dict[str, dict] = {}
    chunks: list[bytes] = []
    offset = 0
    for name in sorted(named):
        arr = np.asarray(named[name], dtype="<f4")  # round-to-nearest-even from wider floats
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        blob = arr.tobytes()
        header[name] = {"dtype": "f32", "shape": list(arr.shape), "byte_offset": offset}
        chunks.append(blob)
        offset += len(blob)
    payload = b"".join(chunks)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    except OSError as exc:
        raise IoError(f"cannot write checkpoint {path}: {exc}") from exc


def load_tensors(path) -> dict[str, np.ndarray]:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    fixed = len(MAGIC) + 4 + 8
    if len(blob) < fixed:
        raise IoError(f"{path}: truncated before header ({len(blob)} bytes, need {fixed})")
    if blob[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:len(MAGIC)]!r}")
    (version,) = struct.unpack_from("<I", blob, len(MAGIC))
    if version > VERSION:
        raise FormatError(f"{path}: unsupported version {version} (this build reads <= {VERSION})")
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC) + 4)
    header_end = fixed + header_len
    if len(blob) < header_end + 4:
        raise IoError(f"{path}: truncated header ({len(blob)} bytes, need {header_end + 4})")
    try:
        header = json.loads(blob[fixed:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header must be an object")

    payload = blob[header_end:-4]
    (crc_stored,) = struct.unpack_from("<I", blob, len(blob) - 4)
    crc_actual = zlib.crc32(payload) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise FormatError(f"{path}: CRC mismatch (stored {crc_stored:#x}, payload {crc_actual:#x})")

    spans = []
    out: dict[str, np.ndarray] = {}
    for name, entry in header.items():
        if not isinstance(entry, dict) or set(entry) != {"dtype", "shape", "byte_offset"}:
            raise FormatError(f"{path}: malformed header entry for {name!r}")
        if entry["dtype"] != "f32":
            raise FormatError(f"{path}: unsupported dtype {entry['dtype']!r} for {name!r}")
        shape, start = entry["shape"], entry["byte_offset"]
        if not isinstance(shape, list) or not all(_is_count(s) and s >= 0 for s in shape):
            raise FormatError(f"{path}: shape of {name!r} must be a list of integers >= 0, got {shape!r}")
        if not _is_count(start) or start < 0:
            raise FormatError(f"{path}: byte_offset of {name!r} must be an integer >= 0, got {start!r}")
        end = start + 4 * math.prod(shape)
        if end > len(payload):
            raise IoError(
                f"{path}: tensor {name!r} spans [{start}, {end}) outside payload of {len(payload)} bytes"
            )
        spans.append((start, end, name))
        try:
            tensor = np.frombuffer(payload, dtype="<f4", count=(end - start) // 4, offset=start).reshape(shape)
        except ValueError as exc:  # more dimensions than numpy supports, or a zero-size one past its size limit
            raise FormatError(f"{path}: shape {shape} of {name!r} is unusable: {exc}") from exc
        out[name] = tensor.copy()
    spans.sort()
    for (s1, e1, n1), (s2, _, n2) in zip(spans, spans[1:]):
        if s2 < e1:
            raise FormatError(f"{path}: tensors {n1!r} and {n2!r} overlap")
    return out


def _collect_mlp(named: dict[str, np.ndarray], prefix: str, path, in_dim: int | None, out_dim: int) -> Mlp:
    """The MLP stored under ``prefix``; each layer takes the width the one
    before it gives, the first takes ``in_dim`` (any width when None) and the
    last gives ``out_dim``."""
    weights, biases = [], []
    i = 0
    width = in_dim
    while f"{prefix}.w{i}" in named:
        w = named.pop(f"{prefix}.w{i}")
        key = f"{prefix}.b{i}"
        if key not in named:
            raise FormatError(f"{path}: missing bias {key!r}")
        b = named.pop(key)
        if w.ndim != 2 or b.shape != (w.shape[1],):
            raise FormatError(f"{path}: inconsistent shapes for {prefix!r} layer {i}")
        if width is not None and w.shape[0] != width:
            raise FormatError(f"{path}: {prefix!r} layer {i} takes {w.shape[0]} inputs, need {width}")
        width = w.shape[1]
        weights.append(Tensor(w, track=True))
        biases.append(Tensor(b, track=True))
        i += 1
    if not weights:
        raise FormatError(f"{path}: no tensors for MLP {prefix!r}")
    if width != out_dim:
        raise FormatError(f"{path}: {prefix!r} gives {width} outputs, need {out_dim}")
    return Mlp(weights, biases)


def load_checkpoint(path, expect_vertex_dim: int | None = None, expect_edge_dim: int | None = None):
    """Reconstruct (ModelParams, meta dict) from a checkpoint file.

    Model structure is inferred from tensor names and shapes. Every width
    must agree with the latent width ``d``, the decoder's input: the encoders
    give ``d``, edge MLPs take ``3d``, vertex MLPs ``2d``, and the
    propagation LayerNorm has ``d`` entries. Pass the expected feature widths
    to fail fast with config-mismatch on foreign checkpoints.
    """
    named = load_tensors(path)
    meta = {
        key[len("meta."):]: _decode_meta_scalar(named.pop(key), path, key)
        for key in sorted(named)
        if key.startswith("meta.")
    }

    decoder = _collect_mlp(named, "decoder", path, None, 3)
    d = decoder.in_dim

    def mlp(prefix: str, in_dim: int | None) -> Mlp:
        return _collect_mlp(named, prefix, path, in_dim, d)

    block_ids = {name.split(".")[1] for name in named if name.startswith("blocks.")}
    depth = len(block_ids)
    if block_ids != {f"{k:02d}" for k in range(depth)}:
        raise FormatError(f"{path}: processor block ids {sorted(block_ids)} are not 00, 01, ... without gaps")
    blocks = [
        ProcessorBlock(edge_mlp=mlp(f"blocks.{k:02d}.edge", 3 * d), vertex_mlp=mlp(f"blocks.{k:02d}.vertex", 2 * d))
        for k in range(depth)
    ]
    params = ModelParams(
        vertex_encoder=mlp("vertex_encoder", None),
        edge_encoder=mlp("edge_encoder", None),
        message_fn=mlp("message_fn", 3 * d),
        update_fn=mlp("update_fn", 2 * d),
        blocks=blocks,
        decoder=decoder,
        norm_gain=Tensor(_take(named, "prop_norm.gain", path, d), track=True),
        norm_bias=Tensor(_take(named, "prop_norm.bias", path, d), track=True),
    )
    if named:
        raise FormatError(f"{path}: unexpected tensors {sorted(named)}")
    if expect_vertex_dim is not None and params.vertex_encoder.in_dim != expect_vertex_dim:
        raise ConfigMismatch(
            f"{path}: vertex encoder expects {params.vertex_encoder.in_dim} features, need {expect_vertex_dim}"
        )
    if expect_edge_dim is not None and params.edge_encoder.in_dim != expect_edge_dim:
        raise ConfigMismatch(
            f"{path}: edge encoder expects {params.edge_encoder.in_dim} features, need {expect_edge_dim}"
        )
    return params, meta


def _take(named: dict[str, np.ndarray], key: str, path, width: int) -> np.ndarray:
    if key not in named:
        raise FormatError(f"{path}: missing tensor {key!r}")
    if named[key].shape != (width,):
        raise FormatError(f"{path}: {key!r} has shape {named[key].shape}, need ({width},)")
    return named.pop(key)


# --- scene files -----------------------------------------------------------

_SCENE_KEYS = {
    "format", "version", "garment", "body", "material", "dt", "gravity",
    "world_edge_radius", "frames", "contact_margin",
}
_GARMENT_KEYS = {"kind", "n", "side", "path", "plane", "origin", "pinned"}
_BODY_KEYS = {"type", "radius", "keyframes", "lat", "lon"}
_MATERIAL_KEYS = {"lame_mu", "lame_lambda", "bending_coeff", "mass_density", "friction_coeff"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FormatError(message)


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _count(value, what: str) -> int:
    _require(_is_count(value), f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """A finite JSON number (not a boolean) as a float."""
    try:
        number = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer past the float range
        number = math.inf
    _require(math.isfinite(number), f"{what} must be a finite number, got {value!r}")
    return number


def _reals(values, what: str, length: int) -> list:
    _require(isinstance(values, (list, tuple)) and len(values) == length,
             f"{what} must be a list of {length} numbers, got {values!r}")
    return [_real(v, what) for v in values]


def save_scene(scene_dict: dict, path) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            json.dump(scene_dict, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write scene {path}: {exc}") from exc


def load_scene(path) -> Scene:
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read scene {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    return scene_from_dict(doc, base_dir=Path(path).parent)


def scene_from_dict(doc: dict, base_dir: Path | None = None) -> Scene:
    _require(isinstance(doc, dict), "scene must be a JSON object")
    unknown = set(doc) - _SCENE_KEYS
    _require(not unknown, f"unknown scene fields: {sorted(unknown)}")
    missing = _SCENE_KEYS - {"contact_margin"} - set(doc)
    _require(not missing, f"missing scene fields: {sorted(missing)}")
    _require(doc["format"] == "pb4u-scene", f"not a scene file (format={doc.get('format')!r})")
    _require(_is_count(doc["version"]) and doc["version"] == 1, f"unsupported scene version {doc['version']!r}")

    mat_doc = doc["material"]
    _require(isinstance(mat_doc, dict) and set(mat_doc) == _MATERIAL_KEYS,
             "material must define exactly the five parameters")
    try:
        material = MaterialParams(**{k: _real(v, f"material {k}") for k, v in mat_doc.items()})
    except InvalidArgument as exc:
        raise FormatError(f"bad material: {exc}") from exc

    g_doc = doc["garment"]
    _require(isinstance(g_doc, dict), "garment must be an object")
    unknown = set(g_doc) - _GARMENT_KEYS
    _require(not unknown, f"unknown garment fields: {sorted(unknown)}")
    kind = g_doc.get("kind")
    if kind == "grid":
        _require("n" in g_doc and "side" in g_doc, "grid garment needs n and side")
        try:
            n, side = _count(g_doc["n"], "garment n"), _real(g_doc["side"], "garment side")
            garment = make_grid_cloth(n, side, material)
        except (InvalidArgument, InvalidMesh) as exc:
            raise FormatError(f"bad garment grid: {exc}") from exc
    elif kind == "obj":
        _require(isinstance(g_doc.get("path"), str), "obj garment needs a path")
        obj_path = Path(g_doc["path"])
        if base_dir is not None and not obj_path.is_absolute():
            obj_path = base_dir / obj_path
        garment = load_obj_mesh(obj_path, material)
    else:
        raise FormatError(f"unknown garment kind {kind!r}")

    b_doc = doc["body"]
    _require(isinstance(b_doc, dict), "body must be an object")
    unknown = set(b_doc) - _BODY_KEYS
    _require(not unknown, f"unknown body fields: {sorted(unknown)}")
    _require({"type", "radius", "keyframes"} <= set(b_doc), "body needs type, radius, keyframes")
    keyframes = b_doc["keyframes"]
    _require(isinstance(keyframes, (list, tuple)), f"body keyframes must be a list, got {keyframes!r}")
    pinned = g_doc.get("pinned", ())
    _require(isinstance(pinned, (list, tuple)), f"garment pinned must be a list, got {pinned!r}")
    try:
        body = BodySpec(
            kind=b_doc["type"],
            radius=_real(b_doc["radius"], "body radius"),
            keyframes=np.array([_reals(row, "body keyframe", 4) for row in keyframes], dtype=np.float64),
            lat=_count(b_doc.get("lat", DEFAULT_BODY_LAT), "body lat"),
            lon=_count(b_doc.get("lon", DEFAULT_BODY_LON), "body lon"),
        )
        scene = build_scene(
            garment,
            plane=g_doc.get("plane", "xz"),
            origin=_reals(g_doc.get("origin", (0.0, 0.0, 0.0)), "garment origin", 3),
            pinned=[_count(i, "garment pinned index") for i in pinned],
            body=body,
            material=material,
            dt=_real(doc["dt"], "dt"),
            gravity=_real(doc["gravity"], "gravity"),
            world_radius=_real(doc["world_edge_radius"], "world_edge_radius"),
            frames=_count(doc["frames"], "frames"),
            contact_margin=_real(doc.get("contact_margin", DEFAULT_CONTACT_MARGIN), "contact_margin"),
        )
    except (InvalidArgument, InvalidMesh) as exc:
        raise FormatError(f"bad scene: {exc}") from exc

    gaps = np.linalg.norm(scene.initial_positions - body.center_at(0.0), axis=1)
    _require(bool(np.all(gaps >= body.radius)), "garment starts inside the body")
    return scene


# --- training configuration files ------------------------------------------

_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)}


def load_train_config(path):
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read training config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "training config must be a JSON object")
    unknown = set(doc) - _TRAIN_KEYS
    _require(not unknown, f"unknown training config fields: {sorted(unknown)}")
    _require("scenes" in doc and isinstance(doc["scenes"], list) and doc["scenes"]
             and all(isinstance(p, str) for p in doc["scenes"]),
             "training config needs a non-empty list of scene paths")
    weights_doc = doc.get("weights", {})
    _require(isinstance(weights_doc, dict) and set(weights_doc) <= set(LOSS_TERMS),
             "weights must map loss-term names to floats")
    base = Path(path).parent
    scene_paths = [str(p) if Path(p).is_absolute() else str(base / p) for p in doc["scenes"]]
    kwargs = {k: doc[k] for k in doc if k not in ("scenes", "weights")}
    try:
        return TrainConfig(scenes=scene_paths, weights=LossWeights(**weights_doc), **kwargs)
    except InvalidArgument as exc:
        raise FormatError(f"{path}: bad training config: {exc}") from exc
