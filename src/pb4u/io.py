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

from .errors import (ConfigMismatch, FormatError, InvalidArgument, InvalidMesh, IoError, count, read_file, read_text,
                     real, write_file)
from .mesh import MaterialParams, load_obj_mesh, make_grid_cloth
from .network import Mlp, ModelParams, assemble_params, mlp_widths
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
    payload: list[bytes] = []
    offset = crc = 0
    for name in sorted(named):
        arr = np.asarray(named[name], dtype="<f4")  # round-to-nearest-even from wider floats
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        blob = arr.tobytes()
        header[name] = {"dtype": "f32", "shape": list(arr.shape), "byte_offset": offset}
        payload.append(blob)
        offset += len(blob)
        crc = zlib.crc32(blob, crc)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = [MAGIC, struct.pack("<IQ", VERSION, len(header_bytes)), header_bytes]
    write_file(path, [*head, *payload, struct.pack("<I", crc)], "checkpoint")


def load_tensors(path) -> dict[str, np.ndarray]:
    blob = read_file(path, "checkpoint")
    fixed = len(MAGIC) + 4 + 8
    if len(blob) < fixed:
        raise IoError(f"{path}: truncated before header ({len(blob)} bytes, need {fixed})")
    if blob[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:len(MAGIC)]!r}")
    (version,) = struct.unpack_from("<I", blob, len(MAGIC))
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} (this build reads {VERSION})")
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
        if not isinstance(entry, dict) or set(entry) != {"dtype", "shape", "byte_offset"} or \
                not isinstance(entry["shape"], list):
            raise FormatError(f"{path}: malformed header entry for {name!r}")
        if entry["dtype"] != "f32":
            raise FormatError(f"{path}: unsupported dtype {entry['dtype']!r} for {name!r}")
        try:
            shape = [count(s, f"each shape entry of {name!r}") for s in entry["shape"]]
            start = count(entry["byte_offset"], f"byte_offset of {name!r}")
        except InvalidArgument as exc:
            raise FormatError(f"{path}: {exc}") from exc
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


def load_checkpoint(path, expect_vertex_dim: int | None = None, expect_edge_dim: int | None = None):
    """Reconstruct (ModelParams, meta dict) from a checkpoint file.

    The file holds the one layout ``network.mlp_widths`` gives for four
    numbers it reads: the latent width ``d >= 1`` (the rows of ``decoder.w0``),
    the depth (the number of block ids) and the two encoder input widths.
    Exactly those tensors at those shapes, plus ``prop_norm.gain`` and
    ``prop_norm.bias`` of shape ``(d,)``, must be present. Pass the expected
    feature widths to fail fast with config-mismatch on foreign checkpoints.
    """
    named = load_tensors(path)
    meta = {
        key[len("meta."):]: _decode_meta_scalar(named.pop(key), path, key)
        for key in sorted(named)
        if key.startswith("meta.")
    }

    def rows(name: str) -> int:
        if name not in named or named[name].ndim != 2:
            raise FormatError(f"{path}: no 2-D tensor {name!r}")
        return named[name].shape[0]

    def take(name: str, shape: tuple) -> Tensor:
        owner = name.rsplit(".", 1)[0]
        if name not in named:
            raise FormatError(f"{path}: {owner!r} is missing tensor {name!r}")
        if named[name].shape != shape:
            raise FormatError(f"{path}: {owner!r} needs {name!r} of shape {shape}, got {named[name].shape}")
        return Tensor(named.pop(name), track=True)

    d, vertex_dim, edge_dim = rows("decoder.w0"), rows("vertex_encoder.w0"), rows("edge_encoder.w0")
    if d < 1:
        raise FormatError(f"{path}: latent width 0: 'decoder.w0' has no rows")
    depth = len({name.split(".")[1] for name in named if name.startswith("blocks.")})
    mlps = {}
    for prefix, dims in mlp_widths(d, depth, vertex_dim, edge_dim).items():
        layers = list(enumerate(zip(dims[:-1], dims[1:])))
        mlps[prefix] = Mlp([take(f"{prefix}.w{i}", (fan_in, fan_out)) for i, (fan_in, fan_out) in layers],
                           [take(f"{prefix}.b{i}", (fan_out,)) for i, (_, fan_out) in layers])
    params = assemble_params(mlps, depth, take("prop_norm.gain", (d,)), take("prop_norm.bias", (d,)))
    if named:
        raise FormatError(f"{path}: unexpected tensors {sorted(named)}")
    if expect_vertex_dim is not None and vertex_dim != expect_vertex_dim:
        raise ConfigMismatch(f"{path}: vertex encoder expects {vertex_dim} features, need {expect_vertex_dim}")
    if expect_edge_dim is not None and edge_dim != expect_edge_dim:
        raise ConfigMismatch(f"{path}: edge encoder expects {edge_dim} features, need {expect_edge_dim}")
    return params, meta


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


def _reals(values, what: str, length: int) -> list:
    _require(isinstance(values, (list, tuple)) and len(values) == length,
             f"{what} must be a list of {length} numbers, got {values!r}")
    return [real(v, what) for v in values]


def _read_json(path, what: str):
    try:
        return json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc


def save_scene(scene_dict: dict, path) -> None:
    write_file(path, json.dumps(scene_dict, sort_keys=True, indent=2) + "\n", "scene")


def load_scene(path) -> Scene:
    doc = _read_json(path, "scene")
    try:
        return scene_from_dict(doc, base_dir=Path(path).parent)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def scene_from_dict(doc: dict, base_dir: Path | None = None) -> Scene:
    _require(isinstance(doc, dict), "scene must be a JSON object")
    unknown = set(doc) - _SCENE_KEYS
    _require(not unknown, f"unknown scene fields: {sorted(unknown)}")
    missing = _SCENE_KEYS - {"contact_margin"} - set(doc)
    _require(not missing, f"missing scene fields: {sorted(missing)}")
    _require(doc["format"] == "pb4u-scene", f"not a scene file (format={doc.get('format')!r})")
    _require(repr(doc["version"]) == "1", f"unsupported scene version {doc['version']!r}")   # not 1.0 or true

    mat_doc = doc["material"]
    _require(isinstance(mat_doc, dict) and set(mat_doc) == _MATERIAL_KEYS,
             "material must define exactly the five parameters")
    try:
        material = MaterialParams(**{k: real(v, f"material {k}") for k, v in mat_doc.items()})
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
            n, side = count(g_doc["n"], "garment n"), real(g_doc["side"], "garment side")
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
            radius=real(b_doc["radius"], "body radius"),
            keyframes=np.array([_reals(row, "body keyframe", 4) for row in keyframes], dtype=np.float64),
            lat=count(b_doc.get("lat", DEFAULT_BODY_LAT), "body lat"),
            lon=count(b_doc.get("lon", DEFAULT_BODY_LON), "body lon"),
        )
        scene = build_scene(
            garment,
            plane=g_doc.get("plane", "xz"),
            origin=_reals(g_doc.get("origin", (0.0, 0.0, 0.0)), "garment origin", 3),
            pinned=[count(i, "garment pinned index") for i in pinned],
            body=body,
            material=material,
            dt=real(doc["dt"], "dt"),
            gravity=real(doc["gravity"], "gravity"),
            world_radius=real(doc["world_edge_radius"], "world_edge_radius"),
            frames=count(doc["frames"], "frames"),
            contact_margin=real(doc.get("contact_margin", DEFAULT_CONTACT_MARGIN), "contact_margin"),
        )
    except (InvalidArgument, InvalidMesh) as exc:
        raise FormatError(f"bad scene: {exc}") from exc

    gaps = np.linalg.norm(scene.initial_positions - body.center_at(0.0), axis=1)
    _require(bool(np.all(gaps >= body.radius)), "garment starts inside the body")
    return scene


# --- training configuration files ------------------------------------------

_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)}


def load_train_config(path):
    doc = _read_json(path, "training config")
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
