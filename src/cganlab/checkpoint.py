"""Self-describing binary container for named float64 arrays.

Layout (all integers little-endian):

    bytes 0..7    magic b"CGANLABC"
    bytes 8..11   uint32 format version (currently 1)
    bytes 12..19  uint64 header length H
    bytes 20..20+H  canonical JSON header, UTF-8
    then for each entry of header["arrays"], in order: raw float64 data,
    little-endian, row-major, no padding.

The header is serialized with sorted keys and no whitespace, so identical
content produces identical bytes. header["meta"] is free-form metadata;
header["arrays"] is a list of {"name", "shape"} in sorted-name order.

The same container carries model checkpoints (parameters plus Adam state)
and sample dumps. Readers validate the header schema, so a malformed or
inconsistent file raises ParseError (a data error), never a KeyError or
TypeError.

A model header's role fields, hidden widths and hyper build the network
(ModelParams.build); its model, spec, in_dim and out_dim must be what
save_model writes for that network, and its arrays and adam_steps enter it
through ModelParams.adopt. A name, which eval gives a report file, is one
path component of at most MAX_NAME_BYTES bytes of UTF-8.

Adam moments are stored in the parameter's full layout, also where the
network keeps them once for rows tied across pixels (models.tied_rows): save
expands them to every pixel, and load requires the pixels' copies to be the
same bytes before it keeps one. Load refuses a non-finite parameter or
moment and a negative second moment.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .data import ATOMIC_NAME_EXTRA, NAME_MAX, atomic_write
from .errors import ConfigError, ContractError, ParseError
from .models import ROLE_HEADS, ModelParams, Variant
from .tensor import AdamHyper

MAGIC = b"CGANLABC"
VERSION = 1

# eval writes each network's report to report_<name>.csv through atomic_write,
# so a name of at most this many bytes of UTF-8 leaves room for its temporary file
MAX_NAME_BYTES = NAME_MAX - ATOMIC_NAME_EXTRA - len("report_.csv")


def write_container(path, meta: dict, arrays: dict):
    """Write named float64 arrays with a JSON header. Deterministic bytes, atomic."""
    names = sorted(arrays)
    header = {
        "version": VERSION,
        "meta": meta,
        "arrays": [{"name": n, "shape": list(np.asarray(arrays[n]).shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(np.uint32(VERSION).astype("<u4").tobytes())
        f.write(np.uint64(len(blob)).astype("<u8").tobytes())
        f.write(blob)
        for n in names:
            f.write(np.ascontiguousarray(arrays[n], dtype="<f8").data)


def read_container(path, sha256=None):
    """Read back (meta, arrays); malformed input raises ParseError.

    A hashlib sha256 object, when given, is fed every byte read, so once the
    container loads its digest is that of the bytes loaded.
    """
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"container file not found: {p}")
    with open(p, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        raw = f.read(20)
        if size < 20:
            raise ParseError(f"container needs a 20-byte preamble, file has {size}", offset=0)
        if raw[:8] != MAGIC:
            raise ParseError(f"bad container magic {raw[:8]!r}, expected {MAGIC!r}", offset=0)
        version = int(np.frombuffer(raw, dtype="<u4", count=1, offset=8)[0])
        if version != VERSION:
            raise ParseError(f"unsupported container version {version}", offset=8)
        hlen = int(np.frombuffer(raw, dtype="<u8", count=1, offset=12)[0])
        if 20 + hlen > size:
            raise ParseError(f"header length {hlen} overruns file of {size} bytes", offset=12)
        blob = f.read(hlen)
        # the arrays are views of one float64 buffer read in place, so
        # loading copies no array
        payload = np.empty((size - 20 - hlen) // 8, dtype="<f8")
        if f.readinto(payload.view(np.uint8)) != payload.nbytes:
            raise ParseError(f"container {p} changed size while being read", offset=20 + hlen)
    if sha256 is not None:
        for part in (raw, blob, payload.view(np.uint8)):
            sha256.update(part)
    payload = payload.astype(np.float64, copy=False)
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"container header is not valid JSON: {e}", offset=20) from None
    if not isinstance(header, dict):
        raise ParseError("container header is not a JSON object", offset=20)
    meta, entries = header.get("meta", {}), header.get("arrays", [])
    if not isinstance(meta, dict):
        raise ParseError("container header 'meta' is not an object", offset=20)
    if not isinstance(entries, list):
        raise ParseError("container header 'arrays' is not a list", offset=20)
    arrays = {}
    at = 20 + hlen
    for entry in entries:
        name, shape = _array_entry(entry, arrays)
        count = math.prod(shape)
        nbytes = count * 8
        if at + nbytes > size:
            raise ParseError(f"array {name!r} of shape {list(shape)} overruns file", offset=at)
        first = (at - 20 - hlen) // 8
        try:
            arrays[name] = payload[first:first + count].reshape(shape)
        except ValueError as e:  # numpy's limits on rank and dimension size
            raise ParseError(f"array {name!r} of shape {list(shape)}: {e}", offset=20) from None
        at += nbytes
    if at != size:
        raise ParseError(f"{size - at} trailing bytes after declared arrays", offset=at)
    return meta, arrays


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _array_entry(entry, seen) -> tuple:
    """(name, shape) of one header["arrays"] entry; ParseError when malformed."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise ParseError(f"array entry {entry!r} needs a string 'name'", offset=20)
    name, shape = entry["name"], entry.get("shape")
    if not isinstance(shape, list) or not all(_is_int(n) and n >= 0 for n in shape):
        raise ParseError(f"array {name!r} needs a list of non-negative int dims, got {shape!r}",
                         offset=20)
    if name in seen:
        raise ParseError(f"array {name!r} is declared twice", offset=20)
    return name, tuple(shape)


# ----------------------------------------------------------------------
# model checkpoints


def _layout_fields(params: ModelParams) -> dict:
    """The model header fields that follow from a network's layout."""
    return {"model": dict(params.meta), "spec": params.spec.to_dict(),
            "in_dim": params.in_dim, "out_dim": params.out_dim}


def save_model(path, params: ModelParams, extra: dict | None = None):
    """Checkpoint one network: parameters, Adam state, and rebuild metadata."""
    meta = {"kind": "model", **_layout_fields(params), "hyper": dict(vars(params.hyper)),
            "adam_steps": params.steps(), **(extra or {})}
    write_container(path, meta, params.named_arrays())


def load_model(path, sha256=None):
    """Rebuild a ModelParams (with optimizer state) from a checkpoint.

    Any header, array or Adam step that does not fit the network the header
    builds raises ParseError. sha256 is passed to read_container.
    """
    meta, arrays = read_container(path, sha256)
    if meta.get("kind") != "model":
        raise ParseError(f"container {path} holds {meta.get('kind')!r}, not a model")
    hidden, model, hyper, steps = _model_header(meta, path)
    try:
        params = ModelParams.build(model, hidden, hyper)
        for key, value in _layout_fields(params).items():
            # compared as JSON, so 11.0 or true do not pass for 11 or 1
            if json.dumps(meta.get(key), sort_keys=True) != json.dumps(value, sort_keys=True):
                raise ContractError(f"{key!r} is {meta.get(key)!r}, but the {model['role']} "
                                    f"its model fields describe has {value!r}")
        params.adopt(arrays, steps)
    except (ConfigError, ContractError) as e:
        raise ParseError(f"model container {path}: {e}") from None
    return params, meta


def _model_header(meta, path):
    """The typed fields of a model header; ParseError names the first bad one."""
    def need(ok, what):
        if not ok:
            raise ParseError(f"model container {path}: {what}")

    sd = meta.get("spec")
    need(isinstance(sd, dict), "'spec' must be an object")
    hidden = sd.get("hidden")
    need(isinstance(hidden, list) and hidden and all(_is_int(w) and w > 0 for w in hidden),
         f"spec 'hidden' must be a non-empty list of positive ints, got {hidden!r}")
    model = meta.get("model")
    need(isinstance(model, dict), "'model' must be an object")
    need(_is_int(model.get("cond_dim")) and model["cond_dim"] > 0,
         f"model 'cond_dim' must be a positive int, got {model.get('cond_dim')!r}")
    shape = model.get("image_shape")
    need(isinstance(shape, list) and len(shape) == 3 and all(_is_int(n) and n > 0 for n in shape),
         f"model 'image_shape' must be three positive ints, got {shape!r}")
    role = model.get("role")
    need(role in ROLE_HEADS,
         f"model 'role' {role!r} is not generator, discriminator or approximator")
    if role == "generator":
        need(_is_int(model.get("noise_dim")) and model["noise_dim"] > 0,
             f"generator 'noise_dim' must be a positive int, got {model.get('noise_dim')!r}")
    if role == "discriminator":
        need(model.get("variant") in [v.value for v in Variant],
             f"discriminator 'variant' {model.get('variant')!r} is unknown")
    hyper = meta.get("hyper")
    need(isinstance(hyper, dict) and sorted(hyper) == sorted(vars(AdamHyper())),
         f"'hyper' must hold exactly the keys {sorted(vars(AdamHyper()))}, got {hyper!r}")
    steps = meta.get("adam_steps")
    need(isinstance(steps, dict) and all(_is_int(n) and n >= 0 for n in steps.values()),
         "'adam_steps' must map names to non-negative ints")
    name = meta.get("name")
    need("name" not in meta or is_report_name(name),
         f"'name' must be one non-empty path component of at most {MAX_NAME_BYTES} bytes of "
         f"UTF-8, got {name!r}")
    return list(hidden), model, hyper, steps


def is_report_name(name) -> bool:
    """Whether eval can name a report file after `name`: one non-empty path
    component of at most MAX_NAME_BYTES bytes of UTF-8."""
    if not isinstance(name, str) or name in ("", ".", "..") or any(ch in name for ch in "/\\\0"):
        return False
    try:
        return len(name.encode("utf-8")) <= MAX_NAME_BYTES
    except UnicodeEncodeError:  # a lone surrogate, which the report table cannot encode
        return False
