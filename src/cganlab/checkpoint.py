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

A model header's role fields and hidden widths fix the network's layout
(models.layer_dims, as for the builders); its spec, in_dim, out_dim,
model.hidden_extra, array shapes and adam_steps must state that layout
exactly. A name, which eval gives a report file, is one path component of
at most MAX_NAME_BYTES bytes of UTF-8.

Adam moments are stored in the parameter's full layout, also where the
network keeps them once for rows tied across pixels (models.tied_rows): save
expands them to every pixel, and load requires the pixels' copies to be the
same bytes before it keeps one.
"""

from __future__ import annotations

import json
import math
import os
from numbers import Real
from pathlib import Path

import numpy as np

from .data import ATOMIC_NAME_EXTRA, NAME_MAX, atomic_write
from .errors import ContractError, ParseError
from .models import ROLE_HEADS, ModelParams, NetworkSpec, Variant, layer_dims
from .tensor import AdamState, Tensor

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


def read_container(path):
    """Read back (meta, arrays); malformed input raises ParseError."""
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


def _is_num(x) -> bool:
    return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)


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


def save_model(path, params: ModelParams, extra: dict | None = None):
    """Checkpoint one network: parameters, Adam state, and rebuild metadata."""
    arrays = params.named_arrays()
    some = next(iter(params.adam.values()))
    meta = {
        "kind": "model",
        "model": dict(params.meta),
        "spec": params.spec.to_dict(),
        "in_dim": params.in_dim,
        "out_dim": params.out_dim,
        "hyper": {"lr": some.lr, "beta1": some.beta1, "beta2": some.beta2,
                  "epsilon": some.epsilon},
        "adam_steps": {name: st.step for name, st in params.adam.items()},
    }
    if extra:
        meta.update(extra)
    write_container(path, meta, arrays)


def load_model(path):
    """Rebuild a ModelParams (with optimizer state) from a checkpoint.

    Every header field and array shape that follows from the layout must
    match it, and tied rows' Adam moments must agree across pixels; anything
    else raises ParseError.
    """
    meta, arrays = read_container(path)
    if meta.get("kind") != "model":
        raise ParseError(f"container {path} holds {meta.get('kind')!r}, not a model")
    hidden, model, hyper, steps = _model_header(meta, path)
    dims = layer_dims(model, hidden)
    spec = NetworkSpec(hidden, ROLE_HEADS[model["role"]])
    derived = {"spec": spec.to_dict(), "in_dim": dims[0][0], "out_dim": dims[-1][1],
               "hidden_extra": dims[-1][0] - hidden[-1]}
    stated = dict(meta, hidden_extra=model.get("hidden_extra", 0))
    for key, value in derived.items():
        # compared as JSON, so 11.0 or true do not pass for 11 or 1
        if json.dumps(stated.get(key), sort_keys=True) != json.dumps(value, sort_keys=True):
            raise ParseError(f"model container {path}: {key!r} is {stated.get(key)!r}, but the "
                             f"{model['role']} its model fields describe has {value!r}")
    expected = {}
    for i, (fan_in, fan_out) in enumerate(dims):
        for name, shape in ((f"l{i}.w", (fan_in, fan_out)), (f"l{i}.b", (fan_out,))):
            expected[name] = expected[f"adam.m:{name}"] = expected[f"adam.v:{name}"] = shape
    if set(arrays) != set(expected):
        raise ParseError(f"model container {path} arrays {sorted(arrays)} do not match "
                         f"its spec, which needs {sorted(expected)}")
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise ParseError(f"model container {path}: array {name!r} has shape "
                             f"{arrays[name].shape}, its spec needs {shape}")
    weights = [Tensor(arrays[f"l{i}.w"]) for i in range(len(dims))]
    biases = [Tensor(arrays[f"l{i}.b"]) for i in range(len(dims))]
    params = ModelParams(weights, biases, spec, dict(model))
    if sorted(steps) != sorted(params.named()):
        raise ParseError(f"model container {path}: 'adam_steps' names {sorted(steps)}, but the "
                         f"network's parameters are {sorted(params.named())}")
    for name in params.named():
        try:
            m, v = params.moments(name, arrays[f"adam.m:{name}"], arrays[f"adam.v:{name}"])
        except ContractError as e:
            raise ParseError(f"model container {path}: Adam moments of {name!r}: {e}") from None
        params.adam[name] = AdamState(steps[name], m, v, hyper["lr"], hyper["beta1"],
                                      hyper["beta2"], hyper["epsilon"])
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
    need(isinstance(hyper, dict)
         and all(_is_num(hyper.get(k)) for k in ("lr", "beta1", "beta2", "epsilon")),
         "'hyper' must hold finite numbers lr, beta1, beta2 and epsilon")
    need(hyper["lr"] >= 0.0 and 0.0 <= hyper["beta1"] < 1.0 and 0.0 <= hyper["beta2"] < 1.0
         and hyper["epsilon"] > 0.0,
         f"'hyper' {hyper} needs lr >= 0, beta1 and beta2 in [0, 1) and epsilon > 0")
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
