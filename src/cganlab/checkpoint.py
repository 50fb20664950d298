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
and sample dumps.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ParseError
from .models import ModelParams, NetworkSpec
from .tensor import AdamState, Tensor

MAGIC = b"CGANLABC"
VERSION = 1


def write_container(path, meta: dict, arrays: dict):
    """Write named float64 arrays with a JSON header. Deterministic bytes."""
    names = sorted(arrays)
    header = {
        "version": VERSION,
        "meta": meta,
        "arrays": [{"name": n, "shape": list(np.asarray(arrays[n]).shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(np.uint32(VERSION).astype("<u4").tobytes())
        f.write(np.uint64(len(blob)).astype("<u8").tobytes())
        f.write(blob)
        for n in names:
            f.write(np.ascontiguousarray(arrays[n], dtype="<f8").tobytes())


def read_container(path):
    """Read back (meta, arrays); malformed input raises ParseError."""
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"container file not found: {p}")
    raw = p.read_bytes()
    if len(raw) < 20:
        raise ParseError(f"container needs a 20-byte preamble, file has {len(raw)}", offset=0)
    if raw[:8] != MAGIC:
        raise ParseError(f"bad container magic {raw[:8]!r}, expected {MAGIC!r}", offset=0)
    version = int(np.frombuffer(raw, dtype="<u4", count=1, offset=8)[0])
    if version != VERSION:
        raise ParseError(f"unsupported container version {version}", offset=8)
    hlen = int(np.frombuffer(raw, dtype="<u8", count=1, offset=12)[0])
    if 20 + hlen > len(raw):
        raise ParseError(f"header length {hlen} overruns file of {len(raw)} bytes", offset=12)
    try:
        header = json.loads(raw[20:20 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"container header is not valid JSON: {e}", offset=20) from None
    arrays = {}
    at = 20 + hlen
    for entry in header.get("arrays", []):
        shape = tuple(int(s) for s in entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if at + nbytes > len(raw):
            raise ParseError(f"array {entry['name']!r} overruns file", offset=at)
        arrays[entry["name"]] = np.frombuffer(raw, dtype="<f8", count=count,
                                              offset=at).reshape(shape).astype(np.float64)
        at += nbytes
    if at != len(raw):
        raise ParseError(f"{len(raw) - at} trailing bytes after declared arrays", offset=at)
    return header.get("meta", {}), arrays


# ----------------------------------------------------------------------
# model checkpoints


def save_model(path, params: ModelParams, extra: dict | None = None):
    """Checkpoint one network: parameters, Adam state, and rebuild metadata."""
    arrays = params.snapshot()
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
    """Rebuild a ModelParams (with optimizer state) from a checkpoint."""
    meta, arrays = read_container(path)
    if meta.get("kind") != "model":
        raise ParseError(f"container {path} holds {meta.get('kind')!r}, not a model")
    spec = NetworkSpec.from_dict(meta["spec"])
    hyper = meta["hyper"]
    weights, biases = [], []
    i = 0
    while f"l{i}.w" in arrays:
        weights.append(Tensor(arrays[f"l{i}.w"]))
        biases.append(Tensor(arrays[f"l{i}.b"]))
        i += 1
    if not weights:
        raise ParseError(f"model container {path} holds no layers")
    params = ModelParams(weights, biases, spec, int(meta["in_dim"]), int(meta["out_dim"]),
                         dict(meta["model"]))
    for name, t in params.named().items():
        st = AdamState(int(meta["adam_steps"].get(name, 0)),
                       arrays[f"adam.m:{name}"].copy(), arrays[f"adam.v:{name}"].copy(),
                       hyper["lr"], hyper["beta1"], hyper["beta2"], hyper["epsilon"])
        params.adam[name] = st
    return params, meta
