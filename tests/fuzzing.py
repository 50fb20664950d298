"""Deterministic corpora of corrupted dataset files and checkpoint containers.

Every generated case is invalid by construction; loaders must reject each
one with a diagnostic rather than crash or silently succeed.
"""

import copy
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np

from cganlab.checkpoint import MAGIC, MAX_NAME_BYTES, VERSION, save_model
from cganlab.data import CIFAR_RECORD_LEN, IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC
from cganlab.models import NetworkSpec, build_discriminator, build_generator
from cganlab.rng import RngStream


def valid_idx_pair(n=5, rows=4, cols=4, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, (n, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 10, n, dtype=np.uint8)
    img = struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols) + images.tobytes()
    lab = struct.pack(">II", IDX_LABEL_MAGIC, n) + labels.tobytes()
    return img, lab


def idx_fuzz_cases(count=100, seed=1234):
    """Yield (name, image_bytes, label_bytes) triples, each invalid."""
    rng = np.random.default_rng(seed)
    img, lab = valid_idx_pair()
    cases = []

    def with_header(raw, *fields):
        return struct.pack(">" + "I" * len(fields), *fields) + raw[4 * len(fields):]

    i = 0
    while len(cases) < count:
        kind = i % 8
        i += 1
        if kind == 0:  # wrong image magic
            bad = int(rng.integers(0, 2 ** 31))
            if bad == IDX_IMAGE_MAGIC:
                continue
            cases.append((f"img-magic-{bad:#x}", with_header(img, bad), lab))
        elif kind == 1:  # wrong label magic
            bad = int(rng.integers(0, 2 ** 31))
            if bad == IDX_LABEL_MAGIC:
                continue
            cases.append((f"lab-magic-{bad:#x}", img, with_header(lab, bad)))
        elif kind == 2:  # image count field inconsistent with payload
            bad = int(rng.integers(0, 1000))
            if bad == 5:
                continue
            cases.append((f"img-count-{bad}",
                          with_header(img, IDX_IMAGE_MAGIC, bad), lab))
        elif kind == 3:  # dims inconsistent with payload size
            r, c = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            if r * c == 16:
                continue
            cases.append((f"img-dims-{r}x{c}",
                          with_header(img, IDX_IMAGE_MAGIC, 5, r, c), lab))
        elif kind == 4:  # truncated image payload
            cut = int(rng.integers(1, 60))
            cases.append((f"img-truncated-{cut}", img[:-cut], lab))
        elif kind == 5:  # trailing junk on label file
            extra = int(rng.integers(1, 16))
            cases.append((f"lab-extended-{extra}", img, lab + b"\xff" * extra))
        elif kind == 6:  # image/label count mismatch
            n2 = int(rng.integers(1, 12))
            if n2 == 5:
                continue
            img2, lab2 = valid_idx_pair(n=n2, seed=int(rng.integers(0, 2 ** 16)))
            cases.append((f"count-mismatch-{n2}", img, lab2))
        else:  # label byte out of range
            raw = bytearray(lab)
            pos = 8 + int(rng.integers(0, 5))
            raw[pos] = int(rng.integers(10, 256))
            cases.append((f"lab-value-{raw[pos]}", img, bytes(raw)))
    return cases[:count]


def valid_cifar_file(records=3, seed=0):
    rng = np.random.default_rng(seed)
    out = bytearray()
    for _ in range(records):
        out.append(int(rng.integers(0, 10)))
        out.extend(rng.integers(0, 256, CIFAR_RECORD_LEN - 1, dtype=np.uint8).tobytes())
    return bytes(out)


def cifar10_record_bytes(image_hwc_uint8, label: int) -> bytes:
    """One binary record, label byte then planar pixels; the loader's inverse."""
    img = np.asarray(image_hwc_uint8, dtype=np.uint8)
    assert img.shape == (32, 32, 3), img.shape
    return bytes([int(label)]) + img.transpose(2, 0, 1).tobytes()


def cifar_fuzz_cases(count=100, seed=4321):
    """Yield (name, file_bytes) pairs, each invalid."""
    rng = np.random.default_rng(seed)
    base = valid_cifar_file()
    cases = []
    i = 0
    while len(cases) < count:
        kind = i % 4
        i += 1
        if kind == 0:  # truncation off the record boundary
            cut = int(rng.integers(1, CIFAR_RECORD_LEN))
            cases.append((f"truncated-{cut}", base[:-cut]))
        elif kind == 1:  # trailing junk off the record boundary
            extra = int(rng.integers(1, CIFAR_RECORD_LEN))
            cases.append((f"extended-{extra}", base + b"\x00" * extra))
        elif kind == 2:  # label byte out of range
            raw = bytearray(base)
            rec = int(rng.integers(0, 3))
            raw[rec * CIFAR_RECORD_LEN] = int(rng.integers(10, 256))
            cases.append((f"label-{raw[rec * CIFAR_RECORD_LEN]}", bytes(raw)))
        else:  # empty file
            cases.append(("empty", b""))
    return cases[:count]


def container_bytes(header, payload=b""):
    """A container with an arbitrary JSON header; the preamble is always valid."""
    blob = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<IQ", VERSION, len(blob)) + blob + payload


def valid_model_container(variant=None):
    """(header, payload) of a small checkpoint written by save_model.

    A generator, or with variant a discriminator of that variant.
    """
    if variant is None:
        net = build_generator((2, 2, 1), 3, 4, NetworkSpec([5]), RngStream(1, ("fuzz",)))
    else:
        net = build_discriminator((2, 2, 1), 3, NetworkSpec([5]), variant, RngStream(1, ("fuzz",)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.ckpt"
        save_model(path, net, extra={"name": "net", "train_step": 0})
        raw = path.read_bytes()
    hlen = struct.unpack_from("<Q", raw, 12)[0]
    return json.loads(raw[20:20 + hlen]), raw[20 + hlen:]


def container_fuzz_cases():
    """Yield (name, layer, file_bytes) triples, each invalid.

    Cases of layer "container" break the container schema, which
    read_container must reject; cases of layer "model" are valid containers
    whose model header load_model must reject. The cases from
    "generator-noise-dim-plus-one" on keep every array shape their header
    states, so only a header field that disagrees with the layout the role
    fields imply can reject them; the last keeps the whole header, and only
    the per-pixel copies of cgan's tied Adam moments disagree.
    """
    def entries(*arrays):
        return {"version": VERSION, "meta": {}, "arrays": list(arrays)}

    def container(name, header, payload=b""):
        cases.append((name, "container", container_bytes(header, payload)))

    f8 = b"\x00" * 8
    cases = []
    container("header-is-list", [1, 2])
    container("meta-not-object", {"version": VERSION, "meta": "x", "arrays": []})
    container("arrays-not-list", {"version": VERSION, "meta": {}, "arrays": {"a": [2]}}, f8 * 2)
    container("entry-not-object", entries(3))
    container("entry-without-name", entries({"shape": [2]}), f8 * 2)
    container("entry-int-name", entries({"name": 7, "shape": [2]}), f8 * 2)
    container("string-shape", entries({"name": "a", "shape": "2"}), f8 * 2)
    container("float-dim", entries({"name": "a", "shape": [2.0]}), f8 * 2)
    container("negative-dim", entries({"name": "a", "shape": [-2]}))
    container("huge-shape", entries({"name": "a", "shape": [2 ** 40, 2 ** 40]}), f8)
    container("empty-with-huge-dims", entries({"name": "a", "shape": [0, 2 ** 62, 2 ** 62]}))
    container("duplicate-name", entries({"name": "a", "shape": [1]}, {"name": "a", "shape": [1]}),
              f8 * 2)
    bases = {v: valid_model_container(v) for v in (None, "cgan", "fcgan")}

    def model(name, mutate, base=None):
        header, payload = bases[base]
        h = copy.deepcopy(header)
        mutate(h["meta"], h["arrays"])
        cases.append((name, "model", container_bytes(h, payload)))

    model("model-without-spec", lambda m, a: m.pop("spec"))
    model("spec-hidden-string", lambda m, a: m["spec"].update(hidden="5"))
    model("spec-unknown-activation", lambda m, a: m["spec"].update(activation="swish"))
    model("in-dim-string", lambda m, a: m.update(in_dim="7"))
    model("in-dim-disagrees-with-arrays", lambda m, a: m.update(in_dim=m["in_dim"] + 1))
    model("model-not-object", lambda m, a: m.update(model=[1]))
    model("model-without-cond-dim", lambda m, a: m["model"].pop("cond_dim"))
    model("model-unknown-role", lambda m, a: m["model"].update(role="critic"))
    model("generator-without-noise-dim", lambda m, a: m["model"].pop("noise_dim"))
    model("hyper-without-lr", lambda m, a: m["hyper"].pop("lr"))
    model("hyper-beta1-one", lambda m, a: m["hyper"].update(beta1=1.0))
    model("adam-steps-list", lambda m, a: m.update(adam_steps=[1]))
    model("adam-steps-missing", lambda m, a: m.pop("adam_steps"))
    model("adam-steps-empty", lambda m, a: m.update(adam_steps={}))
    model("adam-steps-without-a-bias", lambda m, a: m["adam_steps"].pop("l0.b"))
    model("adam-steps-unknown-name", lambda m, a: m["adam_steps"].update({"l9.w": 0}))
    for label, bad in (("with-slash", "sub/dir"), ("with-backslash", "sub\\dir"),
                       ("with-nul", "a\0b"), ("dot", "."), ("dot-dot", ".."), ("empty", ""),
                       ("int", 5), ("null", None), ("list", ["g"]), ("x300", "x" * 300),
                       ("two-byte-chars-over-the-bound", "\u00e9" * (MAX_NAME_BYTES // 2 + 1)),
                       ("lone-surrogate", "\ud800")):
        model(f"name-{label}", lambda m, a, bad=bad: m.update(name=bad))
    model("missing-bias", lambda m, a: a[[e["name"] for e in a].index("l0.b")].update(name="l9.b"))
    model("generator-noise-dim-plus-one",
          lambda m, a: m["model"].update(noise_dim=m["model"]["noise_dim"] + 1))
    model("image-shape-of-another-size", lambda m, a: m["model"].update(image_shape=[3, 2, 1]))
    model("spec-activation-tanh", lambda m, a: m["spec"].update(activation="tanh"))
    model("spec-activation-relu", lambda m, a: m["spec"].update(activation="relu"))
    model("spec-alpha-half", lambda m, a: m["spec"].update(alpha=0.5))
    model("generator-softmax-head", lambda m, a: m["spec"].update(head="softmax"))
    model("cgan-with-hidden-extra", lambda m, a: m["model"].update(variant="cgan"), "fcgan")
    model("fcgan-without-hidden-extra", lambda m, a: m["model"].update(variant="fcgan"), "cgan")
    cases.append(("cgan-adam-m-condition-rows-differ-by-pixel", "model", untied_moments()))
    return cases


def untied_moments():
    """A cgan D checkpoint whose pixel-1 `adam.m:l0.w` condition rows differ from pixel 0's."""
    header, payload = valid_model_container("cgan")
    at = 0
    for entry in header["arrays"]:
        if entry["name"] == "adam.m:l0.w":
            break
        at += 8 * math.prod(entry["shape"])
    model = header["meta"]["model"]
    d, m, k = model["image_shape"][2], model["cond_dim"], entry["shape"][1]
    row = (d + m) + d  # pixel 1's first condition row
    raw = bytearray(payload)
    raw[at + 8 * row * k:at + 8 * row * k + 8] = struct.pack("<d", 1e-3)
    return container_bytes(header, bytes(raw))
