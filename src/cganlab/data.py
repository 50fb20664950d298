"""Dataset ingestion and synthesis.

Binary loaders for the two classic image corpora (IDX and the 3073-byte
record format), deterministic stratified splits, a conditional Gaussian
mixture generator with an exact log-density oracle, and the small bundled
presets used by the test suite.

Pixels are always mapped to [-1, 1] (to match the tanh generator head) via
x/127.5 - 1, which is exactly invertible on the uint8 lattice.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError
from .rng import RngStream
from .tensor import is_one_hot, one_hot

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_LEN = 3073  # 1 label byte + 32*32*3 pixels, channel-planar

CIFAR10_LABELS = ("airplane", "car", "bird", "cat", "deer",
                  "dog", "frog", "horse", "ship", "truck")

PIXEL_SCALE = "tanh[-1,1]"


def scale_pixels(raw: np.ndarray) -> np.ndarray:
    """uint8 -> float64 in [-1, 1]."""
    return raw.astype(np.float64) / 127.5 - 1.0


def pixels_to_bytes(x: np.ndarray) -> np.ndarray:
    """Inverse of scale_pixels, exact on values that came from uint8."""
    return np.clip(np.rint((np.asarray(x) + 1.0) * 127.5), 0, 255).astype(np.uint8)


def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# the longest file name, in bytes, that common file systems take
NAME_MAX = 255
# atomic_write's temporary file name is the target's name plus at most this
# many bytes: a leading dot and ".<pid>-<8 hex digits>.tmp", with a pid of at
# most 7 digits (Linux's pid_max is at most 2**22)
ATOMIC_NAME_EXTRA = len(".") + len(".4194304-") + 8 + len(".tmp")


@contextlib.contextmanager
def atomic_write(path):
    """Open `path` for binary writing so that it appears whole or not at all.

    The bytes go to a temporary file in the same directory, which replaces
    `path` only when the block exits normally. If the block raises, the
    temporary file is removed and an earlier `path` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ----------------------------------------------------------------------


@dataclass
class LabeledDataset:
    """Images in [-1, 1] with one-hot labels and provenance metadata."""

    images: np.ndarray  # [count, h, w, d] float64
    labels: np.ndarray  # [count, m] one-hot float64
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.validate()

    def validate(self):
        if self.images.ndim != 4:
            raise DataError(f"images must be [count, h, w, d], got shape {self.images.shape}")
        if self.count < 1:
            raise DataError("dataset is empty")
        if self.labels.shape[0] != self.count or self.labels.ndim != 2:
            raise DataError(f"labels shape {self.labels.shape} does not match {self.count} images")
        if not is_one_hot(self.labels):
            raise DataError("every label row must be one-hot")
        lo, hi = self.images.min(), self.images.max()
        if lo < -1.0 or hi > 1.0:
            raise DataError(f"pixel values outside [-1, 1]: range [{lo}, {hi}]")

    @property
    def count(self) -> int:
        return self.images.shape[0]

    @property
    def image_shape(self):
        return tuple(self.images.shape[1:])

    @property
    def cond_dim(self) -> int:
        return self.labels.shape[1]

    def label_indices(self) -> np.ndarray:
        return self.labels.argmax(axis=1)

    def label_counts(self) -> np.ndarray:
        return self.labels.sum(axis=0)

    def subset(self, idx, part=None) -> "LabeledDataset":
        meta = dict(self.meta)
        if part:
            meta["part"] = part
        return LabeledDataset(self.images[idx], self.labels[idx], meta)


def epoch_batches(count: int, batch_size: int, stream: RngStream, start: int, stop: int):
    """Yield (i, row indices) of minibatch i for i in start..stop-1.

    Each epoch draws a fresh permutation of range(count) from
    stream.split(f"epoch-{epoch}"), so batch i depends only on i and the
    stream; a partial trailing batch is dropped.
    """
    per_epoch = count // batch_size
    order, current = None, -1
    for i in range(start, stop):
        epoch, bi = divmod(i, per_epoch)
        if epoch != current:
            order = stream.split(f"epoch-{epoch}").permutation(count)
            current = epoch
        yield i, order[bi * batch_size:(bi + 1) * batch_size]


# ----------------------------------------------------------------------
# IDX format (big-endian; images magic 0x00000803, labels 0x00000801)


def _read_file(path, what):
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{what} file not found: {p}")
    return p.read_bytes()


def parse_idx_image_header(raw: bytes):
    """Validate the 16-byte big-endian image header; returns (count, rows, cols)."""
    if len(raw) < 16:
        raise ParseError(f"IDX image header needs 16 bytes, file has {len(raw)}", offset=0)
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise ParseError(f"bad IDX image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}", offset=0)
    return count, rows, cols


def parse_idx_label_header(raw: bytes) -> int:
    """Validate the 8-byte big-endian label header; returns the item count."""
    if len(raw) < 8:
        raise ParseError(f"IDX label header needs 8 bytes, file has {len(raw)}", offset=0)
    magic, count = struct.unpack(">II", raw[:8])
    if magic != IDX_LABEL_MAGIC:
        raise ParseError(f"bad IDX label magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}", offset=0)
    return count


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Parse an IDX image/label file pair into a scaled, one-hot dataset."""
    return parse_idx(_read_file(images_path, "IDX image"), _read_file(labels_path, "IDX label"),
                     Path(images_path).name)


def parse_idx(img_raw: bytes, lab_raw: bytes, name: str) -> LabeledDataset:
    """The scaled, one-hot dataset of IDX image and label bytes, named `name`.

    Its meta records the SHA-256 of each byte string.
    """
    count, rows, cols = parse_idx_image_header(img_raw)
    expected = count * rows * cols
    if len(img_raw) - 16 != expected:
        raise ParseError(
            f"truncated IDX image data: header promises {expected} bytes, file has {len(img_raw) - 16}",
            offset=16)

    lab_count = parse_idx_label_header(lab_raw)
    if len(lab_raw) - 8 != lab_count:
        raise ParseError(
            f"truncated IDX label data: header promises {lab_count} bytes, file has {len(lab_raw) - 8}",
            offset=8)
    if lab_count != count:
        raise ParseError(f"image count {count} != label count {lab_count}", offset=4)

    pixels = np.frombuffer(img_raw, dtype=np.uint8, offset=16).reshape(count, rows, cols, 1)
    label_bytes = np.frombuffer(lab_raw, dtype=np.uint8, offset=8)
    bad = np.nonzero(label_bytes > 9)[0]
    if bad.size:
        raise ParseError(f"label value {label_bytes[bad[0]]} outside 0..9", offset=8 + int(bad[0]))
    labels = one_hot(label_bytes, 10)
    meta = {"name": name, "scale": PIXEL_SCALE,
            "checksum": hashlib.sha256(img_raw).hexdigest(),
            "label_checksum": hashlib.sha256(lab_raw).hexdigest()}
    return LabeledDataset(scale_pixels(pixels), labels, meta)


def idx_image_bytes(images: np.ndarray) -> bytes:
    """uint8 images [n, rows, cols] in the IDX layout."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    return b"".join((struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols), images.data))


def idx_label_bytes(labels: np.ndarray) -> bytes:
    """uint8 labels [n] in the IDX layout."""
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    return b"".join((struct.pack(">II", IDX_LABEL_MAGIC, labels.shape[0]), labels.data))


# ----------------------------------------------------------------------
# CIFAR-10 binary format


def load_cifar10_binary(paths) -> LabeledDataset:
    """Parse one or more CIFAR-10 .bin files (3073-byte records)."""
    if isinstance(paths, (str, Path)):
        paths = [paths]
    if not paths:
        raise DataError("no CIFAR-10 files given")
    all_images, all_labels = [], []
    checksums = []
    for path in paths:
        raw = _read_file(path, "CIFAR-10 batch")
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_LEN != 0:
            raise ParseError(
                f"CIFAR-10 file length {len(raw)} is not a positive multiple of {CIFAR_RECORD_LEN}",
                offset=len(raw) - len(raw) % CIFAR_RECORD_LEN)
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_LEN)
        label_bytes = records[:, 0]
        bad = np.nonzero(label_bytes > 9)[0]
        if bad.size:
            raise ParseError(f"label value {label_bytes[bad[0]]} outside 0..9",
                             offset=int(bad[0]) * CIFAR_RECORD_LEN)
        # channel-planar (3, 32, 32) -> interleaved (32, 32, 3)
        px = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
        all_images.append(px)
        all_labels.append(label_bytes)
        checksums.append(hashlib.sha256(raw).hexdigest())
    pixels = np.concatenate(all_images)
    labels = one_hot(np.concatenate(all_labels), 10)
    meta = {"name": Path(paths[0]).name, "scale": PIXEL_SCALE, "checksum": ",".join(checksums),
            "label_names": list(CIFAR10_LABELS)}
    return LabeledDataset(scale_pixels(pixels), labels, meta)


# ----------------------------------------------------------------------
# splits


def split(dataset: LabeledDataset, fractions, seed) -> tuple:
    """Deterministic stratified (train, valid, test) split.

    Every part receives each label's share within one sample of the exact
    proportion; parts are disjoint and jointly exhaustive.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise DataError(f"all three split fractions must be positive, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError(f"split fractions must sum to 1, got {sum(fractions)}")
    stream = RngStream(seed, ("split",))
    label_idx = dataset.label_indices()
    parts = [[], [], []]
    for lab in np.unique(label_idx):
        members = np.nonzero(label_idx == lab)[0]
        n = members.size
        if n < len(fractions):
            raise DataError(f"label {lab} has only {n} samples, fewer than {len(fractions)} split parts")
        order = members[stream.split(f"label-{lab}").permutation(n)]
        counts = _largest_remainder(n, fractions)
        at = 0
        for pi, c in enumerate(counts):
            parts[pi].append(order[at:at + c])
            at += c
    out = []
    for pi, name in enumerate(("train", "valid", "test")):
        idx = np.sort(np.concatenate(parts[pi]))
        out.append(dataset.subset(idx, part=name))
    return tuple(out)


def _largest_remainder(n: int, fractions) -> list:
    raw = [f * n for f in fractions]
    base = [int(math.floor(r)) for r in raw]
    short = n - sum(base)
    rema = sorted(range(len(raw)), key=lambda i: (raw[i] - base[i], -i), reverse=True)
    for i in range(short):
        base[rema[i]] += 1
    # every part must be non-empty when its fraction is positive
    for i in range(len(base)):
        if base[i] == 0:
            donor = max(range(len(base)), key=lambda j: base[j])
            base[donor] -= 1
            base[i] += 1
    return base


# ----------------------------------------------------------------------
# conditional Gaussian mixtures with an exact oracle


@dataclass
class MixtureComponent:
    weight: float
    mean: np.ndarray
    var: np.ndarray  # diagonal covariance entries

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.var = np.asarray(self.var, dtype=np.float64)


@dataclass
class MixtureSpec:
    """Per-condition lists of (weight, mean, diagonal variance)."""

    components: list  # list over conditions of list[MixtureComponent]
    dim: int

    @property
    def cond_count(self) -> int:
        return len(self.components)

    def validate(self):
        if self.cond_count < 1 or self.dim < 1:
            raise DataError("mixture needs at least one condition and one dimension")
        for ci, comps in enumerate(self.components):
            if not comps:
                raise DataError(f"condition {ci} has no components")
            total = sum(c.weight for c in comps)
            if any(c.weight <= 0 for c in comps) or abs(total - 1.0) > 1e-9:
                raise DataError(f"condition {ci} weights must be positive and sum to 1")
            for c in comps:
                if c.mean.shape != (self.dim,) or c.var.shape != (self.dim,):
                    raise DataError(f"condition {ci} component shapes disagree with dim {self.dim}")
                if np.any(c.var <= 0):
                    raise DataError(f"condition {ci} has non-positive variance entries")


class MixtureOracle:
    """Exact conditional log-density and sampler for a MixtureSpec."""

    def __init__(self, spec: MixtureSpec):
        spec.validate()
        self.spec = spec

    def log_density(self, x, cond: int):
        """log p(x | cond) for x of shape [D] or [T, D]."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        pts = x.reshape(1, -1) if squeeze else x
        if pts.shape[1] != self.spec.dim:
            raise DataError(f"points have dim {pts.shape[1]}, mixture has {self.spec.dim}")
        comps = self.spec.components[cond]
        per = np.empty((pts.shape[0], len(comps)))
        for j, c in enumerate(comps):
            z2 = ((pts - c.mean) ** 2 / c.var).sum(axis=1)
            norm = np.log(2.0 * np.pi * c.var).sum()
            per[:, j] = math.log(c.weight) - 0.5 * (z2 + norm)
        m = per.max(axis=1)
        ll = m + np.log(np.exp(per - m[:, None]).sum(axis=1))
        return float(ll[0]) if squeeze else ll

    def sample(self, cond: int, count: int, stream: RngStream) -> np.ndarray:
        comps = self.spec.components[cond]
        weights = np.array([c.weight for c in comps])
        picks = stream.choice(len(comps), size=count, p=weights)
        eps = stream.normal(size=(count, self.spec.dim))
        means = np.stack([c.mean for c in comps])
        sds = np.sqrt(np.stack([c.var for c in comps]))
        return means[picks] + sds[picks] * eps


def synth_mixture(spec: MixtureSpec, count_per_condition: int, seed) -> tuple:
    """Draw a labeled dataset (images of shape 1x1xD) plus its oracle."""
    spec.validate()
    if count_per_condition < 1:
        raise DataError("count_per_condition must be positive")
    oracle = MixtureOracle(spec)
    stream = RngStream(seed, ("synth-mixture",))
    xs, ys = [], []
    for cond in range(spec.cond_count):
        pts = oracle.sample(cond, count_per_condition, stream.split(f"cond-{cond}"))
        xs.append(pts)
        ys.append(one_hot(np.full(count_per_condition, cond), spec.cond_count))
    images = np.concatenate(xs).reshape(-1, 1, 1, spec.dim)
    labels = np.concatenate(ys)
    meta = {"name": "synthetic-mixture", "scale": PIXEL_SCALE,
            "checksum": sha256_arrays(images, labels)}
    return LabeledDataset(images, labels, meta), oracle


# ----------------------------------------------------------------------
# pooling


def adaptive_avg_pool(images: np.ndarray, out_hw: int) -> np.ndarray:
    """Average-pool [n, h, w, d] images onto an out_hw x out_hw grid."""
    n, h, w, d = images.shape
    ys = [int(math.floor(i * h / out_hw)) for i in range(out_hw + 1)]
    xs = [int(math.floor(i * w / out_hw)) for i in range(out_hw + 1)]
    out = np.empty((n, out_hw, out_hw, d))
    for i in range(out_hw):
        for j in range(out_hw):
            block = images[:, ys[i]:ys[i + 1], xs[j]:xs[j + 1], :]
            out[:, i, j, :] = block.mean(axis=(1, 2))
    return out


# ----------------------------------------------------------------------
# bundled presets


def mixture_3x2_spec() -> MixtureSpec:
    """Three conditions on a circle, two Gaussian blobs each, D=2.

    Geometry is sized so that all mass sits comfortably inside [-1, 1]^2
    (the generator's tanh range): centers at radius 0.55, component offset
    0.12 along the local tangent, sd 0.09 per axis.
    """
    radius, offset, var = 0.55, 0.12, 0.09 ** 2
    conds = []
    for i in range(3):
        theta = 2.0 * math.pi * i / 3.0
        center = np.array([radius * math.cos(theta), radius * math.sin(theta)])
        tangent = np.array([-math.sin(theta), math.cos(theta)])
        conds.append([
            MixtureComponent(0.5, center + offset * tangent, np.array([var, var])),
            MixtureComponent(0.5, center - offset * tangent, np.array([var, var])),
        ])
    return MixtureSpec(conds, dim=2)


def mixture_3x2(seed=2024):
    """Bundled mixture preset, 2000 points per condition: (train, valid, test, oracle)."""
    ds, oracle = synth_mixture(mixture_3x2_spec(), 2000, seed)
    train, valid, test = split(ds, (0.7, 0.15, 0.15), seed)
    return train, valid, test, oracle


# -- procedurally rendered digit glyphs (0, 1, 2) -----------------------
#
# A self-contained stand-in for handwritten-digit data: 28x28 strokes with
# random shift, thickness, intensity and noise, written through the real IDX
# serializer so the whole parser path is exercised.


def _glyph_points(label: int):
    if label == 0:
        t = np.linspace(0, 2 * math.pi, 80)
        return list(zip(14 + 7.0 * np.sin(t), 14 + 4.6 * np.cos(t)))
    if label == 1:
        ys = np.linspace(6.5, 21.5, 40)
        pts = [(y, 14.5 - 0.04 * (y - 14)) for y in ys]
        flag = np.linspace(0, 1, 12)
        pts += [(6.5 + 3.0 * s, 14.5 - 3.2 * s) for s in flag]
        return pts
    if label == 2:
        arc = np.linspace(math.pi, -0.35, 50)
        pts = [(10.5 - 4.6 * math.sin(u), 14 + 4.6 * math.cos(u)) for u in arc]
        end_y, end_x = pts[-1]
        diag = np.linspace(0, 1, 40)
        pts += [(end_y + (21.0 - end_y) * s, end_x + (9.5 - end_x) * s) for s in diag]
        pts += [(21.0, 9.5 + 9.0 * s) for s in np.linspace(0, 1, 30)]
        return pts
    raise DataError(f"no glyph for label {label}")


# Digits of one label rendered together are bounded so that their
# [B, P, 4, 4] stroke-window squared distances fill at most GLYPH_BLOCK bytes.
GLYPH_BLOCK = 1 << 20

# Offsets from floor(p_y) of the rows, and from floor(p_x) of the columns, that
# a stroke point p can light: the radius is below 1.7, so a lit pixel's row y
# has |y - p_y| < 2, which leaves floor(p_y) - 1 .. floor(p_y) + 2.
_WINDOW = np.arange(-1, 3)


def _glyph_chunk(outline: np.ndarray) -> int:
    """Digits per chunk for a stroke of outline.shape[0] points."""
    return max(1, GLYPH_BLOCK // (outline.shape[0] * _WINDOW.size ** 2 * 8))


def _render_glyphs(outline: np.ndarray, streams) -> np.ndarray:
    """Noisy 28x28 uint8 glyphs of one stroke, one per stream: [B, 28, 28].

    Each glyph draws its shift, radius, intensity and noise from its own
    stream. A pixel (y, x) is lit when (y - p_y)^2 + (x - p_x)^2 <= r^2 for
    some stroke point p; the lit canvas is box-blurred, noised and clipped.
    Every step is elementwise per glyph, so a glyph's bytes do not depend on
    the others rendered with it.
    """
    n = len(streams)
    shift, r, val, noise = np.empty((n, 2)), np.empty(n), np.empty(n), np.empty((n, 28, 28))
    for k, s in enumerate(streams):
        shift[k] = s.uniform(-2.0, 2.0, 2)
        r[k] = s.uniform(1.0, 1.7)
        val[k] = s.uniform(175.0, 255.0)
        noise[k] = s.uniform(0.0, 25.0, (28, 28))
    pts = outline + shift[:, None, :]  # [B, P, 2]
    near = np.floor(pts).astype(np.intp)[..., None] + _WINDOW  # [B, P, 2, 4]: rows, columns
    d = (near - pts[..., None]) ** 2
    hit = d[:, :, 0, :, None] + d[:, :, 1, None, :] <= (r * r)[:, None, None, None]
    # Scatter the hits onto [B, 30, 30] canvases with a one-pixel border; a
    # hit off the 28x28 grid is clipped onto the border, which is then cleared.
    at = np.clip(near + 1, 0, 29)
    rows = at[:, :, 0, :] * 30 + (np.arange(n) * 900)[:, None, None]
    lit = np.zeros((n, 30, 30), dtype=bool)
    lit.reshape(-1)[(rows[..., None] + at[:, :, 1, None, :])[hit]] = True
    lit[:, [0, -1], :] = lit[:, :, [0, -1]] = False
    padded = np.where(lit, val[:, None, None], 0.0)
    blurred = sum(padded[:, i:i + 28, j:j + 28] for i in range(3) for j in range(3)) / 9.0
    noisy = blurred + noise
    return np.clip(noisy, 0, 255).astype(np.uint8)


def render_digits(count_per_label=700, seed=7) -> tuple:
    """The IDX image and label bytes of a rendered corpus of the glyphs 0, 1 and 2.

    Digit i of label lab draws from stream.split(f"label-{lab}").split(f"i-{i}"),
    so its bytes do not depend on how the digits are chunked.
    """
    if count_per_label < 1:
        raise DataError("count_per_label must be positive")
    stream = RngStream(seed, ("digits",))
    images = []
    for lab in (0, 1, 2):
        s = stream.split(f"label-{lab}")
        outline = np.asarray(_glyph_points(lab))
        chunk = _glyph_chunk(outline)
        for start in range(0, count_per_label, chunk):
            ids = range(start, min(start + chunk, count_per_label))
            images.append(_render_glyphs(outline, [s.split(f"i-{i}") for i in ids]))
    labs = np.repeat(np.arange(3, dtype=np.uint8), count_per_label)
    order = stream.split("interleave").permutation(labs.size)
    images = np.concatenate(images)[order]
    return idx_image_bytes(images), idx_label_bytes(labs[order])


DIGITS_IDX_NAMES = ("digits-images-idx3-ubyte", "digits-labels-idx1-ubyte")


def write_digits_idx(out_dir, raws) -> tuple:
    """Write render_digits' (image, label) bytes into out_dir, each file atomically.

    Returns the (image, label) paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = tuple(out_dir / name for name in DIGITS_IDX_NAMES)
    for path, raw in zip(paths, raws):
        with atomic_write(path) as f:
            f.write(raw)
    return paths


def _three_class_8x8(ds: LabeledDataset, seed, name) -> tuple:
    """Filter labels {0,1,2}, pool to 8x8, split 1500/300/300."""
    labels = ds.label_indices()
    idx = np.nonzero(labels <= 2)[0]
    if idx.size < 2100:
        raise DataError(f"need at least 2100 samples of labels 0..2, found {idx.size}")
    # deterministic stratified subsample down to exactly 2100, copied once
    stream = RngStream(seed, ("subsample",))
    keep = []
    labels = labels[idx]
    for lab in (0, 1, 2):
        members = np.nonzero(labels == lab)[0]
        order = members[stream.split(f"label-{lab}").permutation(members.size)]
        keep.append(order[:700])
    keep = np.sort(np.concatenate(keep))
    sub = ds.subset(idx[keep])
    pooled = adaptive_avg_pool(sub.images, 8)
    meta = dict(sub.meta)
    meta["name"] = name
    ds8 = LabeledDataset(pooled, sub.labels[:, :3], meta)
    return split(ds8, (1500 / 2100, 300 / 2100, 300 / 2100), seed)


def tiny_mnist3(data_dir, seed=11) -> tuple:
    """Real handwritten digits, labels {0,1,2}, pooled to 8x8, 1500/300/300."""
    data_dir = Path(data_dir)
    images = data_dir / "train-images-idx3-ubyte"
    labels = data_dir / "train-labels-idx1-ubyte"
    full = load_idx(images, labels)
    return _three_class_8x8(full, seed, "tiny-mnist-3")


# SHA-256 of the (image, label) files of the tiny-digits-3 corpus rendered
# with each seed; the files of a seed not listed here are never reused
TINY_DIGITS3_SHA256 = {
    11: ("c7a5fb1b4a613de655918e62c050fa05d0e88764211f9bc227e899057fed87a4",
         "5296c3ee6265966ce9357f67314bc8586594958297a765a9f6b271ed8be366c6"),
}


def tiny_digits3(cache_dir=None, seed=11) -> tuple:
    """Self-contained rendered-glyph variant of the tiny three-class preset.

    The rendered IDX pair is kept in cache_dir. It is reused only when its
    bytes hash to TINY_DIGITS3_SHA256[seed]; anything else there, missing,
    truncated or another corpus, is rendered again and written back. The
    render is used as it is when there is no cache_dir, when it cannot be
    written, and when its bytes miss the pin (another numpy may draw other
    bits), so the result never depends on what the directory held.
    """
    full = _pinned_digits(cache_dir, seed)
    if full is None:
        full = _rendered_digits(cache_dir, seed)
    return _three_class_8x8(full, seed, "tiny-digits-3")


def _pinned_digits(cache_dir, seed):
    """The IDX pair in cache_dir as a dataset if its bytes hash to seed's pin, else None."""
    pin = TINY_DIGITS3_SHA256.get(seed)
    if cache_dir is None or pin is None:
        return None
    try:
        full = load_idx(*(Path(cache_dir) / name for name in DIGITS_IDX_NAMES))
    except (DataError, OSError):
        return None
    return full if (full.meta["checksum"], full.meta["label_checksum"]) == pin else None


def _rendered_digits(cache_dir, seed) -> LabeledDataset:
    """A fresh render as a dataset, written into cache_dir (if any) when it can be."""
    raws = render_digits(700, seed)
    if cache_dir is not None:
        with contextlib.suppress(OSError):
            write_digits_idx(cache_dir, raws)
    return parse_idx(*raws, DIGITS_IDX_NAMES[0])
