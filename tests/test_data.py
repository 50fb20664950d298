import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from cganlab import data
from cganlab.data import (CIFAR10_LABELS, CIFAR_RECORD_LEN, DIGITS_IDX_NAMES,
                          TINY_DIGITS3_SHA256, LabeledDataset, MixtureComponent, MixtureSpec,
                          MixtureOracle, _glyph_chunk, _glyph_points, adaptive_avg_pool,
                          idx_image_bytes, idx_label_bytes, load_cifar10_binary, load_idx,
                          mixture_3x2_spec, parse_idx_image_header, parse_idx_label_header,
                          pixels_to_bytes, render_digits, scale_pixels, split, synth_mixture,
                          tiny_digits3, tiny_mnist3, write_digits_idx)
from cganlab.errors import DataError, ParseError
from cganlab.rng import RngStream
from conftest import FullDisk, assert_same_digits, render_digit
from fuzzing import (cifar10_record_bytes, cifar_fuzz_cases, idx_fuzz_cases, valid_cifar_file,
                     valid_idx_pair)


# ----------------------------------------------------------------------
# IDX


def test_published_training_header_bytes():
    header = bytes([0, 0, 8, 3, 0, 0, 0xEA, 0x60, 0, 0, 0, 28, 0, 0, 0, 28])
    assert parse_idx_image_header(header) == (60000, 28, 28)


def test_label_header_parses_big_endian_count():
    assert parse_idx_label_header(struct.pack(">II", 0x00000801, 60000)) == 60000


def test_image_magic_on_label_file_names_expected_value(tmp_path):
    img, lab = valid_idx_pair()
    bad_lab = struct.pack(">I", 0x00000803) + lab[4:]
    (tmp_path / "img").write_bytes(img)
    (tmp_path / "lab").write_bytes(bad_lab)
    with pytest.raises(ParseError) as err:
        load_idx(tmp_path / "img", tmp_path / "lab")
    assert "0x00000801" in str(err.value)


def test_idx_round_trip_and_pixel_scaling(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (6, 5, 5), dtype=np.uint8)
    images[0, 0, 0] = 255
    images[0, 0, 1] = 0
    labels = np.array([0, 1, 2, 3, 4, 9], dtype=np.uint8)
    (tmp_path / "img").write_bytes(idx_image_bytes(images))
    (tmp_path / "lab").write_bytes(idx_label_bytes(labels))
    ds = load_idx(tmp_path / "img", tmp_path / "lab")
    assert ds.count == 6 and ds.image_shape == (5, 5, 1) and ds.cond_dim == 10
    assert ds.images[0, 0, 0, 0] == 1.0 and ds.images[0, 0, 1, 0] == -1.0
    np.testing.assert_array_equal(ds.label_indices(), labels)
    # scaling is exactly invertible on the uint8 lattice
    np.testing.assert_array_equal(pixels_to_bytes(ds.images)[..., 0], images)


def file_sha256(path) -> str:
    """SHA-256 of a file as read back from disk, in 1 MiB pieces."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for piece in iter(lambda: f.read(1 << 20), b""):
            h.update(piece)
    return h.hexdigest()


def test_idx_checksums_are_the_files_sha256(tmp_path):
    img, lab = valid_idx_pair()
    (tmp_path / "img").write_bytes(img)
    (tmp_path / "lab").write_bytes(lab)
    ds = load_idx(tmp_path / "img", tmp_path / "lab")
    assert ds.meta["checksum"] == file_sha256(tmp_path / "img")
    assert ds.meta["label_checksum"] == file_sha256(tmp_path / "lab")


def test_scaling_invertible_for_every_byte():
    all_bytes = np.arange(256, dtype=np.uint8)
    np.testing.assert_array_equal(pixels_to_bytes(scale_pixels(all_bytes)), all_bytes)


def test_truncated_image_file_reports_offset(tmp_path):
    img, lab = valid_idx_pair()
    (tmp_path / "img").write_bytes(img[:-3])
    (tmp_path / "lab").write_bytes(lab)
    with pytest.raises(ParseError) as err:
        load_idx(tmp_path / "img", tmp_path / "lab")
    assert "byte offset" in str(err.value)


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError) as err:
        load_idx(tmp_path / "nope", tmp_path / "nope2")
    assert "nope" in str(err.value)


def test_idx_fuzz_corpus_rejected(tmp_path):
    cases = idx_fuzz_cases(100)
    assert len(cases) == 100
    for name, img, lab in cases:
        (tmp_path / "img").write_bytes(img)
        (tmp_path / "lab").write_bytes(lab)
        with pytest.raises(ParseError) as err:
            load_idx(tmp_path / "img", tmp_path / "lab")
        assert str(err.value), name


# ----------------------------------------------------------------------
# CIFAR-10 binary


def test_cifar_record_layout(tmp_path):
    rng = np.random.default_rng(1)
    img0 = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    data = cifar10_record_bytes(img0, 6) + valid_cifar_file(records=2, seed=2)
    path = tmp_path / "batch.bin"
    path.write_bytes(data)
    ds = load_cifar10_binary(path)
    assert ds.count == 3 and ds.image_shape == (32, 32, 3) and ds.cond_dim == 10
    assert ds.label_indices()[0] == 6
    assert CIFAR10_LABELS[6] == "frog"
    np.testing.assert_array_equal(pixels_to_bytes(ds.images[0]), img0)


def test_cifar_round_trip_reproduces_source_bytes(tmp_path):
    src = valid_cifar_file(records=4, seed=3)
    path = tmp_path / "batch.bin"
    path.write_bytes(src)
    ds = load_cifar10_binary(path)
    rebuilt = b"".join(
        cifar10_record_bytes(pixels_to_bytes(ds.images[i]), int(ds.label_indices()[i]))
        for i in range(4))
    assert rebuilt == src


def test_cifar_length_rule(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(valid_cifar_file() + b"\x00")
    with pytest.raises(ParseError) as err:
        load_cifar10_binary(path)
    assert str(CIFAR_RECORD_LEN) in str(err.value)


def test_cifar_fuzz_corpus_rejected(tmp_path):
    cases = cifar_fuzz_cases(100)
    assert len(cases) == 100
    for name, blob in cases:
        path = tmp_path / "batch.bin"
        path.write_bytes(blob)
        with pytest.raises(ParseError) as err:
            load_cifar10_binary(path)
        assert str(err.value), name


def test_cifar_concatenates_multiple_files(tmp_path):
    p1, p2 = tmp_path / "b1.bin", tmp_path / "b2.bin"
    p1.write_bytes(valid_cifar_file(records=2, seed=4))
    p2.write_bytes(valid_cifar_file(records=3, seed=5))
    ds = load_cifar10_binary([p1, p2])
    assert ds.count == 5
    assert ds.meta["checksum"] == f"{file_sha256(p1)},{file_sha256(p2)}"


# ----------------------------------------------------------------------
# splits


def synthetic_ds(counts=(30, 50, 20), seed=0):
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for lab, n in enumerate(counts):
        images.append(rng.uniform(-1, 1, (n, 2, 2, 1)))
        onehot = np.zeros((n, len(counts)))
        onehot[:, lab] = 1.0
        labels.append(onehot)
    return LabeledDataset(np.concatenate(images), np.concatenate(labels), {})


def test_split_requires_positive_fractions():
    ds = synthetic_ds()
    with pytest.raises(DataError):
        split(ds, (1.0, 0.0, 0.0), 1)
    with pytest.raises(DataError):
        split(ds, (0.5, 0.4, 0.2), 1)


def test_split_deterministic():
    ds = synthetic_ds()
    a = split(ds, (0.6, 0.2, 0.2), seed=7)
    b = split(ds, (0.6, 0.2, 0.2), seed=7)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.images, y.images)


def test_split_partition_properties(rng):
    for trial in range(5):
        counts = tuple(rng.integers(10, 60, 3))
        ds = synthetic_ds(counts, seed=trial)
        parts = split(ds, (0.55, 0.25, 0.2), seed=trial)
        all_rows = np.concatenate([p.images.reshape(p.count, -1) for p in parts])
        src_rows = ds.images.reshape(ds.count, -1)
        assert all_rows.shape == src_rows.shape
        assert {tuple(r) for r in all_rows} == {tuple(r) for r in src_rows}
        total = sum(p.count for p in parts)
        assert total == ds.count


def test_split_stratification_within_one_sample():
    ds = synthetic_ds((31, 47, 22))
    fractions = (0.6, 0.25, 0.15)
    parts = split(ds, fractions, seed=3)
    for lab, n in enumerate((31, 47, 22)):
        for part, frac in zip(parts, fractions):
            got = int(part.labels[:, lab].sum())
            assert abs(got - frac * n) < 1.0 + 1e-9


def test_split_label_smaller_than_parts():
    ds = synthetic_ds((2, 30, 30))
    with pytest.raises(DataError):
        split(ds, (0.4, 0.3, 0.3), seed=1)


# ----------------------------------------------------------------------
# dataset invariants


def test_dataset_validation():
    with pytest.raises(DataError):
        LabeledDataset(np.zeros((2, 2, 2, 1)), np.array([[0.5, 0.5], [1.0, 0.0]]), {})
    with pytest.raises(DataError):
        LabeledDataset(np.full((1, 2, 2, 1), 1.5), np.array([[1.0]]), {})
    with pytest.raises(DataError):
        LabeledDataset(np.zeros((2, 2, 2, 1)), np.array([[1.0, 0.0]]), {})


def test_dataset_refuses_nan_pixels():
    images = np.zeros((3, 1, 1, 2))
    images[1, 0, 0, 1] = np.nan
    with pytest.raises(DataError, match="outside"):
        LabeledDataset(images, np.eye(3), {})


# ----------------------------------------------------------------------
# mixtures


def test_mixture_oracle_gaussian_peak():
    spec = MixtureSpec([[MixtureComponent(1.0, np.zeros(2), np.ones(2))]], dim=2)
    oracle = MixtureOracle(spec)
    assert abs(oracle.log_density(np.zeros(2), 0) + np.log(2 * np.pi)) < 1e-12


def test_mixture_oracle_symmetry(rng):
    mu = np.array([0.3, -0.2])
    spec = MixtureSpec([[MixtureComponent(0.5, mu, np.full(2, 0.04)),
                         MixtureComponent(0.5, -mu, np.full(2, 0.04))]], dim=2)
    oracle = MixtureOracle(spec)
    for _ in range(20):
        x = rng.normal(size=2)
        assert abs(oracle.log_density(x, 0) - oracle.log_density(-x, 0)) < 1e-12


def test_mixture_sampler_and_oracle_consistency():
    spec = mixture_3x2_spec()
    oracle = MixtureOracle(spec)
    n = 100_000
    lls = []
    for rep in range(2):
        pts = oracle.sample(1, n, RngStream(rep, ("mc",)))
        vals = oracle.log_density(pts, 1)
        lls.append((vals.mean(), vals.std(ddof=1) / np.sqrt(n)))
    diff = abs(lls[0][0] - lls[1][0])
    se = np.hypot(lls[0][1], lls[1][1])
    assert diff < 3.0 * se


def test_synth_mixture_dataset_shape():
    ds, oracle = synth_mixture(mixture_3x2_spec(), 50, seed=3)
    assert ds.count == 150 and ds.image_shape == (1, 1, 2) and ds.cond_dim == 3
    np.testing.assert_array_equal(ds.label_counts(), [50, 50, 50])
    ds2, _ = synth_mixture(mixture_3x2_spec(), 50, seed=3)
    np.testing.assert_array_equal(ds.images, ds2.images)


def test_synth_mixture_validates_spec():
    bad = MixtureSpec([[MixtureComponent(0.7, np.zeros(2), np.ones(2))]], dim=2)
    with pytest.raises(DataError):
        synth_mixture(bad, 10, seed=0)


# ----------------------------------------------------------------------
# pooling and the bundled digit corpus


def test_adaptive_pool_averages_blocks():
    img = np.arange(16.0).reshape(1, 4, 4, 1)
    out = adaptive_avg_pool(img, 2)
    np.testing.assert_array_equal(out[0, :, :, 0], [[2.5, 4.5], [10.5, 12.5]])


def test_adaptive_pool_uneven_bins():
    img = np.ones((2, 28, 28, 1))
    out = adaptive_avg_pool(img, 8)
    assert out.shape == (2, 8, 8, 1)
    np.testing.assert_allclose(out, 1.0)


def test_render_digit_deterministic():
    a = render_digit(2, RngStream(3, ("d",)))
    b = render_digit(2, RngStream(3, ("d",)))
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.uint8 and a.shape == (28, 28)
    assert a.max() > 100  # glyph is actually drawn


def test_render_digit_matches_whole_grid_formula():
    """The reference's row and column distance terms give the bytes of the direct 784 x P form."""
    for label in (0, 1, 2):
        outline = np.asarray(_glyph_points(label))
        for seed in range(4):
            got = render_digit(label, RngStream(seed, ("d",)), outline)
            assert np.array_equal(got, render_digit(label, RngStream(seed, ("d",))))
            s = RngStream(seed, ("d",))
            pts = outline + s.uniform(-2.0, 2.0, 2)
            r, val = s.uniform(1.0, 1.7), s.uniform(175.0, 255.0)
            gy, gx = np.mgrid[0:28, 0:28]
            d2 = ((gy.reshape(-1, 1) - pts[:, 0]) ** 2
                  + (gx.reshape(-1, 1) - pts[:, 1]) ** 2).min(axis=1)
            canvas = np.pad(np.where(d2 <= r * r, val, 0.0).reshape(28, 28), 1)
            blurred = sum(canvas[i:i + 28, j:j + 28] for i in range(3) for j in range(3)) / 9.0
            want = np.clip(blurred + s.uniform(0.0, 25.0, (28, 28)), 0, 255).astype(np.uint8)
            assert np.array_equal(got, want), (label, seed)


def test_digit_corpus_written_through_idx(tmp_path):
    img_path, lab_path = write_digits_idx(tmp_path, render_digits(count_per_label=5, seed=1))
    ds = load_idx(img_path, lab_path)
    assert ds.count == 15
    assert sorted(np.unique(ds.label_indices())) == [0, 1, 2]


def test_digit_corpus_needs_a_digit_per_label(tmp_path):
    for count in (0, -1):
        with pytest.raises(DataError, match="count_per_label"):
            render_digits(count_per_label=count, seed=1)


def reference_corpus(count_per_label, seed):
    """The IDX bytes render_digits must return, from one render_digit per glyph."""
    stream = RngStream(seed, ("digits",))
    glyphs = []
    for lab in (0, 1, 2):
        s = stream.split(f"label-{lab}")
        glyphs += [render_digit(lab, s.split(f"i-{i}")) for i in range(count_per_label)]
    labs = np.repeat(np.arange(3, dtype=np.uint8), count_per_label)
    order = stream.split("interleave").permutation(labs.size)
    return idx_image_bytes(np.stack(glyphs)[order]), idx_label_bytes(labs[order])


def test_digit_corpus_matches_one_glyph_at_a_time():
    """Batched rendering gives the reference's bytes within one chunk and across chunk edges."""
    chunks = [_glyph_chunk(np.asarray(_glyph_points(lab))) for lab in (0, 1, 2)]
    below, above = min(chunks) - 1, max(chunks) + 1
    assert below >= 5  # every label fits one chunk at 1, 5 and `below`, none at `above`
    for seed in (1, 7, 12345):
        for count in (1, 5, below, above):
            assert render_digits(count, seed) == reference_corpus(count, seed), (seed, count)


TINY_DIGITS3_IMAGES_SHA256 = "c7a5fb1b4a613de655918e62c050fa05d0e88764211f9bc227e899057fed87a4"
TINY_DIGITS3_LABELS_SHA256 = "5296c3ee6265966ce9357f67314bc8586594958297a765a9f6b271ed8be366c6"


def test_tiny_digits_source_files_pinned(tmp_path, digits_data):
    img_path, lab_path = write_digits_idx(tmp_path, render_digits(count_per_label=700, seed=11))
    assert file_sha256(img_path) == TINY_DIGITS3_IMAGES_SHA256
    assert file_sha256(lab_path) == TINY_DIGITS3_LABELS_SHA256
    # the pin that lets tiny_digits3 reuse its files is this test's
    assert TINY_DIGITS3_SHA256 == {11: (TINY_DIGITS3_IMAGES_SHA256, TINY_DIGITS3_LABELS_SHA256)}
    for part in digits_data:
        assert part.meta["checksum"] == TINY_DIGITS3_IMAGES_SHA256
        assert part.meta["label_checksum"] == TINY_DIGITS3_LABELS_SHA256


def test_tiny_digits_preset_shape(digits_data):
    train_ds, valid_ds, test_ds = digits_data
    assert (train_ds.count, valid_ds.count, test_ds.count) == (1500, 300, 300)
    assert train_ds.image_shape == (8, 8, 1) and train_ds.cond_dim == 3
    np.testing.assert_array_equal(train_ds.label_counts(), [500, 500, 500])


# ----------------------------------------------------------------------
# the tiny-digits-3 cache: whatever a directory holds, tiny_digits3 gives a
# fresh render's data, and a usable directory is left holding the pinned files


@pytest.fixture(scope="module")
def pinned_files():
    return render_digits(700, 11)


def holds_pinned_files(cache) -> bool:
    return tuple(file_sha256(cache / name) for name in DIGITS_IDX_NAMES) \
        == TINY_DIGITS3_SHA256[11]


def test_tiny_digits_cache_hit_renders_nothing(tmp_path, pinned_files, digits_data, monkeypatch):
    from cganlab import data
    write_digits_idx(tmp_path, pinned_files)
    monkeypatch.setattr(data, "render_digits", None)
    assert_same_digits(tiny_digits3(tmp_path, 11), digits_data)
    assert holds_pinned_files(tmp_path)


def flip_a_pixel(img, lab):
    raw = bytearray(img)
    raw[16 + 1000] ^= 1
    return bytes(raw), lab


@pytest.mark.parametrize("corrupt", [
    pytest.param(None, id="absent"),
    pytest.param(flip_a_pixel, id="flipped-image-byte"),
    pytest.param(lambda img, lab: (img[:-100], lab), id="truncated-images"),
    pytest.param(lambda img, lab: (img, lab[:8]), id="labels-without-data"),
    pytest.param(lambda img, lab: (img, render_digits(700, 7)[1]), id="labels-of-seed-7"),
    pytest.param(lambda img, lab: (lab, img), id="files-swapped"),
])
def test_tiny_digits_cache_renders_again_what_misses_the_pin(tmp_path, pinned_files, digits_data,
                                                            corrupt):
    if corrupt is not None:
        for name, raw in zip(DIGITS_IDX_NAMES, corrupt(*pinned_files)):
            (tmp_path / name).write_bytes(raw)
    assert_same_digits(tiny_digits3(tmp_path, 11), digits_data)
    assert holds_pinned_files(tmp_path)


def test_tiny_digits_cache_that_cannot_be_written(tmp_path, pinned_files, digits_data,
                                                  monkeypatch):
    from cganlab import data
    # a directory that cannot be made: its parent is a file
    (tmp_path / "file").write_bytes(b"")
    assert_same_digits(tiny_digits3(tmp_path / "file" / "cache", 11), digits_data)
    # a full disk, over a cache with a flipped byte
    cache = tmp_path / "cache"
    cache.mkdir()
    for name, raw in zip(DIGITS_IDX_NAMES, flip_a_pixel(*pinned_files)):
        (cache / name).write_bytes(raw)
    monkeypatch.setattr(data, "open", FullDisk, raising=False)
    assert_same_digits(tiny_digits3(cache, 11), digits_data)
    assert sorted(p.name for p in cache.iterdir()) == sorted(DIGITS_IDX_NAMES)
    monkeypatch.undo()
    assert_same_digits(tiny_digits3(cache, 11), digits_data)
    assert holds_pinned_files(cache)


def test_tiny_digits_load_builds_no_full_size_subset(tmp_path, pinned_files, digits_data):
    """On a warm cache the 2100 kept 28x28 images (13.2 MB as float64) are
    pooled without a copy of them: the peak is about the source images
    (13.2 MB) plus their 8x8 pools, not the 29 MB of the copy as well."""
    from cganlab import cli
    write_digits_idx(tmp_path, pinned_files)
    tracemalloc.start()
    try:
        info = cli.load_dataset("tiny-digits-3", data_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_digits([info[k] for k in ("train", "valid", "test")], digits_data)
    assert peak < 20e6, peak


def test_tiny_mnist_pools_only_the_rows_it_keeps(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, (6000, 28, 28), dtype=np.uint8)
    labels = (np.arange(6000) % 5).astype(np.uint8)  # 1200 of each of 0..2
    (tmp_path / "train-images-idx3-ubyte").write_bytes(idx_image_bytes(images))
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(idx_label_bytes(labels))
    # every image pooled, then the rows taken: pooling the 8x8 pools again
    # keeps their bits, as each of its 1x1 blocks averages one value
    full = load_idx(tmp_path / "train-images-idx3-ubyte", tmp_path / "train-labels-idx1-ubyte")
    want = data._three_class_8x8(
        LabeledDataset(adaptive_avg_pool(full.images, 8), full.labels, full.meta), 11,
        "tiny-mnist-3")
    pooled, pool = [], data.adaptive_avg_pool
    monkeypatch.setattr(data, "adaptive_avg_pool",
                        lambda images, out_hw: pooled.append(len(images)) or pool(images, out_hw))
    got = tiny_mnist3(tmp_path, 11)
    assert sum(pooled) == 2100
    for g, w in zip(got, want, strict=True):
        assert g.images.tobytes() == w.images.tobytes()
        assert g.labels.tobytes() == w.labels.tobytes() and g.meta == w.meta


def test_tiny_digits_cache_is_kept_per_seed(tmp_path, pinned_files, digits_data):
    write_digits_idx(tmp_path, pinned_files)
    got = tiny_digits3(tmp_path, 7)
    assert_same_digits(got, tiny_digits3(None, 7))
    assert got[0].meta["checksum"] != TINY_DIGITS3_SHA256[11][0]
    # seed 7's files, written back, are not taken for seed 11's
    assert_same_digits(tiny_digits3(tmp_path, 11), digits_data)
    assert holds_pinned_files(tmp_path)
