"""Command-line entry point.

Subcommands: pretrain-q, train, eval, sample, rerun. Every run writes a
manifest.json holding the fully resolved configuration, dataset checksums,
the SHA-256 of each checkpoint it read, seed and artifact paths.
`read_manifest` alone reads one back: `rerun` repeats the run it records, and
`train --resume DIR` continues the run in DIR, where only --steps and
--checkpoint-every may differ from its settings. Both refuse a dataset or
checkpoint whose digest is not the recorded one.

Conventions: progress goes to stderr; the only stdout output is one final
JSON line per command. Exit codes: 0 success, 2 configuration or usage
error, 3 data or parse error, 1 internal failure.

Option values are resolved in layers: built-in defaults, then an optional
config file (lines of `key = value`, `#` comments), then explicit flags.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import stat
import sys
import tempfile
import time
from pathlib import Path

import click
import numpy as np

from . import data as datamod
from . import __version__
from .checkpoint import MAX_NAME_BYTES, is_report_name, load_model, save_model, write_container
from .data import atomic_write
from .errors import CganlabError, ConfigError, DataError
from .models import NetworkSpec, Variant, classifier_accuracy, pretrain_approximator
from .parzen import (SIGMA_MODES, ParzenConfig, conditional_eval, default_sigma_grid, format_table,
                     generate_samples, report_csv)
from .rng import RngStream
from .tensor import BLAS_THREAD_VARS
from .training import GENERATOR_LOSS_MODES, TrainConfig, TrainLog, train

# ----------------------------------------------------------------------
# datasets


DATA_SEEDS = {"mixture-3x2": 2024, "tiny-mnist-3": 11, "tiny-digits-3": 11,
              "mnist": 11, "cifar10": 11}

DATASET_NAMES = tuple(DATA_SEEDS)

# the two 8x8 three-class presets share one shape
_TINY_PRESET = {"steps": 3000, "batch_size": 64, "lr": 5e-4, "noise_dim": 16,
                "g_hidden": "128,128", "d_hidden": "128", "q_hidden": "64",
                "q_steps": 2000, "irgan_lam": 2.0, "samples_per_condition": 2000}

# desk-scale defaults per dataset, over those of SETTINGS; flags and config files override
PRESETS = {
    "mixture-3x2": {"steps": 5000, "batch_size": 256, "lr": 1.5e-3, "noise_dim": 8,
                    "g_hidden": "64,64", "d_hidden": "64,64", "q_hidden": "32",
                    "q_steps": 1500, "irgan_lam": 2.0, "samples_per_condition": 2000},
    "tiny-mnist-3": _TINY_PRESET,
    "tiny-digits-3": _TINY_PRESET,
    "mnist": {"steps": 30000, "batch_size": 64, "lr": 2e-4, "noise_dim": 64,
              "g_hidden": "512,512", "d_hidden": "512,512", "q_hidden": "256",
              "q_steps": 10000, "samples_per_condition": 10000},
    "cifar10": {"steps": 50000, "batch_size": 64, "lr": 2e-4, "noise_dim": 64,
                "g_hidden": "1024,1024", "d_hidden": "1024,1024", "q_hidden": "512",
                "q_steps": 20000, "samples_per_condition": 10000},
}

# every setting a command reads: (type, default, the commands that read it).
# The type converts the value (None: kept as given); a preset overrides the
# default, and None is no default. --dataset and --data-dir are not settings:
# they are flags only, and a manifest records them beside the settings.
SETTINGS = {
    "seed": (int, 0, ("pretrain-q", "train", "eval", "sample")),
    "batch_size": (int, None, ("pretrain-q", "train")),
    "lr": (float, None, ("pretrain-q", "train")),
    "q_steps": (int, None, ("pretrain-q",)), "q_hidden": (None, None, ("pretrain-q",)),
    "variant": (Variant, None, ("train",)),
    "steps": (int, None, ("train",)),
    # lam records the lam a run uses; irgan_lam only sets irgan's when none is given
    "lam": (float, None, ("train",)), "irgan_lam": (float, 1.0, ("train",)),
    "noise_dim": (int, None, ("train",)),
    "g_hidden": (None, None, ("train",)), "d_hidden": (None, None, ("train",)),
    "d_steps": (int, 1, ("train",)),
    "loss_mode": (None, "non_saturating", ("train",)),
    "checkpoint_every": (int, 0, ("train",)),
    "q_checkpoint": (None, None, ("train",)), "resume": (None, None, ("train",)),
    "g_checkpoint": (None, None, ("eval", "sample")),
    "sigma_grid": (None, None, ("eval",)),
    "sigma_mode": (None, "per_condition", ("eval",)),
    "samples_per_condition": (int, None, ("eval",)),
    "condition_shift": (int, 0, ("eval",)),
    "condition": (int, None, ("sample",)), "count": (int, None, ("sample",)),
}


def load_dataset(name, data_dir=None, checksum=None):
    """Resolve a dataset name to splits plus display metadata.

    A non-empty checksum (the one a manifest recorded) must match the loaded
    dataset's, else DataError.
    """
    if name not in DATA_SEEDS:
        raise ConfigError(f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")
    seed = DATA_SEEDS[name]
    if not data_dir and name in ("tiny-mnist-3", "mnist", "cifar10"):
        raise DataError(f"{name} needs --data-dir pointing at its source files")
    if name == "mixture-3x2":
        train_ds, valid_ds, test_ds, _ = datamod.mixture_3x2(seed)
    elif name == "tiny-digits-3":
        cache = Path(data_dir) if data_dir else digits_cache_dir()
        train_ds, valid_ds, test_ds = datamod.tiny_digits3(cache, seed)
    elif name == "tiny-mnist-3":
        train_ds, valid_ds, test_ds = datamod.tiny_mnist3(Path(data_dir), seed)
    else:
        if name == "mnist":
            full = datamod.load_idx(Path(data_dir) / "train-images-idx3-ubyte",
                                    Path(data_dir) / "train-labels-idx1-ubyte")
        else:  # cifar10
            paths = sorted(Path(data_dir).glob("data_batch_*.bin"))
            if not paths:
                raise DataError(f"no data_batch_*.bin files under {data_dir}")
            full = datamod.load_cifar10_binary(paths)
        train_ds, valid_ds, test_ds = datamod.split(full, (0.8, 0.1, 0.1), seed)
    found = train_ds.meta.get("checksum", "")
    if checksum and checksum != found:
        raise DataError(f"dataset {name!r} has checksum {found!r}, "
                        f"but the manifest recorded {checksum!r}")
    label_names = train_ds.meta.get("label_names") or [str(c) for c in range(train_ds.cond_dim)]
    return {"name": name, "train": train_ds, "valid": valid_ds, "test": test_ds,
            "label_names": label_names, "checksum": found}


def digits_cache_dir():
    """The directory that keeps the rendered tiny-digits-3 files without --data-dir.

    It is cganlab-<uid> under tempfile.gettempdir(), made with mode 0700.
    None (render without keeping) when it cannot be made, or when it is a
    symlink, not a directory, or owned by another user.
    """
    path = Path(tempfile.gettempdir()) / f"cganlab-{os.getuid()}"
    try:
        path.mkdir(mode=0o700, exist_ok=True)
        st = path.lstat()
    except OSError:
        return None
    return path if stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() else None


# ----------------------------------------------------------------------
# config plumbing


def parse_widths(text) -> list:
    try:
        return [int(w) for w in str(text).split(",") if str(w).strip()]
    except ValueError:
        raise ConfigError(f"bad width list {text!r}; expected e.g. '128,128'") from None


# The most bandwidths a 'lo:hi:count' grid may ask for. A list's size is
# bounded by its text, a count's is not; the default grid has 20, and each
# bandwidth costs a pass of every validation point over every sample, so a
# million is past any useful sweep while its grid takes only 8 MB to build.
MAX_SIGMA_COUNT = 10 ** 6


def parse_sigma_grid(text):
    """'lo:hi:count' (log-spaced) or 'a,b,c' as an array; ConfigError when malformed."""
    if text is None:
        return default_sigma_grid()
    text = str(text)
    try:
        if ":" not in text:
            return np.array([float(v) for v in text.split(",")])
        lo, hi, n = text.split(":")
        count = int(n)
        if count > MAX_SIGMA_COUNT:  # refused before numpy allocates the grid
            raise ValueError(f"a count above {MAX_SIGMA_COUNT} bandwidths")
        with np.errstate(invalid="raise"):
            return default_sigma_grid(count, float(lo), float(hi))
    except (ValueError, FloatingPointError) as e:  # a count or bounds refused
        raise ConfigError(f"bad sigma grid {text!r} ({e}); expected 'lo:hi:count' "
                          f"or 'a,b,c'") from None


def load_config_file(path) -> dict:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:  # missing, a directory, unreadable or not UTF-8
        raise ConfigError(f"cannot read config file {p}: {e}") from None
    out = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{ln}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def resolve(command: str, config_file, flags: dict) -> dict:
    """command_settings of the command's flags over its config file over its dataset's defaults.

    --dataset and --data-dir come from the flags alone.
    """
    values = command_defaults(command, flags["dataset"])
    if config_file:
        values.update(load_config_file(config_file))
    dataset = {key: flags.pop(key) for key in ("dataset", "data_dir") if flags[key] is not None}
    values.update((key, value) for key, value in flags.items() if value is not None)
    return {**command_settings(command, values, ConfigError, f"config file {config_file}"),
            **dataset}


def command_settings(command: str, values: dict, error, source: str) -> dict:
    """The settings of `command` among values, each converted to its type; train's lam as used.

    Other commands' settings are dropped. `error`, from `source`, names a key
    that no command reads, a setting that values lack, or a value that does
    not convert: an int takes only an integer, and a float no bool.
    """
    unknown = sorted(set(values) - set(SETTINGS))
    if unknown:
        raise error(f"{source} holds keys that are no command's settings: {unknown}")
    out = {}
    for key, (kind, default, commands) in SETTINGS.items():
        if command not in commands:
            continue
        if key not in values and key != "irgan_lam":  # in a manifest, only beside a null lam
            raise error(f"{source} has no setting {key!r}")
        value = out[key] = values.get(key, default)
        if kind is not None and value is not None:
            try:
                if isinstance(value, bool) or (kind is int and isinstance(value, float)):
                    raise TypeError
                out[key] = kind(value)
            except (TypeError, ValueError, OverflowError):
                raise error(f"{source}: setting {key!r} = {value!r} is not a valid "
                            f"{kind.__name__}") from None
    if command == "train":
        irgan_lam = out.pop("irgan_lam")
        if out["lam"] is None:
            out["lam"] = irgan_lam if out["variant"] is Variant.IRGAN else 0.0
    return out


def command_defaults(command: str, dataset: str) -> dict:
    """The settings `command` reads on `dataset`, with their defaults (None: no default)."""
    return {key: PRESETS[dataset].get(key, default)
            for key, (_, default, commands) in SETTINGS.items() if command in commands}


def read_manifest(path, command=None) -> dict:
    """The manifest at path, with command_settings of its `resolved` settings.

    DataError names any fault. With `command`, it must record a run of
    that command. A manifest of any command but sample must record the
    name and checksum of its dataset, whose name its settings hold beside
    any data_dir; a sample manifest's are dropped. Its `checkpoints`, when
    it has them (from 0.2.4 on), map each checkpoint the run read to its
    SHA-256.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise DataError(f"cannot read manifest {path}: {e}") from None
    except ValueError as e:
        raise DataError(f"manifest {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise DataError(f"manifest {path} is not a JSON object")
    expected = (command,) if command else ("pretrain-q", "train", "eval", "sample")
    if doc.get("command") not in expected:
        raise DataError(f"manifest {path} records command {doc.get('command')!r}; "
                        f"expected one of {expected}")
    resolved = doc.get("resolved")
    if not isinstance(resolved, dict):
        raise DataError(f"manifest {path} has no 'resolved' object")
    resolved = dict(resolved)
    dataset = {key: resolved.pop(key) for key in ("dataset", "data_dir") if key in resolved}
    recorded = doc.get("dataset")
    if doc["command"] == "sample":
        dataset = {}
    elif dataset.get("dataset") not in PRESETS:
        raise DataError(f"manifest {path} records dataset {dataset.get('dataset')!r}; "
                        f"expected one of {DATASET_NAMES}")
    elif not (isinstance(recorded, dict) and recorded.get("name") == dataset["dataset"]
              and isinstance(recorded.get("checksum"), str) and recorded["checksum"]):
        raise DataError(f"manifest {path} records no name and checksum of its dataset "
                        f"{dataset['dataset']!r}")
    checkpoints = doc.get("checkpoints")
    if checkpoints is not None and not (isinstance(checkpoints, dict) and all(
            isinstance(v, str) and len(v) == 64 for v in checkpoints.values())):
        raise DataError(f"manifest {path} records checkpoints that are not a map from "
                        f"path to SHA-256")
    settings = command_settings(doc["command"], resolved, DataError, f"manifest {path}")
    return dict(doc, resolved={**settings, **dataset})


def build_info() -> dict:
    """The build a run used: Python, numpy, BLAS and the BLAS thread variables.

    Checkpoint bytes are reproducible only on the same build.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name") or "unknown", blas.get("version") or "unknown"
    except (TypeError, KeyError, AttributeError):  # a numpy that does not report it
        name = version = "unknown"
    info = {"python": ".".join(map(str, sys.version_info[:3])), "numpy": np.__version__,
            "blas": str(name), "blas_version": str(version)}
    info.update({var: os.environ.get(var) for var in BLAS_THREAD_VARS})
    return info


def build_differences(doc: dict) -> list:
    """One line per field where a manifest's tool version or build is not this one's."""
    lines = []
    if doc.get("tool_version") != __version__:
        lines.append(f"the manifest was written by cganlab {doc.get('tool_version')}, "
                     f"this is {__version__}")
    recorded = doc.get("build")
    if not isinstance(recorded, dict):
        return lines + ["the manifest records no build"]
    for key, value in build_info().items():
        if recorded.get(key) != value:
            lines.append(f"the manifest records {key} {recorded.get(key)!r}, "
                         f"this build has {value!r}")
    return lines


def write_manifest(out_dir: Path, command: str, resolved: dict, dataset_info,
                   artifacts: dict, wall_ms: float, checkpoints=None):
    """Write out_dir/manifest.json; checkpoints maps each checkpoint the run read to its SHA-256."""
    manifest = {
        "tool": "cganlab",
        "tool_version": __version__,
        "build": build_info(),
        "command": command,
        "resolved": {k: v for k, v in sorted(resolved.items())},
        "dataset": {"name": dataset_info["name"], "checksum": dataset_info["checksum"]}
        if dataset_info else None,
        "artifacts": {k: str(v) for k, v in sorted(artifacts.items())},
        "checkpoints": dict(sorted((checkpoints or {}).items())),
        "wall_ms": round(wall_ms, 3),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    path = out_dir / "manifest.json"
    with atomic_write(path) as f:
        f.write(text.encode())
    return path


def _emit(summary: dict):
    click.echo(json.dumps(summary, sort_keys=True))


def _progress(msg: str):
    click.echo(msg, err=True)


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def friendly_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as e:
            click.echo(f"config error: {e}", err=True)
            sys.exit(2)
        except DataError as e:
            click.echo(f"data error: {e}", err=True)
            sys.exit(3)
        except CganlabError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(1)
    return wrapper


# ----------------------------------------------------------------------
# images


def write_image_grid(path, images: np.ndarray):
    """Dump samples as one binary PGM (gray) or PPM (3-channel) grid.

    Images with a channel count other than 1 or 3 are tiled channel-by-
    channel side by side in a PGM.
    """
    images = np.asarray(images)
    n, h, w, d = images.shape
    cols = int(np.ceil(np.sqrt(n)))
    rows = int(np.ceil(n / cols))
    tiles = np.zeros((rows * cols, h, w, d), dtype=np.uint8)
    tiles[:n] = datamod.pixels_to_bytes(images)
    if d != 3:  # a gray tile per channel, the channels side by side
        tiles = tiles.transpose(0, 1, 3, 2).reshape(rows * cols, h, d * w, 1)
    grid = tiles.reshape(rows, cols, *tiles.shape[1:]).transpose(0, 2, 1, 3, 4)
    header = f"{'P6' if d == 3 else 'P5'}\n{cols * tiles.shape[2]} {rows * h}\n255\n"
    with atomic_write(path) as f:
        f.write(header.encode())
        f.write(grid.tobytes())


# ----------------------------------------------------------------------
# command implementations (shared with `rerun`)


def do_pretrain_q(res: dict, out_dir: Path, checksum=None) -> dict:
    t0 = time.perf_counter()
    info = load_dataset(res["dataset"], res.get("data_dir"), checksum)
    spec = NetworkSpec(parse_widths(res["q_hidden"]), head="softmax")
    stream = RngStream(res["seed"], ("pretrain-q",))
    params, history = pretrain_approximator(
        info["train"], info["valid"], spec, res["q_steps"], stream,
        batch_size=res["batch_size"], hyper={"lr": res["lr"], "beta1": 0.9})
    test_acc = classifier_accuracy(params, info["test"].images, info["test"].labels)
    ckpt = out_dir / "q.ckpt"
    save_model(ckpt, params, extra={"name": f"q-{res['dataset']}",
                                    "dataset": info["name"], "seed": res["seed"]})
    summary = {"command": "pretrain-q", "checkpoint": str(ckpt),
               "val_accuracy": history["best_val_acc"], "test_accuracy": test_acc,
               "steps": res["q_steps"]}
    with atomic_write(out_dir / "summary.json") as f:
        f.write((json.dumps(summary, sort_keys=True, indent=2) + "\n").encode())
    write_manifest(out_dir, "pretrain-q", res, info,
                   {"checkpoint": ckpt, "summary": out_dir / "summary.json"},
                   (time.perf_counter() - t0) * 1e3)
    return summary


def _train_config(res: dict) -> TrainConfig:
    """The TrainConfig a resolved train configuration describes."""
    return TrainConfig(
        variant=res["variant"], total_steps=res["steps"], batch_size=res["batch_size"],
        d_steps_per_g_step=res["d_steps"], lam=res["lam"], lr=res["lr"],
        seed=res["seed"], generator_loss_mode=res["loss_mode"],
        noise_dim=res["noise_dim"], g_hidden=parse_widths(res["g_hidden"]),
        d_hidden=parse_widths(res["d_hidden"]), checkpoint_every=res["checkpoint_every"])


def load_fitting_model(path, role: str, info=None, records=()) -> tuple:
    """load_model of a checkpoint that a flag names as a `role` for the dataset `info`,
    and the SHA-256 of the bytes loaded: (params, meta, digest).

    DataError, naming the file, when one of records (manifests' `checkpoints`,
    None where a manifest has none) holds no digest or another for it.
    ConfigError when it holds another role, or (with info) a network for
    another image shape or condition width than the dataset's.
    """
    h = hashlib.sha256()
    params, meta = load_model(path, h)
    digest = h.hexdigest()
    for record in records:
        if record is not None and record.get(str(path)) != digest:
            raise DataError(f"{path} has SHA-256 {digest}, but the manifest of the run that "
                            f"read it records {record.get(str(path)) or 'none'}")
    found = params.meta["role"]
    if found != role:
        raise ConfigError(f"{path} is a checkpoint of role {found}, not {role}")
    if info is not None:
        want = (info["train"].image_shape, info["train"].cond_dim)
        have = (tuple(params.meta["image_shape"]), params.meta["cond_dim"])
        if have != want:
            raise ConfigError(f"{path} holds a network for images of shape {have[0]} with "
                              f"{have[1]} conditions; dataset {info['name']} has {want[0]} "
                              f"with {want[1]}")
    return params, meta, digest


def _resumed_model(path, role: str, info, was: TrainConfig) -> tuple:
    """load_fitting_model of a checkpoint of the run `was`; DataError if it is not one."""
    try:
        params, meta, _ = load_fitting_model(path, role, info)
    except ConfigError as e:
        raise DataError(str(e)) from None
    want = {"noise_dim": was.noise_dim} if role == "generator" else {"variant": was.variant.value}
    want.update(hidden=was.g_hidden if role == "generator" else was.d_hidden, lr=was.lr,
                seed=was.seed)
    have = dict(params.meta, hidden=params.spec.hidden, lr=meta["hyper"]["lr"],
                seed=meta.get("seed"))
    for key, value in want.items():
        if have[key] != value:
            raise DataError(f"{path} holds a {role} with {key} {have[key]!r}, but the manifest "
                            f"beside it records {value!r}")
    return params, meta


# the names of the train flags that set a TrainConfig field of another name
TRAIN_FLAGS = {"d_steps_per_g_step": "d-steps", "lam": "lambda", "generator_loss_mode": "loss-mode"}


def do_train(res: dict, out_dir: Path, checksum=None, digests=None) -> dict:
    t0 = time.perf_counter()
    cfg = _train_config(res)
    variant = cfg.variant
    cfg.validate()
    if variant is Variant.IRGAN and not res.get("q_checkpoint"):
        raise ConfigError("--q-checkpoint is required for the irgan variant")
    if variant is not Variant.IRGAN and res.get("q_checkpoint"):
        raise ConfigError(f"--q-checkpoint is only meaningful for irgan, not {variant.value}")
    rdir = Path(res["resume"]) if res.get("resume") else None
    records = [digests]
    if rdir:
        # a resume continues the recorded run; only its length and checkpointing may change
        manifest = rdir / "manifest.json"
        recorded = read_manifest(manifest, "train")
        try:
            was = _train_config(recorded["resolved"])
            was.validate()
        except ConfigError as e:
            raise DataError(f"manifest {manifest}: {e}") from None
        asked, found = ({"dataset": r["dataset"], **vars(c), "q_checkpoint": r.get("q_checkpoint")}
                        for r, c in ((res, cfg), (recorded["resolved"], was)))
        for key, value in asked.items():
            if key not in ("total_steps", "checkpoint_every") and value != found[key]:
                flag = TRAIN_FLAGS.get(key, key.replace("_", "-"))
                raise ConfigError(f"--{flag} {getattr(value, 'value', value)} differs from "
                                  f"{getattr(found[key], 'value', found[key])}, which the run "
                                  f"in {rdir} was trained with")
        if checksum and checksum != recorded["dataset"]["checksum"]:
            raise DataError(f"the manifest records dataset checksum {checksum!r}, but the run "
                            f"in {rdir} was trained on {recorded['dataset']['checksum']!r}")
        checksum = recorded["dataset"]["checksum"]
        records.append(recorded.get("checkpoints"))
    info = load_dataset(res["dataset"], res.get("data_dir"), checksum)
    q_params, read = None, {}
    if variant is Variant.IRGAN:
        q_params, _, read[res["q_checkpoint"]] = load_fitting_model(
            res["q_checkpoint"], "approximator", info, records)
    g = d = None
    start_step = 0
    earlier = TrainLog()
    if rdir:
        g, gmeta = _resumed_model(rdir / "g.ckpt", "generator", info, was)
        d, dmeta = _resumed_model(rdir / "d.ckpt", "discriminator", info, was)
        start_step = gmeta.get("train_step", 0)
        if not isinstance(start_step, int) or isinstance(start_step, bool) or start_step < 0:
            raise DataError(f"{rdir / 'g.ckpt'} records train_step {start_step!r}, "
                            f"not a non-negative int")
        d_step = dmeta.get("train_step", 0)
        if type(d_step) is not int or d_step != start_step:
            raise DataError(f"{rdir / 'd.ckpt'} records train_step {d_step!r}, but "
                            f"{rdir / 'g.ckpt'} records {start_step}: a resume needs both "
                            f"networks at the same step")
        if cfg.total_steps < start_step:
            raise ConfigError(f"--steps {cfg.total_steps} is below the {start_step} steps "
                              f"already trained in {rdir}")
        earlier = TrainLog.read(rdir / "log.csv", start_step)
        _progress(f"resuming from {rdir} at step {start_step}")
    every = max(1, cfg.total_steps // 20) if cfg.total_steps else 1

    def progress(rec):
        if rec["step"] % every == 0 or rec["step"] + 1 == cfg.total_steps:
            extra = "" if rec["r_g"] is None else f" r_g={rec['r_g']:.4f}"
            _progress(f"step {rec['step'] + 1}/{res['steps']} "
                      f"d_loss={rec['d_loss']:.4f} g_loss={rec['g_loss']:.4f}{extra}")

    def checkpoint_cb(step, g_now, d_now):
        save_model(out_dir / f"g_step{step}.ckpt", g_now,
                   extra=_ckpt_extra(res, info, step, variant))
        save_model(out_dir / f"d_step{step}.ckpt", d_now,
                   extra=_ckpt_extra(res, info, step, variant))

    g, d, log_ = train(cfg, info["train"], q_params=q_params, g=g, d=d,
                       start_step=start_step, progress=progress,
                       checkpoint_cb=checkpoint_cb)
    log_.rows[:0] = earlier.rows
    extra = _ckpt_extra(res, info, cfg.total_steps, variant)
    g_path, d_path, log_path = out_dir / "g.ckpt", out_dir / "d.ckpt", out_dir / "log.csv"
    save_model(g_path, g, extra=extra)
    save_model(d_path, d, extra=extra)
    log_.write(log_path)
    artifacts = {"g_checkpoint": g_path, "d_checkpoint": d_path, "log": log_path}
    write_manifest(out_dir, "train", res, info, artifacts, (time.perf_counter() - t0) * 1e3,
                   read)
    summary = {"command": "train", "variant": variant.value, "steps": cfg.total_steps,
               "g_checkpoint": str(g_path), "d_checkpoint": str(d_path), "log": str(log_path)}
    if log_.rows:
        summary["final_d_loss"] = log_.rows[-1]["d_loss"]
        summary["final_g_loss"] = log_.rows[-1]["g_loss"]
    return summary


def _ckpt_extra(res, info, step, variant):
    return {"name": variant.value, "dataset": info["name"], "train_step": int(step),
            "seed": res["seed"]}


def do_eval(res: dict, out_dir: Path, checksum=None, digests=None) -> dict:
    t0 = time.perf_counter()
    info = load_dataset(res["dataset"], res.get("data_dir"), checksum)
    cfg = ParzenConfig(sigma_grid=parse_sigma_grid(res.get("sigma_grid")),
                       samples_per_condition=res["samples_per_condition"],
                       sigma_mode=res["sigma_mode"])
    cfg.validate()
    shift = res["condition_shift"]
    paths = res["g_checkpoint"]
    if isinstance(paths, str):
        paths = [paths]
    # every name is settled before any evaluation runs, so that a name no
    # report file can take fails at once
    models, read = {}, {}
    for path in paths:
        params, meta, read[path] = load_fitting_model(path, "generator", info, [digests])
        name = meta.get("name") or Path(path).stem
        while name in models:
            name += "+"
        if len(paths) > 1 and not is_report_name(name):
            raise ConfigError(f"{path}: model name {name!r} cannot name a report file, which "
                              f"needs one path component of at most {MAX_NAME_BYTES} bytes "
                              f"of UTF-8")
        models[name] = params
    model_rows = {}
    for name, params in models.items():
        m = params.meta["cond_dim"]
        cmap = {c: (c + shift) % m for c in range(m)} if shift else None
        rows = conditional_eval(params, info["valid"], info["test"], cfg,
                                res["seed"], condition_map=cmap)
        model_rows[name] = rows
        for r in rows:
            if r.note:
                _progress(f"warning: {r.note}")
    artifacts = {}
    if len(model_rows) == 1:
        only = next(iter(model_rows.values()))
        with atomic_write(out_dir / "report.csv") as f:
            f.write(report_csv(only).encode())
        artifacts["report"] = out_dir / "report.csv"
    else:
        for name, rows in model_rows.items():
            p = out_dir / f"report_{name}.csv"
            with atomic_write(p) as f:
                f.write(report_csv(rows).encode())
            artifacts[f"report_{name}"] = p
    table = format_table(model_rows, info["label_names"])
    with atomic_write(out_dir / "table.txt") as f:
        f.write(table.encode())
    artifacts["table"] = out_dir / "table.txt"
    write_manifest(out_dir, "eval", res, info, artifacts, (time.perf_counter() - t0) * 1e3,
                   read)
    _progress(table.rstrip("\n"))
    summary = {"command": "eval", "models": sorted(model_rows),
               "table": str(out_dir / "table.txt"),
               "mean_ll": {name: {str(r.condition): r.mean_ll for r in rows}
                           for name, rows in model_rows.items()}}
    return summary


def do_sample(res: dict, out_dir: Path, digests=None) -> dict:
    t0 = time.perf_counter()
    path = res["g_checkpoint"]
    params, meta, digest = load_fitting_model(path, "generator", records=[digests])
    condition, count = res["condition"], res["count"]
    stream = RngStream(res["seed"], ("sample",))
    flat = generate_samples(params, condition, count, stream)
    h, w, d = params.meta["image_shape"]
    images = flat.reshape(count, h, w, d)
    container = out_dir / "samples.bin"
    write_container(container, {"kind": "samples", "condition": condition,
                                "count": count, "seed": res["seed"],
                                "image_shape": [h, w, d]}, {"samples": images})
    grid = out_dir / ("grid.ppm" if d == 3 else "grid.pgm")
    write_image_grid(grid, images)
    write_manifest(out_dir, "sample", res, None, {"samples": container, "grid": grid},
                   (time.perf_counter() - t0) * 1e3, {path: digest})
    return {"command": "sample", "condition": condition, "count": count,
            "samples": str(container), "grid": str(grid)}


# ----------------------------------------------------------------------
# click wiring


@click.group()
@click.version_option(__version__)
def main():
    """Train, evaluate and sample label-conditioned GANs."""


def _dataset_options(fn):
    fn = click.option("--dataset", type=click.Choice(DATASET_NAMES), required=True)(fn)
    fn = click.option("--data-dir", type=click.Path(), default=None,
                      help="Directory with source dataset files (file-based datasets).")(fn)
    return fn


@main.command("pretrain-q")
@_dataset_options
@click.option("--steps", "q_steps", type=int, default=None, help="Training budget.")
@click.option("--seed", type=int, default=None)
@click.option("--batch-size", type=int, default=None)
@click.option("--lr", type=float, default=None)
@click.option("--hidden", "q_hidden", type=str, default=None, help="Hidden widths, e.g. '64'.")
@click.option("--config", "config_file", type=click.Path(), default=None)
@click.option("--out", required=True, type=click.Path())
@friendly_errors
def cmd_pretrain_q(config_file, out, **flags):
    """Pretrain the condition approximator Q(c|x) and freeze it."""
    _emit(do_pretrain_q(resolve("pretrain-q", config_file, flags), _out_dir(out)))


@main.command("train")
@click.option("--variant", type=click.Choice([v.value for v in Variant]), required=True)
@_dataset_options
@click.option("--steps", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--batch-size", type=int, default=None)
@click.option("--lr", type=float, default=None)
@click.option("--lambda", "lam", type=float, default=None,
              help="Weight of the information term (irgan only).")
@click.option("--q-checkpoint", type=click.Path(), default=None)
@click.option("--noise-dim", type=int, default=None)
@click.option("--g-hidden", type=str, default=None)
@click.option("--d-hidden", type=str, default=None)
@click.option("--d-steps", type=int, default=None)
@click.option("--loss-mode", type=click.Choice(GENERATOR_LOSS_MODES), default=None)
@click.option("--checkpoint-every", type=int, default=None)
@click.option("--resume", type=click.Path(), default=None,
              help="Directory with g.ckpt/d.ckpt to continue from.")
@click.option("--config", "config_file", type=click.Path(), default=None)
@click.option("--out", required=True, type=click.Path())
@friendly_errors
def cmd_train(config_file, out, **flags):
    """Train one conditioned-GAN variant."""
    res = resolve("train", config_file, flags)
    _emit(do_train(res, _out_dir(out)))


@main.command("eval")
@click.option("--g-checkpoint", multiple=True, required=True, type=click.Path())
@_dataset_options
@click.option("--seed", type=int, default=None)
@click.option("--sigma-grid", type=str, default=None,
              help="'lo:hi:count' (log-spaced) or explicit 'a,b,c'.")
@click.option("--samples-per-condition", type=int, default=None)
@click.option("--sigma-mode", type=click.Choice(SIGMA_MODES), default=None)
@click.option("--condition-shift", type=int, default=None,
              help="Cyclically shift generator conditions (control experiments).")
@click.option("--config", "config_file", type=click.Path(), default=None)
@click.option("--out", required=True, type=click.Path())
@friendly_errors
def cmd_eval(config_file, out, **flags):
    """Parzen-window evaluation of generator checkpoints, per condition."""
    flags["g_checkpoint"] = list(flags["g_checkpoint"])
    res = resolve("eval", config_file, flags)
    _emit(do_eval(res, _out_dir(out)))


@main.command("sample")
@click.option("--g-checkpoint", required=True, type=click.Path())
@click.option("--condition", type=int, required=True)
@click.option("--count", type=int, default=16)
@click.option("--seed", type=int, default=0)
@click.option("--out", required=True, type=click.Path())
@friendly_errors
def cmd_sample(out, **flags):
    """Generate samples for one condition; writes a container plus an image grid."""
    _emit(do_sample(flags, _out_dir(out)))


@main.command("rerun")
@click.argument("manifest", type=click.Path())
@click.option("--out", required=True, type=click.Path())
@friendly_errors
def cmd_rerun(manifest, out):
    """Repeat a recorded run from its manifest into a new output directory.

    Any fault of the manifest, a setting the command refuses included, is a
    data error, and the dataset must still have the checksum the manifest
    recorded, and each checkpoint the SHA-256 it recorded, when it recorded
    them. A tool version or build that differs from it is a warning.
    """
    doc = read_manifest(manifest)
    for line in build_differences(doc):
        _progress(f"warning: {line}; the results may differ in their bits")
    impl = {"pretrain-q": do_pretrain_q, "train": do_train, "eval": do_eval,
            "sample": do_sample}[doc["command"]]
    recorded = {} if impl is do_pretrain_q else {"digests": doc.get("checkpoints")}
    if impl is not do_sample:
        recorded["checksum"] = doc["dataset"]["checksum"]
    try:
        summary = impl(doc["resolved"], _out_dir(out), **recorded)
    except ConfigError as e:
        raise DataError(f"manifest {manifest}: {e}") from None
    _emit(summary)


if __name__ == "__main__":
    main()
