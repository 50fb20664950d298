import datetime
import json
import os
import stat
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner

from cganlab import cli, data
from cganlab.checkpoint import MAX_NAME_BYTES, load_model, read_container, write_container
from cganlab.cli import main
from cganlab.data import render_digits, write_digits_idx
from conftest import FullDisk, assert_same_digits


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output + str(result.stderr)
    return json.loads(result.stdout.strip().splitlines()[-1])


TRAIN_FAST = ["--steps", "20", "--batch-size", "32", "--seed", "5"]


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    CliRunner().invoke(main, ["train", "--variant", "sbp", "--dataset", "mixture-3x2",
                              *TRAIN_FAST, "--out", str(out)], catch_exceptions=False)
    return out


# ----------------------------------------------------------------------
# train


def test_train_artifact_contract(runner, trained_dir):
    for name in ("g.ckpt", "d.ckpt", "log.csv", "manifest.json"):
        assert (trained_dir / name).is_file(), name
    log = (trained_dir / "log.csv").read_text().strip().splitlines()
    assert log[0] == "step,d_loss,g_loss,r_g,wall_ms"
    assert len(log) == 21
    manifest = json.loads((trained_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["resolved"]["seed"] == 5
    assert manifest["dataset"]["name"] == "mixture-3x2"
    written = datetime.datetime.strptime(manifest["written_at"], "%Y-%m-%dT%H:%M:%SZ")
    now = datetime.datetime.now(datetime.timezone.utc).replace(tzinfo=None)
    assert abs((now - written).total_seconds()) < 3600


def test_train_steps_zero_equals_initialization(runner, tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_ok(runner, ["train", "--variant", "cgan", "--dataset", "mixture-3x2",
                        "--steps", "0", "--seed", "9", "--out", str(out)])
        outs.append(out)
    assert (outs[0] / "g.ckpt").read_bytes() == (outs[1] / "g.ckpt").read_bytes()
    g, meta = load_model(outs[0] / "g.ckpt")
    assert meta["train_step"] == 0
    assert all(st.step == 0 for st in g.adam.values())


def test_irgan_without_q_checkpoint_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["train", "--variant", "irgan", "--dataset",
                                  "mixture-3x2", "--steps", "1", "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "q-checkpoint" in result.stderr


@pytest.mark.parametrize("which", ["q-of-another-dataset", "generator"])
def test_q_checkpoint_must_fit_the_dataset(runner, trained_dir, tmp_path, which):
    if which == "generator":
        q, dataset = trained_dir / "g.ckpt", "mixture-3x2"
    else:
        run_ok(runner, ["pretrain-q", "--dataset", "mixture-3x2", "--steps", "0",
                        "--out", str(tmp_path / "q")])
        q, dataset = tmp_path / "q" / "q.ckpt", "tiny-digits-3"
    result = runner.invoke(main, ["train", "--variant", "irgan", "--dataset", dataset,
                                  "--steps", "1", "--q-checkpoint", str(q),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("config error: ")
    assert "step 1/" not in result.stderr
    assert not (tmp_path / "o" / "g.ckpt").exists()


def test_lambda_rejected_for_non_irgan(runner, tmp_path):
    result = runner.invoke(main, ["train", "--variant", "cgan", "--dataset", "mixture-3x2",
                                  "--steps", "1", "--lambda", "0.7", "--out", str(tmp_path / "o")])
    assert result.exit_code == 2


def test_q_checkpoint_rejected_for_non_irgan(runner, trained_dir, tmp_path):
    result = runner.invoke(main, ["train", "--variant", "cgan", "--dataset", "mixture-3x2",
                                  "--steps", "1", "--q-checkpoint", str(trained_dir / "g.ckpt"),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("config error: --q-checkpoint ")
    assert not (tmp_path / "o" / "g.ckpt").exists()


def test_unknown_variant_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["train", "--variant", "wgan", "--dataset", "mixture-3x2",
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 2


@pytest.mark.parametrize("command,flags", [
    ("train", ("--noise-dim", "0")), ("train", ("--noise-dim", "-1")),
    ("train", ("--lr", "nan")), ("train", ("--lr", "inf")),
    ("train", ("--checkpoint-every", "-3")),
    ("irgan", ("--lambda", "inf")),
    ("pretrain-q", ("--steps", "-5")), ("pretrain-q", ("--lr", "nan")),
    ("pretrain-q", ("--batch-size", "0")),
], ids=lambda v: v if isinstance(v, str) else "=".join(v))
def test_unusable_setting_exits_2(runner, tmp_path, command, flags):
    args = {"train": ["train", "--variant", "cgan", "--steps", "2"],
            "irgan": ["train", "--variant", "irgan", "--steps", "2", "--q-checkpoint",
                      str(tmp_path / "q" / "q.ckpt")],
            "pretrain-q": ["pretrain-q"]}[command]
    if command == "irgan":
        run_ok(runner, ["pretrain-q", "--dataset", "mixture-3x2", "--steps", "0",
                        "--out", str(tmp_path / "q")])
    result = runner.invoke(main, [*args, "--dataset", "mixture-3x2", *flags,
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("config error: ")
    assert not list((tmp_path / "o").glob("*"))


def test_missing_data_dir_exits_3(runner, tmp_path):
    result = runner.invoke(main, ["train", "--variant", "cgan", "--dataset", "mnist",
                                  "--steps", "1", "--out", str(tmp_path / "o")])
    assert result.exit_code == 3
    result = runner.invoke(main, ["train", "--variant", "cgan", "--dataset", "mnist",
                                  "--data-dir", str(tmp_path / "ghost"), "--steps", "1",
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 3
    assert "ghost" in result.stderr


def assert_same_splits(info, splits):
    assert_same_digits([info[part] for part in ("train", "valid", "test")], splits)
    assert info["checksum"] == splits[0].meta["checksum"]


def test_tiny_digits_3_is_rendered_once_per_user(tmp_path, digits_data, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert_same_splits(cli.load_dataset("tiny-digits-3"), digits_data)
    cache = tmp_path / f"cganlab-{os.getuid()}"
    assert stat.S_IMODE(cache.lstat().st_mode) == 0o700
    assert sorted(p.name for p in cache.iterdir()) == sorted(data.DIGITS_IDX_NAMES)
    monkeypatch.setattr(data, "render_digits", None)
    assert_same_splits(cli.load_dataset("tiny-digits-3"), digits_data)


@pytest.mark.parametrize("kind", ["symlink", "other-owner", "file"])
def test_tiny_digits_3_keeps_nothing_in_a_directory_not_its_own(tmp_path, digits_data,
                                                                 monkeypatch, kind):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    uid = os.getuid()
    watched = tmp_path / "elsewhere"
    watched.mkdir()
    if kind == "symlink":
        (tmp_path / f"cganlab-{uid}").symlink_to(watched)
    elif kind == "other-owner":
        # the directory this process makes is not that of a process of uid + 1
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        watched = tmp_path / f"cganlab-{uid + 1}"
    else:
        (tmp_path / f"cganlab-{uid}").write_bytes(b"")
    assert cli.digits_cache_dir() is None
    assert_same_splits(cli.load_dataset("tiny-digits-3"), digits_data)
    assert list(watched.iterdir()) == []


def test_train_determinism_and_rerun(runner, tmp_path):
    args = ["train", "--variant", "sbp", "--dataset", "mixture-3x2", *TRAIN_FAST]
    run_ok(runner, args + ["--out", str(tmp_path / "r1")])
    run_ok(runner, args + ["--out", str(tmp_path / "r2")])
    assert (tmp_path / "r1" / "g.ckpt").read_bytes() == (tmp_path / "r2" / "g.ckpt").read_bytes()
    assert (tmp_path / "r1" / "d.ckpt").read_bytes() == (tmp_path / "r2" / "d.ckpt").read_bytes()
    run_ok(runner, ["rerun", str(tmp_path / "r1" / "manifest.json"),
                    "--out", str(tmp_path / "r3")])
    assert (tmp_path / "r1" / "g.ckpt").read_bytes() == (tmp_path / "r3" / "g.ckpt").read_bytes()


def _without_steps(doc):
    del doc["resolved"]["steps"]
    return "steps"


def _steps_many(doc):
    doc["resolved"]["steps"] = "many"
    return "steps"


def _variant_wgan(doc):
    doc["resolved"]["variant"] = "wgan"
    return "variant"


def _loss_mode_wasserstein(doc):
    doc["resolved"]["loss_mode"] = "wasserstein"
    return "wasserstein"


def _command_fit(doc):
    doc["command"] = "fit"
    return "fit"


def _batch_size_zero(doc):
    doc["resolved"]["batch_size"] = 0
    return None


def _without_dataset(doc):
    del doc["dataset"]
    return "mixture-3x2"


@pytest.mark.parametrize("doc", [[1, 2], {"command": "train"},
                                 {"command": "train", "resolved": "steps=3"},
                                 _without_steps, _steps_many, _variant_wgan,
                                 _loss_mode_wasserstein, _command_fit, _batch_size_zero,
                                 _without_dataset])
def test_rerun_bad_manifest_is_data_error(runner, trained_dir, tmp_path, doc):
    key = None
    if callable(doc):  # a change to a manifest that train wrote
        mutate, doc = doc, json.loads((trained_dir / "manifest.json").read_text())
        key = mutate(doc)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["rerun", str(path), "--out", str(tmp_path / "o")])
    assert result.exit_code == 3
    assert result.stderr.startswith("data error: ")
    if key is not None:
        assert f"'{key}'" in result.stderr
    assert not (tmp_path / "o" / "g.ckpt").exists()


def test_rerun_checks_the_dataset_checksum(runner, trained_dir, tmp_path):
    doc = json.loads((trained_dir / "manifest.json").read_text())
    assert len(doc["dataset"]["checksum"]) == 64
    doc["dataset"]["checksum"] = "0" * 64
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["rerun", str(path), "--out", str(tmp_path / "o")])
    assert result.exit_code == 3
    assert result.stderr.startswith("data error: ") and "0" * 64 in result.stderr
    assert not (tmp_path / "o" / "g.ckpt").exists()


def test_manifest_records_the_build(trained_dir):
    import sys

    from cganlab import __version__
    from cganlab.cli import BLAS_THREAD_VARS, build_info

    manifest = json.loads((trained_dir / "manifest.json").read_text())
    assert manifest["tool_version"] == __version__
    build = manifest["build"]
    assert set(build) == {"python", "numpy", "blas", "blas_version", *BLAS_THREAD_VARS}
    assert build == build_info()
    assert build["python"] == "%d.%d.%d" % sys.version_info[:3]
    assert build["numpy"] == np.__version__
    assert isinstance(build["blas"], str) and isinstance(build["blas_version"], str)


def test_rerun_warns_once_per_differing_build_field(runner, trained_dir, tmp_path):
    doc = json.loads((trained_dir / "manifest.json").read_text())
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    same = runner.invoke(main, ["rerun", str(path), "--out", str(tmp_path / "same")])
    assert same.exit_code == 0 and "warning:" not in same.stderr

    doc["tool_version"] = "0.0.1"
    doc["build"]["numpy"] = "0.0.0"
    doc["build"]["OPENBLAS_NUM_THREADS"] = "99"
    path.write_text(json.dumps(doc))
    other = runner.invoke(main, ["rerun", str(path), "--out", str(tmp_path / "other")])
    assert other.exit_code == 0
    warnings = [ln for ln in other.stderr.splitlines() if ln.startswith("warning: ")]
    assert len(warnings) == 3
    assert "0.0.1" in warnings[0] and "numpy" in warnings[1] and "'99'" in warnings[2]
    assert other.stdout.replace("/other", "/same") == same.stdout
    assert (tmp_path / "other" / "g.ckpt").read_bytes() == (trained_dir / "g.ckpt").read_bytes()

    del doc["build"]
    path.write_text(json.dumps(doc))
    old = runner.invoke(main, ["rerun", str(path), "--out", str(tmp_path / "old")])
    assert old.exit_code == 0
    assert [ln for ln in old.stderr.splitlines() if ln.startswith("warning: ")][1:] == [
        "warning: the manifest records no build; the results may differ in their bits"]


def test_failed_manifest_write_leaves_the_earlier_one(trained_dir, tmp_path):
    from cganlab.cli import write_manifest
    info = {"name": "mixture-3x2", "checksum": "c"}
    write_manifest(tmp_path, "train", {"seed": 1}, info, {}, 1.0)
    before = (tmp_path / "manifest.json").read_bytes()
    with pytest.raises(TypeError):
        write_manifest(tmp_path, "train", {"seed": object()}, info, {}, 1.0)
    assert (tmp_path / "manifest.json").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_failed_log_and_report_writes_leave_the_earlier_files(runner, trained_dir, tmp_path,
                                                               monkeypatch):
    from cganlab import data
    from cganlab.training import TrainLog
    log_path = tmp_path / "log.csv"
    log = TrainLog.read(trained_dir / "log.csv", 20)
    TrainLog(log.rows[:10]).write(log_path)
    ev = tmp_path / "eval"
    args = ["eval", "--g-checkpoint", str(trained_dir / "g.ckpt"), "--dataset", "mixture-3x2",
            "--samples-per-condition", "40", "--out", str(ev)]
    run_ok(runner, args + ["--seed", "1"])
    before = {p: p.read_bytes() for p in (log_path, ev / "report.csv", ev / "table.txt")}
    # atomic_write opens its temporary file through the module's `open`
    monkeypatch.setattr(data, "open", FullDisk, raising=False)
    with pytest.raises(OSError):
        log.write(log_path)
    result = runner.invoke(main, args + ["--seed", "2"])
    assert result.exit_code != 0
    assert {p: p.read_bytes() for p in before} == before
    assert sorted(p.name for p in ev.iterdir()) == ["manifest.json", "report.csv", "table.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eval", "log.csv"]


def test_resume_matches_straight_run(runner, tmp_path):
    base = ["train", "--variant", "cgan", "--dataset", "mixture-3x2",
            "--batch-size", "32", "--seed", "4"]
    run_ok(runner, base + ["--steps", "12", "--out", str(tmp_path / "full")])
    run_ok(runner, base + ["--steps", "6", "--out", str(tmp_path / "half")])
    run_ok(runner, base + ["--steps", "12", "--resume", str(tmp_path / "half"),
                           "--out", str(tmp_path / "resumed")])
    assert (tmp_path / "full" / "g.ckpt").read_bytes() \
        == (tmp_path / "resumed" / "g.ckpt").read_bytes()

    def rows(run):  # log rows without the wall_ms column
        lines = (tmp_path / run / "log.csv").read_text().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    assert len(rows("full")) == 13
    assert rows("resumed") == rows("full")


def test_resume_needs_the_earlier_log(runner, trained_dir, tmp_path):
    half = tmp_path / "half"
    half.mkdir()
    for name in ("g.ckpt", "d.ckpt", "manifest.json"):
        (half / name).write_bytes((trained_dir / name).read_bytes())
    lines = (trained_dir / "log.csv").read_text().splitlines()
    args = ["train", "--variant", "sbp", "--dataset", "mixture-3x2", "--steps", "22",
            "--batch-size", "32", "--seed", "5", "--resume", str(half)]
    for log in (None, lines[:-1], lines[:5] + lines[6:]):
        if log is not None:
            (half / "log.csv").write_text("\n".join(log) + "\n")
        result = runner.invoke(main, args + ["--out", str(tmp_path / "o")])
        assert result.exit_code == 3, result.output
        assert result.stderr.startswith("data error: ")
        assert not (tmp_path / "o" / "g.ckpt").exists()


def test_resume_bad_train_step_is_data_error(runner, trained_dir, tmp_path):
    bad = tmp_path / "bad"
    bad.mkdir()
    for name in ("g.ckpt", "d.ckpt", "log.csv", "manifest.json"):
        (bad / name).write_bytes((trained_dir / name).read_bytes())
    meta, arrays = read_container(bad / "g.ckpt")
    meta["train_step"] = "20"
    write_container(bad / "g.ckpt", meta, arrays)
    result = runner.invoke(main, ["train", "--variant", "sbp", "--dataset", "mixture-3x2",
                                  *TRAIN_FAST, "--resume", str(bad), "--out", str(tmp_path / "o")])
    assert result.exit_code == 3
    assert "train_step" in result.stderr


def test_resume_refuses_a_discriminator_of_another_step(runner, tmp_path):
    base = ["train", "--variant", "cgan", "--dataset", "mixture-3x2", "--batch-size", "32",
            "--seed", "4"]
    run_ok(runner, base + ["--steps", "8", "--checkpoint-every", "4",
                           "--out", str(tmp_path / "half")])
    half = tmp_path / "half"
    (half / "d.ckpt").write_bytes((half / "d_step4.ckpt").read_bytes())
    result = runner.invoke(main, base + ["--steps", "12", "--resume", str(half),
                                         "--out", str(tmp_path / "o")])
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("data error: ") and "train_step 4" in result.stderr
    assert not (tmp_path / "o" / "g.ckpt").exists()


@pytest.mark.parametrize("flag,value", [("--lr", "0.1"), ("--noise-dim", "4"),
                                        ("--g-hidden", "32,32"), ("--d-hidden", "64"),
                                        ("--seed", "6"), ("--batch-size", "16"),
                                        ("--d-steps", "2"), ("--loss-mode", "minimax")])
def test_resume_refuses_other_hyperparameters(runner, trained_dir, tmp_path, flag, value):
    result = runner.invoke(main, ["train", "--variant", "sbp", "--dataset", "mixture-3x2",
                                  *TRAIN_FAST, flag, value, "--resume", str(trained_dir),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"config error: {flag} ")
    assert not (tmp_path / "o" / "g.ckpt").exists()


def test_resume_needs_the_earlier_manifest(runner, trained_dir, tmp_path):
    half = tmp_path / "half"
    half.mkdir()
    for name in ("g.ckpt", "d.ckpt", "log.csv"):
        (half / name).write_bytes((trained_dir / name).read_bytes())
    args = ["train", "--variant", "sbp", "--dataset", "mixture-3x2", *TRAIN_FAST,
            "--resume", str(half), "--out", str(tmp_path / "o")]
    for manifest in (None, "not json", "[]", '{"resolved": {"seed": 5}}'):
        if manifest is not None:
            (half / "manifest.json").write_text(manifest)
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert result.stderr.startswith("data error: ")
        assert "manifest" in result.stderr
        assert not (tmp_path / "o" / "g.ckpt").exists()


def test_resume_refuses_another_dataset(runner, trained_dir, tmp_path):
    # a tiny-digits-3 run continued on tiny-mnist-3, here a rendered corpus
    mnist = tmp_path / "mnist"
    images, labels = write_digits_idx(mnist, render_digits(count_per_label=800))
    images.rename(mnist / "train-images-idx3-ubyte")
    labels.rename(mnist / "train-labels-idx1-ubyte")
    base = ["train", "--variant", "cgan", "--batch-size", "32", "--seed", "2"]
    run_ok(runner, base + ["--dataset", "tiny-digits-3", "--steps", "2",
                           "--out", str(tmp_path / "digits")])
    result = runner.invoke(main, base + ["--dataset", "tiny-mnist-3", "--data-dir", str(mnist),
                                         "--steps", "4", "--resume", str(tmp_path / "digits"),
                                         "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("config error: --dataset tiny-mnist-3 differs from "
                                    "tiny-digits-3")
    assert not (tmp_path / "o" / "g.ckpt").exists()
    # a mixture-3x2 run, with its own settings given as flags, continued on tiny-digits-3
    result = runner.invoke(main, ["train", "--variant", "sbp", "--dataset", "tiny-digits-3",
                                  *TRAIN_FAST, "--lr", "1.5e-3", "--noise-dim", "8",
                                  "--g-hidden", "64,64", "--d-hidden", "64,64", "--steps", "22",
                                  "--resume", str(trained_dir), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("config error: --dataset tiny-digits-3 differs from "
                                    "mixture-3x2")
    assert not (tmp_path / "o" / "g.ckpt").exists()


def test_resume_checks_the_dataset_checksum(runner, trained_dir, tmp_path):
    half = tmp_path / "half"
    half.mkdir()
    for name in ("g.ckpt", "d.ckpt", "log.csv"):
        (half / name).write_bytes((trained_dir / name).read_bytes())
    doc = json.loads((trained_dir / "manifest.json").read_text())
    doc["dataset"]["checksum"] = "0" * 64
    (half / "manifest.json").write_text(json.dumps(doc))
    result = runner.invoke(main, ["train", "--variant", "sbp", "--dataset", "mixture-3x2",
                                  *TRAIN_FAST, "--steps", "22", "--resume", str(half),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("data error: ") and "0" * 64 in result.stderr
    assert not (tmp_path / "o" / "g.ckpt").exists()


def test_resume_refuses_other_lambda(runner, tmp_path):
    run_ok(runner, ["pretrain-q", "--dataset", "mixture-3x2", "--steps", "0",
                    "--out", str(tmp_path / "q")])
    base = ["train", "--variant", "irgan", "--dataset", "mixture-3x2", "--batch-size", "32",
            "--q-checkpoint", str(tmp_path / "q" / "q.ckpt")]
    run_ok(runner, base + ["--steps", "2", "--out", str(tmp_path / "half")])
    resume = base + ["--steps", "4", "--resume", str(tmp_path / "half")]
    result = runner.invoke(main, resume + ["--lambda", "3.0", "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert result.stderr.startswith("config error: --lambda 3.0 differs from 2.0")
    assert not (tmp_path / "o" / "g.ckpt").exists()
    # the preset's lambda given explicitly is the same setting
    run_ok(runner, resume + ["--lambda", "2.0", "--out", str(tmp_path / "o")])


def test_resume_refuses_another_approximator(runner, tmp_path):
    for q in ("q1", "q2"):
        run_ok(runner, ["pretrain-q", "--dataset", "mixture-3x2", "--steps", "0",
                        "--out", str(tmp_path / q)])
    base = ["train", "--variant", "irgan", "--dataset", "mixture-3x2", "--batch-size", "32"]
    run_ok(runner, base + ["--steps", "2", "--q-checkpoint", str(tmp_path / "q1" / "q.ckpt"),
                           "--out", str(tmp_path / "half")])
    result = runner.invoke(main, base + ["--steps", "4", "--resume", str(tmp_path / "half"),
                                         "--q-checkpoint", str(tmp_path / "q2" / "q.ckpt"),
                                         "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("config error: --q-checkpoint ")
    assert not (tmp_path / "o" / "g.ckpt").exists()


def test_resume_refuses_checkpoints_of_another_dataset(runner, trained_dir, tmp_path):
    # tiny-digits-3 checkpoints beside the manifest and log of a mixture-3x2 run
    run_ok(runner, ["train", "--variant", "sbp", "--dataset", "tiny-digits-3", *TRAIN_FAST,
                    "--steps", "2", "--out", str(tmp_path / "digits")])
    half = tmp_path / "half"
    half.mkdir()
    for name, run in (("g.ckpt", tmp_path / "digits"), ("d.ckpt", tmp_path / "digits"),
                      ("log.csv", trained_dir), ("manifest.json", trained_dir)):
        (half / name).write_bytes((run / name).read_bytes())
    result = runner.invoke(main, ["train", "--variant", "sbp", "--dataset", "mixture-3x2",
                                  *TRAIN_FAST, "--steps", "22", "--resume", str(half),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("data error: ") and "Traceback" not in result.output
    assert not (tmp_path / "o" / "g.ckpt").exists()


@pytest.mark.parametrize("key,value,flags", [("loss_mode", "wasserstein", []),
                                             ("lr", 0.1, ["--lr", "0.1"]),
                                             ("noise_dim", 4, ["--noise-dim", "4"]),
                                             ("d_hidden", "32", ["--d-hidden", "32"])])
def test_resume_refuses_a_manifest_that_its_run_contradicts(runner, trained_dir, tmp_path,
                                                           key, value, flags):
    half = tmp_path / "half"
    half.mkdir()
    for name in ("g.ckpt", "d.ckpt", "log.csv"):
        (half / name).write_bytes((trained_dir / name).read_bytes())
    doc = json.loads((trained_dir / "manifest.json").read_text())
    doc["resolved"][key] = value
    (half / "manifest.json").write_text(json.dumps(doc))
    result = runner.invoke(main, ["train", "--variant", "sbp", "--dataset", "mixture-3x2",
                                  *TRAIN_FAST, *flags, "--steps", "22", "--resume", str(half),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("data error: ")
    assert not (tmp_path / "o" / "g.ckpt").exists()


def test_d_steps_resume_matches_straight_run(runner, tmp_path):
    base = ["train", "--variant", "fcgan", "--dataset", "mixture-3x2",
            "--batch-size", "32", "--seed", "3", "--d-steps", "2"]
    run_ok(runner, base + ["--steps", "8", "--out", str(tmp_path / "full")])
    run_ok(runner, base + ["--steps", "4", "--out", str(tmp_path / "half")])
    run_ok(runner, base + ["--steps", "8", "--resume", str(tmp_path / "half"),
                           "--out", str(tmp_path / "resumed")])
    g_meta, _ = read_container(tmp_path / "full" / "g.ckpt")
    d_meta, _ = read_container(tmp_path / "full" / "d.ckpt")
    assert set(g_meta["adam_steps"].values()) == {8}
    assert set(d_meta["adam_steps"].values()) == {16}
    for name in ("g.ckpt", "d.ckpt"):
        assert (tmp_path / "full" / name).read_bytes() \
            == (tmp_path / "resumed" / name).read_bytes(), name


def test_resume_refuses_other_variant(runner, trained_dir, tmp_path):
    result = runner.invoke(main, ["train", "--variant", "cgan", "--dataset", "mixture-3x2",
                                  *TRAIN_FAST, "--resume", str(trained_dir),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert result.stderr.startswith("config error: --variant cgan differs from sbp, which the "
                                    f"run in {trained_dir} was trained with")
    assert not (tmp_path / "o" / "d.ckpt").exists()


def test_resume_refuses_fewer_steps_than_trained(runner, trained_dir, tmp_path):
    result = runner.invoke(main, ["train", "--variant", "sbp", "--dataset", "mixture-3x2",
                                  "--steps", "10", "--batch-size", "32", "--seed", "5",
                                  "--resume", str(trained_dir), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "20" in result.stderr
    assert not (tmp_path / "o" / "g.ckpt").exists()


def test_checkpoint_every_writes_intermediates(runner, tmp_path):
    run_ok(runner, ["train", "--variant", "sbp", "--dataset", "mixture-3x2",
                    "--steps", "4", "--batch-size", "32", "--checkpoint-every", "2",
                    "--out", str(tmp_path / "o")])
    assert (tmp_path / "o" / "g_step2.ckpt").is_file()
    assert (tmp_path / "o" / "g_step4.ckpt").is_file()


# ----------------------------------------------------------------------
# pretrain-q


def test_pretrain_q_zero_steps(runner, tmp_path):
    summary = run_ok(runner, ["pretrain-q", "--dataset", "tiny-digits-3", "--steps", "0",
                              "--seed", "2", "--out", str(tmp_path / "q1")])
    assert abs(summary["val_accuracy"] - 1.0 / 3.0) <= 0.1
    assert (tmp_path / "q1" / "q.ckpt").is_file()
    assert (tmp_path / "q1" / "summary.json").is_file()
    run_ok(runner, ["pretrain-q", "--dataset", "tiny-digits-3", "--steps", "0",
                    "--seed", "2", "--out", str(tmp_path / "q2")])
    assert (tmp_path / "q1" / "q.ckpt").read_bytes() == (tmp_path / "q2" / "q.ckpt").read_bytes()


def test_pretrain_q_learns_mixture(runner, tmp_path):
    summary = run_ok(runner, ["pretrain-q", "--dataset", "mixture-3x2", "--steps", "300",
                              "--seed", "2", "--out", str(tmp_path / "q")])
    assert summary["val_accuracy"] > 0.95


def test_pretrain_q_refuses_a_batch_larger_than_the_dataset(runner, tmp_path):
    result = runner.invoke(main, ["pretrain-q", "--dataset", "mixture-3x2", "--steps", "5",
                                  "--batch-size", "100000", "--out", str(tmp_path / "q")])
    assert result.exit_code == 3, result.output
    assert "cannot fill batches of 100000" in result.stderr
    assert not (tmp_path / "q" / "manifest.json").exists()


# ----------------------------------------------------------------------
# eval


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory, trained_dir):
    out = tmp_path_factory.mktemp("eval")
    CliRunner().invoke(main, ["eval", "--g-checkpoint", str(trained_dir / "g.ckpt"),
                              "--dataset", "mixture-3x2", "--seed", "3",
                              "--samples-per-condition", "150", "--out", str(out)],
                       catch_exceptions=False)
    return out


def test_eval_report_contract(eval_dir):
    report = (eval_dir / "report.csv").read_text().strip().splitlines()
    assert report[0] == "condition,sigma,mean_ll,stderr,n_test,n_samples"
    assert len(report) == 4
    for line in report[1:]:
        cells = line.split(",")
        assert cells[0] in ("0", "1", "2")
        float(cells[1]), float(cells[2]), float(cells[3])
        assert cells[4] == "300" and cells[5] == "150"


def test_eval_table_header_lists_labels(eval_dir):
    table = (eval_dir / "table.txt").read_text().splitlines()
    assert table[0].split("|")[1].split() == ["0", "1", "2"]
    assert table[2].startswith("sbp")


def test_eval_deterministic(runner, trained_dir, tmp_path):
    args = ["eval", "--g-checkpoint", str(trained_dir / "g.ckpt"), "--dataset",
            "mixture-3x2", "--seed", "3", "--samples-per-condition", "100"]
    run_ok(runner, args + ["--out", str(tmp_path / "e1")])
    run_ok(runner, args + ["--out", str(tmp_path / "e2")])
    assert (tmp_path / "e1" / "report.csv").read_bytes() \
        == (tmp_path / "e2" / "report.csv").read_bytes()


def test_eval_multiple_checkpoints_one_row_per_model(runner, trained_dir, tmp_path):
    other = tmp_path / "other"
    run_ok(runner, ["train", "--variant", "cgan", "--dataset", "mixture-3x2",
                    *TRAIN_FAST, "--out", str(other)])
    out = tmp_path / "combined"
    run_ok(runner, ["eval", "--g-checkpoint", str(trained_dir / "g.ckpt"),
                    "--g-checkpoint", str(other / "g.ckpt"), "--dataset", "mixture-3x2",
                    "--seed", "3", "--samples-per-condition", "80", "--out", str(out)])
    table = (out / "table.txt").read_text().splitlines()
    assert len(table) == 4  # header, rule, one row per model
    assert table[2].startswith("sbp") and table[3].startswith("cgan")
    assert (out / "report_sbp.csv").is_file() and (out / "report_cgan.csv").is_file()


def test_eval_dimension_mismatch_exits_2(runner, trained_dir, tmp_path):
    result = CliRunner().invoke(main, ["eval", "--g-checkpoint", str(trained_dir / "g.ckpt"),
                                       "--dataset", "tiny-digits-3", "--out", str(tmp_path / "o")])
    assert result.exit_code == 2


def test_eval_rejects_discriminator_checkpoint(runner, trained_dir, tmp_path):
    result = runner.invoke(main, ["eval", "--g-checkpoint", str(trained_dir / "d.ckpt"),
                                  "--dataset", "mixture-3x2", "--out", str(tmp_path / "o")])
    assert result.exit_code == 2


def test_eval_malformed_checkpoint_is_data_error(runner, trained_dir, tmp_path):
    meta, arrays = read_container(trained_dir / "g.ckpt")
    del meta["spec"]
    write_container(tmp_path / "g.ckpt", meta, arrays)
    result = runner.invoke(main, ["eval", "--g-checkpoint", str(tmp_path / "g.ckpt"),
                                  "--dataset", "mixture-3x2", "--out", str(tmp_path / "o")])
    assert result.exit_code == 3
    assert result.stderr.startswith("data error: ") and "'spec'" in result.stderr


@pytest.mark.parametrize("name", ["sub/dir", 5, pytest.param("x" * 300, id="x300")])
def test_eval_refuses_a_checkpoint_name_that_is_no_file_name(runner, trained_dir, tmp_path,
                                                              name):
    meta, arrays = read_container(trained_dir / "g.ckpt")
    meta["name"] = name
    for copy in ("a", "b"):
        write_container(tmp_path / f"{copy}.ckpt", meta, arrays)
    result = runner.invoke(main, ["eval", "--g-checkpoint", str(tmp_path / "a.ckpt"),
                                  "--g-checkpoint", str(tmp_path / "b.ckpt"),
                                  "--dataset", "mixture-3x2", "--out", str(tmp_path / "o")])
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("data error: ") and "'name'" in result.stderr


def test_eval_report_names_fit_the_file_system(runner, trained_dir, tmp_path, monkeypatch):
    """Names of MAX_NAME_BYTES bytes of UTF-8 name report files. A longer name,
    from a repeat's "+" or from the file of a checkpoint without one, exits 2
    before any evaluation runs."""
    meta, arrays = read_container(trained_dir / "g.ckpt")
    longest = "\u00e9" * (MAX_NAME_BYTES // 2) + "x" * (MAX_NAME_BYTES % 2)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    write_container(a, dict(meta, name=longest), arrays)
    write_container(b, dict(meta, name="y" * MAX_NAME_BYTES), arrays)
    args = ["eval", "--dataset", "mixture-3x2", "--samples-per-condition", "40"]
    run_ok(runner, [*args, "--g-checkpoint", str(a), "--g-checkpoint", str(b),
                    "--out", str(tmp_path / "o")])
    assert (tmp_path / "o" / f"report_{longest}.csv").is_file()
    del meta["name"]
    stem = tmp_path / ("s" * (MAX_NAME_BYTES + 1) + ".ckpt")
    write_container(stem, meta, arrays)
    monkeypatch.setattr(cli, "conditional_eval", None)
    for pair in ((a, a), (b, stem)):
        result = runner.invoke(main, [*args, "--g-checkpoint", str(pair[0]), "--g-checkpoint",
                                      str(pair[1]), "--out", str(tmp_path / "refused")])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("config error: ")
        assert "cannot name a report file" in result.stderr
    assert list((tmp_path / "refused").iterdir()) == []


def test_eval_sigma_grid_flag(runner, trained_dir, tmp_path):
    run_ok(runner, ["eval", "--g-checkpoint", str(trained_dir / "g.ckpt"),
                              "--dataset", "mixture-3x2", "--seed", "1",
                              "--sigma-grid", "0.05,0.1,0.2",
                              "--samples-per-condition", "60", "--out", str(tmp_path / "o")])
    report = (tmp_path / "o" / "report.csv").read_text().strip().splitlines()
    for line in report[1:]:
        assert float(line.split(",")[1]) in (0.05, 0.1, 0.2)


@pytest.mark.parametrize("grid", ["0.1:1:x", "a:1:3", "0:1:5", "0.1:1:-2", "1:2", "-1:1:5",
                                  "nan,1"])
def test_malformed_sigma_grid_is_config_error(runner, trained_dir, tmp_path, grid):
    args = ["eval", "--g-checkpoint", str(trained_dir / "g.ckpt"), "--dataset", "mixture-3x2",
            "--seed", "1", "--samples-per-condition", "60"]
    result = runner.invoke(main, [*args, "--sigma-grid", grid, "--out", str(tmp_path / "bad")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("config error: ")
    # recorded in a manifest, the same grid is malformed data
    run_ok(runner, [*args, "--sigma-grid", "0.05:1:3", "--out", str(tmp_path / "o")])
    doc = json.loads((tmp_path / "o" / "manifest.json").read_text())
    doc["resolved"]["sigma_grid"] = grid
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    result = runner.invoke(main, ["rerun", str(tmp_path / "manifest.json"),
                                  "--out", str(tmp_path / "re")])
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("data error: ")


def test_eval_warns_when_sigma_is_on_the_grid_edge(runner, trained_dir, tmp_path):
    out = tmp_path / "o"
    result = runner.invoke(main, ["eval", "--g-checkpoint", str(trained_dir / "g.ckpt"),
                                  "--dataset", "mixture-3x2", "--seed", "1",
                                  "--sigma-grid", "1e-6,1e-5", "--samples-per-condition", "60",
                                  "--out", str(out)])
    assert result.exit_code == 0
    warnings = [ln for ln in result.stderr.splitlines() if ln.startswith("warning: ")]
    assert len(warnings) == 3 and all("largest on the grid" in w for w in warnings)
    assert len(result.stdout.strip().splitlines()) == 1
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "condition,sigma,mean_ll,stderr,n_test,n_samples"
    assert all(line.split(",")[1] == "1e-05" for line in report[1:])


# ----------------------------------------------------------------------
# sample


def test_sample_single_record(runner, trained_dir, tmp_path):
    out = tmp_path / "s"
    run_ok(runner, ["sample", "--g-checkpoint", str(trained_dir / "g.ckpt"),
                              "--condition", "1", "--count", "1", "--seed", "8",
                              "--out", str(out)])
    meta, arrays = read_container(out / "samples.bin")
    assert meta["count"] == 1 and meta["condition"] == 1
    assert arrays["samples"].shape == (1, 1, 1, 2)
    grid = (out / "grid.pgm").read_bytes()
    assert grid.startswith(b"P5\n")


def test_sample_condition_out_of_range(runner, trained_dir, tmp_path):
    result = runner.invoke(main, ["sample", "--g-checkpoint", str(trained_dir / "g.ckpt"),
                                  "--condition", "3", "--count", "1",
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 2


@pytest.mark.parametrize("field,value", [("noise_dim", 9), ("image_shape", [2, 1, 2]),
                                         ("activation", "tanh"), ("alpha", 0.5)])
def test_sample_refuses_a_header_that_disagrees_with_its_layout(runner, trained_dir, tmp_path,
                                                                field, value):
    meta, arrays = read_container(trained_dir / "g.ckpt")
    (meta["spec"] if field in ("activation", "alpha") else meta["model"])[field] = value
    write_container(tmp_path / "g.ckpt", meta, arrays)
    result = runner.invoke(main, ["sample", "--g-checkpoint", str(tmp_path / "g.ckpt"),
                                  "--condition", "0", "--out", str(tmp_path / "o")])
    assert result.exit_code == 3, result.output
    assert result.stderr.startswith("data error: ")
    assert not (tmp_path / "o" / "samples.bin").exists()


def test_sample_refuses_another_role(runner, trained_dir, tmp_path):
    result = runner.invoke(main, ["sample", "--g-checkpoint", str(trained_dir / "d.ckpt"),
                                  "--condition", "0", "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert result.stderr.startswith("config error: ") and "discriminator" in result.stderr


def test_sample_deterministic(runner, trained_dir, tmp_path):
    args = ["sample", "--g-checkpoint", str(trained_dir / "g.ckpt"), "--condition", "0",
            "--count", "4", "--seed", "6"]
    run_ok(runner, args + ["--out", str(tmp_path / "s1")])
    run_ok(runner, args + ["--out", str(tmp_path / "s2")])
    assert (tmp_path / "s1" / "samples.bin").read_bytes() \
        == (tmp_path / "s2" / "samples.bin").read_bytes()


# ----------------------------------------------------------------------
# config layering


def test_config_file_layering(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# experiment defaults\nsteps = 2\nseed = 41\n")
    out = tmp_path / "o"
    run_ok(runner, ["train", "--variant", "sbp", "--dataset", "mixture-3x2",
                    "--config", str(cfg), "--seed", "77", "--batch-size", "32",
                    "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved"]["steps"] == 2      # from file, overriding default
    assert manifest["resolved"]["seed"] == 77      # flag beats file
    log = (out / "log.csv").read_text().strip().splitlines()
    assert len(log) == 3


def test_config_file_unknown_key(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus_knob = 3\n")
    result = runner.invoke(main, ["train", "--variant", "sbp", "--dataset", "mixture-3x2",
                                  "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "bogus_knob" in result.stderr


@pytest.mark.parametrize("line,key", [("steps = many", "steps"), ("lr = [1]", "lr")])
def test_config_file_malformed_value(runner, tmp_path, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    result = runner.invoke(main, ["train", "--variant", "sbp", "--dataset", "mixture-3x2",
                                  "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert result.stderr.startswith("config error: ") and f"'{key}'" in result.stderr


def test_internal_failure_exits_1(runner, trained_dir, tmp_path):
    meta, arrays = read_container(trained_dir / "g.ckpt")
    arrays["l0.w"] = np.full_like(arrays["l0.w"], np.nan)
    bad = tmp_path / "bad.ckpt"
    write_container(bad, meta, arrays)
    result = runner.invoke(main, ["eval", "--g-checkpoint", str(bad),
                                  "--dataset", "mixture-3x2", "--out", str(tmp_path / "o")])
    assert result.exit_code == 1


def test_every_command_writes_a_manifest(runner, trained_dir, tmp_path):
    assert (trained_dir / "manifest.json").is_file()
    run_ok(runner, ["pretrain-q", "--dataset", "mixture-3x2", "--steps", "0",
                    "--out", str(tmp_path / "q")])
    run_ok(runner, ["eval", "--g-checkpoint", str(trained_dir / "g.ckpt"),
                    "--dataset", "mixture-3x2", "--samples-per-condition", "50",
                    "--seed", "1", "--out", str(tmp_path / "e")])
    run_ok(runner, ["sample", "--g-checkpoint", str(trained_dir / "g.ckpt"),
                    "--condition", "0", "--count", "2", "--out", str(tmp_path / "s")])
    for sub in ("q", "e", "s"):
        assert (tmp_path / sub / "manifest.json").is_file(), sub


def test_commands_do_not_mutate_inputs(runner, trained_dir, tmp_path):
    before = (trained_dir / "g.ckpt").read_bytes()
    run_ok(runner, ["eval", "--g-checkpoint", str(trained_dir / "g.ckpt"),
                    "--dataset", "mixture-3x2", "--seed", "1",
                    "--samples-per-condition", "50", "--out", str(tmp_path / "o")])
    assert (trained_dir / "g.ckpt").read_bytes() == before
