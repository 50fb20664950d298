"""SHA-256 digests of the artifacts a source tree's CLI writes, for bit-identity checks.

Run from anywhere, naming the tree whose `src/` to run:

    python tests/artifact_digests.py TREE

On mixture-3x2 and tiny-digits-3 it runs `pretrain-q --steps 200 --seed 3`,
`train` of all four variants with `--seed 7` (300 steps on mixture-3x2, 150
on tiny-digits-3; irgan uses that Q), one `eval --seed 5
--samples-per-condition 400` of the four generators in each sigma mode, and
`sample --condition 1 --count 16 --seed 3` of the sbp generator, then the
same with `--count 700` (`sample-700`, see SAMPLE_ROWS). Those rows are too
few to split over two workers; generate_samples ran them as 256-row blocks
one after another on the caller's thread until it made them one forward, so
their digests tie the bits across that change. It also runs cgan for half the steps with
`--checkpoint-every` a quarter of the steps, so its mid-run
`g_step*`/`d_step*` checkpoints are hashed too, a `--resume` of that run to
the full step count, a `--resume` of it that trains no step
(`train-cgan-reloaded`, whose files are the half run's when loading and
saving keep every byte, cgan's tied Adam moments included), and a `rerun`
of the sbp run's manifest. On tiny-digits-3 it also trains
sbp with `--batch-size 256`, which hashes sbp's per-condition product at a
second batch size. That run also took the loop under the earlier rule,
which built pooled inputs of up to 2^15 elements, so its digests are the
same before and after the rule became "single-pixel images only", and tie
the loop's bits across that change. It then repeats
the default sbp run as `train-sbp-warm` over whatever the earlier commands
left in TMPDIR, and trains sbp and cgan for WIDE_STEPS steps with
`--d-hidden` WIDE_D_HIDDEN, whose first D weight is wide enough that Adam
splits its update over two or more CPUs (see WIDE_D_HIDDEN), and evaluates
the four generators with WIDE_SAMPLES samples per condition, enough for the
Parzen distances to take two sample blocks per worker (see WIDE_SAMPLES),
and generate_samples 32 blocks of 256 rows or more per condition. It runs
that eval twice: once as every other command, and once, `eval-wide-unpinned`,
without the BLAS thread variables, so that with two or more CPUs one run of
the tool hashes both of generate_samples's paths: blocks on the pool when
BLAS is serial, one forward on BLAS's own threads when it is not
(cganlab.tensor.BLAS_SERIAL).
On mixture-3x2 a `train` of fcgan and an `eval` of its generator share one
`--config` file (SHARED_CONFIG), which holds a train key, a pretrain-q key
and an eval key, so a config file shared across commands is hashed too.

Every command is a fresh `python -m cganlab.cli` process with
PYTHONPATH=TREE/src, OPENBLAS_NUM_THREADS=1 (but `eval-wide-unpinned`) and
TMPDIR one fresh directory for the whole run, so tiny-digits-3 starts out
unrendered. It prints one JSON object mapping each artifact, as
`dataset/run/file`, to its SHA-256; `log.csv` is hashed without its
`wall_ms` column, which records physical time. A refactor that keeps
behaviour prints the same object for the parent tree and for the change.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

VARIANTS = ("cgan", "fcgan", "sbp", "irgan")
# the variables that set BLAS's threads, as cganlab.tensor.BLAS_THREAD_VARS
# (not imported: the tool runs the named tree's sources, not its own)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRAIN_STEPS = {"mixture-3x2": 300, "tiny-digits-3": 150}
# batch sizes at which sbp is trained once more, beside the dataset's default
SBP_BATCH_SIZES = {"tiny-digits-3": 256}
# tiny-digits-3 runs whose D layer 0 has 2048 units: sbp's 192 x 2048 weight
# is 12 blocks of tensor.ADAM_BLOCK and cgan's free rows, 64 x 2048, are 4,
# so with two or more CPUs both take Adam's split update
WIDE_D_HIDDEN, WIDE_STEPS = "2048", 40
# samples per condition of a tiny-digits-3 eval whose Parzen work splits over
# two CPUs: at 64 dimensions one distance block holds parzen.DIST_BLOCK / 512
# = 2048 samples, so 8200 are five blocks; the 100 validation rows of a
# condition are seven blocks of the sweep's 15 rows of 8200 distances
WIDE_SAMPLES = "8200"
# rows of the second sbp sample run: ceil(700 / parzen.GEN_BLOCK) = 3 blocks,
# under two per worker on two CPUs (tensor.split_workers), so with BLAS
# serial generate_samples makes them one forward
SAMPLE_ROWS = "700"
# the run that repeats eval-wide with the BLAS thread variables taken out of
# the child's environment, so that with two or more CPUs BLAS threads its own
# products and generate_samples makes one forward, while every other
# command's BLAS is serial and its generation takes the pool; its files are
# the same bytes as eval-wide's
UNPINNED_RUN = "eval-wide-unpinned"
# one file for a train and an eval on mixture-3x2: d_steps is train's,
# q_steps pretrain-q's and sigma_mode eval's
SHARED_CONFIG = "d_steps = 2\nq_steps = 7\nsigma_mode = global\n"


def commands(dataset: str, steps: int):
    """(run name, CLI arguments without --out) in the order they must run."""
    ds = ["--dataset", dataset]
    runs = [("q", ["pretrain-q", *ds, "--steps", "200", "--seed", "3"])]
    for v in VARIANTS:
        q = ["--q-checkpoint", "{q}/q.ckpt"] if v == "irgan" else []
        runs.append((f"train-{v}", ["train", "--variant", v, *ds, "--steps", str(steps),
                                    "--seed", "7", *q]))
    gens = [a for v in VARIANTS for a in ("--g-checkpoint", f"{{train-{v}}}/g.ckpt")]
    for mode in ("per_condition", "global"):
        runs.append((f"eval-{mode}", ["eval", *gens, *ds, "--seed", "5",
                                      "--samples-per-condition", "400", "--sigma-mode", mode]))
    runs.append(("sample", ["sample", "--g-checkpoint", "{train-sbp}/g.ckpt", "--condition", "1",
                            "--count", "16", "--seed", "3"]))
    runs.append((f"sample-{SAMPLE_ROWS}", ["sample", "--g-checkpoint", "{train-sbp}/g.ckpt",
                                          "--condition", "1", "--count", SAMPLE_ROWS,
                                          "--seed", "3"]))
    cgan = ["train", "--variant", "cgan", *ds, "--seed", "7"]
    runs.append(("train-cgan-half", [*cgan, "--steps", str(steps // 2),
                                     "--checkpoint-every", str(steps // 4)]))
    runs.append(("train-cgan-resumed", [*cgan, "--steps", str(steps),
                                        "--resume", "{train-cgan-half}"]))
    runs.append(("train-cgan-reloaded", [*cgan, "--steps", str(steps // 2),
                                         "--resume", "{train-cgan-half}"]))
    runs.append(("rerun-sbp", ["rerun", "{train-sbp}/manifest.json"]))
    if dataset in SBP_BATCH_SIZES:
        bs = str(SBP_BATCH_SIZES[dataset])
        runs.append((f"train-sbp-b{bs}", ["train", "--variant", "sbp", *ds, "--steps", str(steps),
                                          "--seed", "7", "--batch-size", bs]))
    if dataset == "tiny-digits-3":
        runs.append(("train-sbp-warm", dict(runs)["train-sbp"]))
        for v in ("sbp", "cgan"):
            runs.append((f"train-{v}-wide", ["train", "--variant", v, *ds, "--steps",
                                             str(WIDE_STEPS), "--seed", "7", "--d-hidden",
                                             WIDE_D_HIDDEN]))
        wide = ["eval", *gens, *ds, "--seed", "5", "--samples-per-condition", WIDE_SAMPLES]
        runs.append(("eval-wide", wide))
        runs.append((UNPINNED_RUN, wide))
    else:
        shared = ["--config", "{config}"]
        runs.append(("train-shared", ["train", "--variant", "fcgan", *ds, "--steps", str(steps),
                                      "--seed", "7", *shared]))
        runs.append(("eval-shared", ["eval", "--g-checkpoint", "{train-shared}/g.ckpt", *ds,
                                     "--seed", "5", "--samples-per-condition", "400", *shared]))
    return runs


def digest(path: Path) -> str:
    raw = path.read_bytes()
    if path.name == "log.csv":
        raw = "\n".join(line.rsplit(",", 1)[0] for line in raw.decode().splitlines()).encode()
    return hashlib.sha256(raw).hexdigest()


def main(tree: Path) -> dict:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "tmpdir").mkdir()
        config = Path(tmp) / "shared.cfg"
        config.write_text(SHARED_CONFIG)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
                   TMPDIR=str(Path(tmp) / "tmpdir"))
        for dataset, steps in TRAIN_STEPS.items():
            dirs = {"config": config}
            for run, args in commands(dataset, steps):
                dirs[run] = Path(tmp) / dataset / run
                args = [a.format(**dirs) for a in args] + ["--out", str(dirs[run])]
                child = env
                if run == UNPINNED_RUN:
                    child = {k: v for k, v in env.items() if k not in BLAS_THREAD_VARS}
                r = subprocess.run([sys.executable, "-m", "cganlab.cli", *args], env=child,
                                   capture_output=True, text=True)
                if r.returncode != 0:
                    sys.exit(f"cganlab {' '.join(args)} exited {r.returncode}:\n{r.stderr}")
                for p in sorted(dirs[run].iterdir()):
                    if p.suffix in (".ckpt", ".csv", ".txt", ".bin", ".pgm", ".ppm"):
                        digests[f"{dataset}/{run}/{p.name}"] = digest(p)
    return digests


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/artifact_digests.py TREE")
    print(json.dumps(main(Path(sys.argv[1]).resolve()), indent=1, sort_keys=True))
