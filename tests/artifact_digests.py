"""SHA-256 digests of the artifacts a source tree's CLI writes, for bit-identity checks.

Run from anywhere, naming the tree whose `src/` to run:

    python tests/artifact_digests.py TREE

On mixture-3x2 and tiny-digits-3 it runs `pretrain-q --steps 200 --seed 3`,
`train` of all four variants with `--seed 7` (300 steps on mixture-3x2, 150
on tiny-digits-3; irgan uses that Q), one `eval --seed 5
--samples-per-condition 400` of the four generators in each sigma mode, and
`sample --condition 1 --count 16 --seed 3` of the sbp generator. It also
runs cgan for half the steps with `--checkpoint-every` a quarter of the
steps, so its mid-run `g_step*`/`d_step*` checkpoints are hashed too, a
`--resume` of that run to the full step count, and a `rerun` of the sbp
run's manifest. On tiny-digits-3 it also trains sbp with `--batch-size 256`,
whose pooled inputs exceed `conditioning.POOL_BUILD_MAX`, so sbp's
per-condition product is hashed as well as the built one that the default
batch size takes, and then repeats the default sbp run as `train-sbp-warm`
over whatever the earlier commands left in TMPDIR.

Every command is a fresh `python -m cganlab.cli` process with
PYTHONPATH=TREE/src, OPENBLAS_NUM_THREADS=1 and TMPDIR one fresh directory
for the whole run, so tiny-digits-3 starts out unrendered. It prints one
JSON object mapping each artifact, as `dataset/run/file`, to its SHA-256;
`log.csv` is hashed without its `wall_ms` column, which records physical
time. A refactor that keeps behaviour prints the same object for the parent
tree and for the change.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

VARIANTS = ("cgan", "fcgan", "sbp", "irgan")
TRAIN_STEPS = {"mixture-3x2": 300, "tiny-digits-3": 150}
# batch sizes at which sbp is trained once more, beside the dataset's default
SBP_BATCH_SIZES = {"tiny-digits-3": 256}


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
    cgan = ["train", "--variant", "cgan", *ds, "--seed", "7"]
    runs.append(("train-cgan-half", [*cgan, "--steps", str(steps // 2),
                                     "--checkpoint-every", str(steps // 4)]))
    runs.append(("train-cgan-resumed", [*cgan, "--steps", str(steps),
                                        "--resume", "{train-cgan-half}"]))
    runs.append(("rerun-sbp", ["rerun", "{train-sbp}/manifest.json"]))
    if dataset in SBP_BATCH_SIZES:
        bs = str(SBP_BATCH_SIZES[dataset])
        runs.append((f"train-sbp-b{bs}", ["train", "--variant", "sbp", *ds, "--steps", str(steps),
                                          "--seed", "7", "--batch-size", bs]))
    if dataset == "tiny-digits-3":
        runs.append(("train-sbp-warm", dict(runs)["train-sbp"]))
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
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
                   TMPDIR=str(Path(tmp) / "tmpdir"))
        for dataset, steps in TRAIN_STEPS.items():
            dirs = {}
            for run, args in commands(dataset, steps):
                dirs[run] = Path(tmp) / dataset / run
                args = [a.format(**dirs) for a in args] + ["--out", str(dirs[run])]
                r = subprocess.run([sys.executable, "-m", "cganlab.cli", *args], env=env,
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
