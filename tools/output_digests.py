"""Print the sha256 of every file the maxgain CLI writes for fixed configs.

    python3 tools/output_digests.py [--keep DIR]

Runs `train`, `sweep --jobs 1`, `sweep --jobs 2` at one more gamma and
`gain-report --norm 1|2|inf` in a temporary directory on two configs, and
`gain-report` on a config that holds only the test split, using the
`src/maxgain` of the checkout this file sits in:

- spiral: the example config of README.md (a 2-64-64-2 MLP, Adam, 200 epochs);
- idx: seeded 8x8 IDX images this script writes, through conv, batchnorm, a
  residual block with a projection shortcut, overlapping max pooling, dropout
  and a dense classifier, SGD with flip and pad-crop augmentation.

On idx it also runs `folds --save-folds`, `folds --folds-file --jobs 2` at a
second gamma on the saved protocol, and `ttest` between the two score files,
whose stdout it digests too. Last, idx-p2 trains the idx config at p=2, the
norm whose conv and batchnorm gains depend on summation order, and digests
its ledger, checkpoint and `gain-report --norm 2`.

Outputs are deterministic, so two checkouts that behave alike print the same
lines; diff them to check a change that should not alter results. With
`--keep DIR` the files stay in DIR (one directory per config, DIR must not
exist yet), so the files two checkouts write differently can be compared
value by value. Needs numpy only. Takes about half a minute.
"""

import argparse
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

SPIRAL = {
    "seed": 7,
    "model": [
        {"type": "dense", "in": 2, "out": 64},
        {"type": "relu"},
        {"type": "dense", "in": 64, "out": 64},
        {"type": "relu"},
        {"type": "dense", "in": 64, "out": 2},
    ],
    "optimizer": "adam",
    "lr": 0.001,
    "epochs": 200,
    "batch_size": 64,
    "maxgain": {"gamma": 2.0, "p": 2},
    "dataset": {"type": "spirals", "n": 2000, "seed": 7},
    "test_dataset": {"type": "spirals", "n": 1000, "seed": 107},
}

IDX = {
    "seed": 3,
    "model": [
        {"type": "conv", "in": 1, "out": 4, "kernel": 3, "pad": 1},
        {"type": "batchnorm", "channels": 4},
        {"type": "relu"},
        {"type": "residual",
         "main": [{"type": "conv", "in": 4, "out": 6, "kernel": 3, "pad": 1},
                  {"type": "batchnorm", "channels": 6},
                  {"type": "relu"},
                  {"type": "conv", "in": 6, "out": 6, "kernel": 3, "pad": 1}],
         "shortcut": [{"type": "conv", "in": 4, "out": 6, "kernel": 1}]},
        {"type": "maxpool", "kernel": 3, "stride": 2},
        {"type": "dropout", "rate": 0.25},
        {"type": "flatten"},
        {"type": "dense", "in": 54, "out": 3},
    ],
    "optimizer": "sgd",
    "momentum": 0.9,
    "lr": 0.05,
    "epochs": 4,
    "batch_size": 16,
    "maxgain": {"gamma": 1.5, "p": "inf"},
    "augment": {"flip": True, "pad": 1, "crop": 8},
    "folds": {"k": 3, "train_per_fold": 24, "test_per_fold": 8, "seed": 5},
    "dataset": {"type": "idx", "images": "train-images", "labels": "train-labels"},
    "test_dataset": {"type": "idx", "images": "test-images", "labels": "test-labels"},
}


def write_idx(directory, stem, n, rng):
    """n seeded 8x8 one-channel images of three classes: each class a bright
    quadrant pattern, plus noise, as unsigned bytes."""
    labels = rng.integers(0, 3, size=n)
    patterns = np.zeros((3, 8, 8))
    patterns[0, :4, :4] = patterns[1, 4:, :] = patterns[2, :, 4:] = 160.0
    pixels = np.clip(patterns[labels] + rng.normal(48.0, 24.0, size=(n, 8, 8)), 0, 255)
    (directory / f"{stem}-images").write_bytes(
        struct.pack(">IIII", 0x803, n, 8, 8) + pixels.astype(np.uint8).tobytes())
    (directory / f"{stem}-labels").write_bytes(
        struct.pack(">II", 0x801, n) + labels.astype(np.uint8).tobytes())


def cli(directory, *args):
    """The stdout of the maxgain command line run in directory with args."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "maxgain.cli", *args], cwd=directory, env=env,
                          check=True, stdout=subprocess.PIPE).stdout


def digests(directory, config, gammas):
    """[(file, sha256)] of the train, sweep (over the comma-separated gammas)
    and gain-report outputs of config, then of its fold outputs if it has
    a folds section."""
    (directory / "config.json").write_text(json.dumps(config))
    (directory / "config-test.json").write_text(json.dumps({"test_dataset": config["test_dataset"]}))
    cli(directory, "train", "config.json", "--out", "run")
    cli(directory, "sweep", "config.json", "--gammas", gammas, "--jobs", "1", "--out", "sweep.tsv")
    outputs = ["run/ledger.tsv", "run/checkpoint.txt", "sweep.tsv"]
    for norm in ("1", "2", "inf"):
        cli(directory, "gain-report", "run/checkpoint.txt", "config.json", "--norm", norm,
            "--out", f"gain-report-{norm}.tsv")
        outputs.append(f"gain-report-{norm}.tsv")
    # three points on two workers: one worker's chunk holds two of them
    cli(directory, "sweep", "config.json", "--gammas", f"{gammas},2", "--jobs", "2", "--out", "sweep-jobs-2.tsv")
    cli(directory, "gain-report", "run/checkpoint.txt", "config-test.json", "--out", "gain-report-test.tsv")
    outputs += ["sweep-jobs-2.tsv", "gain-report-test.tsv"]
    if "folds" in config:
        other = dict(config, maxgain=dict(config["maxgain"], gamma=4.0))
        (directory / "config-b.json").write_text(json.dumps(other))
        cli(directory, "folds", "config.json", "--save-folds", "folds.json", "--out", "folds-a.tsv")
        cli(directory, "folds", "config-b.json", "--folds-file", "folds.json", "--jobs", "2",
            "--out", "folds-b.tsv")
        (directory / "ttest.txt").write_bytes(cli(directory, "ttest", "folds-a.tsv", "folds-b.tsv"))
        outputs += ["folds.json", "folds-a.tsv", "folds-b.tsv", "ttest.txt"]
    return [(out, hashlib.sha256((directory / out).read_bytes()).hexdigest()) for out in outputs]


def trained_digests(directory, config):
    """[(file, sha256)] of the train outputs of config and their gain report
    at the config's norm."""
    (directory / "config.json").write_text(json.dumps(config))
    cli(directory, "train", "config.json", "--out", "run")
    cli(directory, "gain-report", "run/checkpoint.txt", "config.json",
        "--norm", str(config["maxgain"]["p"]), "--out", "gain-report.tsv")
    outputs = ["run/ledger.tsv", "run/checkpoint.txt", "gain-report.tsv"]
    return [(out, hashlib.sha256((directory / out).read_bytes()).hexdigest()) for out in outputs]


def run(root):
    idx_p2 = dict(IDX, maxgain=dict(IDX["maxgain"], p=2))
    for name, config, gammas in (("spiral", SPIRAL, "1,4"), ("idx", IDX, "0.5,4"), ("idx-p2", idx_p2, None)):
        directory = root / name
        directory.mkdir(parents=True)
        if name.startswith("idx"):
            rng = np.random.default_rng(11)
            write_idx(directory, "train", 96, rng)
            write_idx(directory, "test", 48, rng)
        pairs = digests(directory, config, gammas) if gammas else trained_digests(directory, config)
        for out, digest in pairs:
            print(f"{digest}  {name}/{out}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", type=Path, help="write the files here and leave them")
    args = parser.parse_args()
    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=False)
        run(args.keep.resolve())
        return
    with tempfile.TemporaryDirectory() as tmp:
        run(Path(tmp))


if __name__ == "__main__":
    main()
