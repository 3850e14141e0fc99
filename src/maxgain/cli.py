"""Command line interface.

Subcommands: train, sweep, gain-report, folds, ttest. Exit codes: 0 on
success, 2 for usage/config/format problems, 3 for numerical failures
(divergence, non-finite values).
"""

import argparse
import math
import os
import sys

from .checkpoint import load_network, save_network
from .data import FoldProtocol, read_json, write_text
from .errors import (
    CacheError,
    ConfigError,
    DegenerateSampleError,
    DivergenceError,
    EmptySampleError,
    FormatError,
    InvalidValueError,
    ShapeError,
)
from .evaluate import gain_report, paired_t_test
from .experiment import FoldScores, build_splits, check_config, gamma_sweep, run_config, run_folds

_USAGE_ERRORS = (ConfigError, FormatError, ShapeError, EmptySampleError, DegenerateSampleError,
                 FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError)
_NUMERIC_ERRORS = (DivergenceError, InvalidValueError, CacheError)


def _write_or_print(text, out_path):
    if out_path:
        write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _training_config(args):
    """The checked config file, with --seed applied."""
    config = check_config(read_json(args.config))
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def _jobs(text):
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def cmd_train(args):
    config = _training_config(args)
    os.makedirs(args.out, exist_ok=True)
    ledger_path = os.path.join(args.out, "ledger.tsv")
    checkpoint_path = os.path.join(args.out, "checkpoint.txt")
    try:
        result = run_config(config)
    except DivergenceError as err:
        err.ledger.write(ledger_path)
        raise
    result.ledger.write(ledger_path)
    save_network(result.net, checkpoint_path)
    print(f"train loss {result.train_loss:.6g} accuracy {result.train_accuracy:.6g}")
    if result.test_accuracy is not None:
        print(f"test loss {result.test_loss:.6g} accuracy {result.test_accuracy:.6g}")
    print(f"wrote {ledger_path} and {checkpoint_path}")
    return 0


def _parse_gammas(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--gammas must be a comma-separated list of numbers, got {text!r}") from None


def cmd_sweep(args):
    config = _training_config(args)
    result = gamma_sweep(config, _parse_gammas(args.gammas), jobs=args.jobs)
    _write_or_print(result.to_text(), args.out)
    return 0


_NORMS = {"1": 1, "2": 2, "inf": math.inf}


def cmd_gain_report(args):
    net = load_network(args.checkpoint)
    train, test = build_splits(read_json(args.config))
    report = gain_report(net, train, test, _NORMS[args.norm])
    _write_or_print(report.to_text(), args.out)
    return 0


def cmd_folds(args):
    config = _training_config(args)
    protocol = FoldProtocol.load(args.folds_file) if args.folds_file else None
    scores = run_folds(config, protocol, jobs=args.jobs)
    if args.save_folds:
        scores.protocol.save(args.save_folds)
    _write_or_print(scores.to_text(), args.out)
    return 0


def cmd_ttest(args):
    scores_a = dict(FoldScores.load(args.scores_a).scores)
    scores_b = dict(FoldScores.load(args.scores_b).scores)
    if set(scores_a) != set(scores_b):
        raise ConfigError(
            f"fold indices differ between {args.scores_a} and {args.scores_b}")
    folds = sorted(scores_a)
    a = [scores_a[f] for f in folds]
    b = [scores_b[f] for f in folds]
    result = paired_t_test(a, b)
    k = len(folds)
    for path, vals in ((args.scores_a, a), (args.scores_b, b)):
        mean = sum(vals) / k
        var = sum((v - mean) ** 2 for v in vals) / (k - 1)
        se = math.sqrt(var / k)
        print(f"{path}: mean {mean:.6g} se {se:.6g} ({k} folds)")
    print(f"t {result.t:.6g} df {result.df} p {result.p:.6g}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="maxgain",
        description="Train feed-forward networks under per-layer gain constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write its ledger and checkpoint")
    p.add_argument("config", help="experiment config (JSON)")
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="train one model per gamma and tabulate the results")
    p.add_argument("config")
    p.add_argument("--gammas", required=True, help="comma-separated gamma values")
    p.add_argument("--jobs", type=_jobs, default=1, help="parallel workers (default 1)")
    p.add_argument("--out", help="write the table here instead of stdout")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gain-report", help="per-layer gain summaries of a trained checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("config", help="config supplying the dataset(s)")
    p.add_argument("--norm", choices=sorted(_NORMS), default="2", help="gain norm order")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_gain_report)

    p = sub.add_parser("folds", help="train and score the config on every fold")
    p.add_argument("config")
    p.add_argument("--folds-file", help="use a saved fold protocol instead of building one")
    p.add_argument("--save-folds", help="write the fold protocol here")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--out", help="write the scores here instead of stdout")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_folds)

    p = sub.add_parser("ttest", help="paired t-test between two fold-score files")
    p.add_argument("scores_a")
    p.add_argument("scores_b")
    p.set_defaults(func=cmd_ttest)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
