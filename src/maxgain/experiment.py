"""Experiment assembly: config dicts to networks, datasets, and training runs.

The config is a plain dict (the CLI reads it from JSON):

    {
      "seed": 7,
      "model": [{"type": <kind>, ...}, ...],  # stages: layers.STAGE_TYPES
      "init": "he-normal",
      "optimizer": "adam",                  # or "sgd"
      "lr": 1e-3,
      "momentum": 0.9,                      # sgd only
      "schedule": [[100, 0.1]],             # optional (epoch, factor) drops
      "epochs": 200,
      "batch_size": 64,
      "maxgain": {"gamma": 2.0, "p": 2},    # optional; p in {1, 2, "inf"}
      "dataset": {"type": "spirals", "n": 2000, "seed": 7},
      "test_dataset": {...},                # optional
      "augment": {"flip": true, "pad": 4},  # optional
      "folds": {"k": 10, "train_per_fold": 9000,
                "test_per_fold": 1000, "seed": 0}   # cmd-folds only
    }

Every run is a pure function of the config: weight init draws from the root
stream of `seed`, while shuffling / dropout / augmentation use child streams
spawned from the same seed inside fit().
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import augment, load_csv, load_idx, make_folds, synth_blobs, synth_spirals
from .errors import ConfigError, InvalidValueError, ShapeError
from .evaluate import per_layer_gains, run_jobs
from .layers import STAGE_TYPES, Network, ResidualBlock, stage_hyper
from .optim import Adam, MaxGainConfig, Schedule, SgdNesterov, eval_metrics, fit
from .tensor import make_rng

_TOP_KEYS = {"seed", "model", "init", "optimizer", "lr", "momentum", "schedule",
             "epochs", "batch_size", "maxgain", "dataset", "test_dataset",
             "augment", "folds"}
_REQUIRED_KEYS = ("model", "optimizer", "lr", "epochs", "dataset")


def _need(spec, key, what):
    if key not in spec:
        raise ConfigError(f"{what} is missing required key {key!r}")
    return spec[key]


def parse_norm_order(value):
    if value in (1, 2):
        return value
    if value == "inf" or value == math.inf:
        return math.inf
    raise ConfigError(f"norm order must be 1, 2 or \"inf\", got {value!r}")


def check_config(config):
    if not isinstance(config, dict):
        raise ConfigError("config must be a mapping")
    for key in config:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    for key in _REQUIRED_KEYS:
        if key not in config:
            raise ConfigError(f"config is missing required key {key!r}")
    if config["optimizer"] not in ("adam", "sgd"):
        raise ConfigError(f"optimizer must be \"adam\" or \"sgd\", got {config['optimizer']!r}")


def build_stage(spec, scheme, rng):
    """One stage from its config spec: {"type": <kind>, ...} with the keys
    the stage class declares (its hyperparameters and config_keys)."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"model stage must be a mapping with a \"type\", got {spec!r}")
    kind = spec["type"]
    cls = STAGE_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown stage type {kind!r}")
    what = f"{kind} stage"
    given = {k: v for k, v in spec.items() if k != "type"}
    hyper = stage_hyper(cls, given, ConfigError, cls.config_keys)
    try:
        if cls is ResidualBlock:
            shortcut = spec.get("shortcut")
            args = ([build_stage(s, scheme, rng) for s in _need(spec, "main", what)],
                    None if shortcut is None else [build_stage(s, scheme, rng) for s in shortcut])
        else:
            args = cls.initial(scheme, rng, *(int(_need(spec, k, what)) for k in cls.config_keys))
        return cls(*args, **hyper)
    except (InvalidValueError, ShapeError) as err:
        raise ConfigError(f"bad {what}: {err}") from None


def build_network(config, rng):
    scheme = config.get("init", "he-normal")
    stages = [build_stage(s, scheme, rng) for s in config["model"]]
    return Network(stages)


def build_dataset(spec):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"dataset spec must be a mapping with a \"type\", got {spec!r}")
    kind = spec["type"]
    if kind == "spirals":
        rng = make_rng(int(spec.get("seed", 0)))
        return synth_spirals(int(_need(spec, "n", "spirals dataset")), rng,
                             classes=int(spec.get("classes", 2)),
                             turns=float(spec.get("turns", 1.75)),
                             noise_sd=float(spec.get("noise_sd", 0.15)))
    if kind == "blobs":
        rng = make_rng(int(spec.get("seed", 0)))
        return synth_blobs(int(_need(spec, "n", "blobs dataset")), rng,
                           centers=_need(spec, "centers", "blobs dataset"),
                           sd=float(spec.get("sd", 1.0)))
    if kind == "idx":
        return load_idx(_need(spec, "images", "idx dataset"), _need(spec, "labels", "idx dataset"))
    if kind == "csv":
        return load_csv(_need(spec, "path", "csv dataset"),
                        label_col=int(spec.get("label_col", -1)),
                        feature_cols=spec.get("feature_cols"))
    raise ConfigError(f"unknown dataset type {kind!r}")


def build_optimizer(config):
    if config["optimizer"] == "adam":
        return Adam()
    return SgdNesterov(momentum=float(config.get("momentum", 0.9)))


def build_maxgain(config):
    spec = config.get("maxgain")
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigError(f"maxgain must be a mapping or null, got {spec!r}")
    try:
        return MaxGainConfig(gamma=float(_need(spec, "gamma", "maxgain")),
                             p=parse_norm_order(spec.get("p", 2)))
    except InvalidValueError as err:
        raise ConfigError(f"bad maxgain settings: {err}") from None


def build_augment_fn(config):
    spec = config.get("augment")
    if not spec:
        return None
    flip = bool(spec.get("flip", False))
    pad = int(spec.get("pad", 0))
    crop = spec.get("crop")
    if not flip and pad == 0:
        return None

    def apply(xb, rng):
        return augment(xb, rng, flip=flip, pad=pad,
                       crop=int(crop) if crop is not None else None)

    return apply


def build_schedule(config):
    try:
        drops = tuple((int(e), float(f)) for e, f in config.get("schedule", ()))
        return Schedule(base_lr=float(config["lr"]), drops=drops)
    except ConfigError:
        raise
    except (InvalidValueError, TypeError, ValueError) as err:
        raise ConfigError(f"bad lr/schedule: {err}") from None


def _train(config, train, seed, maxgain, test=None):
    """A network built from the config's model with init seed `seed`, then
    fit on train under the config's optimizer settings; returns (net, ledger)."""
    net = build_network(config, make_rng(seed))
    ledger = fit(net, train,
                 optimizer=build_optimizer(config),
                 schedule=build_schedule(config),
                 epochs=int(config["epochs"]),
                 batch_size=int(config.get("batch_size", 64)),
                 maxgain=maxgain,
                 seed=seed,
                 test=test,
                 augment_fn=build_augment_fn(config))
    return net, ledger


@dataclass
class RunResult:
    net: object
    ledger: object
    train_loss: float
    train_accuracy: float
    test_loss: float = None
    test_accuracy: float = None
    test_max_gains: list = None


def run_config(config, gamma_override=None, seed_override=None):
    """Build everything from a config dict, train, and score.

    gamma_override replaces the configured maxgain gamma (the sweep driver);
    seed_override replaces the training/init seed while the dataset seeds stay
    as configured.
    """
    check_config(config)
    seed = int(seed_override if seed_override is not None else config.get("seed", 0))
    train = build_dataset(config["dataset"])
    test = build_dataset(config["test_dataset"]) if config.get("test_dataset") else None
    maxgain = build_maxgain(config)
    if gamma_override is not None:
        base_p = maxgain.p if maxgain is not None else 2
        maxgain = MaxGainConfig(gamma=float(gamma_override), p=base_p)
    net, ledger = _train(config, train, seed, maxgain, test)
    train_loss, train_acc = eval_metrics(net, train.x, train.y)
    result = RunResult(net=net, ledger=ledger, train_loss=train_loss, train_accuracy=train_acc)
    if test is not None:
        result.test_loss, result.test_accuracy = eval_metrics(net, test.x, test.y)
        p = maxgain.p if maxgain is not None else 2
        result.test_max_gains = [float(g.max()) for g in per_layer_gains(net, test.x, p)]
    return result


def run_sweep_point(args):
    """One gamma sweep point; takes (config, gamma) so it maps over a pool."""
    config, gamma = args
    return run_config(config, gamma_override=gamma)


@dataclass(frozen=True)
class FoldScores:
    """Per-fold test accuracies of one configuration."""

    scores: tuple  # (fold_index, accuracy) pairs

    def to_lines(self):
        lines = ["fold\taccuracy"]
        for f, acc in self.scores:
            lines.append(f"{f}\t{acc:.17g}")
        return lines

    def to_text(self):
        return "\n".join(self.to_lines()) + "\n"

    @property
    def accuracies(self):
        return np.asarray([acc for _, acc in self.scores])


def build_fold_protocol(config, dataset):
    spec = config.get("folds")
    if not isinstance(spec, dict):
        raise ConfigError("config needs a \"folds\" mapping with k/train_per_fold/test_per_fold")
    return make_folds(dataset,
                      int(_need(spec, "k", "folds")),
                      int(_need(spec, "train_per_fold", "folds")),
                      int(_need(spec, "test_per_fold", "folds")),
                      make_rng(int(spec.get("seed", 0))))


def run_fold_point(args):
    """Train on one fold; takes (config, fold_index, train_idx, test_idx)."""
    config, fold_index, train_idx, test_idx = args
    check_config(config)
    seed = int(config.get("seed", 0)) + int(fold_index)
    full = build_dataset(config["dataset"])
    train, test = full.subset(np.asarray(train_idx)), full.subset(np.asarray(test_idx))
    net, _ = _train(config, train, seed, build_maxgain(config))
    _, acc = eval_metrics(net, test.x, test.y)
    return fold_index, acc


def run_folds(config, protocol=None, jobs=1):
    """Train and score the configuration on every fold of the protocol.

    Each fold trains a fresh network with seed (config seed + fold index).
    Returns FoldScores ordered by fold index.
    """
    check_config(config)
    if protocol is None:
        protocol = build_fold_protocol(config, build_dataset(config["dataset"]))
    tasks = [(config, f, fold.train, fold.test) for f, fold in enumerate(protocol.folds)]
    return FoldScores(scores=tuple(run_jobs(run_fold_point, tasks, jobs)))
