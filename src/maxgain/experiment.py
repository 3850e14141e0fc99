"""Experiment assembly: config dicts to networks, datasets, and training runs.

A config is a plain dict (the CLI reads it from JSON). CONFIG_FIELDS declares
its top level, the tables above it its sections, and layers.STAGE_TYPES the
model stages. Every section rejects unknown keys, and a domain error met while
building from one is a config error naming it.

Every run is a pure function of the config: weight init draws from the root
stream of `seed`, while shuffling / dropout / augmentation use child streams
spawned from the same seed inside fit().
"""

import math
from dataclasses import dataclass, field

from .data import augment, cell, load_csv, load_idx, make_folds, synth_blobs, synth_spirals, tsv
from .errors import ConfigError, EmptySampleError, FormatError, InvalidValueError, ShapeError, naming, where
from .evaluate import eval_metrics, per_layer_gains
from .layers import (
    REQUIRED, SIZE, STAGE_TYPES, Network, at_least, chain_shape, integer, of_type, one_of, parse_fields, real)
from .optim import Adam, MaxGainConfig, Schedule, SgdNesterov, fit
from .tensor import INIT_SCHEMES, make_rng


def parse_norm_order(value):
    if value in (1, 2) and not isinstance(value, bool):
        return value
    if value == "inf" or value == math.inf:
        return math.inf
    raise ConfigError(f"norm order must be 1, 2 or \"inf\", got {value!r}")


def _kind(what, kinds, spec):
    """The key of kinds that spec["type"] names; other keys are for its own table."""
    return parse_fields(what, {"type": (one_of(*kinds), REQUIRED)}, spec, ConfigError, spec)["type"]


def _section(what, fields):
    """A field type: a mapping parsed by the table `fields`."""
    return lambda spec: parse_fields(what, fields, spec, ConfigError)


def _dataset(spec):
    """A field type: a dataset spec parsed by the table of its "type"."""
    kind = _kind("dataset", DATASET_FIELDS, spec)
    return dict(parse_fields(f"{kind} dataset", DATASET_FIELDS[kind], spec, ConfigError, ("type",)), type=kind)


def _drops(pairs):
    """A field type: a list of [epoch, factor] learning-rate drops."""
    if not all(isinstance(p, list) and len(p) == len(DROP_FIELDS) for p in of_type(list)(pairs)):
        raise TypeError(f"expected a list of [epoch, factor] pairs, got {pairs!r}")
    drops = [parse_fields("schedule pair", DROP_FIELDS, dict(zip(DROP_FIELDS, p)), ConfigError) for p in pairs]
    return [[d["epoch"], d["factor"]] for d in drops]


def _columns(cols):
    """A field type: a list of CSV column numbers."""
    return [integer(c) for c in of_type(list)(cols)]


def _centers(rows):
    """A field type: a list of rows of numbers (blob centres)."""
    return [[real(v) for v in of_type(list)(row)] for row in of_type(list)(rows)]


DATASET_FIELDS = {
    "spirals": {"n": SIZE, "seed": (integer, 0), "classes": (integer, 2), "turns": (real, 1.75),
                "noise_sd": (at_least(0, real), 0.15)},
    "blobs": {"n": SIZE, "seed": (integer, 0), "centers": (_centers, REQUIRED),
              "sd": (at_least(0, real), 1.0)},
    "idx": {"images": (of_type(str), REQUIRED), "labels": (of_type(str), REQUIRED)},
    "csv": {"path": (of_type(str), REQUIRED), "label_col": (integer, -1),
            "feature_cols": (_columns, None)}}
DROP_FIELDS = {"epoch": (integer, REQUIRED), "factor": (real, REQUIRED)}
MAXGAIN_FIELDS = {"gamma": (real, REQUIRED), "p": (parse_norm_order, 2)}
AUGMENT_FIELDS = {"flip": (of_type(bool), False), "pad": (at_least(0, integer), 0),
                  "crop": (at_least(1, integer), None)}
FOLD_FIELDS = {"k": SIZE, "train_per_fold": SIZE, "test_per_fold": SIZE, "seed": (integer, 0)}
CONFIG_FIELDS = {
    "seed": (integer, 0), "model": (of_type(list), REQUIRED), "init": (one_of(*INIT_SCHEMES), "he-normal"),
    "optimizer": (one_of("adam", "sgd"), REQUIRED), "lr": (real, REQUIRED),
    "momentum": (real, None), "schedule": (_drops, []), "epochs": (integer, REQUIRED),
    "batch_size": (integer, 64), "maxgain": (_section("maxgain", MAXGAIN_FIELDS), None),
    "dataset": (_dataset, REQUIRED), "test_dataset": (_dataset, None),
    "augment": (_section("augment", AUGMENT_FIELDS), None),
    "folds": (_section("folds", FOLD_FIELDS), None)}


def _fields(config, *keys):
    """The named top-level fields of config, whose other keys are top-level keys."""
    return parse_fields("config", {k: CONFIG_FIELDS[k] for k in keys}, config, ConfigError, CONFIG_FIELDS)


def check_config(config):
    """The top-level fields and sections of config, checked, defaults filled in."""
    return _fields(config, *CONFIG_FIELDS)


def build_stage(spec, scheme, rng):
    """One stage from its config spec: {"type": <kind>, ...} with the fields
    the stage class declares (its hyper and config_keys tables; parts are spec lists)."""
    cls = STAGE_TYPES[_kind("model stage", STAGE_TYPES, spec)]
    what = f"{cls.kind} stage"
    hyper = parse_fields(what, {**cls.hyper, **cls.config_keys}, spec, ConfigError, ("type",))
    for part in cls.parts:
        hyper[part] = [build_stage(s, scheme, rng) for s in hyper[part] or ()]
    sizes = [hyper.pop(k) for k in cls.config_keys]
    with naming(ConfigError, what):
        return cls(*cls.initial(scheme, rng, *sizes), **hyper)


def build_network(config, rng):
    cfg = _fields(config, "model", "init")
    return Network([build_stage(s, cfg["init"], rng) for s in cfg["model"]])


def build_dataset(spec):
    a = _dataset(spec)
    with naming(ConfigError, f"{a['type']} dataset"):
        if a["type"] == "spirals":
            return synth_spirals(a["n"], make_rng(a["seed"]), a["classes"], a["turns"], a["noise_sd"])
        if a["type"] == "blobs":
            return synth_blobs(a["n"], make_rng(a["seed"]), a["centers"], a["sd"])
        if a["type"] == "idx":
            return load_idx(a["images"], a["labels"])
        return load_csv(a["path"], a["label_col"], a["feature_cols"])


def build_splits(config):
    """The (train, test) datasets of config's "dataset" and "test_dataset",
    None where one is absent; a config with neither is a ConfigError."""
    optional = CONFIG_FIELDS["test_dataset"]
    specs = parse_fields("config", {"dataset": optional, "test_dataset": optional}, config, ConfigError,
                         CONFIG_FIELDS)
    if not any(specs.values()):
        raise ConfigError("config needs a dataset or test_dataset")
    return tuple(build_dataset(spec) if spec else None for spec in specs.values())


def build_optimizer(config):
    """Adam, or SGD at momentum 0.9 unless the config sets one; only sgd takes a momentum."""
    cfg = _fields(config, "optimizer", "momentum")
    momentum = cfg["momentum"]
    with naming(ConfigError, "momentum"):
        if cfg["optimizer"] == "sgd":
            return SgdNesterov(0.9 if momentum is None else momentum)
        if momentum is not None:
            raise InvalidValueError(f"adam takes no momentum, got {momentum}")
        return Adam()


def build_maxgain(config):
    spec = _fields(config, "maxgain")["maxgain"]
    if spec is None:
        return None
    with naming(ConfigError, "maxgain"):
        return MaxGainConfig(**spec)


def build_augment_fn(config):
    a = _fields(config, "augment")["augment"]
    if a is None or not a["flip"] and a["pad"] == 0 and a["crop"] is None:
        return None
    return lambda xb, rng: augment(xb, rng, **a)


def build_schedule(config):
    cfg = _fields(config, "lr", "schedule")
    with naming(ConfigError, "lr/schedule"):
        return Schedule(base_lr=cfg["lr"], drops=tuple(map(tuple, cfg["schedule"])))


def _train(cfg, train, seed, maxgain, test=None):
    """A network built from the checked config cfg with init seed `seed`,
    then fit on train under its optimizer settings; returns (net, ledger)."""
    with naming(ConfigError, "seed"):
        rng = make_rng(seed)
    net = build_network(cfg, rng)
    crop, full = (cfg["augment"] or {}).get("crop"), train.x.shape[1:]
    if crop is not None:  # training sees crops, evaluation full-size instances
        with naming(ConfigError, "'crop' in augment"):
            if chain_shape(net.stages, full[:-2] + (crop, crop)) != chain_shape(net.stages, full):
                raise ShapeError(f"{crop}x{crop} crops and {full} instances give different output shapes")
    classes = max(d.class_count for d in (train, test) if d is not None)
    with naming(ConfigError, "model"):
        out = chain_shape(net.stages, full)
        if len(out) != 1 or out[0] < classes:
            raise ShapeError(f"its output shape is {out} on {full} instances, "
                             f"not (k,) with k >= the {classes} classes in the data")
    if test is not None:
        with naming(ConfigError, "test_dataset"):
            if chain_shape(net.stages, test.x.shape[1:]) != out:
                raise ShapeError(f"its {test.x.shape[1:]} instances give another output shape than "
                                 f"the train split's {full} instances")
    ledger = fit(net, train, optimizer=build_optimizer(cfg), schedule=build_schedule(cfg),
                 epochs=cfg["epochs"], batch_size=cfg["batch_size"], maxgain=maxgain, seed=seed,
                 test=test, augment_fn=build_augment_fn(cfg))
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


def run_config(config):
    """Build everything from a config dict, train, and score. The test loss
    and accuracy are fit's last test row, taken on the final weights. A
    divergence in the final train pass, or in the test split's gains, names
    that split and carries the finished ledger."""
    cfg = check_config(config)
    return _run(cfg, *build_splits(cfg), build_maxgain(cfg))


def _run(cfg, train, test, maxgain):
    """run_config on the checked config cfg, its built splits and constraint."""
    net, ledger = _train(cfg, train, cfg["seed"], maxgain, test)
    with where(suffix=" on the train split after training", ledger=ledger):
        train_loss, train_acc = eval_metrics(net, train.x, train.y)
    result = RunResult(net=net, ledger=ledger, train_loss=train_loss, train_accuracy=train_acc)
    if test is not None:
        last = ledger.records[-1]
        result.test_loss, result.test_accuracy = last.loss, last.accuracy
        p = maxgain.p if maxgain is not None else 2
        with where(suffix=" on the test split after training", ledger=ledger):
            result.test_max_gains = [float(g.max()) for g in per_layer_gains(net, test.x, p)]
    return result


@dataclass(frozen=True)
class FoldScores:
    """Per-fold test accuracies of one configuration, and the FoldProtocol
    run_folds ran (None when loaded from a file)."""

    scores: tuple  # (fold_index, accuracy) pairs
    protocol: object = field(default=None, compare=False)

    def to_text(self):
        return tsv([tuple(_SCORE_FIELDS), *self.scores])

    @staticmethod
    def load(path):
        """The scores saved at path by to_text. A missing header, a row that
        is not an integer fold and a finite accuracy, a repeated fold or no
        row at all is a FormatError."""
        with open(path) as fh:
            lines = fh.read().splitlines()
        if lines[:1] != ["\t".join(_SCORE_FIELDS)]:
            raise FormatError(f"{path}: not a fold-scores file (missing 'fold\\taccuracy' header)")
        scores = {}
        for i, line in enumerate(lines[1:], start=2):
            parts = line.split("\t")
            if len(parts) != len(_SCORE_FIELDS):
                raise FormatError(f"{path}:{i}: expected 'fold<TAB>accuracy'")
            row = parse_fields(f"{path}:{i}", _SCORE_FIELDS, dict(zip(_SCORE_FIELDS, parts)), FormatError)
            if row["fold"] in scores:
                raise FormatError(f"{path}:{i}: duplicate fold index {row['fold']}")
            scores[row["fold"]] = row["accuracy"]
        if not scores:
            raise FormatError(f"{path}: no scores")
        return FoldScores(scores=tuple(scores.items()))


# The columns of a fold-scores file.
_SCORE_FIELDS = {"fold": (integer, REQUIRED), "accuracy": (real, REQUIRED)}


def build_fold_protocol(config, dataset):
    f = _fields(config, "folds")["folds"]
    if f is None:
        raise ConfigError("config needs a \"folds\" section with k/train_per_fold/test_per_fold")
    with naming(ConfigError, "folds"):
        return make_folds(len(dataset), f["k"], f["train_per_fold"], f["test_per_fold"], make_rng(f["seed"]))


def run_fold_point(args):
    """Train on one fold; takes (checked config, fold_index, train, test).
    A divergence is prefixed "fold <fold_index>: "."""
    cfg, fold_index, train, test = args
    with where(prefix=f"fold {fold_index}: "):
        net, ledger = _train(cfg, train, cfg["seed"] + fold_index, build_maxgain(cfg))
        with where(suffix=" on the test split after training", ledger=ledger):
            _, acc = eval_metrics(net, test.x, test.y)
    return fold_index, acc


def run_jobs(fn, tasks, jobs):
    """[fn(t) for t in tasks], mapped over a pool of `jobs` worker processes
    when jobs > 1, one chunk of tasks per worker, so data the tasks of a
    chunk share is sent once; results keep the order of tasks either way."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        tasks = list(tasks)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks, chunksize=max(1, math.ceil(len(tasks) / jobs))))
    return [fn(t) for t in tasks]


def run_folds(config, protocol=None, jobs=1):
    """Train and score the configuration on every fold of the protocol.

    The dataset is built once and a protocol of another size refused. Each
    fold trains a fresh network with seed (config seed + fold index).
    Returns FoldScores ordered by fold index, carrying the protocol.
    """
    cfg = check_config(config)
    dataset = build_dataset(cfg["dataset"])
    if protocol is None:
        protocol = build_fold_protocol(cfg, dataset)
    elif protocol.n_instances != len(dataset):
        raise ConfigError(f"fold protocol covers {protocol.n_instances} instances, dataset has {len(dataset)}")
    tasks = ((cfg, f, dataset.subset(fold.train), dataset.subset(fold.test))
             for f, fold in enumerate(protocol.folds))
    return FoldScores(scores=tuple(run_jobs(run_fold_point, tasks, jobs)), protocol=protocol)


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    train_accuracy: float
    train_loss: float
    test_accuracy: float
    test_loss: float
    test_max_gains: tuple  # per learned layer, max gain on the test split


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    def to_text(self):
        return tsv([("gamma", "train_accuracy", "train_loss", "test_accuracy", "test_loss",
                     "test_max_gain_per_layer")] + [
            (r.gamma, r.train_accuracy, r.train_loss, r.test_accuracy, r.test_loss,
             ",".join(map(cell, r.test_max_gains))) for r in self.rows])


def run_sweep_point(args):
    """One gamma sweep point's SweepRow; takes (checked config, its MaxGainConfig, train, test).
    A divergence is prefixed "gamma <gamma>: "."""
    cfg, maxgain, train, test = args
    with where(prefix=f"gamma {maxgain.gamma}: "):
        r = _run(cfg, train, test, maxgain)
    return SweepRow(maxgain.gamma, r.train_accuracy, r.train_loss,
                    r.test_accuracy, r.test_loss, tuple(r.test_max_gains))


def gamma_sweep(config, gammas, jobs=1):
    """Train one model per gamma with identical data and seeds: config with
    its maxgain gamma replaced, every point's constraint built before any
    trains and the splits built once. Rows come back sorted by gamma."""
    cfg = check_config(config)
    if cfg["maxgain"] is None:
        raise ConfigError("sweep needs a \"maxgain\" section to carry the norm order")
    if not cfg["test_dataset"]:
        raise ConfigError("sweep needs a \"test_dataset\" to report test metrics")
    with naming(ConfigError, "maxgain"):
        points = [MaxGainConfig(**dict(cfg["maxgain"], gamma=g)) for g in sorted(float(g) for g in gammas)]
    if not points:
        raise EmptySampleError("gamma sweep needs at least one gamma")
    train, test = build_splits(cfg)
    return SweepResult(rows=tuple(run_jobs(run_sweep_point, [(cfg, m, train, test) for m in points], jobs)))
