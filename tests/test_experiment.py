"""Config-driven experiment assembly and the sweep/fold drivers."""

import copyreg
import math
import re
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from maxgain import (
    Adam,
    BatchNorm,
    ConfigError,
    Conv2d,
    Dataset,
    Dense,
    Dropout,
    FoldScores,
    MaxPool2d,
    ReLU,
    ResidualBlock,
    SgdNesterov,
    build_dataset,
    build_fold_protocol,
    build_maxgain,
    build_network,
    build_optimizer,
    build_schedule,
    build_splits,
    check_config,
    eval_metrics,
    gamma_sweep,
    make_folds,
    make_rng,
    network_to_text,
    parse_norm_order,
    run_config,
    run_folds,
)
from maxgain import experiment, optim
from maxgain.experiment import (
    AUGMENT_FIELDS,
    CONFIG_FIELDS,
    DATASET_FIELDS,
    DROP_FIELDS,
    FOLD_FIELDS,
    MAXGAIN_FIELDS,
    build_augment_fn,
)
from maxgain.layers import STAGE_TYPES


def idx_dataset(tmp_path, stem, n, side, rng):
    """Spec of an IDX dataset written under tmp_path: n side x side images
    (side may also be a (rows, cols) pair) whose brightness follows a random
    binary label."""
    rows, cols = (side, side) if isinstance(side, int) else side
    labels = rng.integers(0, 2, size=n)
    pixels = np.clip(60 + 120 * labels[:, None, None] + rng.normal(0, 20, size=(n, rows, cols)), 0, 255)
    (tmp_path / f"{stem}-images").write_bytes(
        struct.pack(">IIII", 0x803, n, rows, cols) + pixels.astype(np.uint8).tobytes())
    (tmp_path / f"{stem}-labels").write_bytes(
        struct.pack(">II", 0x801, n) + labels.astype(np.uint8).tobytes())
    return {"type": "idx", "images": str(tmp_path / f"{stem}-images"),
            "labels": str(tmp_path / f"{stem}-labels")}


BLOBS_TEST = {"type": "blobs", "n": 32, "seed": 6, "centers": [[-2.0, -2.0], [2.0, 2.0]], "sd": 0.5}


def base_config(**overrides):
    config = {
        "seed": 3,
        "model": [
            {"type": "dense", "in": 2, "out": 12},
            {"type": "relu"},
            {"type": "dense", "in": 12, "out": 2},
        ],
        "optimizer": "adam",
        "lr": 0.01,
        "epochs": 4,
        "batch_size": 16,
        "dataset": {"type": "blobs", "n": 64, "seed": 5,
                    "centers": [[-2.0, -2.0], [2.0, 2.0]], "sd": 0.5},
    }
    config.update(overrides)
    return config


class TestConfigValidation:
    def test_accepts_the_base_config(self):
        check_config(base_config())

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            check_config(base_config(learning_rate=0.1))

    def test_missing_required_key(self):
        config = base_config()
        del config["model"]
        with pytest.raises(ConfigError, match="model"):
            check_config(config)

    def test_unknown_optimizer(self):
        with pytest.raises(ConfigError):
            check_config(base_config(optimizer="adagrad"))

    def test_non_mapping(self):
        with pytest.raises(ConfigError):
            check_config([1, 2, 3])

    def test_parse_norm_order(self):
        assert parse_norm_order(1) == 1
        assert parse_norm_order(2) == 2
        assert parse_norm_order("inf") == math.inf
        assert parse_norm_order(math.inf) == math.inf
        with pytest.raises(ConfigError):
            parse_norm_order(3)
        with pytest.raises(ConfigError):
            parse_norm_order("2")


class TestBuilders:
    def test_stage_zoo(self):
        config = {
            "model": [
                {"type": "conv", "in": 1, "out": 4, "kernel": 3, "pad": 1},
                {"type": "batchnorm", "channels": 4},
                {"type": "relu"},
                {"type": "maxpool", "kernel": 2},
                {"type": "flatten"},
                {"type": "dropout", "rate": 0.5},
                {"type": "dense", "in": 16, "out": 2},
            ],
        }
        net = build_network(config, make_rng(0))
        assert isinstance(net.stages[0], Conv2d)
        assert net.stages[0].pad == 1
        assert isinstance(net.stages[1], BatchNorm)
        assert isinstance(net.stages[3], MaxPool2d)
        assert isinstance(net.stages[5], Dropout)
        assert net.stages[5].rate == 0.5
        assert isinstance(net.stages[6], Dense)
        assert net.stages[6].w.shape == (2, 16)

    def test_residual_stage(self):
        config = {
            "model": [{
                "type": "residual",
                "main": [{"type": "dense", "in": 4, "out": 4}, {"type": "relu"}],
                "shortcut": [{"type": "dense", "in": 4, "out": 4}],
            }],
        }
        net = build_network(config, make_rng(0))
        block = net.stages[0]
        assert isinstance(block, ResidualBlock)
        assert len(block.main) == 2
        assert len(block.shortcut) == 1
        assert len(net.learned_layers()) == 2

    @pytest.mark.parametrize("shortcut", [{}, {"shortcut": None}], ids=["absent", "null"])
    def test_identity_shortcut_is_the_empty_list(self, shortcut):
        spec = {"type": "residual", "main": [{"type": "relu"}], **shortcut}
        assert build_network({"model": [spec]}, make_rng(0)).stages[0].shortcut == []

    def test_bad_stage_values_become_config_errors(self):
        with pytest.raises(ConfigError, match="dropout"):
            build_network({"model": [{"type": "dropout", "rate": 1.5}]}, make_rng(0))
        with pytest.raises(ConfigError, match="dense"):
            build_network({"model": [{"type": "dense", "in": 0, "out": 4}]}, make_rng(0))
        with pytest.raises(ConfigError, match="type"):
            build_network({"model": [{"in": 2, "out": 2}]}, make_rng(0))
        with pytest.raises(ConfigError, match="mystery"):
            build_network({"model": [{"type": "mystery"}]}, make_rng(0))

    @pytest.mark.parametrize("spec, key", [
        ({"type": "conv", "in": 1, "out": 2, "kernel": 3, "strde": 2}, "strde"),
        ({"type": "relu", "rate": 0.5}, "rate"),
        ({"type": "residual", "main": [{"type": "relu"}], "shortcuts": []}, "shortcuts"),
    ])
    def test_unknown_stage_key_is_named(self, spec, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            build_network({"model": [spec]}, make_rng(0))

    def test_missing_stage_key_is_named(self):
        with pytest.raises(ConfigError, match="kernel"):
            build_network({"model": [{"type": "conv", "in": 1, "out": 2}]}, make_rng(0))

    def test_init_scheme_respected(self):
        config = {"model": [{"type": "dense", "in": 100, "out": 100}], "init": "glorot-uniform"}
        net = build_network(config, make_rng(1))
        bound = math.sqrt(6.0 / 200.0)
        assert np.abs(net.stages[0].w).max() <= bound
        with pytest.raises(ConfigError):
            build_network({"model": [{"type": "dense", "in": 2, "out": 2}],
                           "init": "unknown-scheme"}, make_rng(0))

    def test_dataset_builders(self):
        spirals = build_dataset({"type": "spirals", "n": 30, "seed": 1})
        assert spirals.x.shape == (30, 2)
        blobs = build_dataset({"type": "blobs", "n": 20, "seed": 1,
                               "centers": [[0.0, 0.0], [1.0, 1.0]]})
        assert blobs.class_count == 2
        with pytest.raises(ConfigError):
            build_dataset({"type": "parquet"})
        with pytest.raises(ConfigError):
            build_dataset({"type": "blobs", "n": 20})  # centers missing

    def test_splits_builder(self):
        train, test = build_splits(base_config())
        assert (len(train), test) == (64, None)
        train, test = build_splits({"test_dataset": BLOBS_TEST})
        assert (train, len(test)) == (None, 32)
        with pytest.raises(ConfigError, match="^config needs a dataset or test_dataset$"):
            build_splits({"epochs": 2, "test_dataset": None})
        with pytest.raises(ConfigError, match="unknown key 'datasets'"):
            build_splits({"datasets": BLOBS_TEST})

    def test_dataset_seed_isolated_from_training_seed(self):
        a = build_dataset({"type": "spirals", "n": 25, "seed": 9})
        b = build_dataset({"type": "spirals", "n": 25, "seed": 9})
        np.testing.assert_array_equal(a.x, b.x)

    def test_optimizer_and_schedule(self):
        assert isinstance(build_optimizer(base_config()), Adam)
        sgd = build_optimizer(base_config(optimizer="sgd", momentum=0.5))
        assert isinstance(sgd, SgdNesterov)
        assert sgd.momentum == 0.5
        assert build_optimizer(base_config(optimizer="sgd")).momentum == 0.9
        assert isinstance(build_optimizer(base_config(momentum=None)), Adam)
        sched = build_schedule(base_config(schedule=[[3, 0.1]]))
        assert sched.lr_at(2) == 0.01
        assert sched.lr_at(3) == pytest.approx(0.001)
        with pytest.raises(ConfigError):
            build_schedule(base_config(schedule=[[0, 0.1]]))
        with pytest.raises(ConfigError):
            build_schedule(base_config(lr="fast"))

    def test_crop_alone_turns_augment_on(self):
        crop = build_augment_fn(base_config(augment={"crop": 5}))
        assert crop(np.zeros((2, 1, 8, 8)), make_rng(0)).shape == (2, 1, 5, 5)
        assert build_augment_fn(base_config(augment={"flip": False})) is None

    def test_maxgain_builder(self):
        assert build_maxgain(base_config()) is None
        cfg = build_maxgain(base_config(maxgain={"gamma": 2.0, "p": "inf"}))
        assert cfg.gamma == 2.0
        assert cfg.p == math.inf
        with pytest.raises(ConfigError):
            build_maxgain(base_config(maxgain={"p": 2}))  # gamma missing
        with pytest.raises(ConfigError):
            build_maxgain(base_config(maxgain={"gamma": -1.0}))
        with pytest.raises(ConfigError):
            build_maxgain(base_config(maxgain={"gamma": 1.0, "p": 7}))


class TestRunConfig:
    def test_trains_and_scores(self):
        result = run_config(base_config(
            test_dataset={"type": "blobs", "n": 32, "seed": 6,
                          "centers": [[-2.0, -2.0], [2.0, 2.0]], "sd": 0.5}))
        assert result.train_accuracy == 1.0
        assert result.test_accuracy >= 0.9
        # gains are measured (at the default p=2) even without the constraint
        assert len(result.test_max_gains) == 2
        assert all(g > 0.0 for g in result.test_max_gains)
        assert len(result.ledger.records) == 8  # train + test rows per epoch

    def test_each_split_is_scored_once_after_training(self, monkeypatch):
        # a one-layer model: the instances its dense stage sees in eval mode count the eval passes
        epochs, n_train, n_test = 3, 40, 24
        seen = []
        dense_forward = Dense.forward

        def counting_forward(self, x, mode, rng=None, gain=None):
            if mode == "eval":
                seen.append(x.shape[0])
            return dense_forward(self, x, mode, rng, gain)

        monkeypatch.setattr(Dense, "forward", counting_forward)
        run_config(base_config(model=[{"type": "dense", "in": 2, "out": 2}], epochs=epochs,
                               dataset={"type": "spirals", "n": n_train, "seed": 1},
                               test_dataset={"type": "spirals", "n": n_test, "seed": 2}))
        # fit's per-epoch test rows, then the train split's metrics and the test split's gains
        assert sum(seen) == epochs * n_test + n_train + n_test

    def test_test_scores_are_the_last_ledger_row_bitwise(self):
        test_spec = {"type": "spirals", "n": 50, "seed": 2}
        result = run_config(base_config(
            model=[{"type": "dense", "in": 2, "out": 12}, {"type": "batchnorm", "channels": 12},
                   {"type": "relu"}, {"type": "dropout", "rate": 0.2}, {"type": "dense", "in": 12, "out": 2}],
            maxgain={"gamma": 1.5}, dataset={"type": "spirals", "n": 80, "seed": 1},
            test_dataset=test_spec))
        last = result.ledger.records[-1]
        test = build_dataset(test_spec)
        assert last.split == "test"
        assert ((result.test_loss, result.test_accuracy) == (last.loss, last.accuracy)
                == eval_metrics(result.net, test.x, test.y))

    def test_is_deterministic(self):
        a = run_config(base_config())
        b = run_config(base_config())
        assert network_to_text(a.net) == network_to_text(b.net)
        assert a.ledger.to_text() == b.ledger.to_text()

    def test_config_seed_changes_training_not_data(self):
        a = run_config(base_config(seed=100))
        b = run_config(base_config(seed=101))
        assert network_to_text(a.net) != network_to_text(b.net)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            run_config(base_config(typo_key=1))

    def test_idx_images_through_conv_batchnorm_residual_with_augment(self, tmp_path):
        rng = make_rng(8)
        train, test = idx_dataset(tmp_path, "train", 24, 6, rng), idx_dataset(tmp_path, "test", 12, 6, rng)
        conv = {"type": "conv", "in": 2, "out": 2, "kernel": 3, "pad": 1}
        config = base_config(
            model=[{**conv, "in": 1}, {"type": "batchnorm", "channels": 2}, {"type": "relu"},
                   {"type": "residual", "main": [conv, {"type": "relu"}, conv],
                    "shortcut": [{**conv, "kernel": 1, "pad": 0}]},
                   {"type": "flatten"}, {"type": "dense", "in": 72, "out": 2}],
            epochs=2, batch_size=8, maxgain={"gamma": 2.0},
            augment={"flip": True, "pad": 1}, dataset=train, test_dataset=test)
        result = run_config(config)
        assert len(result.test_max_gains) == 6
        assert 0.0 <= result.test_accuracy <= 1.0
        assert network_to_text(run_config(config).net) == network_to_text(result.net)
        assert network_to_text(run_config({**config, "augment": None}).net) != network_to_text(result.net)

    @pytest.mark.parametrize("shape", [(10, 6), (6, 10)])
    def test_non_square_idx_images_train_with_pad(self, tmp_path, shape):
        config = base_config(
            model=[{"type": "conv", "in": 1, "out": 2, "kernel": 3, "pad": 1}, {"type": "relu"},
                   {"type": "flatten"}, {"type": "dense", "in": 2 * shape[0] * shape[1], "out": 2}],
            epochs=2, batch_size=8, augment={"pad": 2},
            dataset=idx_dataset(tmp_path, "train", 32, shape, make_rng(12)), test_dataset=None)
        result = run_config(config)
        assert [r.split for r in result.ledger.records] == ["train", "train"]
        assert network_to_text(run_config({**config, "augment": None}).net) != network_to_text(result.net)

    def test_crop_the_model_cannot_evaluate_at_full_size_is_refused(self, tmp_path, monkeypatch):
        # the dense layer takes the full 8x8 image, so 6x6 crops cannot pass it
        config = base_config(
            model=[{"type": "conv", "in": 1, "out": 2, "kernel": 3, "pad": 1}, {"type": "relu"},
                   {"type": "flatten"}, {"type": "dense", "in": 128, "out": 2}],
            augment={"pad": 1, "crop": 6},
            dataset=idx_dataset(tmp_path, "train", 16, 8, make_rng(10)),
            folds={"k": 2, "train_per_fold": 6, "test_per_fold": 2})
        monkeypatch.setattr(experiment, "fit", lambda *args, **kwargs: pytest.fail("trained"))
        for run in (run_config, run_folds):
            with pytest.raises(ConfigError, match="'crop' in augment"):
                run(config)

    def test_test_split_the_model_cannot_take_is_refused_before_training(self, monkeypatch):
        steps = []
        monkeypatch.setattr(optim, "train_step", lambda *args, **kwargs: steps.append(args))
        config = base_config(test_dataset={"type": "blobs", "n": 32, "seed": 2,
                                           "centers": [[1, 0, 0], [0, 1, 0]]})
        with pytest.raises(ConfigError, match=re.escape("bad test_dataset: dense expects shape (2,), got (3,)")):
            run_config(config)
        assert steps == []

    def test_crop_that_pools_to_the_full_size_output_trains(self, tmp_path):
        rng = make_rng(11)
        config = base_config(
            model=[{"type": "conv", "in": 1, "out": 2, "kernel": 3, "pad": 1}, {"type": "relu"},
                   {"type": "maxpool", "kernel": 2}, {"type": "flatten"},
                   {"type": "dense", "in": 32, "out": 2}],
            epochs=1, batch_size=8, augment={"crop": 8},
            dataset=idx_dataset(tmp_path, "train", 16, 9, rng),
            test_dataset=idx_dataset(tmp_path, "test", 8, 9, rng))
        result = run_config(config)
        assert [r.split for r in result.ledger.records] == ["train", "test"]

    def test_csv_dataset(self, tmp_path):
        rng = make_rng(9)
        labels = rng.integers(0, 2, size=40)
        rows = ["a,b,label"] + [f"{4 * c - 2 + rng.normal()},{rng.normal()},{'yes' if c else 'no'}"
                                for c in labels]
        (tmp_path / "d.csv").write_text("\n".join(rows) + "\n")
        result = run_config(base_config(dataset={"type": "csv", "path": str(tmp_path / "d.csv")},
                                        epochs=20, lr=0.05))
        assert result.train_accuracy >= 0.9


class TestGammaSweep:
    def test_rows_sorted_and_complete(self):
        config = base_config(epochs=2,
                             maxgain={"gamma": 1.0, "p": 2},
                             test_dataset={"type": "blobs", "n": 32, "seed": 6,
                                           "centers": [[-2.0, -2.0], [2.0, 2.0]], "sd": 0.5})
        result = gamma_sweep(config, [4.0, 0.5, 1.0])
        gammas = [r.gamma for r in result.rows]
        assert gammas == [0.5, 1.0, 4.0]
        for row in result.rows:
            assert 0.0 <= row.train_accuracy <= 1.0
            assert 0.0 <= row.test_accuracy <= 1.0
            assert len(row.test_max_gains) == 2
        lines = result.to_text().splitlines()
        assert lines[0].startswith("gamma\ttrain_accuracy")
        assert len(lines) == 4

    def test_single_gamma_equals_direct_run(self):
        config = base_config(epochs=2,
                             maxgain={"gamma": 1.0, "p": 2},
                             test_dataset={"type": "blobs", "n": 32, "seed": 6,
                                           "centers": [[-2.0, -2.0], [2.0, 2.0]], "sd": 0.5})
        sweep = gamma_sweep(config, [1.0])
        direct = run_config(config)
        row = sweep.rows[0]
        assert row.train_accuracy == direct.train_accuracy
        assert row.test_loss == direct.test_loss
        assert tuple(direct.test_max_gains) == row.test_max_gains

    def test_sweep_gamma_replaces_the_configs(self):
        config = base_config(maxgain={"gamma": 8.0, "p": 2},
                             test_dataset={"type": "blobs", "n": 32, "seed": 6,
                                           "centers": [[-2.0, -2.0], [2.0, 2.0]], "sd": 0.5})
        tight, loose = gamma_sweep(config, [8.0, 0.05]).rows
        explicit = run_config(base_config(maxgain={"gamma": 0.05, "p": 2},
                                          test_dataset=config["test_dataset"]))
        assert (tight.gamma, loose.gamma) == (0.05, 8.0)
        assert tight.test_max_gains == tuple(explicit.test_max_gains)
        assert (tight.train_loss, tight.test_loss) == (explicit.train_loss, explicit.test_loss)
        assert max(tight.test_max_gains) < max(loose.test_max_gains)

    def test_sweep_keeps_the_configs_norm_order(self):
        config = base_config(epochs=1, maxgain={"gamma": 8.0, "p": "inf"},
                             test_dataset={"type": "blobs", "n": 32, "seed": 6,
                                           "centers": [[-2.0, -2.0], [2.0, 2.0]], "sd": 0.5})
        row, = gamma_sweep(config, [0.5]).rows
        explicit = run_config({**config, "maxgain": {"gamma": 0.5, "p": "inf"}})
        assert row.test_max_gains == tuple(explicit.test_max_gains)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_out_of_domain_gamma_is_refused_before_training(self, gamma, monkeypatch):
        config = base_config(maxgain={"gamma": 1.0},
                             test_dataset={"type": "blobs", "n": 32, "seed": 6,
                                           "centers": [[-2.0, -2.0], [2.0, 2.0]], "sd": 0.5})
        monkeypatch.setattr(experiment, "fit", lambda *args, **kwargs: pytest.fail("trained"))
        with pytest.raises(ConfigError, match="gamma") as err:
            gamma_sweep(config, [1.0, gamma])
        assert "maxgain" in str(err.value)

    @pytest.mark.parametrize("drop, message", [
        ("maxgain", 'sweep needs a "maxgain" section to carry the norm order'),
        ("test_dataset", 'sweep needs a "test_dataset" to report test metrics'),
    ])
    def test_config_without_a_needed_section_is_refused_before_training(self, monkeypatch, drop, message):
        config = base_config(maxgain={"gamma": 1.0}, test_dataset=BLOBS_TEST)
        del config[drop]
        monkeypatch.setattr(experiment, "fit", lambda *args, **kwargs: pytest.fail("trained"))
        with pytest.raises(ConfigError) as err:
            gamma_sweep(config, [1.0])
        assert str(err.value) == message

    def test_splits_are_built_once_for_every_gamma(self, monkeypatch):
        config = base_config(epochs=1, maxgain={"gamma": 1.0}, test_dataset=BLOBS_TEST)
        built = mock.Mock(wraps=experiment.build_dataset)
        monkeypatch.setattr(experiment, "build_dataset", built)
        rows = gamma_sweep(config, [0.5, 1.0, 2.0]).rows
        assert len(rows) == 3
        assert [c.args for c in built.call_args_list] == [(config["dataset"],), (BLOBS_TEST,)]
        monkeypatch.undo()
        assert rows[1] == gamma_sweep(config, [1.0]).rows[0]

    def test_parallel_sweep_sends_each_split_once_per_worker(self, monkeypatch):
        config = base_config(epochs=1, maxgain={"gamma": 1.0}, test_dataset=BLOBS_TEST)
        gammas = [0.25, 0.5, 1.0, 2.0, 4.0]
        pickled = []

        def counting_reduce(dataset):
            pickled.append(len(dataset))
            return Dataset, (dataset.x, dataset.y, dataset.class_count)

        monkeypatch.setitem(copyreg.dispatch_table, Dataset, counting_reduce)
        parallel = gamma_sweep(config, gammas, jobs=2)
        monkeypatch.undo()
        assert len(pickled) <= 4  # the two splits, once to each of two workers
        assert parallel.rows == gamma_sweep(config, gammas, jobs=1).rows

    def test_parallel_matches_serial(self):
        config = base_config(epochs=2,
                             maxgain={"gamma": 1.0, "p": 2},
                             test_dataset={"type": "blobs", "n": 32, "seed": 6,
                                           "centers": [[-2.0, -2.0], [2.0, 2.0]], "sd": 0.5})
        serial = gamma_sweep(config, [0.5, 2.0], jobs=1)
        parallel = gamma_sweep(config, [0.5, 2.0], jobs=2)
        assert serial.to_text() == parallel.to_text()


class TestFolds:
    def fold_config(self):
        return base_config(
            epochs=2,
            dataset={"type": "blobs", "n": 100, "seed": 5,
                     "centers": [[-2.0, -2.0], [2.0, 2.0]], "sd": 0.5},
            folds={"k": 3, "train_per_fold": 20, "test_per_fold": 10, "seed": 11})

    def test_protocol_from_config(self):
        config = self.fold_config()
        proto = build_fold_protocol(config, build_dataset(config["dataset"]))
        assert len(proto.folds) == 3
        assert proto.n_instances == 100

    def test_run_folds_scores_every_fold(self):
        scores = run_folds(self.fold_config())
        assert [f for f, _ in scores.scores] == [0, 1, 2]
        assert all(0.0 <= acc <= 1.0 for _, acc in scores.scores)
        lines = scores.to_text().splitlines()
        assert lines[0] == "fold\taccuracy"
        assert len(lines) == 4

    def test_folds_deterministic_and_parallel_safe(self):
        serial = run_folds(self.fold_config())
        again = run_folds(self.fold_config())
        parallel = run_folds(self.fold_config(), jobs=2)
        assert serial.to_text() == again.to_text() == parallel.to_text()

    def test_missing_folds_section(self):
        with pytest.raises(ConfigError):
            run_folds(base_config())

    def test_dataset_is_built_once_for_every_fold(self, monkeypatch):
        built = mock.Mock(wraps=experiment.build_dataset)
        monkeypatch.setattr(experiment, "build_dataset", built)
        assert len(run_folds(self.fold_config()).scores) == 3
        assert built.call_count == 1

    def test_protocol_for_another_dataset_is_refused_before_training(self, monkeypatch):
        config = self.fold_config()
        protocol = make_folds(32, 2, 10, 6, make_rng(0))
        monkeypatch.setattr(experiment, "fit", lambda *args, **kwargs: pytest.fail("trained"))
        with pytest.raises(ConfigError) as err:
            run_folds(config, protocol=protocol)
        assert str(err.value) == "fold protocol covers 32 instances, dataset has 100"

    def test_scores_carry_the_protocol_they_ran(self, tmp_path):
        config = self.fold_config()
        scores = run_folds(config, jobs=2)
        scores.protocol.save(tmp_path / "ran.json")
        build_fold_protocol(config, build_dataset(config["dataset"])).save(tmp_path / "made.json")
        assert (tmp_path / "ran.json").read_bytes() == (tmp_path / "made.json").read_bytes()
        # the protocol stays out of comparisons, and a loaded file has none
        assert scores == FoldScores(scores.scores) and hash(scores) == hash(FoldScores(scores.scores))
        (tmp_path / "scores.tsv").write_text(scores.to_text())
        assert FoldScores.load(tmp_path / "scores.tsv").protocol is None

    def test_explicit_protocol_is_used(self):
        config = self.fold_config()
        proto = build_fold_protocol(config, build_dataset(config["dataset"]))
        scores = run_folds(config, protocol=proto)
        assert run_folds(config).to_text() == scores.to_text()


class TestStrictSections:
    """Every config section rejects unknown keys, fractional integers and
    values of the wrong JSON type, and names the key."""

    @pytest.mark.parametrize("overrides, key", [
        ({"dataset": {"type": "spirals", "n": 10, "noise": 0.1}}, "noise"),
        ({"dataset": {"type": "blobs", "n": 10, "centers": [[0.0], [1.0]], "std": 1.0}}, "std"),
        ({"test_dataset": {"type": "idx", "images": "a", "labels": "b", "count": 3}}, "count"),
        ({"maxgain": {"gamma": 2.0, "norm": 1}}, "norm"),
        ({"augment": {"flipp": True}}, "flipp"),
        ({"folds": {"k": 2, "train_per_fold": 4, "test_per_fold": 2, "sed": 1}}, "sed"),
    ])
    def test_unknown_section_key_is_named(self, overrides, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            check_config(base_config(**overrides))

    def test_unknown_folds_key_in_fold_protocol(self):
        config = base_config(folds={"k": 2, "train_per_fold": 4, "test_per_fold": 2, "sed": 1})
        with pytest.raises(ConfigError, match="sed"):
            build_fold_protocol(config, build_dataset(config["dataset"]))

    @pytest.mark.parametrize("overrides, key", [
        ({"dataset": {"type": "spirals", "n": 10.5}}, "n"),
        ({"folds": {"k": 1.5, "train_per_fold": 4, "test_per_fold": 2}}, "k"),
        ({"epochs": 1.7}, "epochs"),
        ({"schedule": [[2.5, 0.1]]}, "epoch"),
        ({"batch_size": "16.0"}, "batch_size"),
        ({"seed": True}, "seed"),
    ])
    def test_fractional_integer_section_values(self, overrides, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            check_config(base_config(**overrides))

    @pytest.mark.parametrize("stage, key", [
        ({"type": "dense", "in": 1.9, "out": 2}, "in"),
        ({"type": "maxpool", "kernel": 2.5}, "kernel"),
        ({"type": "conv", "in": 1, "out": 2, "kernel": 3, "stride": 1.7}, "stride"),
        ({"type": "batchnorm", "channels": "two"}, "channels"),
        ({"type": "residual", "main": {"type": "relu"}}, "main"),
    ])
    def test_fractional_or_mistyped_stage_values(self, stage, key):
        with pytest.raises(ConfigError, match=f"'{key}' in {stage['type']} stage"):
            build_network({"model": [stage]}, make_rng(0))

    def test_integral_floats_and_digit_strings_still_parse(self):
        net = build_network({"model": [{"type": "conv", "in": 1.0, "out": "2", "kernel": 3,
                                        "stride": 2.0}]}, make_rng(0))
        assert net.stages[0].kernel.shape == (2, 1, 3, 3)
        assert net.stages[0].stride == 2 and isinstance(net.stages[0].stride, int)

    @pytest.mark.parametrize("overrides, key", [
        ({"augment": {"flip": 1}}, "flip"),
        ({"augment": [1]}, "augment"),
        ({"dataset": {"type": "blobs", "n": 10, "centers": {"a": 1, "b": 2}}}, "centers"),
        ({"dataset": {"type": "idx", "images": 3, "labels": "b"}}, "images"),
        ({"maxgain": {"gamma": "tight"}}, "gamma"),
        ({"maxgain": {"gamma": 2.0, "p": True}}, "p"),
        ({"model": {"type": "relu"}}, "model"),
        ({"schedule": [[3, 0.1, 7]]}, "schedule"),
        ({"optimizer": "adagrad"}, "optimizer"),
        ({"lr": None}, "lr"),
    ])
    def test_mistyped_section_values(self, overrides, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            check_config(base_config(**overrides))

    def test_nulls_mean_the_default_where_it_is_none(self):
        cfg = check_config(base_config(maxgain=None, augment=None, test_dataset=None, folds=None))
        assert cfg["maxgain"] is cfg["augment"] is cfg["test_dataset"] is cfg["folds"] is None
        assert build_maxgain(cfg) is None

    def test_check_config_is_idempotent(self):
        cfg = check_config(base_config(schedule=[[2, 0.5]], maxgain={"gamma": 2, "p": "inf"},
                                       augment={"flip": True}))
        assert check_config(cfg) == cfg
        assert cfg["maxgain"] == {"gamma": 2.0, "p": math.inf}
        assert cfg["schedule"] == [[2, 0.5]]

    @pytest.mark.parametrize("overrides, section", [
        ({"seed": -3}, "seed"),
        ({"dataset": {"type": "spirals", "n": 10, "seed": -1}}, "spirals dataset"),
        ({"optimizer": "sgd", "momentum": 1.5}, "momentum"),
        ({"maxgain": {"gamma": 0.0}}, "maxgain"),
        ({"lr": -1.0}, "lr/schedule"),
        ({"optimizer": "adam", "momentum": 0.5}, "momentum"),
    ])
    def test_domain_errors_while_building_name_the_section(self, overrides, section):
        with pytest.raises(ConfigError, match=f"bad {section}: "):
            run_config(base_config(**overrides))

    def test_negative_fold_seed_names_the_folds_section(self):
        config = base_config(folds={"k": 2, "train_per_fold": 4, "test_per_fold": 2, "seed": -1})
        with pytest.raises(ConfigError, match="bad folds: "):
            build_fold_protocol(config, build_dataset(config["dataset"]))

    def test_partial_configs_still_build_what_they_name(self):
        build_network({"model": [{"type": "relu"}]}, make_rng(0))
        with pytest.raises(ConfigError, match="unknown key 'modle'"):
            build_network({"model": [{"type": "relu"}], "modle": []}, make_rng(0))


def test_readme_names_every_declared_key():
    """The README's "Model stages" section, "Dataset types" included, names
    in code spans every kind and key that the config tables and the stage
    classes declare, so the docs cannot drift from the tables."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("### Model stages"):text.index("## File formats")]
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", section))))
    tables = [CONFIG_FIELDS, MAXGAIN_FIELDS, AUGMENT_FIELDS, FOLD_FIELDS, DROP_FIELDS,
              *DATASET_FIELDS.values()]
    tables += [{**cls.hyper, **cls.config_keys} for cls in STAGE_TYPES.values()]
    declared = {*DATASET_FIELDS, *STAGE_TYPES} | {key for table in tables for key in table}
    assert declared - named == set()
