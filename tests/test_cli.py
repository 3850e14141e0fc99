"""End-to-end command line behavior, run in process via main(argv)."""

import json
import os
import re
import struct
from unittest import mock

import numpy as np
import pytest

from maxgain import DivergenceError, experiment, load_network, make_folds, make_rng, run_config, save_network
from maxgain.cli import main
from maxgain.data import write_text


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "seed": 2,
        "model": [
            {"type": "dense", "in": 2, "out": 8},
            {"type": "relu"},
            {"type": "dense", "in": 8, "out": 2},
        ],
        "optimizer": "adam",
        "lr": 0.01,
        "epochs": 2,
        "batch_size": 16,
        "dataset": {"type": "blobs", "n": 48, "seed": 4,
                    "centers": [[-2.0, -2.0], [2.0, 2.0]], "sd": 0.5},
        "test_dataset": {"type": "blobs", "n": 24, "seed": 5,
                         "centers": [[-2.0, -2.0], [2.0, 2.0]], "sd": 0.5},
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def write_8x8_idx(tmp_path):
    """Eight 8x8 one-channel IDX images of two classes; returns their dataset spec."""
    (tmp_path / "images").write_bytes(struct.pack(">IIII", 0x803, 8, 8, 8) + bytes(range(0, 256, 4)) * 8)
    (tmp_path / "labels").write_bytes(struct.pack(">II", 0x801, 8) + bytes([0, 1] * 4))
    return {"type": "idx", "images": str(tmp_path / "images"), "labels": str(tmp_path / "labels")}


class TestTrain:
    def test_writes_ledger_and_checkpoint(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", str(config), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "train loss" in printed and "accuracy" in printed
        assert "test loss" in printed
        ledger = (out / "ledger.tsv").read_text()
        assert len(ledger.splitlines()) == 4  # train + test rows, 2 epochs
        net = load_network(out / "checkpoint.txt")
        assert len(net.stages) == 3

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", str(config), "--out", str(out_a)]) == 0
        assert main(["train", str(config), "--out", str(out_b)]) == 0
        assert (out_a / "ledger.tsv").read_bytes() == (out_b / "ledger.tsv").read_bytes()
        assert (out_a / "checkpoint.txt").read_bytes() == (out_b / "checkpoint.txt").read_bytes()

    def test_seed_flag_changes_the_run(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", str(config), "--out", str(out_a), "--seed", "2"]) == 0
        assert main(["train", str(config), "--out", str(out_b), "--seed", "3"]) == 0
        assert (out_a / "checkpoint.txt").read_bytes() != (out_b / "checkpoint.txt").read_bytes()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["train", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = write_config(tmp_path, learning_rate=0.1)
        assert main(["train", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_bad_stage(self, tmp_path):
        config = write_config(tmp_path, model=[{"type": "dropout", "rate": 2.0}])
        assert main(["train", str(config), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("model", [[{"type": "relu"}], [{"type": "dense", "in": 2, "out": 2}]],
                             ids=["relu-only", "dense"])
    def test_unknown_init_exits_2_naming_init(self, tmp_path, capsys, model):
        config = write_config(tmp_path, model=model, init="bogus")
        assert main(["train", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: bad 'init' in config: expected one of 'he-normal', 'glorot-uniform', got 'bogus'\n")

    def test_crop_the_model_cannot_evaluate_at_full_size_exits_2(self, tmp_path, capsys):
        # 8x8 images whose dense layer takes the full image, cropped to 6x6
        config = write_config(
            tmp_path, augment={"pad": 1, "crop": 6}, test_dataset=None, dataset=write_8x8_idx(tmp_path),
            model=[{"type": "conv", "in": 1, "out": 2, "kernel": 3, "pad": 1}, {"type": "relu"},
                   {"type": "flatten"}, {"type": "dense", "in": 128, "out": 2}])
        out = tmp_path / "o"
        assert main(["train", str(config), "--out", str(out)]) == 2
        assert "'crop' in augment" in capsys.readouterr().err
        assert not (out / "ledger.tsv").exists()

    def test_crop_that_changes_the_output_shape_exits_2(self, tmp_path, capsys):
        # a conv then flatten gives 2*6*6 values on 6x6 crops, 2*8*8 on the full 8x8 images
        config = write_config(
            tmp_path, augment={"crop": 6}, test_dataset=None, dataset=write_8x8_idx(tmp_path),
            model=[{"type": "conv", "in": 1, "out": 2, "kernel": 3, "pad": 1}, {"type": "flatten"}])
        assert main(["train", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("error: bad 'crop' in augment: 6x6 crops and (1, 8, 8) instances "
                                           "give different output shapes\n")

    def test_test_split_the_model_cannot_take_exits_2_naming_it(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 0, "model": [{"type": "dense", "in": 2, "out": 8}, {"type": "relu"},
                                 {"type": "dense", "in": 8, "out": 2}],
            "optimizer": "adam", "lr": 0.01, "epochs": 3, "batch_size": 32,
            "dataset": {"type": "blobs", "n": 64, "seed": 1, "centers": [[1, 0], [0, 1]]},
            "test_dataset": {"type": "blobs", "n": 32, "seed": 2, "centers": [[1, 0, 0], [0, 1, 0]]}}))
        out = tmp_path / "o"
        assert main(["train", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: bad test_dataset: dense expects shape (2,), got (3,)\n"
        assert not list(out.glob("*"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_run_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path, optimizer="sgd", lr=1e300)
        assert main(["train", str(config), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert re.match(r"numerical failure: non-finite .* at step \d+ \(epoch \d+\)$", err)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_logits_exit_3_naming_the_step(self, tmp_path, capsys):
        # blobs at +-1e308 overflow the first forward's logits
        config = write_config(tmp_path, dataset={"type": "blobs", "n": 48, "seed": 4, "sd": 0.5,
                                                 "centers": [[-1e308, -1e308], [1e308, 1e308]]})
        assert main(["train", str(config), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "numerical failure: non-finite logits at step 1 (epoch 1)\n"

    def test_non_finite_gain_exits_3_naming_the_layer_and_step(self, tmp_path, capsys):
        # ||x||^2 overflows at 1e160 while the logits stay finite, so the gain is inf / inf
        config = write_config(tmp_path, optimizer="sgd", maxgain={"gamma": 2.0, "p": 2}, test_dataset=None,
                              dataset={**BLOBS, "centers": [[1e160, 0.0], [0.0, 1e160]]})
        out = tmp_path / "o"
        assert main(["train", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numerical failure: non-finite gain of layer 0 at step 1 (epoch 1)\n"
        assert (out / "ledger.tsv").read_text() == ""
        assert not (out / "checkpoint.txt").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_leaves_the_completed_epochs_ledger(self, tmp_path, capsys):
        config = write_config(tmp_path, optimizer="sgd", lr=0.01, epochs=3, schedule=[[2, 1e302]])
        out = tmp_path / "o"
        assert main(["train", str(config), "--out", str(out)]) == 3
        assert re.fullmatch(r"numerical failure: non-finite .* at step \d+ \(epoch 2\)\n", capsys.readouterr().err)
        assert [row.split("\t")[:2] for row in (out / "ledger.tsv").read_text().splitlines()] == [
            ["1", "train"], ["1", "test"]]
        assert not (out / "checkpoint.txt").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_logits_in_the_test_pass_exit_3_naming_split_step_and_epoch(self, tmp_path, capsys):
        # step 1's update makes the next forward, the epoch-1 test pass, overflow
        out = tmp_path / "o"
        assert main(["train", str(write_config(tmp_path, **BLOW_UP)), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: non-finite logits on the test split after step 1 (epoch 1)\n")
        assert [row.split("\t")[:2] for row in (out / "ledger.tsv").read_text().splitlines()] == [["1", "train"]]
        assert not (out / "checkpoint.txt").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_logits_in_the_final_train_pass_exit_3_with_the_ledger(self, tmp_path, capsys):
        config = write_config(tmp_path, **dict(BLOW_UP, epochs=1, test_dataset=None))
        out = tmp_path / "o"
        assert main(["train", str(config), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numerical failure: non-finite logits on the train split after training\n"
        assert [row.split("\t")[:2] for row in (out / "ledger.tsv").read_text().splitlines()] == [["1", "train"]]
        assert not (out / "checkpoint.txt").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_test_gain_exits_3_with_the_ledger(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["train", str(write_config(tmp_path, **GAIN_OVERFLOW)), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: non-finite gain of layer 0 on the test split after training\n")
        assert [row.split("\t")[:2] for row in (out / "ledger.tsv").read_text().splitlines()] == [
            ["1", "train"], ["1", "test"], ["2", "train"], ["2", "test"]]
        assert not (out / "checkpoint.txt").exists()

    def test_one_instance_batchnorm_batch_is_refused_before_training(self, tmp_path, capsys):
        config = write_config(
            tmp_path, model=[{"type": "dense", "in": 2, "out": 8}, {"type": "batchnorm", "channels": 8},
                             {"type": "relu"}, {"type": "dense", "in": 8, "out": 2}],
            dataset={**BLOBS, "n": 33})
        out = tmp_path / "run"
        assert main(["train", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: 33 training instances at batch_size 16 leave a batch of 1, "
            "but the model needs train batches of at least 2\n")
        assert list(out.iterdir()) == []

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == 2


class TestSweep:
    def test_table_to_file(self, tmp_path):
        config = write_config(tmp_path, maxgain={"gamma": 1.0, "p": 2}, epochs=1)
        out = tmp_path / "sweep.tsv"
        assert main(["sweep", str(config), "--gammas", "4,0.5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("gamma\t")
        assert len(lines) == 3
        assert float(lines[1].split("\t")[0]) == 0.5  # sorted ascending
        assert float(lines[2].split("\t")[0]) == 4.0

    def test_table_to_stdout(self, tmp_path, capsys):
        config = write_config(tmp_path, maxgain={"gamma": 1.0, "p": 2}, epochs=1)
        assert main(["sweep", str(config), "--gammas", "1"]) == 0
        assert capsys.readouterr().out.startswith("gamma\t")

    def test_parallel_output_matches_serial(self, tmp_path):
        config = write_config(tmp_path, maxgain={"gamma": 1.0, "p": 2}, epochs=1)
        out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["sweep", str(config), "--gammas", "0.5,2", "--out", str(out_a)]) == 0
        assert main(["sweep", str(config), "--gammas", "0.5,2", "--jobs", "2",
                     "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_needs_maxgain_section(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["sweep", str(config), "--gammas", "1"]) == 2
        assert capsys.readouterr().err == 'error: sweep needs a "maxgain" section to carry the norm order\n'

    def test_needs_test_dataset(self, tmp_path, capsys):
        config = write_config(tmp_path, maxgain={"gamma": 1.0, "p": 2}, test_dataset=None)
        assert main(["sweep", str(config), "--gammas", "1"]) == 2
        assert capsys.readouterr().err == 'error: sweep needs a "test_dataset" to report test metrics\n'

    def test_builds_each_split_once(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, maxgain={"gamma": 1.0, "p": 2}, epochs=1)
        built = mock.Mock(wraps=experiment.build_dataset)
        monkeypatch.setattr(experiment, "build_dataset", built)
        assert main(["sweep", str(config), "--gammas", "0.5,1,2", "--out", str(tmp_path / "s.tsv")]) == 0
        assert built.call_count == 2

    def test_bad_gamma_list(self, tmp_path, capsys):
        config = write_config(tmp_path, maxgain={"gamma": 1.0, "p": 2})
        assert main(["sweep", str(config), "--gammas", "abc"]) == 2
        capsys.readouterr()
        assert main(["sweep", str(config), "--gammas", ","]) == 2
        assert capsys.readouterr().err == "error: gamma sweep needs at least one gamma\n"


    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("gamma", ["0", "-1", "nan", "inf"])
    def test_out_of_domain_gamma_exits_2_naming_it(self, tmp_path, capsys, gamma, jobs):
        config = write_config(tmp_path, maxgain={"gamma": 1.0, "p": 2}, epochs=1)
        out = tmp_path / "sweep.tsv"
        assert main(["sweep", str(config), f"--gammas={gamma}", "--jobs", jobs,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "maxgain" in err and "gamma" in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_names_the_gamma(self, tmp_path, capsys, jobs):
        config = write_config(tmp_path, **BLOW_UP, maxgain={"gamma": 2.0})
        assert main(["sweep", str(config), "--gammas", "1,1e300", "--jobs", jobs]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: gamma 1.0: non-finite logits on the test split after step 1 (epoch 1)\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_test_gain_names_the_gamma_and_the_split(self, tmp_path, capsys):
        out = tmp_path / "sweep.tsv"
        config = write_config(tmp_path, **GAIN_OVERFLOW)
        for argv in (["--out", str(out)], []):
            assert main(["sweep", str(config), "--gammas", "2"] + argv) == 3
            captured = capsys.readouterr()
            assert captured.err == (
                "numerical failure: gamma 2.0: non-finite gain of layer 0 on the test split after training\n")
            assert captured.out == ""
        assert not out.exists()


# A two-channel batchnorm checkpoint stage with the given running statistics.
BATCHNORM = ("stage batchnorm momentum=0.9 eps=1e-05\narray alpha 1 2\n1 1\narray beta 1 2\n0 0\n"
             "array running_mean {mean}\narray running_var {var}\nend")


class TestGainReport:
    def train_checkpoint(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", str(config), "--out", str(out)]) == 0
        return out / "checkpoint.txt", config

    def test_report_for_both_splits(self, tmp_path, capsys):
        checkpoint, config = self.train_checkpoint(tmp_path)
        capsys.readouterr()  # discard the training output
        assert main(["gain-report", str(checkpoint), str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "layer_index\tsplit\tn\tmin\tlq\tmedian\tuq\tmax"
        assert len(lines) == 5

    def test_norm_flag(self, tmp_path):
        checkpoint, config = self.train_checkpoint(tmp_path)
        out1 = tmp_path / "r1.tsv"
        out2 = tmp_path / "rinf.tsv"
        assert main(["gain-report", str(checkpoint), str(config),
                     "--norm", "1", "--out", str(out1)]) == 0
        assert main(["gain-report", str(checkpoint), str(config),
                     "--norm", "inf", "--out", str(out2)]) == 0
        assert out1.read_text() != out2.read_text()

    @pytest.mark.parametrize("splits", [("dataset", "test_dataset"), ("test_dataset",)], ids=["both", "test"])
    def test_builds_each_given_split_once(self, tmp_path, monkeypatch, splits):
        checkpoint, config = self.train_checkpoint(tmp_path)
        specs = json.loads(config.read_text())
        given = tmp_path / "given.json"
        given.write_text(json.dumps({k: specs[k] for k in splits}))
        built = mock.Mock(wraps=experiment.build_dataset)
        monkeypatch.setattr(experiment, "build_dataset", built)
        assert main(["gain-report", str(checkpoint), str(given), "--out", str(tmp_path / "r.tsv")]) == 0
        assert [c.args for c in built.call_args_list] == [(specs[k],) for k in splits]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_gain_exits_3_naming_the_layer_and_the_split(self, tmp_path, capsys):
        out = tmp_path / "run"
        trained = write_config(tmp_path, "trained.json", **dict(GAIN_OVERFLOW, test_dataset=None))
        assert main(["train", str(trained), "--out", str(out)]) == 0
        capsys.readouterr()
        config = write_config(tmp_path, **GAIN_OVERFLOW)
        assert main(["gain-report", str(out / "checkpoint.txt"), str(config)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "numerical failure: non-finite gain of layer 0 on the test split\n"
        assert captured.out == ""

    def test_split_the_model_cannot_take_exits_2_naming_it(self, tmp_path, capsys):
        checkpoint, _ = self.train_checkpoint(tmp_path)
        capsys.readouterr()
        config = write_config(tmp_path, "cfg3.json", test_dataset=dict(BLOBS, centers=[[-2, -2, 0], [2, 2, 0]]))
        assert main(["gain-report", str(checkpoint), str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: bad test split: dense expects shape (2,), got (3,)\n"
        assert captured.out == ""

    def test_missing_checkpoint(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["gain-report", str(tmp_path / "none.txt"), str(config)]) == 2

    def test_config_without_any_dataset(self, tmp_path):
        checkpoint, _ = self.train_checkpoint(tmp_path)
        bare = tmp_path / "bare.json"
        bare.write_text("{}")
        assert main(["gain-report", str(checkpoint), str(bare)]) == 2

    @pytest.mark.parametrize("stage", [
        "stage dropout rate=1.5\nend",
        "stage conv stride=0 pad=0\narray kernel 4 1 1 1 1\n1\narray b 1 1\n0\nend",
        "stage conv strid=2 pad=0\narray kernel 4 1 1 1 1\n1\narray b 1 1\n0\nend",
        BATCHNORM.format(mean="1 3\n0 0 0", var="1 2\n1 1"),
        BATCHNORM.format(mean="1 2\n0 0", var="1 2\n1 -0.5"),
        BATCHNORM.format(mean="1 2\n0 0", var="1 2\n1 nan"),
        "stage maxpool kernel=2 kernel=3\nend",
    ])
    def test_malformed_checkpoint_stage_is_a_format_error(self, tmp_path, capsys, stage):
        config = write_config(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text(f"maxgain-checkpoint v1\nstages 1\n{stage}\n")
        assert main(["gain-report", str(bad), str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{stage.split()[1]} stage" in err

    def test_network_without_learned_layers_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        relu_only = tmp_path / "relu.txt"
        relu_only.write_text("maxgain-checkpoint v1\nstages 1\nstage relu\nend\n")
        assert main(["gain-report", str(relu_only), str(config)]) == 2
        assert capsys.readouterr().err == "error: network has no learned layers\n"


class TestFolds:
    def fold_args(self, tmp_path):
        config = write_config(
            tmp_path, epochs=1, test_dataset=None,
            dataset={"type": "blobs", "n": 60, "seed": 4,
                     "centers": [[-2.0, -2.0], [2.0, 2.0]], "sd": 0.5},
            folds={"k": 2, "train_per_fold": 20, "test_per_fold": 8, "seed": 1})
        return config

    def test_scores_and_saved_protocol(self, tmp_path):
        config = self.fold_args(tmp_path)
        scores_path = tmp_path / "scores.tsv"
        folds_path = tmp_path / "folds.json"
        assert main(["folds", str(config), "--out", str(scores_path),
                     "--save-folds", str(folds_path)]) == 0
        lines = scores_path.read_text().splitlines()
        assert lines[0] == "fold\taccuracy"
        assert len(lines) == 3
        doc = json.loads(folds_path.read_text())
        assert doc["format"] == "maxgain-folds"

        # replaying from the saved protocol reproduces the scores exactly
        replay_path = tmp_path / "replay.tsv"
        assert main(["folds", str(config), "--folds-file", str(folds_path),
                     "--out", str(replay_path)]) == 0
        assert replay_path.read_bytes() == scores_path.read_bytes()

    def test_jobs_flag_matches_serial(self, tmp_path):
        config = self.fold_args(tmp_path)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["folds", str(config), "--out", str(a)]) == 0
        assert main(["folds", str(config), "--jobs", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_protocol_size_mismatch(self, tmp_path, capsys):
        config = self.fold_args(tmp_path)
        folds_path = tmp_path / "folds.json"
        doc = {"format": "maxgain-folds", "version": 1, "n_instances": 10,
               "folds": [{"train": [0, 1], "test": [2]}]}
        folds_path.write_text(json.dumps(doc))
        assert main(["folds", str(config), "--folds-file", str(folds_path)]) == 2
        assert capsys.readouterr().err == "error: fold protocol covers 10 instances, dataset has 60\n"

    def test_missing_folds_section(self, tmp_path):
        config = write_config(tmp_path, test_dataset=None)
        assert main(["folds", str(config)]) == 2

    @pytest.mark.parametrize("from_file, save", [(False, False), (True, False), (False, True)],
                             ids=["False", "True", "save-folds"])
    def test_dataset_is_built_once(self, tmp_path, monkeypatch, from_file, save):
        config = self.fold_args(tmp_path)
        folds_path = tmp_path / "folds.json"
        argv = ["folds", str(config), "--out", str(tmp_path / "scores.tsv")]
        if from_file:
            make_folds(60, 2, 20, 8, make_rng(1)).save(folds_path)
            argv += ["--folds-file", str(folds_path)]
        if save:
            argv += ["--save-folds", str(tmp_path / "saved.json")]
        built = mock.Mock(wraps=experiment.build_dataset)
        monkeypatch.setattr(experiment, "build_dataset", built)
        assert main(argv) == 0
        assert built.call_count == 1
        if save:  # the protocol the config's folds section makes
            make_folds(60, 2, 20, 8, make_rng(1)).save(folds_path)
            assert (tmp_path / "saved.json").read_bytes() == folds_path.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_names_the_fold(self, tmp_path, capsys, jobs):
        config = write_config(tmp_path, **dict(BLOW_UP, epochs=2, test_dataset=None),
                              folds={"k": 2, "train_per_fold": 16, "test_per_fold": 8})
        assert main(["folds", str(config), "--jobs", jobs]) == 3
        assert capsys.readouterr().err == "numerical failure: fold 0: non-finite logits at step 2 (epoch 2)\n"

    def test_divergence_from_a_worker_keeps_its_step_and_ledger(self, tmp_path):
        config = json.loads(write_config(tmp_path, **dict(BLOW_UP, epochs=2, test_dataset=None),
                                         folds={"k": 2, "train_per_fold": 16, "test_per_fold": 8}).read_text())
        with pytest.raises(DivergenceError, match="^fold 0: ") as err:
            experiment.run_folds(config, jobs=2)
        assert err.value.step == 2
        assert [(r.epoch, r.split) for r in err.value.ledger.records] == [(1, "train")]

    def test_divergence_scoring_a_fold_names_its_test_split_and_keeps_the_ledger(self, tmp_path, monkeypatch):
        config = json.loads(write_config(tmp_path, test_dataset=None,
                                         folds={"k": 2, "train_per_fold": 16, "test_per_fold": 8}).read_text())

        def diverge(net, x, y):
            raise DivergenceError("non-finite logits")

        monkeypatch.setattr(experiment, "eval_metrics", diverge)
        with pytest.raises(DivergenceError) as err:
            experiment.run_folds(config)
        assert str(err.value) == "fold 0: non-finite logits on the test split after training"
        assert [(r.epoch, r.split) for r in err.value.ledger.records] == [(1, "train"), (2, "train")]


def write_scores(path, pairs):
    lines = ["fold\taccuracy"] + [f"{f}\t{a}" for f, a in pairs]
    path.write_text("\n".join(lines) + "\n")


class TestTtest:
    def test_reports_means_and_p_value(self, tmp_path, capsys):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_scores(a, [(0, 0.9), (1, 0.9), (2, 0.8), (3, 0.9), (4, 0.9)])
        write_scores(b, [(0, 0.4), (1, 0.2), (2, 0.5), (3, 0.4), (4, 0.3)])
        assert main(["ttest", str(a), str(b)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith(f"{a}: mean 0.88 se ")
        assert out[1].startswith(f"{b}: mean 0.36 se ")
        assert out[2] == "t 7.83929 df 4 p 0.00143001"

    def test_fold_order_does_not_matter(self, tmp_path, capsys):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_scores(a, [(1, 0.8), (0, 0.9)])
        write_scores(b, [(0, 0.7), (1, 0.75)])
        assert main(["ttest", str(a), str(b)]) == 0
        first = capsys.readouterr().out.splitlines()[-1]
        write_scores(a, [(0, 0.9), (1, 0.8)])
        assert main(["ttest", str(a), str(b)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == first

    def test_identical_scores_are_degenerate(self, tmp_path, capsys):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_scores(a, [(0, 0.9), (1, 0.8)])
        write_scores(b, [(0, 0.9), (1, 0.8)])
        assert main(["ttest", str(a), str(b)]) == 2
        # a refused input prints no summary line
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")

    def test_mismatched_fold_sets(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_scores(a, [(0, 0.9), (1, 0.8)])
        write_scores(b, [(0, 0.7), (2, 0.6)])
        assert main(["ttest", str(a), str(b)]) == 2

    def test_single_fold_is_rejected(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_scores(a, [(0, 0.9)])
        write_scores(b, [(0, 0.7)])
        assert main(["ttest", str(a), str(b)]) == 2

    def test_malformed_scores_file(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        a.write_text("wrong header\n0\t0.5\n")
        write_scores(b, [(0, 0.7), (1, 0.6)])
        assert main(["ttest", str(a), str(b)]) == 2

    def test_duplicate_fold_index(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_scores(a, [(0, 0.9), (0, 0.8)])
        write_scores(b, [(0, 0.7), (1, 0.6)])
        assert main(["ttest", str(a), str(b)]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_accuracy_is_a_format_error(self, tmp_path, capsys, value):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_scores(a, [(0, 0.9), (1, value)])
        write_scores(b, [(0, 0.7), (1, 0.6)])
        assert main(["ttest", str(a), str(b)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: bad 'accuracy' in {a}:3: expected a finite number, got '{value}'\n"


class Repeats(dict):
    """A JSON object that json.dumps writes pair by pair as given, so a key
    may appear twice."""

    def __init__(self, *pairs):
        super().__init__(pairs)
        self.pairs = list(pairs)

    def items(self):
        return self.pairs


BLOBS = {"type": "blobs", "n": 48, "seed": 4, "centers": [[-2.0, -2.0], [2.0, 2.0]], "sd": 0.5}
# Blobs at 1e150, one batch per epoch and SGD at lr 1e6: step 1's update
# makes every later forward overflow its logits.
BLOW_UP = {"seed": 0, "optimizer": "sgd", "lr": 1e6, "momentum": 0.0, "epochs": 6, "batch_size": 64,
           "dataset": {"type": "blobs", "n": 64, "seed": 1, "centers": [[1e150, 0], [0, 1e150]]},
           "test_dataset": {"type": "blobs", "n": 32, "seed": 2, "centers": [[1e150, 0], [0, 1e150]]}}
# A model that trains on ordinary blobs and is tested on blobs at 1e160,
# whose squared norms overflow: its logits and loss stay finite, its gains do not.
GAIN_OVERFLOW = {"seed": 0, "model": [{"type": "dense", "in": 2, "out": 8}, {"type": "relu"},
                                      {"type": "dense", "in": 8, "out": 2}],
                 "optimizer": "adam", "lr": 0.01, "epochs": 2, "batch_size": 32, "maxgain": {"gamma": 2.0},
                 "dataset": {"type": "blobs", "n": 64, "seed": 1, "centers": [[1, 0], [0, 1]]},
                 "test_dataset": {"type": "blobs", "n": 32, "seed": 2, "centers": [[1e160, 0], [0, 1e160]]}}


@pytest.mark.parametrize("overrides, named", [
    ({"epochs": "ten"}, "'epochs'"),
    ({"epochs": 1.7}, "'epochs'"),
    ({"batch_size": "many"}, "'batch_size'"),
    ({"seed": "x"}, "'seed'"),
    ({"seed": -3}, "bad seed"),
    ({"dataset": {**BLOBS, "n": "lots"}}, "'n' in blobs dataset"),
    ({"dataset": {**BLOBS, "seed": -1}}, "bad blobs dataset"),
    ({"dataset": {**BLOBS, "std": 1.0}}, "'std' in blobs dataset"),
    ({"dataset": {"type": "spirals", "n": 40, "noise": 0.1}}, "'noise' in spirals dataset"),
    ({"dataset": {"type": "parquet"}}, "'type' in dataset"),
    ({"augment": {"pad": "four"}}, "'pad' in augment"),
    ({"augment": {"flipp": True}}, "'flipp' in augment"),
    ({"augment": {"flip": "yes"}}, "'flip' in augment"),
    ({"augment": [1]}, "'augment'"),
    ({"maxgain": {"gamma": "tight"}}, "'gamma' in maxgain"),
    ({"maxgain": {"gamma": 2.0, "norm": 1}}, "'norm' in maxgain"),
    ({"maxgain": {"gamma": -1.0}}, "bad maxgain"),
    ({"optimizer": "sgd", "momentum": "heavy"}, "'momentum'"),
    ({"optimizer": "sgd", "momentum": 1.5}, "bad momentum"),
    ({"schedule": [[1.5, 0.1]]}, "'epoch' in schedule pair"),
    ({"schedule": [[1, 0.1, 2]]}, "'schedule'"),
    ({"folds": {"k": 2, "train_per_fold": 4, "test_per_fold": 2, "sed": 1}}, "'sed' in folds"),
    ({"model": [{"type": "dense", "in": 2.5, "out": 2}]}, "'in' in dense stage"),
    ({"model": [{"type": "maxpool", "kernel": 2.5}]}, "'kernel' in maxpool stage"),
    ({"model": [{"type": "conv", "in": 2, "out": 2, "kernel": 1, "stride": 1.7}]},
     "'stride' in conv stage"),
    ({"learning_rate": 0.1}, "'learning_rate'"),
    ({"model": [{"type": "batchnorm", "channels": -1}]}, "'channels' in batchnorm stage"),
    ({"model": [{"type": "batchnorm", "channels": 0}]}, "'channels' in batchnorm stage"),
    ({"dataset": {**BLOBS, "sd": -1}}, "'sd' in blobs dataset"),
    ({"dataset": {"type": "spirals", "n": 40, "noise_sd": -1}}, "'noise_sd' in spirals dataset"),
    ({"dataset": {**BLOBS, "centers": [[-2.0, "a"], [2.0, 2.0]]}}, "'centers' in blobs dataset"),
    ({"dataset": {"type": "spirals", "n": 40, "turns": "nan"}}, "'turns' in spirals dataset"),
    ({"lr": True}, "'lr'"),
    ({"augment": {"pad": -1}}, "'pad' in augment"),
    ({"model": [{"type": "dropout", "rate": "inf"}]}, "'rate' in dropout stage"),
    ({"dataset": {**BLOBS, "centers": [[-2.0, -2.0], [2.0]]}}, "centers must be"),
    ({"dataset": {**BLOBS, "centers": [[-2.0, -2.0], [2.0, 2.0], [2.0, -2.0]]}}, "bad model"),
    ({"test_dataset": {**BLOBS, "centers": [[-2.0, -2.0], [2.0, 2.0], [2.0, -2.0]]}}, "bad model"),
    ({"dataset": Repeats(*BLOBS.items(), ("sd", 0.7))}, "repeated key 'sd'"),
    ({"model": [Repeats(("type", "maxpool"), ("kernel", 2), ("kernel", 3))]}, "repeated key 'kernel'"),
    ({"maxgain": Repeats(("gamma", 2.0), ("p", 2), ("gamma", 0.5))}, "repeated key 'gamma'"),
    ({"optimizer": "adam", "momentum": 1.5}, "bad momentum"),
])
def test_malformed_train_configs_exit_2_naming_the_key(tmp_path, capsys, overrides, named):
    config = write_config(tmp_path, **overrides)
    assert main(["train", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["train", "CONFIG", "--out", "OUT"],
        ["sweep", "CONFIG", "--gammas", "1"],
        ["sweep", "CONFIG", "--gammas", "1", "--seed", "3"],
        ["gain-report", "CHECKPOINT", "CONFIG"],
        ["folds", "CONFIG"],
    ])
    def test_non_mapping_config_exits_2(self, tmp_path, capsys, argv):
        checkpoint = tmp_path / "checkpoint.txt"
        checkpoint.write_text("maxgain-checkpoint v1\nstages 1\nstage relu\nend\n")
        config = tmp_path / "list.json"
        config.write_text("[1, 2]")
        names = {"CONFIG": str(config), "CHECKPOINT": str(checkpoint), "OUT": str(tmp_path / "o")}
        assert main([names.get(a, a) for a in argv]) == 2
        assert "config must be a mapping" in capsys.readouterr().err

    def test_gain_report_needs_only_a_dataset(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", str(write_config(tmp_path)), "--out", str(out)]) == 0
        only_test = tmp_path / "only_test.json"
        only_test.write_text(json.dumps({"test_dataset": BLOBS}))
        capsys.readouterr()
        assert main(["gain-report", str(out / "checkpoint.txt"), str(only_test)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3  # header + 2 layers

    def test_out_that_is_a_file_or_under_one(self, tmp_path, capsys):
        config = write_config(tmp_path)
        a_file = tmp_path / "taken"
        a_file.write_text("keep me\n")
        assert main(["train", str(config), "--out", str(a_file)]) == 2
        assert main(["train", str(config), "--out", str(a_file / "run")]) == 2
        sweep_config = write_config(tmp_path, "sweep.json", maxgain={"gamma": 1.0}, epochs=1)
        assert main(["sweep", str(sweep_config), "--gammas", "1",
                     "--out", str(a_file / "sweep.tsv")]) == 2
        assert capsys.readouterr().err.count("error:") == 3
        assert a_file.read_text() == "keep me\n"

    @pytest.mark.parametrize("command", ["sweep", "folds"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, command, jobs):
        argv = [command, str(write_config(tmp_path)), "--jobs", jobs]
        if command == "sweep":
            argv += ["--gammas", "1"]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("folds, named", [
        (None, "'folds'"),
        ([{"train": [0, 1], "test": [60]}], "index 60"),
        ([{"train": [0, 1], "test": [1]}], "instance 1 is used twice"),
        ([{"train": [0, 1], "test": [2]}, {"train": [2, 3], "test": [4]}], "instance 2"),
        ([], "fold list is empty"),
        ([Repeats(("train", [0, 1]), ("test", [2]), ("test", [3]))], "repeated key 'test'"),
        ([{"train": [], "test": [1, 2]}], "folds.json: fold 0 has an empty train list"),
        ([{"train": [0, 1], "test": [2]}, {"train": [3], "test": []}],
         "folds.json: fold 1 has an empty test list"),
    ])
    def test_malformed_folds_file_exits_2(self, tmp_path, capsys, folds, named):
        config = write_config(tmp_path, epochs=1, test_dataset=None, dataset={**BLOBS, "n": 60})
        doc = {"format": "maxgain-folds", "version": 1, "n_instances": 60}
        if folds is not None:
            doc["folds"] = folds
        path = tmp_path / "folds.json"
        path.write_text(json.dumps(doc))
        scores = tmp_path / "scores.tsv"
        assert main(["folds", str(config), "--folds-file", str(path), "--out", str(scores)]) == 2
        assert named in capsys.readouterr().err
        assert not scores.exists()


@pytest.mark.parametrize("columns, named", [
    ({"label_col": 5}, "bad 'label_col' in csv dataset"),
    ({"feature_cols": [0, 7]}, "bad 'feature_cols' in csv dataset"),
    ({"feature_cols": ["a", 1]}, "bad 'feature_cols' in csv dataset"),
    ({"feature_cols": [0, 2]}, "bad 'feature_cols' in csv dataset: column 2 is the label column"),
    ({"feature_cols": []}, "bad 'feature_cols' in csv dataset"),
])
def test_csv_columns_outside_the_file_or_on_the_label_exit_2(tmp_path, capsys, columns, named):
    data = tmp_path / "d.csv"
    data.write_text("".join(f"{i},{-i},{i % 2}\n" for i in range(8)))
    config = write_config(tmp_path, test_dataset=None,
                          dataset={"type": "csv", "path": str(data), **columns})
    out = tmp_path / "o"
    assert main(["train", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not (out / "ledger.tsv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_csv_feature_exits_2_naming_the_line(tmp_path, capsys, value):
    data = tmp_path / "d.csv"
    data.write_text(f"x,y,label\n1,2,0\n3,{value},1\n")
    config = write_config(tmp_path, test_dataset=None, dataset={"type": "csv", "path": str(data)})
    assert main(["train", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "d.csv:3: expected finite numbers" in capsys.readouterr().err


class TestAtomicOutputs:
    """Every file the CLI writes goes through a temporary file and
    os.replace: a failed write leaves the previous bytes and no temp file."""

    def fail_replace(self, monkeypatch):
        def replace(src, dst):
            raise OSError("replace failed")
        monkeypatch.setattr(os, "replace", replace)

    def test_train_outputs(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        out.mkdir()
        (out / "ledger.tsv").write_text("old ledger\n")
        (out / "checkpoint.txt").write_text("old checkpoint\n")
        result = run_config(json.loads(write_config(tmp_path).read_text()))
        self.fail_replace(monkeypatch)
        with pytest.raises(OSError):
            write_text(out / "ledger.tsv", result.ledger.to_text())
        with pytest.raises(OSError):
            save_network(result.net, out / "checkpoint.txt")
        assert (out / "ledger.tsv").read_text() == "old ledger\n"
        assert (out / "checkpoint.txt").read_text() == "old checkpoint\n"
        assert sorted(p.name for p in out.iterdir()) == ["checkpoint.txt", "ledger.tsv"]

    def test_table_and_fold_outputs(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, epochs=1, maxgain={"gamma": 1.0},
                              folds={"k": 2, "train_per_fold": 10, "test_per_fold": 5})
        out = tmp_path / "out"
        out.mkdir()
        for name in ("sweep.tsv", "folds.json"):
            (out / name).write_text(f"old {name}\n")
        self.fail_replace(monkeypatch)
        with pytest.raises(OSError):
            main(["sweep", str(config), "--gammas", "1", "--out", str(out / "sweep.tsv")])
        with pytest.raises(OSError):
            make_folds(48, 2, 10, 5, make_rng(0)).save(out / "folds.json")
        for name in ("sweep.tsv", "folds.json"):
            assert (out / name).read_text() == f"old {name}\n"
        assert sorted(p.name for p in out.iterdir()) == ["folds.json", "sweep.tsv"]
