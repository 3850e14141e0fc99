"""End-to-end command line behavior, run in process via main(argv)."""

import json

import numpy as np
import pytest

from maxgain import load_network
from maxgain.cli import main


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_run_exits_3(self, tmp_path, capsys):
        config = write_config(tmp_path, optimizer="sgd", lr=1e300)
        assert main(["train", str(config), "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure:" in capsys.readouterr().err

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

    def test_needs_maxgain_section(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["sweep", str(config), "--gammas", "1"]) == 2

    def test_needs_test_dataset(self, tmp_path):
        config = write_config(tmp_path, maxgain={"gamma": 1.0, "p": 2}, test_dataset=None)
        assert main(["sweep", str(config), "--gammas", "1"]) == 2

    def test_bad_gamma_list(self, tmp_path):
        config = write_config(tmp_path, maxgain={"gamma": 1.0, "p": 2})
        assert main(["sweep", str(config), "--gammas", "abc"]) == 2
        assert main(["sweep", str(config), "--gammas", ","]) == 2


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
    ])
    def test_malformed_checkpoint_stage_is_a_format_error(self, tmp_path, capsys, stage):
        config = write_config(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text(f"maxgain-checkpoint v1\nstages 1\n{stage}\n")
        assert main(["gain-report", str(bad), str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{stage.split()[1]} stage" in err


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

    def test_protocol_size_mismatch(self, tmp_path):
        config = self.fold_args(tmp_path)
        folds_path = tmp_path / "folds.json"
        doc = {"format": "maxgain-folds", "version": 1, "n_instances": 10,
               "folds": [{"train": [0, 1], "test": [2]}]}
        folds_path.write_text(json.dumps(doc))
        assert main(["folds", str(config), "--folds-file", str(folds_path)]) == 2

    def test_missing_folds_section(self, tmp_path):
        config = write_config(tmp_path, test_dataset=None)
        assert main(["folds", str(config)]) == 2


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

    def test_identical_scores_are_degenerate(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_scores(a, [(0, 0.9), (1, 0.8)])
        write_scores(b, [(0, 0.9), (1, 0.8)])
        assert main(["ttest", str(a), str(b)]) == 2

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
