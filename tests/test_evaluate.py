"""The paired t-test and its incomplete-beta engine, gain reports, and what
an eval pass holds."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from maxgain import (
    BatchNorm,
    ConfigError,
    Conv2d,
    DegenerateSampleError,
    Dense,
    EmptySampleError,
    Flatten,
    InvalidValueError,
    MaxPool2d,
    Network,
    ReLU,
    ResidualBlock,
    ShapeError,
    batch_max_gain,
    forward,
    gain_report,
    gain_stats,
    make_rng,
    paired_t_test,
    per_layer_gains,
    synth_blobs,
)
from maxgain import evaluate
from maxgain.evaluate import eval_metrics, regularized_incomplete_beta
from oracles import keep_pair, paired_t_oracle

mpmath.mp.dps = 50


class TestRegularizedIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case_is_the_identity(self):
        # I_x(1, 1) = x
        for x in (0.1, 0.5, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, rel=1e-14)

    def test_symmetry(self):
        rng = make_rng(0)
        for _ in range(200):
            a, b = rng.uniform(0.1, 20.0, size=2)
            x = rng.uniform(0.0, 1.0)
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 101)
        vals = [regularized_incomplete_beta(3.0, 0.5, x) for x in xs]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_against_mpmath(self):
        rng = make_rng(1)
        worst = 0.0
        for _ in range(300):
            a = float(rng.uniform(0.05, 50.0))
            b = float(rng.uniform(0.05, 50.0))
            x = float(rng.uniform(0.0, 1.0))
            got = regularized_incomplete_beta(a, b, x)
            want = float(mpmath.betainc(a, b, 0, x, regularized=True))
            worst = max(worst, abs(got - want))
        assert worst < 1e-12

    def test_half_degree_shapes_used_by_the_t_test(self):
        # the t-test always calls with b = 1/2 and a = df/2
        for df in (1, 2, 3, 10, 100):
            for t in (0.5, 2.0, 7.84):
                x = df / (df + t * t)
                got = regularized_incomplete_beta(df / 2.0, 0.5, x)
                want = float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2,
                                            0, mpmath.mpf(repr(x)), regularized=True))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_domain_validation(self):
        with pytest.raises(InvalidValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(InvalidValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestPairedTTest:
    def test_worked_example(self):
        # differences 0.5, 0.7, 0.3, 0.5, 0.6
        a = np.array([0.9, 0.9, 0.8, 0.9, 0.9])
        b = np.array([0.4, 0.2, 0.5, 0.4, 0.3])
        res = paired_t_test(a, b)
        assert res.df == 4
        assert res.t == pytest.approx(7.8392949590218542, rel=1e-12)
        assert res.p == pytest.approx(0.0014300133813439161, rel=1e-10)

    def test_zero_mean_differences(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = a + np.array([0.25, -0.25, 0.25, -0.25])
        res = paired_t_test(a, b)
        assert res.t == 0.0
        assert res.p == 1.0

    def test_antisymmetry_is_exact(self):
        rng = make_rng(2)
        for _ in range(100):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            fwd = paired_t_test(a, b)
            rev = paired_t_test(b, a)
            assert fwd.t == -rev.t
            assert fwd.p == rev.p

    def test_shift_invariance(self):
        rng = make_rng(3)
        for _ in range(100):
            b = rng.normal(size=8)
            a = b + rng.normal(size=8)
            c = float(rng.normal() * 10)
            plain = paired_t_test(a, b)
            shifted = paired_t_test(a + c, b + c)
            assert shifted.t == pytest.approx(plain.t, rel=1e-12, abs=1e-12)

    def test_matches_high_precision_oracle(self):
        rng = make_rng(4)
        for _ in range(25):
            k = int(rng.integers(3, 12))
            b = rng.normal(size=k)
            a = b + rng.normal(size=k) * 0.3 + 0.2
            res = paired_t_test(a, b)
            t_want, p_want = paired_t_oracle(a, b)
            assert abs(res.t - t_want) <= 1e-9
            assert abs(res.p - p_want) <= 1e-9

    def test_degenerate_differences(self):
        a = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DegenerateSampleError):
            paired_t_test(a, a)
        with pytest.raises(DegenerateSampleError):
            paired_t_test(a + 0.5, a)  # constant nonzero difference

    def test_sample_size(self):
        with pytest.raises(EmptySampleError):
            paired_t_test(np.array([1.0]), np.array([0.5]))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            paired_t_test(np.ones(3), np.ones(4))

    def test_non_finite_scores(self):
        with pytest.raises(InvalidValueError):
            paired_t_test(np.array([1.0, math.inf, 2.0]), np.zeros(3))


def tiny_net(seed):
    rng = make_rng(seed)
    return Network([
        Dense(rng.normal(size=(8, 2)), rng.normal(size=8)), ReLU(),
        Dense(rng.normal(size=(2, 8)), rng.normal(size=2)),
    ])


class TestGainReports:
    def test_per_layer_gains_match_direct_measurement(self, monkeypatch):
        net = tiny_net(5)
        data = synth_blobs(40, make_rng(6), centers=[(0.0, 0.0), (2.0, 2.0)])
        monkeypatch.setattr(evaluate, "_EVAL_BATCH", 16)
        gains = per_layer_gains(net, data.x, 2)
        assert len(gains) == 2
        _, caches = forward(net, data.x, "eval", gain=keep_pair)
        for j in range(len(net.learned_layers())):
            assert gains[j].max() == pytest.approx(
                batch_max_gain(*caches.gains[j], 2), rel=1e-12)
            assert gains[j].shape == (40,)

    def test_per_layer_gains_batch_size_invariant(self, monkeypatch):
        net = tiny_net(7)
        data = synth_blobs(30, make_rng(8), centers=[(0.0, 0.0), (2.0, 2.0)])
        monkeypatch.setattr(evaluate, "_EVAL_BATCH", 7)
        a = per_layer_gains(net, data.x, 1)
        monkeypatch.setattr(evaluate, "_EVAL_BATCH", 1000)
        b = per_layer_gains(net, data.x, 1)
        for ga, gb in zip(a, b):
            np.testing.assert_array_equal(ga, gb)

    def test_per_layer_gains_rejects_empty_split(self):
        with pytest.raises(EmptySampleError):
            per_layer_gains(tiny_net(8), np.zeros((0, 2)), 2)

    def test_report_layout(self):
        net = tiny_net(9)
        train = synth_blobs(24, make_rng(10), centers=[(0.0, 0.0), (2.0, 2.0)])
        test = synth_blobs(12, make_rng(11), centers=[(0.0, 0.0), (2.0, 2.0)])
        report = gain_report(net, train, test, 2)
        lines = report.to_text().splitlines()
        assert lines[0] == "layer_index\tsplit\tn\tmin\tlq\tmedian\tuq\tmax"
        assert len(lines) == 5  # header + 2 layers x 2 splits
        keys = [tuple(l.split("\t")[:2]) for l in lines[1:]]
        assert keys == [("0", "test"), ("0", "train"), ("1", "test"), ("1", "train")]
        for line in lines[1:]:
            fields = line.split("\t")
            assert int(fields[2]) in (24, 12)
            mins, lq, med, uq, maxs = map(float, fields[3:])
            assert mins <= lq <= med <= uq <= maxs

    def test_report_stats_agree_with_gain_stats(self):
        net = tiny_net(12)
        train = synth_blobs(20, make_rng(13), centers=[(0.0, 0.0), (2.0, 2.0)])
        report = gain_report(net, train, None, 2)
        gains = per_layer_gains(net, train.x, 2)
        for row, g in zip(report.rows, gains):
            assert row.stats == gain_stats(g)
            assert row.split == "train"

    def test_split_the_network_cannot_take_is_named_before_any_pass(self, monkeypatch):
        net = tiny_net(16)
        train = synth_blobs(16, make_rng(17), centers=[(0.0, 0.0), (2.0, 2.0)])
        test = synth_blobs(8, make_rng(18), centers=[(0.0, 0.0, 0.0), (2.0, 2.0, 2.0)])
        passes = []
        monkeypatch.setattr(evaluate, "forward",
                            lambda *args, **kwargs: passes.append(args) or forward(*args, **kwargs))
        with pytest.raises(ConfigError, match=r"^bad test split: dense expects shape \(2,\), got \(3,\)$"):
            gain_report(net, train, test, 2)
        assert passes == []

    def test_identical_splits_yield_identical_stats(self):
        net = tiny_net(14)
        data = synth_blobs(16, make_rng(15), centers=[(0.0, 0.0), (2.0, 2.0)])
        report = gain_report(net, data, data, 2)
        by_layer = {}
        for row in report.rows:
            by_layer.setdefault(row.layer_index, []).append(row.stats)
        for stats in by_layer.values():
            assert stats[0] == stats[1]


def traced_peak(run):
    """Peak bytes tracemalloc sees while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_metrics_holds_no_more_than_a_gain_pass():
    # both run the same measured eval forward, and eval_metrics measures
    # nothing, so it holds no layer's linear output past its stage: on 64
    # 8x16x16 images it peaks at 3.2 input batches against per_layer_gains'
    # 3.5; keeping every layer's (x, z) pair until the loss would take 12.0
    rng = make_rng(31)

    def conv():
        return Conv2d(0.2 * rng.normal(size=(8, 8, 3, 3)), np.zeros(8), pad=1)

    net = Network([conv(), BatchNorm(np.ones(8), np.zeros(8)), ReLU(),
                   ResidualBlock([conv(), BatchNorm(np.ones(8), np.zeros(8)), ReLU(), conv()]),
                   ReLU(), MaxPool2d(2), Flatten(), Dense(0.01 * rng.normal(size=(3, 512)), np.zeros(3))])
    x, y = rng.normal(size=(64, 8, 16, 16)), rng.integers(0, 3, size=64)
    slack = x.nbytes // 4  # the loss's and the gain norms' small temporaries
    metrics = traced_peak(lambda: eval_metrics(net, x, y))
    gains = traced_peak(lambda: per_layer_gains(net, x, 2))
    assert metrics <= gains + slack, f"{metrics / x.nbytes:.2f} against {gains / x.nbytes:.2f} input batches"
