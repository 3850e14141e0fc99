"""Optimizers, the projection step, and the training loop."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maxgain import (
    Adam,
    BatchNorm,
    ConfigError,
    Conv2d,
    Dataset,
    Dense,
    DivergenceError,
    EmptySampleError,
    Flatten,
    InvalidValueError,
    MaxGainConfig,
    Network,
    ReLU,
    ResidualBlock,
    Schedule,
    ShapeError,
    SgdNesterov,
    augment,
    backward,
    batch_max_gain,
    build_network,
    eval_metrics,
    fit,
    forward,
    init_weights,
    make_rng,
    network_to_text,
    project,
    projection_scale,
    softmax_cross_entropy,
    synth_blobs,
    train_step,
)
from maxgain import evaluate, optim, tensor
from oracles import AdamOracle, SgdNesterovOracle, train_step_oracle


def small_mlp(seed, n_in=2, hidden=16, n_out=2):
    rng = make_rng(seed)
    return Network([
        Dense(init_weights((hidden, n_in), "he-normal", rng), np.zeros(hidden)),
        ReLU(),
        Dense(init_weights((n_out, hidden), "he-normal", rng), np.zeros(n_out)),
    ])


def blob_data(seed, n=64):
    return synth_blobs(n, make_rng(seed), centers=[(-2.0, -2.0), (2.0, 2.0)], sd=0.5)


class TestProject:
    def test_within_budget_returns_the_same_object(self):
        w = np.ones((2, 2))
        assert project(w, 1.9, 2.0) is w
        assert project(w, 2.0, 2.0) is w
        assert project(w, 0.0, 2.0) is w

    def test_halves_weights_when_gain_is_double(self):
        w = np.array([[4.0, -2.0]])
        out = project(w, 4.0, 2.0)
        np.testing.assert_array_equal(out, [[2.0, -1.0]])

    def test_scale_formula(self):
        assert projection_scale(1.0, 2.0) == 1.0
        assert projection_scale(4.0, 2.0) == 0.5
        assert projection_scale(3.0, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_projected_dense_gain_lands_on_gamma(self):
        rng = make_rng(0)
        layer = Dense(rng.normal(size=(4, 4)) * 3.0, np.zeros(4))
        x = rng.normal(size=(8, 4))
        zs = x @ layer.w.T
        gh = batch_max_gain(x, zs, 2)
        assert gh > 1.0
        layer.w = project(layer.w, gh, 1.0)
        new_gh = batch_max_gain(x, x @ layer.w.T, 2)
        assert new_gh == pytest.approx(1.0, rel=1e-12)

    def test_invalid_arguments(self):
        w = np.ones((1, 1))
        with pytest.raises(InvalidValueError):
            project(w, -0.5, 1.0)
        with pytest.raises(InvalidValueError):
            project(w, math.nan, 1.0)
        with pytest.raises(InvalidValueError):
            project(w, 1.0, 0.0)
        with pytest.raises(InvalidValueError):
            project(w, 1.0, math.inf)


class TestMaxGainConfig:
    def test_shared_gamma(self):
        cfg = MaxGainConfig(gamma=2.0, p=2)
        assert cfg.gamma_for(0) == 2.0
        assert cfg.gamma_for(7) == 2.0

    def test_validation(self):
        with pytest.raises(InvalidValueError):
            MaxGainConfig(gamma=0.0)
        with pytest.raises(InvalidValueError):
            MaxGainConfig(gamma=math.inf)
        with pytest.raises(InvalidValueError):
            MaxGainConfig(gamma=1.0, p=3)


class TestSgdNesterov:
    def test_scalar_recurrence(self):
        opt = SgdNesterov(momentum=0.9)
        p = np.array([1.0])
        v = 0.0
        q = 1.0
        for g in (0.5, -0.2, 0.1, 0.3):
            opt.update([p], np.array([g]), 0.1)
            v = 0.9 * v + g
            q = q - 0.1 * (g + 0.9 * v)
            assert p[0] == pytest.approx(q, rel=1e-15)

    def test_zero_momentum_is_plain_sgd(self):
        opt = SgdNesterov(momentum=0.0)
        p = np.array([2.0])
        opt.update([p], np.array([0.5]), 0.1)
        assert p[0] == pytest.approx(2.0 - 0.05, rel=1e-15)
        opt.update([p], np.array([0.5]), 0.1)
        assert p[0] == pytest.approx(2.0 - 0.10, rel=1e-15)

    def test_velocity_is_per_parameter(self):
        opt = SgdNesterov(momentum=0.9)
        a, b = np.zeros(1), np.zeros(1)
        opt.update([a, b], np.array([1.0, 0.0]), 0.1)
        opt.update([a, b], np.array([1.0, 1.0]), 0.1)
        # b's first nonzero gradient meets b's zero velocity, not a's
        assert b[0] == pytest.approx(-0.1 * 1.9, rel=1e-15)

    def test_momentum_domain(self):
        with pytest.raises(InvalidValueError):
            SgdNesterov(momentum=1.0)
        with pytest.raises(InvalidValueError):
            SgdNesterov(momentum=-0.1)


class TestAdam:
    def test_first_step_moves_by_almost_lr(self):
        opt = Adam()
        p = np.array([1.0])
        opt.update([p], np.array([1.0]), 0.001)
        assert p[0] == pytest.approx(1.0 - 0.001 * 1.0 / (1.0 + 1e-8), rel=1e-15)

    def test_constant_gradient_steps_at_unit_speed(self):
        # with g fixed, bias correction makes mhat = g and vhat = g*g exactly,
        # so every step moves by about lr regardless of |g|
        for g in (0.01, 5.0):
            opt = Adam()
            p = np.array([0.0])
            for _ in range(10):
                opt.update([p], np.array([g]), 0.01)
            assert p[0] == pytest.approx(-0.1, rel=1e-5)

    def test_step_counter_shared_across_parameters(self):
        opt = Adam()
        a, b = np.zeros(1), np.zeros(1)
        opt.update([a, b], np.ones(2), 0.001)
        # same t, same gradient, same fresh moments: identical moves
        assert a[0] == b[0]
        assert opt.t == 1

    def test_scalar_recurrence(self):
        opt = Adam()
        p = np.array([0.5])
        m = v = 0.0
        q = 0.5
        for t, g in enumerate((0.3, -0.6, 0.2), start=1):
            opt.update([p], np.array([g]), 0.05)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1.0 - 0.9 ** t)
            vhat = v / (1.0 - 0.999 ** t)
            q = q - 0.05 * mhat / (math.sqrt(vhat) + 1e-8)
            assert p[0] == pytest.approx(q, rel=1e-14)


# Signed zeros, magnitudes whose square underflows to 0 and ordinary values
# of both signs: where a reordered operation or a dropped copy changes bits.
FLAT_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
                        st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def flat_updates(draw):
    """(initial arrays, [(per-array gradients, lr)] per step): one to four
    arrays of rank 1-3 and one to four steps, lr 0 among the rates."""
    shapes = draw(st.lists(hnp.array_shapes(min_dims=1, max_dims=3, max_side=3), min_size=1, max_size=4))
    params = [draw(hnp.arrays(np.float64, shape, elements=FLAT_VALUES)) for shape in shapes]
    steps = draw(st.lists(st.tuples(
        st.tuples(*[hnp.arrays(np.float64, shape, elements=FLAT_VALUES) for shape in shapes]),
        st.sampled_from([0.0, 1e-3, 0.1, 2.5])), min_size=1, max_size=4))
    return params, steps


@pytest.mark.parametrize("make, make_oracle", [
    (Adam, AdamOracle),
    (lambda: SgdNesterov(0.9), lambda: SgdNesterovOracle(0.9)),
    (lambda: SgdNesterov(0.0), lambda: SgdNesterovOracle(0.0)),
], ids=["adam", "sgd", "sgd-no-momentum"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=flat_updates())
def test_flat_update_is_bitwise_the_per_array_oracle(make, make_oracle, case):
    params, steps = case
    ours = [p.copy() for p in params]
    theirs = [p.copy() for p in params]
    opt, oracle = make(), make_oracle()
    for grads, lr in steps:
        opt.update(ours, np.concatenate([g.ravel() for g in grads]), lr)
        oracle.begin_step()
        theirs = [oracle.update((i, "w"), p, g, lr) for i, (p, g) in enumerate(zip(theirs, grads))]
        assert [p.tobytes() for p in ours] == [p.tobytes() for p in theirs]


class TestSchedule:
    def test_flat(self):
        s = Schedule(0.1)
        assert s.lr_at(1) == s.lr_at(50) == 0.1

    def test_drops_compound_from_their_epoch(self):
        s = Schedule(1.0, drops=((3, 0.1), (5, 0.5)))
        assert s.lr_at(1) == 1.0
        assert s.lr_at(2) == 1.0
        assert s.lr_at(3) == pytest.approx(0.1)
        assert s.lr_at(4) == pytest.approx(0.1)
        assert s.lr_at(5) == pytest.approx(0.05)
        assert s.lr_at(9) == pytest.approx(0.05)

    def test_epochs_are_one_based(self):
        s = Schedule(1.0, drops=((1, 0.5),))
        assert s.lr_at(1) == 0.5

    def test_validation(self):
        with pytest.raises(InvalidValueError):
            Schedule(-1.0)
        with pytest.raises(InvalidValueError):
            Schedule(1.0, drops=((0, 0.5),))
        with pytest.raises(InvalidValueError):
            Schedule(1.0, drops=((2, 0.0),))


class TestTrainStep:
    def test_zero_lr_leaves_weights_bitwise_unchanged(self):
        net = small_mlp(0)
        before = network_to_text(net)
        data = blob_data(1, n=16)
        report = train_step(net, data.x, data.y, SgdNesterov(0.0), 0.0)
        assert network_to_text(net) == before
        assert math.isfinite(report.loss)
        assert report.batch_size == 16
        assert 0 <= report.n_correct <= 16
        assert report.gamma_hats is None

    def test_gamma_hat_measured_at_pre_update_weights(self):
        net = small_mlp(2)
        w_before = [layer.w.copy() for layer in net.learned_layers()]
        data = blob_data(3, n=8)
        cfg = MaxGainConfig(gamma=1e9, p=2)  # huge gamma: measure, never project
        report = train_step(net, data.x, data.y, SgdNesterov(0.0), 5.0, maxgain=cfg)
        # recompute what the gains were for the old weights on this batch
        _, caches = forward(Network([Dense(w_before[0], np.zeros(16)), ReLU(),
                                     Dense(w_before[1], np.zeros(2))]),
                            data.x, "train")
        for j, layer_caches in enumerate(zip(caches.xs, caches.zs)):
            xs, zs = layer_caches
            expected = float(np.max(np.linalg.norm(zs, axis=1)
                                    / np.linalg.norm(xs.reshape(xs.shape[0], -1), axis=1)))
            assert report.gamma_hats[j] == pytest.approx(expected, rel=1e-12)
        # and the big lr really moved the weights, so post-update gains differ
        for j, layer in enumerate(net.learned_layers()):
            post = batch_max_gain(caches.xs[j], caches.xs[j] @ layer.w.T, 2)
            assert post != pytest.approx(report.gamma_hats[j], rel=1e-6)

    def test_projection_applies_to_post_update_weights(self):
        net = small_mlp(4)
        twin = copy.deepcopy(net)
        data = blob_data(5, n=8)
        gamma = 0.25
        report = train_step(net, data.x, data.y, SgdNesterov(0.0), 0.5,
                            maxgain=MaxGainConfig(gamma=gamma, p=2))
        # replay by hand on the twin: update first, then scale by the report's
        # gamma_hat against gamma
        logits, caches = forward(twin, data.x, "train")
        _, loss_grad = softmax_cross_entropy(logits, data.y)
        grads = backward(twin, caches, loss_grad)
        for j, (layer, pg) in enumerate(zip(twin.learned_layers(), grads.by_layer)):
            layer.w = layer.w - 0.5 * pg["w"]
            layer.b = layer.b - 0.5 * pg["b"]
            layer.w = project(layer.w, report.gamma_hats[j], gamma)
        for ours, theirs in zip(net.learned_layers(), twin.learned_layers()):
            np.testing.assert_array_equal(ours.w, theirs.w)
            np.testing.assert_array_equal(ours.b, theirs.b)

    def test_bias_is_never_projected(self):
        net = small_mlp(6)
        data = blob_data(7, n=8)
        twin = copy.deepcopy(net)
        train_step(net, data.x, data.y, SgdNesterov(0.0), 0.1,
                   maxgain=MaxGainConfig(gamma=1e-6, p=2))
        train_step(twin, data.x, data.y, SgdNesterov(0.0), 0.1)
        # despite the brutal gamma, biases match the unconstrained run exactly
        for ours, theirs in zip(net.learned_layers(), twin.learned_layers()):
            np.testing.assert_array_equal(ours.b, theirs.b)
            assert np.abs(ours.w).sum() < np.abs(theirs.w).sum()

    def test_off_equals_enormous_gamma_bitwise(self):
        net_off = small_mlp(8)
        net_on = copy.deepcopy(net_off)
        data = blob_data(9, n=32)
        opt_off, opt_on = Adam(), Adam()
        cfg = MaxGainConfig(gamma=1e9, p=2)
        for start in range(0, 32, 8):
            xb = data.x[start:start + 8]
            yb = data.y[start:start + 8]
            train_step(net_off, xb, yb, opt_off, 1e-3)
            train_step(net_on, xb, yb, opt_on, 1e-3, maxgain=cfg)
        assert network_to_text(net_off) == network_to_text(net_on)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises(self):
        net = small_mlp(10)
        net.stages[0].w = net.stages[0].w * 0.0 + 1e308
        data = blob_data(11, n=8)
        with pytest.raises(DivergenceError):
            train_step(net, data.x, data.y, SgdNesterov(0.0), 0.1)

    def test_finite_logits_are_scanned_once(self, monkeypatch):
        # the loss's finiteness check is the only scan of the logits
        scanned, seen = [], []

        def capture(*args, **kwargs):
            out = forward(*args, **kwargs)
            seen.append(out[0])
            return out

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def isfinite(self, a, *args, **kwargs):
                if seen and np.shares_memory(a, seen[-1]):
                    scanned.append(a.shape)
                return np.isfinite(a, *args, **kwargs)

        monkeypatch.setattr(optim, "forward", capture)
        monkeypatch.setattr(optim, "np", CountingNumpy())
        monkeypatch.setattr(tensor, "np", CountingNumpy())
        data = blob_data(12, n=8)
        train_step(small_mlp(12, n_in=2, n_out=3), data.x, data.y, SgdNesterov(0.0), 0.1)
        assert scanned == [(8, 3)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_logits_raise_divergence(self):
        net = small_mlp(13)
        data = blob_data(14, n=8)
        with pytest.raises(DivergenceError, match="^non-finite logits$"):
            train_step(net, np.full_like(data.x, 1e308), data.y, SgdNesterov(0.0), 0.1)
        # non-finite logits win over bad labels, as when they were scanned first
        with pytest.raises(DivergenceError, match="^non-finite logits$"):
            train_step(net, np.full_like(data.x, 1e308), data.y.astype(float), SgdNesterov(0.0), 0.1)
        with pytest.raises(InvalidValueError, match="logits contains non-finite values"):
            softmax_cross_entropy(np.array([[0.0, np.inf]]), np.array([0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_logits_with_an_infinite_loss_raise_divergence(self):
        # logits of +-1e308 are finite, but the true class trails by 2e308
        net = Network([Dense(np.array([[1e308], [-1e308]]), np.zeros(2))])
        before = network_to_text(net)
        with pytest.raises(DivergenceError, match="^non-finite training loss inf$"):
            train_step(net, np.array([[1.0], [1.0]]), np.array([1, 1]), SgdNesterov(0.0), 0.1)
        assert network_to_text(net) == before

    @pytest.mark.parametrize("labels, error", [
        (np.array([0.0, 1.0, 0.0, 1.0]), InvalidValueError),
        (np.array([0, 2, 0, 1]), IndexError),
        (np.array([0, 1, 0]), ShapeError)], ids=["float", "out-of-range", "short"])
    def test_bad_labels_keep_their_error_type(self, labels, error):
        data = blob_data(15, n=4)
        net = small_mlp(15)
        before = network_to_text(net)
        with pytest.raises(error):
            train_step(net, data.x, labels, SgdNesterov(0.0), 0.1)
        assert network_to_text(net) == before

    def test_non_finite_gradient_names_the_array(self, monkeypatch):
        calls = [0]

        def poisoned(net, caches, loss_grad):
            grads = backward(net, caches, loss_grad)
            calls[0] += 1
            if calls[0] == 3:
                grads.by_layer[1]["b"][1] = math.inf
            return grads

        data = blob_data(36, n=16)  # 2 steps per epoch at batch 8
        after_epoch_1 = small_mlp(37)
        fit(after_epoch_1, data, optimizer=Adam(), schedule=Schedule(0.01), epochs=1, batch_size=8)
        monkeypatch.setattr(optim, "backward", poisoned)
        net = small_mlp(37)
        with pytest.raises(DivergenceError) as err:
            fit(net, data, optimizer=Adam(), schedule=Schedule(0.01), epochs=3, batch_size=8)
        assert str(err.value) == "non-finite gradient of layer 1 'b' at step 3 (epoch 2)"
        assert err.value.step == 3
        # the failing step updated nothing
        assert network_to_text(net) == network_to_text(after_epoch_1)

    def test_training_leaves_the_callers_arrays_alone(self):
        rng = make_rng(38)
        given_arrays = [rng.normal(size=(2, 1, 2, 2)), rng.normal(size=2), rng.normal(size=2) + 1.0,
                        rng.normal(size=2), rng.normal(size=(2, 8)), rng.normal(size=2)]
        kept = [a.copy() for a in given_arrays]
        kernel, conv_b, alpha, beta, w, b = given_arrays
        net = Network([Conv2d(kernel, conv_b), BatchNorm(alpha, beta), Flatten(), Dense(w, b)])
        train_step(net, rng.normal(size=(6, 1, 3, 3)), rng.integers(0, 2, size=6), Adam(), 0.1,
                   maxgain=MaxGainConfig(gamma=0.5))
        for a, b in zip(given_arrays, kept):
            assert a.tobytes() == b.tobytes()
        # while the stages' own weights did move
        for layer, before in zip(net.learned_layers(), (kernel, alpha, w)):
            assert not np.array_equal(getattr(layer, layer.weight_param), before)

    @staticmethod
    def first_stage_nets(rng):
        """(net, the convs whose input gradient a step computes, x) per first
        stage kind: conv, dense, batchnorm and a residual block whose two
        branches both open with a conv."""
        def conv(i, o, k=3):
            return Conv2d(rng.normal(size=(o, i, k, k)), np.zeros(o), pad=k // 2)

        head = [Flatten(), Dense(rng.normal(size=(2, 2 * 4 * 4)), np.zeros(2))]
        images = rng.normal(size=(4, 1, 4, 4))
        c1, c2, c3, c4, c5, c6 = conv(1, 2), conv(2, 2), conv(1, 2), conv(2, 2), conv(1, 2, 1), conv(1, 2)
        return [
            (Network([c1, ReLU(), c2] + head), [c2], images),
            (Network([ResidualBlock([c3, ReLU(), c4], [c5])] + head), [c4], images),
            (Network([BatchNorm(np.ones(1), np.zeros(1)), c6] + head), [c6], images),
            (small_mlp(45), [], rng.normal(size=(4, 2))),
        ]

    def test_the_input_gradient_of_the_batch_is_never_computed(self, monkeypatch):
        ran = []
        grad_input = Conv2d._grad_input
        monkeypatch.setattr(Conv2d, "_grad_input", lambda st, *a: ran.append(st) or grad_input(st, *a))
        for net, computed, x in self.first_stage_nets(make_rng(46)):
            asked = []

            def spy(*args, backward=net.stages[0].backward, **kwargs):
                out = backward(*args, **kwargs)
                asked.append((kwargs, out[0]))
                return out

            net.stages[0].backward = spy
            ran.clear()
            train_step(net, x, np.array([0, 1, 1, 0]), SgdNesterov(0.9), 0.1,
                       maxgain=MaxGainConfig(gamma=0.5))
            assert asked == [({"input_grad": False}, None)]
            assert ran == computed

    def test_weights_are_written_back_only_when_projected(self, monkeypatch):
        net = small_mlp(47)
        data = blob_data(48, n=8)
        weights = [layer.w for layer in net.learned_layers()]
        written = []
        copyto = np.copyto
        monkeypatch.setattr(np, "copyto", lambda dst, *a, **k: written.append(
            any(dst is w for w in weights)) or copyto(dst, *a, **k))
        train_step(net, data.x, data.y, SgdNesterov(0.9), 0.1, maxgain=MaxGainConfig(gamma=1e9))
        assert not any(written)
        report = train_step(net, data.x, data.y, SgdNesterov(0.9), 0.1, maxgain=MaxGainConfig(gamma=1e-3))
        assert all(scale < 1.0 for scale in report.scales)
        assert sum(written) == len(weights)


# 6x6 one-channel images: conv, batchnorm, a residual block, pooling and
# dropout, then a dense layer on 3 x 3 x 3 features
SGD_CNN = {"model": [
    {"type": "conv", "in": 1, "out": 3, "kernel": 3, "pad": 1},
    {"type": "batchnorm", "channels": 3}, {"type": "relu"},
    {"type": "residual", "main": [
        {"type": "conv", "in": 3, "out": 3, "kernel": 3, "pad": 1},
        {"type": "batchnorm", "channels": 3}, {"type": "relu"},
        {"type": "conv", "in": 3, "out": 3, "kernel": 3, "pad": 1}]},
    {"type": "maxpool", "kernel": 2}, {"type": "dropout", "rate": 0.3},
    {"type": "flatten"}, {"type": "dense", "in": 27, "out": 2}]}


def oracle_case(name, flat):
    """(net, fit keyword arguments) of a fit-level oracle comparison; flat
    picks the library's optimizer, else the per-array oracle."""
    if name == "adam-mlp":
        return small_mlp(40), dict(
            train=blob_data(41, n=48), test=blob_data(42, n=16), schedule=Schedule(0.01),
            optimizer=Adam() if flat else AdamOracle(), maxgain=MaxGainConfig(gamma=1.0, p=2))
    rng = make_rng(43)
    return build_network(SGD_CNN, make_rng(44)), dict(
        train=Dataset(rng.normal(size=(48, 1, 6, 6)), rng.integers(0, 2, size=48), 2),
        test=Dataset(rng.normal(size=(16, 1, 6, 6)), rng.integers(0, 2, size=16), 2),
        schedule=Schedule(0.05), optimizer=SgdNesterov(0.9) if flat else SgdNesterovOracle(0.9),
        maxgain=MaxGainConfig(gamma=1.2, p=math.inf),
        augment_fn=lambda xb, r: augment(xb, r, flip=True, pad=1))


class TestFit:
    @pytest.mark.parametrize("name", ["adam-mlp", "sgd-cnn"])
    def test_fit_is_bitwise_the_per_array_oracle(self, monkeypatch, name):
        runs = []
        for flat in (True, False):
            if not flat:
                monkeypatch.setattr(optim, "train_step", train_step_oracle)
            net, kw = oracle_case(name, flat)
            train = kw.pop("train")
            ledger = fit(net, train, epochs=3, batch_size=16, seed=5, **kw)
            runs.append((ledger.to_text(), network_to_text(net)))
            # the projection really rescaled weights, so both paths ran
            assert any(s < 1.0 for r in ledger.records if r.scale_min for s in r.scale_min)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("make", [Adam, lambda: SgdNesterov(0.9)], ids=["adam", "sgd"])
    def test_deepcopy_mid_run_continues_identically(self, make):
        data = blob_data(45, n=48)
        batches = [(data.x[i:i + 8], data.y[i:i + 8]) for i in range(0, 48, 8)]
        cfg = MaxGainConfig(gamma=1.0, p=2)
        net, opt = small_mlp(46), make()
        straight, straight_opt = small_mlp(46), make()
        for xb, yb in batches[:3]:
            train_step(net, xb, yb, opt, 0.01, maxgain=cfg)
            train_step(straight, xb, yb, straight_opt, 0.01, maxgain=cfg)
        twin, twin_opt = copy.deepcopy((net, opt))
        at_copy = network_to_text(twin)
        for xb, yb in batches[3:]:
            train_step(net, xb, yb, opt, 0.01, maxgain=cfg)
            train_step(twin, xb, yb, twin_opt, 0.01, maxgain=cfg)
            train_step(straight, xb, yb, straight_opt, 0.01, maxgain=cfg)
        assert network_to_text(twin) == network_to_text(net) == network_to_text(straight) != at_copy

    @pytest.mark.parametrize("n, batch_size, need, smallest", [(33, 16, 2, 1), (1, 16, 2, 1), (35, 16, 4, 3)])
    def test_batch_below_a_stages_minimum_is_refused_before_the_first_step(
            self, monkeypatch, n, batch_size, need, smallest):
        rng = make_rng(50)
        net = Network([Dense(init_weights((4, 2), "he-normal", rng), np.zeros(4)),
                       BatchNorm(np.ones(4), np.zeros(4)), ReLU(),
                       Dense(init_weights((2, 4), "he-normal", rng), np.zeros(2))])
        monkeypatch.setattr(BatchNorm, "min_batch", need)
        monkeypatch.setattr(optim, "train_step", lambda *args, **kwargs: pytest.fail("stepped"))
        with pytest.raises(ConfigError) as err:
            fit(net, blob_data(51, n=n), optimizer=Adam(), schedule=Schedule(0.01),
                epochs=1, batch_size=batch_size)
        assert str(err.value) == (f"{n} training instances at batch_size {batch_size} leave a batch of "
                                  f"{smallest}, but the model needs train batches of at least {need}")

    @pytest.mark.parametrize("batchnorm, n", [(True, 34), (True, 32), (False, 33)])
    def test_every_batch_at_a_stages_minimum_trains(self, batchnorm, n):
        rng = make_rng(52)
        stages = [Dense(init_weights((4, 2), "he-normal", rng), np.zeros(4)), ReLU(),
                  Dense(init_weights((2, 4), "he-normal", rng), np.zeros(2))]
        if batchnorm:
            stages.insert(1, BatchNorm(np.ones(4), np.zeros(4)))
        ledger = fit(Network(stages), blob_data(53, n=n), optimizer=Adam(), schedule=Schedule(0.01),
                     epochs=1, batch_size=16)
        assert [r.split for r in ledger.records] == ["train"]

    def test_separable_blobs_reach_full_accuracy(self):
        net = small_mlp(12)
        data = blob_data(13, n=128)
        ledger = fit(net, data, optimizer=Adam(), schedule=Schedule(0.01),
                     epochs=20, batch_size=32, seed=0)
        final_train = [r for r in ledger.records if r.split == "train"][-1]
        assert final_train.accuracy == 1.0
        assert final_train.loss < 0.1

    def test_identical_runs_produce_identical_bytes(self):
        results = []
        for _ in range(2):
            net = small_mlp(14)
            data = blob_data(15, n=64)
            ledger = fit(net, data, optimizer=Adam(), schedule=Schedule(0.005),
                         epochs=5, batch_size=16, seed=3, test=blob_data(16, n=32),
                         maxgain=MaxGainConfig(gamma=2.0, p=2))
            results.append((ledger.to_text(), network_to_text(net)))
        assert results[0] == results[1]

    def test_identical_conv_runs_produce_identical_bytes(self):
        # 8x8 images give 64 conv outputs each, so a batch of 24 spans two
        # blocks of Conv2d work (16 + 8 images)
        config = {"model": [
            {"type": "conv", "in": 3, "out": 4, "kernel": 3, "pad": 1},
            {"type": "batchnorm", "channels": 4}, {"type": "relu"},
            {"type": "residual", "main": [
                {"type": "conv", "in": 4, "out": 4, "kernel": 3, "pad": 1},
                {"type": "batchnorm", "channels": 4}, {"type": "relu"},
                {"type": "conv", "in": 4, "out": 4, "kernel": 3, "pad": 1}]},
            {"type": "maxpool", "kernel": 2}, {"type": "flatten"},
            {"type": "dense", "in": 64, "out": 2}]}
        rng = make_rng(18)
        data = Dataset(rng.normal(size=(48, 3, 8, 8)), rng.integers(0, 2, size=48), 2)
        test = Dataset(rng.normal(size=(16, 3, 8, 8)), rng.integers(0, 2, size=16), 2)
        results = []
        for _ in range(2):
            net = build_network(config, make_rng(19))
            ledger = fit(net, data, optimizer=Adam(), schedule=Schedule(0.01),
                         epochs=2, batch_size=24, seed=4, test=test,
                         maxgain=MaxGainConfig(gamma=2.0, p=2))
            results.append((ledger.to_text(), network_to_text(net)))
        assert results[0] == results[1]

    def test_ledger_row_shapes(self):
        net = small_mlp(17)
        data = blob_data(18, n=32)
        ledger = fit(net, data, optimizer=SgdNesterov(), schedule=Schedule(0.01),
                     epochs=3, batch_size=16, seed=0, test=blob_data(19, n=16),
                     maxgain=MaxGainConfig(gamma=2.0, p=2))
        lines = ledger.to_text().splitlines()
        assert len(lines) == 6  # train + test per epoch
        for i, line in enumerate(lines):
            fields = line.split("\t")
            if i % 2 == 0:
                assert fields[1] == "train"
                assert len(fields) == 4 + 2 * 2  # two learned layers
            else:
                assert fields[1] == "test"
                assert len(fields) == 4
        # epochs count up and floats parse back
        assert [int(l.split("\t")[0]) for l in lines] == [1, 1, 2, 2, 3, 3]
        for line in lines:
            for tok in line.split("\t")[2:]:
                float(tok)

    def test_maxgain_columns_track_projection(self):
        net = small_mlp(20)
        data = blob_data(21, n=64)
        ledger = fit(net, data, optimizer=Adam(), schedule=Schedule(0.01),
                     epochs=5, batch_size=16, seed=1,
                     maxgain=MaxGainConfig(gamma=0.5, p=2))
        for r in ledger.records:
            assert len(r.gamma_hat_max) == 2
            assert len(r.scale_min) == 2
            for gh, sc in zip(r.gamma_hat_max, r.scale_min):
                assert gh >= 0.0
                assert 0.0 < sc <= 1.0
                assert sc == pytest.approx(min(1.0, 0.5 / gh) if gh > 0.5 else sc)
        # a tight gamma on freshly initialized weights must actually clip
        assert any(s < 1.0 for r in ledger.records for s in r.scale_min)

    def test_schedule_drop_takes_effect_at_its_epoch(self):
        data = blob_data(22, n=32)
        net_flat = small_mlp(23)
        flat = fit(net_flat, data, optimizer=SgdNesterov(0.0), schedule=Schedule(0.05),
                   epochs=2, batch_size=8, seed=5)
        net_drop = small_mlp(23)
        dropped = fit(net_drop, data, optimizer=SgdNesterov(0.0),
                      schedule=Schedule(0.05, drops=((2, 10.0),)),
                      epochs=2, batch_size=8, seed=5)
        # epoch 1 runs at the shared base rate, epoch 2 diverges
        assert flat.to_text().splitlines()[0] == dropped.to_text().splitlines()[0]
        assert flat.to_text().splitlines()[1] != dropped.to_text().splitlines()[1]
        assert network_to_text(net_flat) != network_to_text(net_drop)

    def test_augment_fn_sees_every_batch(self):
        calls = []

        def spy(xb, rng):
            calls.append((xb.shape[0], isinstance(rng, np.random.Generator)))
            return xb

        net = small_mlp(24)
        data = blob_data(25, n=48)
        fit(net, data, optimizer=SgdNesterov(0.0), schedule=Schedule(0.01),
            epochs=2, batch_size=16, seed=0, augment_fn=spy)
        assert len(calls) == 6
        assert all(ok for _, ok in calls)
        assert all(n == 16 for n, _ in calls)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_carries_step_and_partial_ledger(self):
        hits = [0]

        def sabotage(xb, rng):
            hits[0] += 1
            if hits[0] == 6:
                # finite but huge inputs overflow inside the first matmul
                return np.full_like(xb, 1e308)
            return xb

        net = small_mlp(26)
        data = blob_data(27, n=16)  # 4 steps per epoch at batch 4
        with pytest.raises(DivergenceError) as err:
            fit(net, data, optimizer=SgdNesterov(0.0), schedule=Schedule(0.05),
                epochs=5, batch_size=4, seed=0, augment_fn=sabotage)
        assert err.value.step == 6
        records = err.value.ledger.records
        assert [r.epoch for r in records] == [1]  # only epoch 1 completed

    def test_bad_loop_parameters(self):
        net = small_mlp(28)
        data = blob_data(29, n=8)
        with pytest.raises(ConfigError):
            fit(net, data, optimizer=Adam(), schedule=Schedule(0.01),
                epochs=0, batch_size=8)
        with pytest.raises(ConfigError):
            fit(net, data, optimizer=Adam(), schedule=Schedule(0.01),
                epochs=1, batch_size=0)


class TestEvalHelpers:
    def test_eval_metrics_batch_size_invariant(self, monkeypatch):
        net = small_mlp(30)
        data = blob_data(31, n=50)
        monkeypatch.setattr(evaluate, "_EVAL_BATCH", 7)
        loss_a, acc_a = eval_metrics(net, data.x, data.y)
        monkeypatch.setattr(evaluate, "_EVAL_BATCH", 500)
        loss_b, acc_b = eval_metrics(net, data.x, data.y)
        assert acc_a == acc_b
        assert loss_a == pytest.approx(loss_b, rel=1e-12)

    def test_eval_metrics_rejects_empty_split(self):
        with pytest.raises(EmptySampleError):
            eval_metrics(small_mlp(34), np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    def test_dataset_validation(self):
        with pytest.raises(Exception):
            Dataset(np.ones((3, 2)), np.zeros(2, dtype=np.int64), 2)
