"""Text checkpoint format: exact round trips and malformed-input handling."""

import numpy as np
import pytest

from maxgain import (
    Adam,
    BatchNorm,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    FormatError,
    MaxPool2d,
    Network,
    ReLU,
    ResidualBlock,
    forward,
    load_network,
    make_rng,
    network_from_text,
    network_to_text,
    save_network,
    synth_blobs,
    train_step,
)
from maxgain.experiment import build_stage
from maxgain.layers import STAGE_TYPES


def make_mixed_network(rng):
    return Network([
        Conv2d(rng.normal(size=(4, 1, 3, 3)), rng.normal(size=4), stride=1, pad=1),
        BatchNorm(rng.normal(size=4), rng.normal(size=4)),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Dropout(0.25),
        Dense(rng.normal(size=(3, 16)), rng.normal(size=3)),
    ])


def assert_networks_identical(a, b):
    assert_stages_identical(a.stages, b.stages)


def assert_stages_identical(a, b):
    """Stage lists of the same types, hyperparameters and arrays, bitwise;
    a residual block's main path and shortcut (empty for the identity) alike."""
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert type(sa) is type(sb)
        if isinstance(sa, ResidualBlock):
            assert_stages_identical(sa.main, sb.main)
            assert_stages_identical(sa.shortcut, sb.shortcut)
        elif isinstance(sa, Dense):
            assert np.array_equal(sa.w, sb.w) and np.array_equal(sa.b, sb.b)
        elif isinstance(sa, Conv2d):
            assert np.array_equal(sa.kernel, sb.kernel) and np.array_equal(sa.b, sb.b)
            assert sa.stride == sb.stride and sa.pad == sb.pad
        elif isinstance(sa, BatchNorm):
            assert np.array_equal(sa.alpha, sb.alpha) and np.array_equal(sa.beta, sb.beta)
            assert np.array_equal(sa.running_mean, sb.running_mean)
            assert np.array_equal(sa.running_var, sb.running_var)
            assert sa.momentum == sb.momentum and sa.eps == sb.eps
        elif isinstance(sa, Dropout):
            assert sa.rate == sb.rate
        elif isinstance(sa, MaxPool2d):
            assert sa.kernel == sb.kernel and sa.stride == sb.stride


def _conv(c_in, c_out, kernel, **hyper):
    return {"type": "conv", "in": c_in, "out": c_out, "kernel": kernel, **hyper}


# A config spec per stage kind, and the instance shape it is applied to. A kind
# added to STAGE_TYPES without an entry here fails the round-trip test.
STAGE_SPECS = {
    "dense": ({"type": "dense", "in": 6, "out": 4}, (6,)),
    "conv": (_conv(2, 3, 3, stride=2, pad=1), (2, 7, 7)),
    "batchnorm": ({"type": "batchnorm", "channels": 2, "momentum": 0.8, "eps": 1e-3}, (2, 5, 5)),
    "dropout": ({"type": "dropout", "rate": 0.3}, (2, 5, 5)),
    "relu": ({"type": "relu"}, (4,)),
    "maxpool": ({"type": "maxpool", "kernel": 3, "stride": 2}, (2, 7, 7)),
    "flatten": ({"type": "flatten"}, (2, 3, 3)),
    "residual": ({"type": "residual", "main": [_conv(2, 2, 3, pad=1), {"type": "relu"}]}, (2, 5, 5)),
    "residual with shortcut": ({"type": "residual",
                                "main": [_conv(2, 3, 3, stride=2, pad=1),
                                         {"type": "batchnorm", "channels": 3}],
                                "shortcut": [_conv(2, 3, 1, stride=2)]}, (2, 6, 6)),
}


@pytest.mark.parametrize("kind", sorted(STAGE_TYPES) + ["residual with shortcut"])
def test_every_stage_kind_round_trips_and_declares_its_out_shape(kind):
    spec, in_shape = STAGE_SPECS[kind]
    stage = build_stage(spec, "he-normal", make_rng(0))
    net = Network([stage])
    x = make_rng(1).normal(size=(3,) + in_shape)
    # a train-mode pass moves batchnorm running statistics off their defaults
    y, _ = forward(net, x, "train", rng=make_rng(2))
    assert stage.out_shape(in_shape) == y.shape[1:]
    text = network_to_text(net)
    restored = network_from_text(text)
    assert network_to_text(restored) == text
    np.testing.assert_array_equal(forward(restored, x, "eval")[0], forward(net, x, "eval")[0])


class TestRoundTrip:
    def test_mixed_network_restores_bitwise(self):
        net = make_mixed_network(make_rng(0))
        restored = network_from_text(network_to_text(net))
        assert_networks_identical(net, restored)

    def test_trained_batchnorm_state_survives(self):
        # running statistics are part of the model, so they must round-trip too
        rng = make_rng(1)
        net = Network([
            Dense(rng.normal(size=(8, 2)), rng.normal(size=8)),
            BatchNorm(np.ones(8), np.zeros(8)),
            ReLU(),
            Dense(rng.normal(size=(2, 8)), rng.normal(size=2)),
        ])
        data = synth_blobs(64, make_rng(2), centers=[(0.0, 0.0), (3.0, 3.0)])
        opt = Adam()
        for start in range(0, 64, 16):
            xb = data.x[start:start + 16]
            yb = data.y[start:start + 16]
            train_step(net, xb, yb, opt, 1e-3)
        restored = network_from_text(network_to_text(net))
        assert_networks_identical(net, restored)
        y0, _ = forward(net, data.x, "eval")
        y1, _ = forward(restored, data.x, "eval")
        np.testing.assert_array_equal(y0, y1)

    def test_residual_with_shortcut(self):
        rng = make_rng(3)
        net = Network([
            Dense(rng.normal(size=(4, 2)), np.zeros(4)),
            ResidualBlock(
                [Dense(rng.normal(size=(4, 4)), rng.normal(size=4)), ReLU()],
                [Dense(rng.normal(size=(4, 4)), np.zeros(4))],
            ),
            ResidualBlock([Dense(rng.normal(size=(4, 4)), np.zeros(4))]),
        ])
        restored = network_from_text(network_to_text(net))
        assert_networks_identical(net, restored)

    def test_file_round_trip(self, tmp_path):
        net = make_mixed_network(make_rng(4))
        path = tmp_path / "model.txt"
        save_network(net, path)
        assert_networks_identical(net, load_network(path))

    def test_serialization_is_deterministic(self):
        net = make_mixed_network(make_rng(5))
        assert network_to_text(net) == network_to_text(net)

    def test_extreme_values_survive(self):
        # %.17g keeps every float64 exactly
        w = np.array([[1e-300, -1e300], [np.pi, 2.0 / 3.0]])
        net = Network([Dense(w, np.array([5e-324, -0.0]))])
        restored = network_from_text(network_to_text(net))
        assert np.array_equal(restored.stages[0].w, w)
        b = restored.stages[0].b
        assert b[0] == 5e-324 and np.signbit(b[1])


    def test_identity_shortcut_loads_as_the_empty_list(self):
        text = network_to_text(Network([ResidualBlock([ReLU()])]))
        assert "\nshortcut 0\n" in text
        assert network_from_text(text).stages[0].shortcut == []


class TestMalformedInput:
    def test_every_truncation_is_a_format_error(self):
        # every stage kind, and residual blocks with an identity and a conv
        # shortcut; only the prefix that drops the final newline still parses
        rng = make_rng(6)
        net = Network([
            Conv2d(rng.normal(size=(2, 1, 3, 3)), rng.normal(size=2), pad=1),
            BatchNorm(rng.normal(size=2), rng.normal(size=2)),
            ResidualBlock([ReLU(), Conv2d(rng.normal(size=(2, 2, 1, 1)), rng.normal(size=2))]),
            ResidualBlock([Conv2d(rng.normal(size=(3, 2, 1, 1)), rng.normal(size=3))],
                          [Conv2d(rng.normal(size=(3, 2, 1, 1)), np.zeros(3))]),
            MaxPool2d(2),
            Dropout(0.5),
            Flatten(),
            Dense(rng.normal(size=(2, 12)), rng.normal(size=2)),
        ])
        text = network_to_text(net)
        assert_networks_identical(network_from_text(text[:-1]), net)
        for end in range(len(text) - 1):
            with pytest.raises(FormatError):
                network_from_text(text[:end])

    def test_wrong_header(self):
        with pytest.raises(FormatError):
            network_from_text("other-format v1\nstages 0\n")

    def test_truncated_array(self):
        net = Network([Dense(np.ones((2, 2)), np.zeros(2))])
        text = network_to_text(net)
        lines = text.splitlines()
        with pytest.raises(FormatError):
            network_from_text("\n".join(lines[:-2]) + "\n")

    def test_wrong_value_count(self):
        net = Network([Dense(np.ones((2, 2)), np.zeros(2))])
        text = network_to_text(net).replace("1 1 1 1", "1 1 1")
        with pytest.raises(FormatError):
            network_from_text(text)

    def test_unknown_stage_type(self):
        text = "maxgain-checkpoint v1\nstages 1\nstage mystery\nend\n"
        with pytest.raises(FormatError):
            network_from_text(text)

    def test_trailing_garbage(self):
        net = Network([ReLU()])
        with pytest.raises(FormatError):
            network_from_text(network_to_text(net) + "leftover\n")

    def test_bad_float(self):
        net = Network([Dense(np.ones((2, 2)), np.zeros(2))])
        text = network_to_text(net).replace("1 1 1 1", "1 1 1 banana")
        assert "banana" in text
        with pytest.raises(FormatError):
            network_from_text(text)

    def test_maxpool_missing_kernel(self):
        text = "maxgain-checkpoint v1\nstages 1\nstage maxpool\nend\n"
        with pytest.raises(FormatError):
            network_from_text(text)

    def test_dropout_rate_is_required(self):
        text = "maxgain-checkpoint v1\nstages 1\nstage dropout\nend\n"
        with pytest.raises(FormatError, match="rate"):
            network_from_text(text)

    @pytest.mark.parametrize("stage, named", [
        ("stage dropout rate=1.5\nend", "dropout"),
        ("stage maxpool kernel=2 stride=0\nend", "maxpool"),
        ("stage conv stride=0 pad=0\narray kernel 4 1 1 1 1\n1\narray b 1 1\n0\nend", "conv"),
        ("stage dense\narray w 2 1 2\n1 2\narray b 1 2\n0 0\nend", "dense"),
        ("stage residual\nmain 0\nshortcut 0\nend", "residual"),
    ])
    def test_constructor_errors_name_the_stage(self, stage, named):
        text = f"maxgain-checkpoint v1\nstages 1\n{stage}\n"
        with pytest.raises(FormatError, match=f"bad {named} stage"):
            network_from_text(text)

    @pytest.mark.parametrize("stage, key", [
        ("stage conv strid=2 pad=0\narray kernel 4 1 1 1 1\n1\narray b 1 1\n0\nend", "strid"),
        ("stage relu rate=0.5\nend", "rate"),
        ("stage residual depth=2\nmain 1\nstage relu\nend\nshortcut 0\nend", "depth"),
    ])
    def test_unknown_attribute_is_named(self, stage, key):
        text = f"maxgain-checkpoint v1\nstages 1\n{stage}\n"
        with pytest.raises(FormatError, match=f"unknown key '{key}'"):
            network_from_text(text)

    @pytest.mark.parametrize("stage, key", [
        ("stage maxpool kernel=2 kernel=3\nend", "kernel"),
        ("stage conv stride=1 pad=0 stride=2\narray kernel 4 1 1 1 1\n1\narray b 1 1\n0\nend", "stride"),
    ])
    def test_repeated_attribute_is_named(self, stage, key):
        text = f"maxgain-checkpoint v1\nstages 1\n{stage}\n"
        with pytest.raises(FormatError, match=f"repeated key '{key}' in {stage.split()[1]} stage"):
            network_from_text(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_network(tmp_path / "nope.txt")
