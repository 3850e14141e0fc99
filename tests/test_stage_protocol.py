"""The one stage protocol on generated stage trees, and a guard that code
walking the network reads what the stage classes declare.

The trees hold dense, batchnorm (with random running statistics), dropout and
relu stages and residual blocks nested up to depth 2, with and without a
projection shortcut. The references here are written per class on purpose,
so they cannot share a walk with the package."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxgain import (
    BatchNorm,
    Dense,
    Dropout,
    MaxGainConfig,
    Network,
    ReLU,
    ResidualBlock,
    SgdNesterov,
    apply_linear,
    backward,
    forward,
    lipschitz_upper_bound,
    make_rng,
    materialize_linear,
    network_from_text,
    network_to_text,
    projection_scale,
    train_step,
)
from maxgain.layers import STAGE_TYPES

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
CLASSES = 3


@st.composite
def stage_lists(draw, rng, width, depth):
    """(stages, out_width): 1-3 stages mapping width-wide instances on, with
    residual blocks only below depth 2."""
    kinds = ["dense", "batchnorm", "dropout", "relu"] + (["residual"] if depth < 2 else [])
    stages = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind == "dense":
            out = draw(st.integers(1, 4))
            stages.append(Dense(rng.normal(size=(out, width)), rng.normal(size=out)))
            width = out
        elif kind == "batchnorm":
            bn = BatchNorm(rng.normal(size=width), rng.normal(size=width))
            bn.running_mean = rng.normal(size=width)
            bn.running_var = rng.uniform(0.1, 3.0, size=width)
            stages.append(bn)
        elif kind == "dropout":
            stages.append(Dropout(draw(st.sampled_from([0.0, 0.25, 0.5]))))
        elif kind == "relu":
            stages.append(ReLU())
        else:
            main, out = draw(stage_lists(rng, width, depth + 1))
            shortcut = None
            if out != width or draw(st.booleans()):
                shortcut = [Dense(rng.normal(size=(out, width)), np.zeros(out))]
            stages.append(ResidualBlock(main, shortcut))
            width = out
    return stages, width


@st.composite
def trees(draw):
    """(net, x, y): a generated stage tree ending in a dense classifier, and a
    batch of 3-6 labelled instances."""
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 4))
    stages, out = draw(stage_lists(rng, width, 0))
    net = Network(stages + [Dense(rng.normal(size=(CLASSES, out)), rng.normal(size=CLASSES))])
    n = draw(st.integers(3, 6))
    return net, rng.normal(size=(n, width)), rng.integers(0, CLASSES, size=n)


def eval_reference(stages, x, seen):
    """Eval-mode output of stages on x, appending (layer, input) for every
    learned layer in forward pre-order, a residual main path before its
    shortcut."""
    for s in stages:
        if isinstance(s, ResidualBlock):
            main = eval_reference(s.main, x, seen)
            x = main + (x if s.shortcut is None else eval_reference(s.shortcut, x, seen))
        elif isinstance(s, Dense):
            seen.append((s, x))
            x = x @ s.w.T + s.b
        elif isinstance(s, BatchNorm):
            seen.append((s, x))
            x = (x - s.running_mean) / np.sqrt(s.running_var + s.eps) * s.alpha + s.beta
        elif isinstance(s, Dropout):
            x = x * (1.0 - s.rate)
        else:
            x = np.maximum(x, 0.0)
    return x


def l1_bound_reference(stages, shape):
    """Product over stages of the l1 operator norm, as the largest absolute
    column sum of each learned layer's materialized matrix; a residual block
    contributes main + shortcut (1 for the identity)."""
    bound = 1.0
    for s in stages:
        if isinstance(s, ResidualBlock):
            short = 1.0 if s.shortcut is None else l1_bound_reference(s.shortcut, shape)
            bound *= l1_bound_reference(s.main, shape) + short
        elif isinstance(s, (Dense, BatchNorm)):
            bound *= np.abs(materialize_linear(s, shape)).sum(axis=0).max()
        elif isinstance(s, Dropout):
            bound *= 1.0 - s.rate
        shape = s.out_shape(shape)
    return bound


def twin(net):
    return network_from_text(network_to_text(net))


@PROPERTY_SETTINGS
@given(trees())
def test_caches_hold_each_learned_layers_input_and_linear_output(case):
    net, x, _ = case
    seen = []
    want = eval_reference(net.stages, x, seen)
    y, caches = forward(net, x, "eval")
    np.testing.assert_allclose(y, want, rtol=1e-10, atol=1e-10)
    layers = net.learned_layers()
    assert [layer for layer, _ in seen] == layers
    for j, (layer, x_in) in enumerate(seen):
        np.testing.assert_allclose(caches.xs[j], x_in, rtol=1e-10, atol=1e-10)
    for mode in ("eval", "train"):
        _, caches = forward(net, x, mode, rng=make_rng(1))
        assert len(caches.xs) == len(caches.zs) == len(layers)
        for j, layer in enumerate(layers):
            for i in range(x.shape[0]):
                np.testing.assert_allclose(caches.zs[j][i], apply_linear(layer, caches.xs[j][i]),
                                           rtol=1e-12, atol=1e-12)


@PROPERTY_SETTINGS
@given(trees())
def test_gradients_come_back_per_learned_layer(case):
    net, x, _ = case
    y, caches = forward(net, x, "train", rng=make_rng(1))
    r = make_rng(2).normal(size=y.shape)
    grads = backward(net, caches, r)
    layers = net.learned_layers()
    assert len(grads.by_layer) == len(layers)
    for layer, pgrads in zip(layers, grads.by_layer):
        assert tuple(pgrads) == layer.param_names
        for name in layer.param_names:
            assert pgrads[name].shape == getattr(layer, name).shape
    assert grads.input_grad.shape == x.shape

    # one central difference of sum(y * r) along a random direction in the
    # input and every parameter at once, with the same dropout masks
    rng, h = make_rng(4), 1e-6
    dx = rng.normal(size=x.shape)
    dirs = [{name: rng.normal(size=getattr(layer, name).shape) for name in layer.param_names}
            for layer in layers]

    def loss(sign):
        moved = twin(net)
        for layer, d in zip(moved.learned_layers(), dirs):
            for name, dp in d.items():
                setattr(layer, name, getattr(layer, name) + sign * h * dp)
        return float((forward(moved, x + sign * h * dx, "train", rng=make_rng(1))[0] * r).sum())

    terms = [(grads.input_grad * dx).sum()]
    terms += [(g[name] * d[name]).sum() for g, d in zip(grads.by_layer, dirs) for name in d]
    numeric = (loss(1) - loss(-1)) / (2 * h)
    assert abs(numeric - sum(terms)) <= 1e-5 * max(1.0, sum(abs(t) for t in terms))


@PROPERTY_SETTINGS
@given(trees(), st.sampled_from([0.3, 1.0, 3.0]))
def test_constrained_step_is_the_unconstrained_step_projected(case, gamma):
    net, x, y = case
    free, probe = twin(net), twin(net)
    _, caches = forward(probe, x, "train", rng=make_rng(3))
    report = train_step(net, x, y, SgdNesterov(), 0.1, MaxGainConfig(gamma=gamma), rng=make_rng(3))
    train_step(free, x, y, SgdNesterov(), 0.1, None, rng=make_rng(3))
    for j, (layer, ref) in enumerate(zip(net.learned_layers(), free.learned_layers())):
        nx = np.linalg.norm(caches.xs[j], axis=1)
        nz = np.linalg.norm(caches.zs[j], axis=1)
        gamma_hat = np.where(nx > 0, nz / np.where(nx > 0, nx, 1.0), 0.0).max()
        assert report.gamma_hats[j] == pytest.approx(gamma_hat, rel=1e-12, abs=1e-300)
        for name in layer.param_names + layer.state:
            got, free_value = getattr(layer, name), getattr(ref, name)
            if name == layer.weight_param:
                np.testing.assert_allclose(got, free_value * projection_scale(gamma_hat, gamma),
                                           rtol=1e-12, atol=1e-300)
            else:
                np.testing.assert_array_equal(got, free_value)


@PROPERTY_SETTINGS
@given(trees())
def test_checkpoint_round_trip_is_bitwise(case):
    net, x, _ = case
    text = network_to_text(net)
    back = network_from_text(text)
    assert network_to_text(back) == text
    for a, b in zip(net.learned_layers(), back.learned_layers()):
        assert type(a) is type(b)
        for name in a.param_names + a.state:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert forward(net, x, "eval")[0].tobytes() == forward(back, x, "eval")[0].tobytes()


@PROPERTY_SETTINGS
@given(trees())
def test_l1_lipschitz_bound_matches_materialized_column_sums(case):
    net, x, _ = case
    shape = x.shape[1:]
    assert lipschitz_upper_bound(net, 1, shape) == pytest.approx(
        l1_bound_reference(net.stages, shape), rel=1e-12)


# The gain norm formulas for Dense and BatchNorm stay in gain.py until the
# operator norms move onto the stage classes.
ALLOWED = {"gain.py": {"Dense", "BatchNorm"}}


@pytest.mark.parametrize("module", ["checkpoint.py", "experiment.py", "gain.py"])
def test_network_walkers_name_no_stage_class(module):
    """These modules walk networks through the declarations on the stage
    classes (parts, weight_param, lipschitz), so each stage type is described
    once, in layers.py."""
    path = Path(__file__).resolve().parents[1] / "src" / "maxgain" / module
    forbidden = {cls.__name__ for cls in STAGE_TYPES.values()} | {"LEARNED_TYPES"}
    forbidden -= ALLOWED.get(module, set())
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.rsplit(".", 1)[-1])
    assert names & forbidden == set()
