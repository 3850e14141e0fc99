"""The one stage protocol on generated stage trees (with random and with
trained batchnorm statistics), the declared operator norms on generated
layers, what each kind of stage keeps for backward, a guard that code walking
the network reads what the stage classes declare, and one that eval-mode
passes run only in evaluate.py.

The trees hold dense, conv (stride 1-2, pad 0-1, kh != kw), batchnorm (with
random running statistics), dropout, relu, maxpool (overlapping windows
included) and flatten stages and residual blocks nested up to depth 2, with
and without a projection shortcut. The references here are written per class
on purpose, so they cannot share a walk with the package."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxgain import (
    BatchNorm,
    CacheError,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    MaxGainConfig,
    MaxPool2d,
    Network,
    ReLU,
    ResidualBlock,
    SgdNesterov,
    backward,
    batch_max_gain,
    forward,
    instance_gains,
    layer_operator_norm,
    lipschitz_upper_bound,
    make_rng,
    network_from_text,
    network_to_text,
    projection_scale,
    train_step,
)
from maxgain import optim
from maxgain.layers import STAGE_TYPES, Rebuild, chain_shape
from maxgain.tensor import operator_norm_exact
from oracles import (
    apply_linear,
    backward_with_input_grad,
    conv2d_oracle,
    kept_input_backward,
    kept_input_forward,
    materialize_linear,
)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
CLASSES = 3


def conv_geometry(draw, c, h, w):
    """(stride, pad, kh, kw) of a conv that fits (c, h, w) instances."""
    stride, pad = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    return (stride, pad, draw(st.integers(1, min(3, h + 2 * pad))),
            draw(st.integers(1, min(3, w + 2 * pad))))


def random_batchnorm(rng, channels):
    bn = BatchNorm(rng.normal(size=channels), rng.normal(size=channels))
    bn.running_mean = rng.normal(size=channels)
    bn.running_var = rng.uniform(0.1, 3.0, size=channels)
    return bn


def projection(rng, shape, out):
    """A learned shortcut mapping shape instances to out instances."""
    if len(out) == 1:
        dense = Dense(rng.normal(size=(out[0], int(np.prod(shape)))), np.zeros(out[0]))
        return [dense] if len(shape) == 1 else [Flatten(), dense]
    (c, h, w), (oc, oh, ow) = shape, out
    pad = max(0, -(-max(oh - h, ow - w) // 2))
    kernel = rng.normal(size=(oc, c, h + 2 * pad - oh + 1, w + 2 * pad - ow + 1))
    return [Conv2d(kernel, np.zeros(oc), pad=pad)]


@st.composite
def stage_lists(draw, rng, shape, depth):
    """(stages, out_shape): 1-3 stages mapping instances of shape on, with
    residual blocks only below depth 2. (C, H, W) instances meet conv,
    maxpool and flatten stages, (n,) instances dense ones."""
    stages = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = ["conv", "maxpool", "conv", "maxpool", "flatten"] if len(shape) == 3 else ["dense"]
        kinds += (["residual"] if depth < 2 else []) + ["batchnorm", "dropout", "relu"]
        kind = draw(st.sampled_from(kinds))
        if kind == "dense":
            out = draw(st.integers(1, 4))
            stages.append(Dense(rng.normal(size=(out, shape[0])), rng.normal(size=out)))
        elif kind == "conv":
            stride, pad, kh, kw = conv_geometry(draw, *shape)
            out = draw(st.integers(1, 3))
            stages.append(Conv2d(rng.normal(size=(out, shape[0], kh, kw)), rng.normal(size=out),
                                 stride=stride, pad=pad))
        elif kind == "maxpool":
            kernel = draw(st.integers(1, min(2, shape[1], shape[2])))
            stages.append(MaxPool2d(kernel, draw(st.integers(1, 2))))
        elif kind == "flatten":
            stages.append(Flatten())
        elif kind == "batchnorm":
            stages.append(random_batchnorm(rng, shape[0]))
        elif kind == "dropout":
            stages.append(Dropout(draw(st.sampled_from([0.0, 0.25, 0.5]))))
        elif kind == "relu":
            stages.append(ReLU())
        else:
            main, out = draw(stage_lists(rng, shape, depth + 1))
            shortcut = None
            if out != shape or draw(st.booleans()):
                shortcut = projection(rng, shape, out)
            stages.append(ResidualBlock(main, shortcut))
        shape = stages[-1].out_shape(shape)
    return stages, shape


@st.composite
def trees(draw):
    """(net, x, y): a generated stage tree on (C, H, W) or (n,) instances,
    ending in a dense classifier, and a batch of 3-6 labelled instances."""
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["image", "vector"])) == "image":
        shape = (draw(st.integers(1, 2)), draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    else:
        shape = (draw(st.integers(1, 4)),)
    stages, out = draw(stage_lists(rng, shape, 0))
    if len(out) == 3:
        stages.append(Flatten())
    net = Network(stages + [Dense(rng.normal(size=(CLASSES, int(np.prod(out)))),
                                  rng.normal(size=CLASSES))])
    n = draw(st.integers(3, 6))
    return net, rng.normal(size=(n,) + shape), rng.integers(0, CLASSES, size=n)


def windows(s, h, w):
    """Top-left corners of a maxpool stage's windows on an h x w grid."""
    rows, cols = range(0, h - s.kernel + 1, s.stride), range(0, w - s.kernel + 1, s.stride)
    return [(i, j) for i in rows for j in cols], len(rows), len(cols)


def eval_reference(stages, x, seen):
    """Eval-mode output of stages on x, appending (layer, input) for every
    learned layer in forward pre-order, a residual main path before its
    shortcut."""
    for s in stages:
        per_channel = (1, -1) + (1,) * (x.ndim - 2)
        if isinstance(s, ResidualBlock):
            main = eval_reference(s.main, x, seen)
            x = main + (x if s.shortcut is None else eval_reference(s.shortcut, x, seen))
        elif isinstance(s, Dense):
            seen.append((s, x))
            x = x @ s.w.T + s.b
        elif isinstance(s, Conv2d):
            seen.append((s, x))
            x = conv2d_oracle(x, s.kernel, s.stride, s.pad) + s.b.reshape(per_channel)
        elif isinstance(s, BatchNorm):
            seen.append((s, x))
            x = ((x - s.running_mean.reshape(per_channel)) / np.sqrt(s.running_var + s.eps).reshape(per_channel)
                 * s.alpha.reshape(per_channel) + s.beta.reshape(per_channel))
        elif isinstance(s, Dropout):
            x = x * (1.0 - s.rate)
        elif isinstance(s, MaxPool2d):
            corners, oh, ow = windows(s, *x.shape[2:])
            k = s.kernel
            x = np.stack([x[:, :, i:i + k, j:j + k].max(axis=(2, 3)) for i, j in corners], axis=-1)
            x = x.reshape(x.shape[:2] + (oh, ow))
        elif isinstance(s, Flatten):
            x = x.reshape(x.shape[0], -1)
        else:
            x = np.maximum(x, 0.0)
    return x


def bound_reference(stages, shape, p):
    """Product over stages of the l_p operator norm: each learned layer's
    materialized matrix norm (for p=1 its largest absolute column sum), the
    keep probability for dropout, and for maxpool m ** (1 / p), m the most
    windows any input position lies in; a residual block contributes main +
    shortcut (1 for the identity)."""
    bound = 1.0
    for s in stages:
        if isinstance(s, ResidualBlock):
            short = 1.0 if s.shortcut is None else bound_reference(s.shortcut, shape, p)
            bound *= bound_reference(s.main, shape, p) + short
        elif isinstance(s, (Dense, Conv2d, BatchNorm)):
            m = materialize_linear(s, shape)
            bound *= np.abs(m).sum(axis=0).max() if p == 1 else np.linalg.norm(m, p)
        elif isinstance(s, Dropout):
            bound *= 1.0 - s.rate
        elif isinstance(s, MaxPool2d):
            cover = np.zeros(shape[1:])
            for i, j in windows(s, *shape[1:])[0]:
                cover[i:i + s.kernel, j:j + s.kernel] += 1
            bound *= cover.max() ** (1.0 / p)
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
    # backward uses its caches up, so the oracle walk gets a forward of its own
    grad_x, _ = backward_with_input_grad(net, forward(net, x, "train", rng=make_rng(1))[1], r)
    layers = net.learned_layers()
    assert len(grads) == len(layers)
    for layer, pgrads in zip(layers, grads):
        assert tuple(pgrads) == layer.param_names
        for name in layer.param_names:
            assert pgrads[name].shape == getattr(layer, name).shape
    assert grad_x.shape == x.shape

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

    terms = [(grad_x * dx).sum()]
    terms += [(g[name] * d[name]).sum() for g, d in zip(grads, dirs) for name in d]
    numeric = (loss(1) - loss(-1)) / (2 * h)
    assert abs(numeric - sum(terms)) <= 1e-5 * max(1.0, sum(abs(t) for t in terms))


@PROPERTY_SETTINGS
@given(trees())
def test_the_input_gradient_is_computed_only_on_request(case):
    # backward's parameter gradients are the same bits as those of a walk
    # that asks every stage for its input gradient, and neither writes into
    # the loss gradient it was given; each walk uses up the caches of its
    # own forward, and both forwards record the same bits
    net, x, _ = case
    y, caches = forward(net, x, "train", rng=make_rng(1))
    r = make_rng(2).normal(size=y.shape)
    grad_x, asked = backward_with_input_grad(net, caches, r)
    skipped = backward(net, forward(net, x, "train", rng=make_rng(1))[1], r)
    assert grad_x.shape == x.shape and len(skipped) == len(asked) == len(net.learned_layers())
    for got, want in zip(skipped, asked):
        assert tuple(got) == tuple(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])
    np.testing.assert_array_equal(r, make_rng(2).normal(size=y.shape))


@st.composite
def shared_gradient_trees(draw):
    """(net, x): a generated tree on (C, H, W) instances in which gradients
    are shared and inputs rebuilt. After a first conv, in either order: a
    batchnorm and relu feeding a residual block's main-path conv and its
    projection-shortcut conv, and a residual block whose main path ends in
    relu or dropout with an identity shortcut (it hands its gradient to
    both). Generated stages follow, and a dense classifier and a relu end the
    network (its last stage gets the caller's loss_grad)."""
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    c, k = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    shape = (k, draw(st.integers(2, 5)), draw(st.integers(2, 5)))

    def conv(c_in):
        size = draw(st.sampled_from([1, 3]))
        return Conv2d(rng.normal(size=(k, c_in, size, size)), rng.normal(size=k), pad=size // 2)

    last = draw(st.sampled_from([ReLU(), Dropout(0.5)]))
    parts = [[random_batchnorm(rng, k), ReLU(),
              ResidualBlock([conv(k), random_batchnorm(rng, k), ReLU(), conv(k)], projection(rng, shape, shape))],
             [ResidualBlock([conv(k), random_batchnorm(rng, k), last])]]
    if draw(st.booleans()):
        parts.reverse()
    more, out = draw(stage_lists(rng, shape, 1))
    stages = [conv(c)] + parts[0] + parts[1] + more + ([Flatten()] if len(out) == 3 else [])
    net = Network(stages + [Dense(rng.normal(size=(CLASSES, int(np.prod(out)))), rng.normal(size=CLASSES)),
                            ReLU()])
    return net, rng.normal(size=(draw(st.integers(2, 5)), c) + shape[1:])


def residual_blocks(stages):
    for stage in stages:
        for part in stage.parts:
            yield from residual_blocks(getattr(stage, part))
        if stage.parts:
            yield stage


@PROPERTY_SETTINGS
@given(shared_gradient_trees())
def test_stages_write_only_into_gradients_the_walk_owns(case):
    # relu and dropout write their gradient into the one they are handed
    # when the walk owns it; the caller's loss_grad and the gradient a
    # residual block hands both branches come back unchanged, and the
    # parameter gradients are the bits of a walk that keeps every input and
    # hands every stage its own copy of its gradient
    net, x = case
    reference = twin(net)
    y, caches = forward(net, x, "train", rng=make_rng(1))
    r = make_rng(2).normal(size=y.shape)
    handed = []
    for block in residual_blocks(net.stages):
        def watched(grad_y, cache, input_grad=True, run=block.backward):
            before = grad_y.copy()
            out = run(grad_y, cache, input_grad)
            handed.append((grad_y, before))
            return out
        block.backward = watched
    grads = backward(net, caches, r)
    np.testing.assert_array_equal(r, make_rng(2).normal(size=y.shape))
    assert len(handed) == len(list(residual_blocks(net.stages)))
    for grad_y, before in handed:
        assert grad_y.tobytes() == before.tobytes()
    y_ref, ref_caches = kept_input_forward(reference.stages, x, make_rng(1))
    assert y.tobytes() == y_ref.tobytes()
    _, want = kept_input_backward(reference.stages, ref_caches, r)
    assert len(grads) == len(want) == len(net.learned_layers())
    for got, expected in zip(grads, want):
        assert tuple(got) == tuple(expected)
        for name in expected:
            assert got[name].tobytes() == expected[name].tobytes(), name


@PROPERTY_SETTINGS
@given(trees(), st.sampled_from([0.3, 1.0, 3.0]))
def test_constrained_step_is_the_unconstrained_step_projected(case, gamma):
    net, x, y = case
    free, probe = twin(net), twin(net)
    _, caches = forward(probe, x, "train", rng=make_rng(3))
    report = train_step(net, x, y, SgdNesterov(), 0.1, MaxGainConfig(gamma=gamma), rng=make_rng(3))
    train_step(free, x, y, SgdNesterov(), 0.1, None, rng=make_rng(3))
    for j, (layer, ref) in enumerate(zip(net.learned_layers(), free.learned_layers())):
        nx = np.linalg.norm(caches.xs[j].reshape(len(x), -1), axis=1)
        nz = np.linalg.norm(caches.zs[j].reshape(len(x), -1), axis=1)
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
        bound_reference(net.stages, shape, 1), rel=1e-12)


@PROPERTY_SETTINGS
@given(trees(), st.sampled_from([1, 2, math.inf]))
def test_lipschitz_bound_dominates_materialized_norms_and_observed_differences(case, p):
    net, x, _ = case
    shape = x.shape[1:]
    bound = lipschitz_upper_bound(net, p, shape)
    want = bound_reference(net.stages, shape, p)
    if p == 2:  # a conv contributes an upper bound on its norm
        assert bound >= want * (1 - 1e-12)
    else:
        assert bound == pytest.approx(want, rel=1e-12)
    rng = make_rng(5)
    for scale in (1.0, 1e-3):
        b = x + scale * rng.normal(size=x.shape)
        diff = (forward(net, x, "eval")[0] - forward(net, b, "eval")[0]).reshape(len(x), -1)
        for i in range(len(x)):
            num = np.linalg.norm(diff[i], p)
            assert num <= bound * np.linalg.norm((x - b)[i].reshape(-1), p) * (1 + 1e-9) + 1e-12


@st.composite
def linear_layers(draw):
    """(layer, shape, xs): a random dense, conv or batchnorm layer, an
    instance shape it takes, and instances: gaussian ones and every standard
    basis vector."""
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "conv", "batchnorm"]))
    if kind == "dense":
        shape = (draw(st.integers(1, 8)),)
        out = draw(st.integers(1, 8))
        layer = Dense(rng.normal(size=(out, shape[0])), rng.normal(size=out))
    else:
        shape = (draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        if kind == "conv":
            stride, pad, kh, kw = conv_geometry(draw, *shape)
            oc = draw(st.integers(1, 3))
            layer = Conv2d(rng.normal(size=(oc, shape[0], kh, kw)), rng.normal(size=oc),
                           stride=stride, pad=pad)
        else:
            layer = random_batchnorm(rng, shape[0])
    dim = int(np.prod(shape))
    xs = np.concatenate([rng.normal(size=(8, dim)), np.eye(dim)]).reshape((-1,) + shape)
    return layer, shape, xs


@PROPERTY_SETTINGS
@given(linear_layers())
def test_layer_operator_norms_bound_gains_and_match_materialized_norms(case):
    layer, shape, xs = case
    _, caches = forward(Network([layer]), xs, "eval")
    m = materialize_linear(layer, shape)
    for p in (1, 2, math.inf):
        norm = layer_operator_norm(layer, p, shape)
        assert batch_max_gain(caches.xs[0], caches.zs[0], p) <= norm * (1 + 1e-12)
        if p != 2:
            assert norm == pytest.approx(operator_norm_exact(m, p), rel=1e-12)
        elif isinstance(layer, Dense):
            assert norm == np.linalg.norm(layer.w, 2)
        else:
            assert np.linalg.norm(m, 2) <= norm * (1 + 1e-12)


@PROPERTY_SETTINGS
@given(trees(), st.integers(0, 2**32 - 1))
def test_caches_match_linear_maps_and_norms_after_batchnorm_statistics_train(case, seed):
    # a few train-mode forwards move the running mean and variance away from
    # the random ones, as training would; the gain caches must follow them
    net, x, _ = case
    rng = make_rng(seed)
    norms = [bn for bn in net.learned_layers() if isinstance(bn, BatchNorm)]
    before = [(bn.running_mean.copy(), bn.running_var.copy()) for bn in norms]
    for _ in range(3):
        forward(net, x + rng.normal(size=x.shape), "train", rng=rng)
    for bn, (mean, var) in zip(norms, before):
        assert not np.array_equal(bn.running_mean, mean) and not np.array_equal(bn.running_var, var)
    for mode in ("eval", "train"):
        _, caches = forward(net, x, mode, rng=make_rng(1))
        for layer, xs, zs in zip(net.learned_layers(), caches.xs, caches.zs):
            for i in range(x.shape[0]):
                np.testing.assert_allclose(zs[i], apply_linear(layer, xs[i]), rtol=1e-12, atol=1e-12)
            for p in (1, 2, math.inf):
                norm = layer_operator_norm(layer, p, xs.shape[1:])
                assert batch_max_gain(xs, zs, p) <= norm * (1 + 1e-12)


# --- what a forward pass keeps ----------------------------------------------


class ReadRecorder(dict):
    """A stage cache that records the keys read or taken from it."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def pop(self, key, *default):
        self.read.add(key)
        return super().pop(key, *default)


def recorded(tree):
    """The cache tree with every dict replaced by a ReadRecorder."""
    if isinstance(tree, dict):
        return ReadRecorder({key: recorded(value) for key, value in tree.items()})
    if isinstance(tree, list):
        return [recorded(value) for value in tree]
    return tree


def dicts(tree):
    """Every dict in a cache tree, in tree order."""
    if isinstance(tree, dict):
        yield tree
        tree = list(tree.values())
    if isinstance(tree, (list, tuple)):
        for value in tree:
            yield from dicts(value)


def arrays(tree):
    """Every array in a cache tree, at any depth."""
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, (dict, list, tuple)):
        for value in tree.values() if isinstance(tree, dict) else tree:
            yield from arrays(value)


def residual_block(rng, shortcut):
    main = [Conv2d(rng.normal(size=(2, 2, 3, 3)), np.zeros(2), pad=1), random_batchnorm(rng, 2), ReLU(),
            Conv2d(rng.normal(size=(2, 2, 3, 3)), np.zeros(2), pad=1)]
    return [ResidualBlock(main, projection(rng, (2, 6, 5), (2, 6, 5)) if shortcut else None)]


# Per kind, and for a residual block with a projection shortcut: stages of
# that kind on (2, 6, 5) instances.
KIND_STAGES = {
    "dense": lambda rng: [Flatten(), Dense(rng.normal(size=(3, 60)), rng.normal(size=3))],
    "conv": lambda rng: [Conv2d(rng.normal(size=(3, 2, 3, 2)), rng.normal(size=3), stride=2, pad=1)],
    "batchnorm": lambda rng: [random_batchnorm(rng, 2)],
    "dropout": lambda rng: [Dropout(0.5)],
    "relu": lambda rng: [ReLU()],
    "maxpool": lambda rng: [MaxPool2d(2)],
    "flatten": lambda rng: [Flatten()],
    "residual": lambda rng: residual_block(rng, shortcut=False),
    "residual shortcut": lambda rng: residual_block(rng, shortcut=True),
}
CACHE_KINDS = sorted(KIND_STAGES)


def kind_network(kind):
    """(net, x): a network of relu and the kind's stages, so a stage never
    sees the network input itself, with a dense classifier."""
    rng = make_rng(CACHE_KINDS.index(kind))
    stages = [ReLU()] + KIND_STAGES[kind](rng)
    out = int(np.prod(chain_shape(stages, (2, 6, 5))))
    net = Network(stages + [Flatten(), Dense(rng.normal(size=(CLASSES, out)), np.zeros(CLASSES))])
    return net, rng.normal(size=(4, 2, 6, 5))


@pytest.fixture(params=CACHE_KINDS)
def kind_net(request):
    """(kind, net, x) of kind_network."""
    return request.param, *kind_network(request.param)


def test_every_kind_is_covered():
    assert set(STAGE_TYPES) <= set(KIND_STAGES)


def test_train_caches_hold_only_what_backward_reads(kind_net):
    _, net, x = kind_net
    y, caches = forward(net, x, "train", rng=make_rng(1))
    caches.stage_caches = recorded(caches.stage_caches)
    kept = list(dicts(caches.stage_caches))
    assert kept and not [cache for cache in kept if "gain" in cache]
    held = [[key for key, value in cache.items() if isinstance(value, np.ndarray)] for cache in kept]
    backward(net, caches, make_rng(2).normal(size=y.shape))
    for cache, keys in zip(kept, held):
        unread = [key for key in keys if key not in cache.read]
        assert unread == [], f"kept but never read by backward: {unread}"
        # backward takes out what it reads, so it leaves every cache empty
        assert cache == {}, f"left in the cache by backward: {list(cache)}"
    # each stage's own forward, at its default gain, keeps no gain pair either,
    # and in eval mode no array at all
    for mode in ("train", "eval"):
        h = x
        for st in net.stages:
            h, cache = st.forward(h, mode, make_rng(1))
            assert not [c for c in dicts(cache) if "gain" in c], f"{st.kind} {mode}: {cache}"
            if mode == "eval":
                assert list(arrays(cache)) == [], f"{st.kind} eval cache holds arrays"


@pytest.mark.parametrize("kind", CACHE_KINDS)
@settings(PROPERTY_SETTINGS, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 5), mode=st.sampled_from(["train", "eval"]),
       p=st.sampled_from([1, 2, math.inf]))
def test_gains_measured_at_the_stage_are_those_of_the_gain_pairs(kind, seed, n, mode, p):
    # each learned stage measures the same (x, z) arrays the unmeasured
    # forward hands out as its gain pair, before the bias or anything else
    # touches z, so the gains agree bit for bit
    net, _ = kind_network(kind)
    x = make_rng(seed).normal(size=(n, 2, 6, 5))
    plain, measured = twin(net), twin(net)
    y_plain, pairs = forward(plain, x, mode, rng=make_rng(1))
    y, caches = forward(measured, x, mode, rng=make_rng(1),
                        gain=lambda gx, gz: (batch_max_gain(gx, gz, p), instance_gains(gx, gz, p)))
    np.testing.assert_array_equal(y, y_plain)
    assert pairs.gains is None and caches.zs is None
    assert len(caches.gains) == len(pairs.zs) == len(net.learned_layers())
    for (got_max, got), gx, gz in zip(caches.gains, pairs.xs, pairs.zs):
        assert got_max == batch_max_gain(gx, gz, p)
        np.testing.assert_array_equal(got, instance_gains(gx, gz, p))


def retained_bytes(*trees):
    """Bytes of every array in the trees, counting each buffer once by its
    base array, as the benchmark sizes a forward's StepCaches."""
    roots = {}
    for arr in arrays(list(trees)):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        roots[id(arr)] = arr.nbytes
    return sum(roots.values())


def test_a_measured_train_forward_keeps_no_linear_output(kind_net):
    # a measured forward keeps the unmeasured one's stage caches and nothing
    # else: no z, and no layer input its stage's backward does not read. A
    # batchnorm's backward reads its normalized input, not the input itself,
    # which is the one layer input the stage caches do not hold
    _, net, x = kind_net
    plain, measured = twin(net), twin(net)
    _, pairs = forward(plain, x, "train", rng=make_rng(1))
    _, caches = forward(measured, x, "train", rng=make_rng(1), gain=lambda gx, gz: batch_max_gain(gx, gz, 2))
    assert caches.xs is None and caches.zs is None and len(caches.gains) == len(net.learned_layers())
    kept = retained_bytes(caches.stage_caches, caches.gains)
    assert kept == retained_bytes(pairs.stage_caches) < retained_bytes(pairs.stage_caches, pairs.zs)
    has_batchnorm = any(isinstance(layer, BatchNorm) for layer in net.learned_layers())
    assert (kept < retained_bytes(pairs.stage_caches, pairs.xs)) == has_batchnorm


def test_a_second_backward_on_a_stage_cache_raises(kind_net):
    _, net, x = kind_net
    h = x
    for st in net.stages:
        y, cache = st.forward(h, "train", make_rng(1))
        grad_y = make_rng(2).normal(size=y.shape)
        st.backward(grad_y, cache)
        with pytest.raises(CacheError, match="a backward pass used it up"):
            st.backward(grad_y, cache)
        h = y


def traced_peak(run):
    """(run(), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batchnorm_trains_in_three_input_sized_arrays():
    # on a conv's channels-last output, the train forward makes xhat and one
    # buffer (x's square, then z, then y) beside x; backward makes the input
    # gradient alone beside grad_y and the cached xhat, which it uses up
    rng = make_rng(32)
    layer = BatchNorm(rng.normal(size=8), rng.normal(size=8))
    x, grad_y = (np.ascontiguousarray(rng.normal(size=(32, 32, 32, 8))).transpose(0, 3, 1, 2) for _ in range(2))
    (y, cache), forward_peak = traced_peak(lambda: layer.forward(x, "train"))
    del y
    (grad_x, _), backward_peak = traced_peak(lambda: layer.backward(grad_y, cache))
    # a tenth of an input covers numpy's reduction buffers (64 KiB here)
    assert forward_peak <= 2.1 * x.nbytes, f"forward peak {forward_peak / x.nbytes:.2f} inputs"
    assert backward_peak <= 1.1 * x.nbytes, f"backward peak {backward_peak / x.nbytes:.2f} inputs"
    assert grad_x.strides == grad_y.strides


@pytest.mark.parametrize("maxgain", [None, MaxGainConfig(gamma=1.0)])
def test_a_train_step_peaks_at_a_few_activations(maxgain):
    # conv, batchnorm and a residual block on 32 8x16x16 images peak at 7.3
    # activation-sized arrays; with each conv after batchnorm and relu keeping
    # its input and relu's backward making a new gradient 7.5, with batchnorm
    # keeping its input and rebuilding xhat in backward 8.3, keeping every
    # linear output until the loss 12.4, and keeping every stage cache
    # through backward 9.8
    rng = make_rng(31)

    def conv():
        return Conv2d(0.2 * rng.normal(size=(8, 8, 3, 3)), np.zeros(8), pad=1)

    net = Network([conv(), BatchNorm(np.ones(8), np.zeros(8)), ReLU(),
                   ResidualBlock([conv(), BatchNorm(np.ones(8), np.zeros(8)), ReLU(), conv()]),
                   ReLU(), MaxPool2d(2), Flatten(),
                   Dense(0.01 * rng.normal(size=(CLASSES, 512)), np.zeros(CLASSES))])
    x, y = rng.normal(size=(32, 8, 16, 16)), rng.integers(0, CLASSES, size=32)
    optimizer = SgdNesterov()
    train_step(net, x, y, optimizer, 0.01, maxgain)  # the optimizer's state exists from here on
    _, peak = traced_peak(lambda: train_step(net, x, y, optimizer, 0.01, maxgain))
    assert peak <= 7.72 * x.nbytes, f"peak {peak / x.nbytes:.2f} activations"


def test_eval_caches_hold_no_array(kind_net):
    _, net, x = kind_net
    _, caches = forward(net, x, "eval")
    assert list(arrays(caches.stage_caches)) == []
    assert len(caches.xs) == len(caches.zs) == len(net.learned_layers())


def test_masks_are_bool_and_pool_indices_one_byte(kind_net):
    kind, net, x = kind_net
    _, caches = forward(net, x, "train", rng=make_rng(1))
    masks = [cache["mask"] for cache in dicts(caches.stage_caches) if "mask" in cache]
    assert masks and all(mask.dtype == np.bool_ for mask in masks)
    if kind == "maxpool":
        (idx,) = [cache["idx"] for cache in dicts(caches.stage_caches) if "idx" in cache]
        assert net.stages[1].kernel == 2 and idx.dtype == np.uint8


def rebuilt_input(rebuild):
    """The (N, C, H, W) batch a Rebuild fills, one image at a time."""
    out = np.empty(rebuild.shape)
    for i in range(len(out)):
        rebuild[i:i + 1].fill(out[i:i + 1])
    return out.transpose(0, 3, 1, 2)


def after_batchnorm_and_relu(stages):
    """The convs under stages whose input is a relu of a batchnorm's output."""
    for k, stage in enumerate(stages):
        for part in stage.parts:
            yield from after_batchnorm_and_relu(getattr(stage, part))
        if isinstance(stage, Conv2d) and k >= 2 and [type(s) for s in stages[k - 2:k]] == [BatchNorm, ReLU]:
            yield stage


def test_conv_gain_input_is_a_view_of_its_padded_copy(kind_net, monkeypatch):
    """A conv pads one block of images at a time and keeps no padded copy.
    After a batchnorm and relu (the second conv of a residual main path) it
    keeps a Rebuild of its input over that batchnorm's cached xhat, which
    holds no input-sized array of its own and fills each image with the
    stage input's bits. Every other conv's gain input is a view of the
    channels-last input xc its cache keeps, and xc is the stage input's own
    memory when that is stored channels-last and a copy otherwise."""
    _, net, x = kind_net
    convs = [(j, layer) for j, layer in enumerate(net.learned_layers()) if isinstance(layer, Conv2d)]
    rebuilt = [any(layer is conv for conv in after_batchnorm_and_relu(net.stages)) for _, layer in convs]
    inputs = {}
    for j, conv in convs:
        def record(x, mode, rng=None, gain=None, j=j, run=conv.forward):
            inputs[j] = x
            return run(x, mode, rng, gain)
        monkeypatch.setattr(conv, "forward", record)
    _, caches = forward(net, x, "train", rng=make_rng(1))
    # stage caches in tree order meet the convs in learned_layers() order
    kept = [cache["xc"] for cache in dicts(caches.stage_caches) if "xc" in cache]
    xhats = [cache["xhat"] for cache in dicts(caches.stage_caches) if "xhat" in cache]
    assert len(kept) == len(convs) == len(inputs)
    for (j, _), xc, from_rebuild in zip(convs, kept, rebuilt):
        np.testing.assert_array_equal(caches.xs[j], inputs[j])
        assert isinstance(xc, Rebuild) == from_rebuild
        if from_rebuild:
            assert any(xc.xhat is xhat for xhat in xhats)
            assert xc.alpha.shape == xc.beta.shape == (inputs[j].shape[1],)
            assert rebuilt_input(xc).tobytes() == inputs[j].tobytes()
            continue
        assert np.shares_memory(caches.xs[j], xc)
        channels_last = inputs[j].transpose(0, 2, 3, 1).flags.c_contiguous
        assert np.shares_memory(xc, inputs[j]) == channels_last
    assert sum(rebuilt) == kind_net[0].startswith("residual")


def test_a_conv_after_batchnorm_and_relu_keeps_no_input():
    # what a measured train forward leaves alive is the first conv's
    # channels-last copy of x, batchnorm's xhat, relu's mask and the dense
    # layer's input: the second conv keeps a Rebuild over xhat
    # instead of the relu output, and its backward gives the kernel gradient
    # of a conv that kept that output
    rng = make_rng(33)

    def conv():
        return Conv2d(rng.normal(size=(8, 8, 3, 3)), rng.normal(size=8), pad=1)

    net = Network([conv(), BatchNorm(rng.normal(size=8), rng.normal(size=8)), ReLU(), conv(), Flatten(),
                   Dense(rng.normal(size=(CLASSES, 8 * 16 * 16)), np.zeros(CLASSES))])
    x = rng.normal(size=(16, 8, 16, 16))
    reference = twin(net)
    tracemalloc.start()
    try:
        y, caches = forward(net, x, "train", gain=lambda gx, gz: None)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    first, bn_cache, relu_cache, conv_cache, _, dense_cache = caches.stage_caches
    assert list(conv_cache) == ["xc"] and conv_cache["xc"].xhat is bn_cache["xhat"]
    held = sum(a.nbytes for a in (first["xc"], bn_cache["xhat"], relu_cache["mask"], dense_cache["x"]))
    assert live <= held + 0.05 * x.nbytes, f"{(live - held) / x.nbytes:.2f} inputs held beyond the caches"
    r = make_rng(34).normal(size=y.shape)
    y_ref, ref_caches = kept_input_forward(reference.stages, x, None)
    assert ref_caches[3]["xc"].nbytes == x.nbytes
    assert [g["kernel"].tobytes() for g in backward(net, caches, r)[::2]] == \
        [g["kernel"].tobytes() for g in kept_input_backward(reference.stages, ref_caches, r)[1][::2]]


def test_a_residual_block_sums_into_its_main_output_where_that_changes_nothing():
    # the shortcut's output goes into the main path's where that is an array
    # of its own laid out as the shortcut's; the sum keeps the layout and
    # bits of y_main + y_short either way, and the block input is never written
    rng = make_rng(35)
    conv = Conv2d(rng.normal(size=(2, 2, 3, 3)), rng.normal(size=2), pad=1)
    x_last = np.ascontiguousarray(rng.normal(size=(3, 5, 4, 2))).transpose(0, 3, 1, 2)
    for main, x, in_place in [([conv], x_last, True), ([conv], np.ascontiguousarray(x_last), False),
                              ([Flatten()], rng.normal(size=(3, 4)), False)]:
        block, before = ResidualBlock(main), x.copy()
        y_main, _ = main[0].forward(x, "eval")
        want = y_main + x
        outputs = []

        def record(x, mode, rng=None, gain=None, run=main[0].forward):
            outputs.append(run(x, mode, rng, gain)[0])
            return outputs[-1], {}
        main[0].forward = record
        y, _ = block.forward(x, "eval")
        del main[0].forward
        assert np.shares_memory(y, outputs[0]) == in_place
        assert y.strides == want.strides and y.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("stage", [ReLU(), Dropout(0.5)], ids=["relu", "dropout"])
def test_masks_go_into_the_gradient_only_where_the_walk_owns_it(stage):
    # a writeable gradient laid out as the mask takes the product in place;
    # a read-only one, or one laid out otherwise, gets a new array laid out
    # as grad_y * mask, and is left as it was
    rng = make_rng(36)
    x = rng.normal(size=(4, 3, 5, 6))
    read_only = rng.normal(size=x.shape)
    read_only.flags.writeable = False
    for grad_y, owned in [(rng.normal(size=x.shape), True), (read_only, False),
                          (np.ascontiguousarray(rng.normal(size=(4, 5, 6, 3))).transpose(0, 3, 1, 2), False)]:
        _, cache = stage.forward(x, "train", make_rng(1))
        want = grad_y * cache["mask"]
        before = grad_y.copy()
        grad_x, _ = stage.backward(grad_y, cache)
        assert np.shares_memory(grad_x, grad_y) == owned
        assert grad_x.strides == want.strides and grad_x.tobytes() == want.tobytes()
        if not owned:
            assert grad_y.tobytes() == before.tobytes()


def test_train_step_releases_the_gain_pairs_before_backward(monkeypatch):
    rng = make_rng(9)
    net = Network(residual_block(rng, shortcut=True) + [Flatten(), Dense(rng.normal(size=(2, 60)), np.zeros(2))])
    seen = []

    def checked(net, caches, loss_grad):
        seen.append((caches.xs, caches.zs))
        return backward(net, caches, loss_grad)

    monkeypatch.setattr(optim, "backward", checked)
    report = train_step(net, rng.normal(size=(4, 2, 6, 5)), np.array([0, 1, 1, 0]), SgdNesterov(), 0.1,
                        MaxGainConfig(gamma=0.5), rng=make_rng(1))
    assert seen == [(None, None)]
    assert len(report.gamma_hats) == len(net.learned_layers())


SRC = Path(__file__).resolve().parents[1] / "src" / "maxgain"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name not in ("layers.py", "__init__.py"))


@pytest.mark.parametrize("module", MODULES)
def test_network_walkers_name_no_stage_class(module):
    """Modules outside layers.py (and __init__.py, which re-exports the
    classes) walk networks through the declarations on the stage classes
    (parts, weight_param, operator_norm, out_shape), so each stage type is
    described once, in layers.py."""
    forbidden = {cls.__name__ for cls in STAGE_TYPES.values()} | {"LEARNED_TYPES"}
    assert _names(SRC / module) & forbidden == set()


def test_cli_names_no_config_table_or_builder():
    """cli.py loads inputs, calls one driver and writes outputs; the drivers
    in experiment.py parse the config sections and build each command's data."""
    forbidden = {"CONFIG_FIELDS", "parse_fields", "build_dataset", "build_fold_protocol"}
    assert _names(SRC / "cli.py") & forbidden == set()


def _names(path):
    """Every name, attribute and imported name the module at path uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.rsplit(".", 1)[-1])
    return names


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py") if path.name != "evaluate.py"))
def test_eval_mode_passes_run_only_in_evaluate(module):
    """No module but evaluate.py names the eval batch size or calls a
    forward in eval mode, so every pass over a split shares its one loop."""
    for node in ast.walk(ast.parse((SRC / module).read_text())):
        assert _name(node) != "_EVAL_BATCH"
        if isinstance(node, ast.Call) and _name(node.func) == "forward":
            args = node.args + [k.value for k in node.keywords]
            assert not any(isinstance(a, ast.Constant) and a.value == "eval" for a in args)
