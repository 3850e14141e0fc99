"""Conv2d on generated geometries: values against a direct-summation oracle,
gradients against finite differences, the adjoint identity, the shape guard,
the size of what a forward pass keeps for backward, and batches that span
several blocks of images."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxgain import Conv2d, ShapeError, layers, make_rng
from oracles import conv2d_oracle, gradient_rel_error, numeric_gradient

GRAD_TOL = 1e-6
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def geometries(draw):
    """(layer, x) with kh != kw allowed, stride 1-3, pad 0-2, 1-4 channels in
    and out, batch 1-3, and a spatial size from just fitting the kernel
    (one output row or column) to a few positions more."""
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, pad = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    ic, oc, n = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    h = max(1, kh - 2 * pad) + draw(st.integers(0, 4))
    w = max(1, kw - 2 * pad) + draw(st.integers(0, 4))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    layer = Conv2d(rng.normal(size=(oc, ic, kh, kw)), rng.normal(size=oc), stride=stride, pad=pad)
    return layer, rng.normal(size=(n, ic, h, w))


def describe(layer, x):
    return f"kernel {layer.kernel.shape} stride {layer.stride} pad {layer.pad} input {x.shape}"


@PROPERTY_SETTINGS
@given(geometries())
def test_forward_matches_direct_oracle(case):
    layer, x = case
    y, cache = layer.forward(x, "train")
    x_in, z = cache["gain"]
    want = conv2d_oracle(x, layer.kernel, layer.stride, layer.pad)
    assert z.shape == want.shape == (x.shape[0],) + layer.out_shape(x.shape[1:])
    assert np.abs(z - want).max() <= 1e-12 * np.abs(want).max(), describe(layer, x)
    np.testing.assert_array_equal(y, z + layer.b[None, :, None, None])
    np.testing.assert_array_equal(x_in, x)


@PROPERTY_SETTINGS
@given(geometries())
def test_gradients_match_finite_differences(case):
    layer, x = case
    y, cache = layer.forward(x, "train")
    r = make_rng(0).normal(size=y.shape)
    grad_x, pgrads = layer.backward(r, cache)

    def loss_of_x(v):
        return float((layer.forward(v, "train")[0] * r).sum())

    def loss_of_kernel(k):
        return float((Conv2d(k, layer.b, layer.stride, layer.pad).forward(x, "train")[0] * r).sum())

    assert gradient_rel_error(grad_x, numeric_gradient(loss_of_x, x)) < GRAD_TOL, describe(layer, x)
    assert gradient_rel_error(pgrads["kernel"], numeric_gradient(loss_of_kernel, layer.kernel)) < GRAD_TOL, \
        describe(layer, x)


@PROPERTY_SETTINGS
@given(geometries())
def test_adjoint_identity(case):
    layer, x = case
    x1 = x[0]
    ax = layer.apply_linear(x1)
    y1 = make_rng(1).normal(size=ax.shape)
    aty = layer.apply_linear_adjoint(y1, x1.shape)
    assert aty.shape == x1.shape
    lhs, rhs = float((ax * y1).sum()), float((x1 * aty).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs)), describe(layer, x)
    with pytest.raises(ShapeError):
        layer.apply_linear_adjoint(np.zeros(ax.shape[:2] + (ax.shape[2] + 1,)), x1.shape)


@PROPERTY_SETTINGS
@given(h=st.integers(1, 4), w=st.integers(1, 4), stride=st.integers(1, 3), pad=st.integers(0, 2),
       short=st.integers(1, 3), tall=st.booleans())
def test_kernel_that_does_not_fit_raises(h, w, stride, pad, short, tall):
    # along one axis the kernel is `short` taps longer than the padded input
    k = (h if tall else w) + 2 * pad + short
    kh, kw = (k, 1) if tall else (1, k)
    layer = Conv2d(np.ones((2, 1, kh, kw)), np.zeros(2), stride=stride, pad=pad)
    with pytest.raises(ShapeError):
        layer.forward(np.ones((1, 1, h, w)), "eval")
    with pytest.raises(ShapeError):
        layer.apply_linear(np.ones((1, h, w)))
    with pytest.raises(ShapeError):
        layer.out_shape((1, h, w))


def root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("ic, oc, kh, kw, stride, pad", [
    (8, 8, 3, 3, 1, 1), (8, 4, 3, 3, 2, 1), (6, 6, 5, 3, 1, 2)])
def test_forward_cache_holds_nothing_larger_than_padded_input(ic, oc, kh, kw, stride, pad):
    # an unfolded (im2col) buffer is about kh*kw times the input
    n, h, w = 2, 12, 10
    rng = make_rng(2)
    layer = Conv2d(rng.normal(size=(oc, ic, kh, kw)), np.zeros(oc), stride=stride, pad=pad)
    _, cache = layer.forward(rng.normal(size=(n, ic, h, w)), "train")
    padded = n * ic * (h + 2 * pad) * (w + 2 * pad)
    sizes = {name: root(v).size for name, v in cache.items() if isinstance(v, np.ndarray)}
    assert sizes and max(sizes.values()) <= padded, f"{sizes} against a padded input of {padded}"


# (block budget in output positions, batch, in/out channels, kernel, stride, pad, input h/w).
# Each batch spans several blocks.
BLOCKED_CASES = [
    (None, 9, 2, 3, 3, 3, 1, 1, 16, 16),  # the library's budget: four 16x16 outputs a block, 4+4+1
    (40, 7, 2, 3, 3, 2, 2, 1, 7, 5),      # 4x3 outputs, three images a block, 3+3+1
    (4, 3, 3, 2, 2, 3, 1, 0, 4, 5),       # budget below one image: one image a block
]


@pytest.fixture(params=BLOCKED_CASES, ids=lambda case: f"budget{case[0]}-n{case[1]}")
def blocked_case(request, monkeypatch):
    budget, n, ic, oc, kh, kw, stride, pad, h, w = request.param
    if budget is not None:
        monkeypatch.setattr(layers, "_BLOCK_POSITIONS", budget)
    rng = make_rng(3)
    layer = Conv2d(rng.normal(size=(oc, ic, kh, kw)), rng.normal(size=oc), stride=stride, pad=pad)
    _, oh, ow = layer.out_shape((ic, h, w))
    nb, blocks = layers._blocks(n, oh, ow)
    assert len(blocks) > 1, f"{n} images fit one block of {nb}"
    return layer, rng.normal(size=(n, ic, h, w))


def rel_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def test_blocked_forward_matches_direct_oracle(blocked_case):
    layer, x = blocked_case
    _, cache = layer.forward(x, "train")
    assert rel_error(cache["gain"][1], conv2d_oracle(x, layer.kernel, layer.stride, layer.pad)) <= 1e-12


def test_blocked_backward_matches_per_image_sums(blocked_case):
    layer, x = blocked_case
    y, cache = layer.forward(x, "train")
    r = make_rng(4).normal(size=y.shape)
    grad_x, pgrads = layer.backward(r, cache)
    per_image = [layer.backward(r[b:b + 1], layer.forward(x[b:b + 1], "train")[1]) for b in range(len(x))]
    assert rel_error(grad_x, np.concatenate([gx for gx, _ in per_image])) <= 1e-12
    assert rel_error(pgrads["kernel"], sum(pg["kernel"] for _, pg in per_image)) <= 1e-12


def test_forward_peak_memory_is_its_outputs():
    # tap rows and products are block-sized, so a forward's peak allocation
    # is about what it returns: the padded input xt, the output z and y = z + b
    rng = make_rng(5)
    layer = Conv2d(rng.normal(size=(16, 16, 3, 3)), np.zeros(16), stride=1, pad=1)
    x = rng.normal(size=(16, 16, 32, 32))
    tracemalloc.start()
    try:
        y, cache = layer.forward(x, "train")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = root(cache["xt"]).nbytes + root(cache["gain"][1]).nbytes + y.nbytes
    assert peak <= 1.1 * outputs, f"peak {peak} bytes against {outputs} bytes of outputs"
