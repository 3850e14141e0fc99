"""MaxPool2d on generated geometries: values and gradient routing against a
nested-loop oracle on inputs full of ties, and the memory a forward and a
backward pass allocate."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxgain import MaxPool2d, make_rng
from oracles import maxpool_oracle

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# few distinct integer values, signed zeros among them, so most windows tie
TIED_VALUES = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@st.composite
def geometries(draw):
    """(layer, x, grad_y): kernel 1-3, stride 1-3, batch 1-3, 1-3 channels,
    and a spatial size from just fitting the window to a few positions more;
    x and grad_y are integer-valued, so gradient sums are exact in any order."""
    kernel, stride = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = kernel + draw(st.integers(0, 5)), kernel + draw(st.integers(0, 5))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    layer = MaxPool2d(kernel, stride)
    grad_y = rng.integers(-3, 4, size=(n, c) + layer.out_shape((c, h, w))[1:]).astype(float)
    return layer, rng.choice(TIED_VALUES, size=(n, c, h, w)), grad_y


def bits(a):
    return a.view(np.uint64)


@PROPERTY_SETTINGS
@given(geometries())
def test_values_and_gradient_routing_match_the_oracle_bitwise(case):
    layer, x, grad_y = case
    y, cache = layer.forward(x, "train")
    grad_x, _ = layer.backward(grad_y, cache)
    want_y, want_grad_x = maxpool_oracle(x, layer.kernel, layer.stride, grad_y)
    where = f"kernel {layer.kernel} stride {layer.stride} input {x.shape}"
    assert y.shape == want_y.shape, where
    np.testing.assert_array_equal(bits(y), bits(want_y), err_msg=where)
    np.testing.assert_array_equal(bits(grad_x), bits(want_grad_x), err_msg=where)


def traced_peak(run):
    """(run(), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel, stride", [(2, 2), (3, 2), (3, 1)])
def test_no_buffer_holds_a_window_per_tap(kernel, stride):
    # a copy of every window would be kernel**2 times y; the running maximum
    # allocates y, idx and a few boolean masks, and backward grad_x plus one
    # grad_y-sized term per tap
    rng = make_rng(6)
    layer = MaxPool2d(kernel, stride)
    x = rng.normal(size=(8, 8, 32, 32))
    (y, cache), forward_peak = traced_peak(lambda: layer.forward(x, "train"))
    forward_out = y.nbytes + cache["idx"].nbytes
    grad_y = rng.normal(size=y.shape)
    (grad_x, _), backward_peak = traced_peak(lambda: layer.backward(grad_y, cache))
    backward_out = grad_x.nbytes + grad_y.nbytes
    assert forward_peak <= 2 * forward_out, f"forward peak {forward_peak} against {forward_out}"
    assert backward_peak <= 2.5 * backward_out, f"backward peak {backward_peak} against {backward_out}"
