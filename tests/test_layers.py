"""Stage semantics: forward values, backward gradients, caches, losses."""

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
    InvalidValueError,
    MaxPool2d,
    Network,
    ReLU,
    ResidualBlock,
    ShapeError,
    backward,
    forward,
    make_rng,
    softmax_cross_entropy,
)
from oracles import (
    apply_linear,
    backward_with_input_grad,
    batchnorm_backward_oracle,
    batchnorm_train_oracle,
    gradient_rel_error,
    numeric_gradient,
    pair_forward,
)

GRAD_TOL = 1e-6


def scalar_loss(y, weights):
    """Deterministic scalar functional of a stage output, for gradient checks."""
    return float((y * weights).sum())


class TestDense:
    def test_doubling_weights(self):
        layer = Dense(2.0 * np.eye(2), np.zeros(2))
        y, _, (_, z) = pair_forward(layer, np.array([[1.0, 1.0]]), "eval")
        assert np.array_equal(y, [[2.0, 2.0]])
        assert np.array_equal(z, [[2.0, 2.0]])

    def test_bias_excluded_from_z_cache(self):
        rng = make_rng(0)
        layer = Dense(rng.normal(size=(3, 4)), rng.normal(size=3))
        x = rng.normal(size=(5, 4))
        y, _, (_, z) = pair_forward(layer, x, "train")
        np.testing.assert_allclose(y - z, np.broadcast_to(layer.b, (5, 3)), rtol=1e-15)

    def test_apply_linear_matches_forward_minus_bias(self):
        rng = make_rng(1)
        layer = Dense(rng.normal(size=(6, 3)), rng.normal(size=6))
        x = rng.normal(size=3)
        _, _, (_, z) = pair_forward(layer, x[None], "eval")
        np.testing.assert_allclose(apply_linear(layer, x), z[0], rtol=1e-15)

    def test_gradients(self):
        rng = make_rng(2)
        for _ in range(5):
            n_in, n_out, batch = rng.integers(1, 7, size=3)
            layer = Dense(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out))
            x = rng.normal(size=(batch, n_in))
            r = rng.normal(size=(batch, n_out))
            _, cache = layer.forward(x, "train")
            grad_x, pgrads = layer.backward(r, cache)

            num_x = numeric_gradient(lambda v: scalar_loss(layer.forward(v, "train")[0], r), x)
            assert gradient_rel_error(grad_x, num_x) < GRAD_TOL

            def loss_of_w(w):
                return scalar_loss(Dense(w, layer.b).forward(x, "train")[0], r)

            assert gradient_rel_error(pgrads["w"], numeric_gradient(loss_of_w, layer.w)) < GRAD_TOL

            def loss_of_b(b):
                return scalar_loss(Dense(layer.w, b).forward(x, "train")[0], r)

            assert gradient_rel_error(pgrads["b"], numeric_gradient(loss_of_b, layer.b)) < GRAD_TOL

    def test_shape_errors(self):
        layer = Dense(np.ones((2, 3)), np.zeros(2))
        with pytest.raises(ShapeError):
            layer.forward(np.ones((4, 5)), "train")
        with pytest.raises(ShapeError):
            Dense(np.ones((2, 3)), np.zeros(5))


class TestConv2d:
    def test_one_by_one_identity_kernel(self):
        layer = Conv2d(np.ones((1, 1, 1, 1)), np.zeros(1))
        x = make_rng(3).normal(size=(2, 1, 4, 4))
        y, _ = layer.forward(x, "eval")
        np.testing.assert_allclose(y, x, rtol=1e-15)

    def test_delta_kernel_identity_with_padding(self):
        # 3x3 kernel with a centered 1 and zero padding 1 reproduces the input
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0, 1, 1] = 1.0
        layer = Conv2d(kernel, np.zeros(1), stride=1, pad=1)
        x = make_rng(4).normal(size=(3, 1, 4, 4))
        y, _ = layer.forward(x, "eval")
        np.testing.assert_allclose(y, x, rtol=1e-15)

    def test_stride_two_geometry(self):
        layer = Conv2d(make_rng(5).normal(size=(2, 1, 3, 3)), np.zeros(2), stride=2, pad=1)
        y, _ = layer.forward(np.ones((1, 1, 6, 6)), "eval")
        assert y.shape == (1, 2, 3, 3)

    def test_known_cross_correlation(self):
        # single 2x2 window: y = sum(kernel * patch) + b
        kernel = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer = Conv2d(kernel, np.array([0.5]))
        x = np.array([[[[1.0, 1.0], [1.0, 1.0]]]])
        y, _ = layer.forward(x, "eval")
        assert y[0, 0, 0, 0] == pytest.approx(10.5, rel=1e-15)

    def test_gradients(self):
        rng = make_rng(6)
        for stride, pad in ((1, 0), (1, 1), (2, 1)):
            layer = Conv2d(rng.normal(size=(2, 2, 3, 3)), rng.normal(size=2),
                           stride=stride, pad=pad)
            x = rng.normal(size=(2, 2, 5, 5))
            y, cache = layer.forward(x, "train")
            r = rng.normal(size=y.shape)
            grad_x, pgrads = layer.backward(r, cache)

            num_x = numeric_gradient(lambda v: scalar_loss(layer.forward(v, "train")[0], r), x)
            assert gradient_rel_error(grad_x, num_x) < GRAD_TOL, f"stride={stride} pad={pad}"

            def loss_of_k(k):
                return scalar_loss(Conv2d(k, layer.b, stride=stride, pad=pad).forward(x, "train")[0], r)

            assert gradient_rel_error(pgrads["kernel"], numeric_gradient(loss_of_k, layer.kernel)) < GRAD_TOL

            def loss_of_b(b):
                return scalar_loss(Conv2d(layer.kernel, b, stride=stride, pad=pad).forward(x, "train")[0], r)

            assert gradient_rel_error(pgrads["b"], numeric_gradient(loss_of_b, layer.b)) < GRAD_TOL

    def test_kernel_does_not_fit(self):
        layer = Conv2d(np.ones((1, 1, 5, 5)), np.zeros(1))
        with pytest.raises(ShapeError):
            layer.forward(np.ones((1, 1, 3, 3)), "eval")

    def test_channel_mismatch(self):
        layer = Conv2d(np.ones((1, 2, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeError):
            layer.forward(np.ones((1, 3, 5, 5)), "eval")


class TestBatchNorm:
    def test_train_normalizes_batch(self):
        rng = make_rng(7)
        layer = BatchNorm(np.ones(3), np.zeros(3))
        x = rng.normal(loc=5.0, scale=2.0, size=(64, 3))
        y, _ = layer.forward(x, "train")
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=0), 1.0, atol=1e-3)

    def test_train_batch_below_the_declared_minimum_is_refused(self, monkeypatch):
        layer = BatchNorm(np.ones(2), np.zeros(2))
        assert layer.min_batch == 2
        with pytest.raises(ShapeError, match="at least 2"):
            layer.forward(np.ones((1, 2)), "train")
        layer.forward(np.ones((1, 2)), "eval")
        monkeypatch.setattr(BatchNorm, "min_batch", 3)
        with pytest.raises(ShapeError, match="at least 3"):
            layer.forward(np.ones((2, 2)), "train")

    def test_running_stats_update(self):
        layer = BatchNorm(np.ones(2), np.zeros(2), momentum=0.9)
        x = np.array([[1.0, 10.0], [3.0, 30.0]])
        layer.forward(x, "train")
        # running = 0.9 * initial + 0.1 * batch
        np.testing.assert_allclose(layer.running_mean, 0.9 * 0.0 + 0.1 * np.array([2.0, 20.0]))
        np.testing.assert_allclose(layer.running_var, 0.9 * 1.0 + 0.1 * np.array([1.0, 100.0]))

    def test_eval_uses_running_stats(self):
        layer = BatchNorm(np.full(2, 2.0), np.full(2, 1.0))
        layer.running_mean = np.array([1.0, -1.0])
        layer.running_var = np.array([4.0, 0.25])
        x = np.array([[3.0, 0.0]])
        y, _, (_, z) = pair_forward(layer, x, "eval")
        scale = 2.0 / np.sqrt(np.array([4.0, 0.25]) + layer.eps)
        np.testing.assert_allclose(y[0], scale * (x[0] - layer.running_mean) + 1.0, rtol=1e-12)
        np.testing.assert_allclose(z[0], scale * x[0], rtol=1e-12)

    def test_z_cache_uses_running_stats_in_train_mode(self):
        # the linear-output cache must be reproducible from apply_linear alone
        rng = make_rng(8)
        layer = BatchNorm(rng.normal(size=4), rng.normal(size=4))
        x = rng.normal(size=(16, 4))
        _, _, (_, z) = pair_forward(layer, x, "train")
        expected = np.stack([apply_linear(layer, xi) for xi in x])
        np.testing.assert_allclose(z, expected, rtol=1e-12)

    def test_single_instance_train_batch_rejected(self):
        layer = BatchNorm(np.ones(2), np.zeros(2))
        with pytest.raises(ShapeError):
            layer.forward(np.ones((1, 2)), "train")
        # eval mode is fine with one instance
        layer.forward(np.ones((1, 2)), "eval")

    def test_gradients_flow_through_batch_statistics(self):
        rng = make_rng(10)
        for shape in ((6, 3), (3, 2, 4, 4)):
            layer = BatchNorm(rng.normal(size=shape[1]), rng.normal(size=shape[1]))
            x = rng.normal(size=shape)
            y, cache = layer.forward(x, "train")
            r = rng.normal(size=y.shape)
            grad_x, pgrads = layer.backward(r, cache)

            def fwd_loss(v):
                probe = BatchNorm(layer.alpha, layer.beta, momentum=layer.momentum, eps=layer.eps)
                return scalar_loss(probe.forward(v, "train")[0], r)

            assert gradient_rel_error(grad_x, numeric_gradient(fwd_loss, x)) < GRAD_TOL, f"shape={shape}"

            def loss_of_alpha(a):
                probe = BatchNorm(a, layer.beta, eps=layer.eps)
                return scalar_loss(probe.forward(x, "train")[0], r)

            def loss_of_beta(b):
                probe = BatchNorm(layer.alpha, b, eps=layer.eps)
                return scalar_loss(probe.forward(x, "train")[0], r)

            assert gradient_rel_error(pgrads["alpha"], numeric_gradient(loss_of_alpha, layer.alpha)) < GRAD_TOL
            assert gradient_rel_error(pgrads["beta"], numeric_gradient(loss_of_beta, layer.beta)) < GRAD_TOL

    def test_conv_shaped_input(self):
        rng = make_rng(11)
        layer = BatchNorm(np.ones(2), np.zeros(2))
        x = rng.normal(loc=1.0, size=(8, 2, 3, 3))
        y, _ = layer.forward(x, "train")
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)


def stored(arr, channels_last):
    """arr itself, or a copy of it stored channels-last (a conv's output layout)."""
    if not channels_last or arr.ndim == 2:
        return arr
    return np.ascontiguousarray(arr.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.sampled_from([2, 4]), n=st.integers(2, 6),
       c=st.integers(1, 5), hw=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       x_last=st.booleans(), g_last=st.booleans())
def test_batchnorm_train_pass_is_bitwise_the_formulas(seed, rank, n, c, hw, x_last, g_last):
    rng = make_rng(seed)
    shape = (n, c) + (hw if rank == 4 else ())
    layer = BatchNorm(rng.normal(size=c), rng.normal(size=c), rng.normal(size=c), rng.uniform(0.1, 3.0, size=c))
    x = stored(3.0 * rng.normal(size=shape) + rng.normal(size=c).reshape((1, c) + (1,) * (rank - 2)), x_last)
    y_want, xhat, inv_std, z, mean, var = batchnorm_train_oracle(layer, x)
    y, cache, (x_in, z_in) = pair_forward(layer, x, "train")
    for got, want in [(y, y_want), (cache["xhat"], xhat), (cache["inv_std"], inv_std),
                      (z_in, z), (layer.running_mean, mean), (layer.running_var, var)]:
        np.testing.assert_array_equal(got, want)
    # the gain pair's x is the input itself; the stage keeps the normalized
    # input in its place, and backward uses it up
    assert x_in is x
    assert set(cache) == {"xhat", "inv_std"}
    grad_y = stored(rng.normal(size=shape), g_last)
    held = grad_y.copy()
    grad_x, grads = layer.backward(grad_y, cache)
    want = batchnorm_backward_oracle(layer, xhat, inv_std, grad_y)
    for got, w in zip((grad_x, grads["alpha"], grads["beta"]), want):
        np.testing.assert_array_equal(got, w)
    np.testing.assert_array_equal(grad_y, held)
    # a fresh forward's cache: the batch statistics, and so xhat, are the same
    no_input, same = layer.backward(grad_y, layer.forward(x, "train")[1], input_grad=False)
    assert no_input is None
    np.testing.assert_array_equal(same["alpha"], grads["alpha"])
    np.testing.assert_array_equal(same["beta"], grads["beta"])


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = make_rng(12).normal(size=(4, 5))
        layer = Dropout(0.0)
        y, _ = layer.forward(x, "train", rng=make_rng(0))
        np.testing.assert_array_equal(y, x)

    def test_train_zeroes_roughly_rate_fraction(self):
        layer = Dropout(0.3)
        x = np.ones((200, 50))
        y, _ = layer.forward(x, "train", rng=make_rng(13))
        dropped = np.mean(y == 0.0)
        assert abs(dropped - 0.3) < 0.02
        # survivors keep their value, no rescaling
        assert set(np.unique(y)) == {0.0, 1.0}

    def test_eval_scales_by_keep_probability(self):
        layer = Dropout(0.25)
        x = make_rng(14).normal(size=(3, 4))
        y, _ = layer.forward(x, "eval")
        np.testing.assert_allclose(y, 0.75 * x, rtol=1e-15)

    def test_train_needs_rng(self):
        with pytest.raises(InvalidValueError):
            Dropout(0.5).forward(np.ones((2, 2)), "train")

    def test_backward_masks_gradient(self):
        layer = Dropout(0.5)
        x = np.ones((6, 6))
        y, cache = layer.forward(x, "train", rng=make_rng(15))
        mask = cache["mask"]
        grad, _ = layer.backward(np.ones_like(y), cache)
        np.testing.assert_array_equal(grad, mask)

    def test_rate_domain(self):
        with pytest.raises(InvalidValueError):
            Dropout(1.0)
        with pytest.raises(InvalidValueError):
            Dropout(-0.1)


class TestReLUMaxPoolFlatten:
    def test_relu_values_and_gradient(self):
        x = np.array([[-2.0, 0.0, 3.0]])
        layer = ReLU()
        y, cache = layer.forward(x, "train")
        np.testing.assert_array_equal(y, [[0.0, 0.0, 3.0]])
        grad, _ = layer.backward(np.ones_like(y), cache)
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 1.0]])

    def test_maxpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        y, _ = MaxPool2d(2).forward(x, "eval")
        np.testing.assert_array_equal(y[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_maxpool_tie_routes_to_first_position(self):
        # all-equal window: the gradient must land on the first element only
        x = np.full((1, 1, 2, 1), 3.0)
        layer = MaxPool2d(2, stride=1)
        with pytest.raises(ShapeError):
            layer.forward(x, "eval")
        x = np.full((1, 1, 2, 2), 3.0)
        y, cache = layer.forward(x, "train")
        grad, _ = layer.backward(np.ones_like(y), cache)
        np.testing.assert_array_equal(grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_maxpool_nan_wins_its_window(self):
        # as with argmax, the first NaN of a window is its maximum
        x = np.array([[1.0, np.nan], [np.nan, 5.0]]).reshape(1, 1, 2, 2)
        layer = MaxPool2d(2)
        y, cache = layer.forward(x, "train")
        assert np.isnan(y).all()
        grad, _ = layer.backward(np.ones_like(y), cache)
        np.testing.assert_array_equal(grad[0, 0], [[0.0, 1.0], [0.0, 0.0]])

    def test_maxpool_gradient(self):
        rng = make_rng(16)
        layer = MaxPool2d(2, stride=2)
        # keep entries well separated so finite differences never cross a tie
        x = rng.permutation(64).astype(float).reshape(1, 1, 8, 8)
        y, cache = layer.forward(x, "train")
        r = rng.normal(size=y.shape)
        grad, _ = layer.backward(r, cache)
        num = numeric_gradient(lambda v: scalar_loss(layer.forward(v, "train")[0], r), x, h=1e-3)
        assert gradient_rel_error(grad, num) < 1e-9

    def test_maxpool_keeps_the_input_layout(self):
        # a conv's channels-last output gets a channels-last gradient back
        rng = make_rng(17)
        channels_last = np.ascontiguousarray(rng.normal(size=(2, 6, 6, 3))).transpose(0, 3, 1, 2)
        for x in (rng.normal(size=(2, 3, 6, 6)), channels_last):
            y, cache = MaxPool2d(2).forward(x, "train")
            grad, _ = MaxPool2d(2).backward(np.ones_like(y), cache)
            assert grad.strides == x.strides

    def test_overlapping_windows_each_route_to_their_own_max(self):
        x = np.arange(9.0).reshape(1, 1, 3, 3)
        layer = MaxPool2d(2, stride=1)
        y, cache = layer.forward(x, "train")
        np.testing.assert_array_equal(y[0, 0], [[4.0, 5.0], [7.0, 8.0]])
        grad, _ = layer.backward(np.ones_like(y), cache)
        expected = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        np.testing.assert_array_equal(grad[0, 0], expected)
        assert grad.sum() == y.size

    def test_shared_max_accumulates_across_windows(self):
        # one dominant element inside every stride-1 window collects all four
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 1, 1] = 9.0
        layer = MaxPool2d(2, stride=1)
        y, cache = layer.forward(x, "train")
        grad, _ = layer.backward(np.ones_like(y), cache)
        assert grad[0, 0, 1, 1] == 4.0
        assert grad.sum() == 4.0

    def test_flatten_round_trip(self):
        x = make_rng(17).normal(size=(3, 2, 4, 5))
        layer = Flatten()
        y, cache = layer.forward(x, "train")
        assert y.shape == (3, 40)
        grad, _ = layer.backward(y, cache)
        np.testing.assert_array_equal(grad, x)


class TestResidualBlock:
    def test_identity_shortcut_is_the_empty_list(self):
        for shortcut in ((), (None,), ([],)):
            assert ResidualBlock([ReLU()], *shortcut).shortcut == []

    def test_identity_shortcut_adds_input(self):
        rng = make_rng(18)
        inner = Dense(rng.normal(size=(4, 4)), rng.normal(size=4))
        block = ResidualBlock([inner])
        x = rng.normal(size=(5, 4))
        y, _ = forward(Network([block]), x, "eval")
        expected, _ = inner.forward(x, "eval")
        np.testing.assert_allclose(y, expected + x, rtol=1e-14)

    def test_projection_shortcut(self):
        rng = make_rng(19)
        main = [Dense(rng.normal(size=(3, 4)), np.zeros(3)), ReLU(),
                Dense(rng.normal(size=(6, 3)), np.zeros(6))]
        shortcut = [Dense(rng.normal(size=(6, 4)), np.zeros(6))]
        block = ResidualBlock(main, shortcut)
        net = Network([block])
        # learned layers enumerate main path first, then the shortcut
        learned = net.learned_layers()
        assert learned == [main[0], main[2], shortcut[0]]
        x = rng.normal(size=(2, 4))
        y, caches = forward(net, x, "train")
        assert y.shape == (2, 6)
        assert len(caches.xs) == 3
        np.testing.assert_array_equal(caches.xs[0], x)
        np.testing.assert_array_equal(caches.xs[2], x)

    def test_branch_shape_mismatch(self):
        block = ResidualBlock([Dense(np.ones((3, 4)), np.zeros(3))])
        with pytest.raises(ShapeError):
            block.forward(np.ones((2, 4)), "eval")

    def test_gradients_through_both_branches(self):
        rng = make_rng(20)
        main = [Dense(rng.normal(size=(4, 4)), rng.normal(size=4)), ReLU()]
        shortcut = [Dense(rng.normal(size=(4, 4)), rng.normal(size=4))]
        net = Network([ResidualBlock(main, shortcut)])
        x = rng.normal(size=(3, 4)) + 0.5  # keep relu inputs off the kink
        r = rng.normal(size=(3, 4))
        y, caches = forward(net, x, "train")
        grad_x, _ = backward_with_input_grad(net, caches, r)

        def loss_of_x(v):
            out, _ = forward(net, v, "train")
            return scalar_loss(out, r)

        assert gradient_rel_error(grad_x, numeric_gradient(loss_of_x, x)) < 1e-5


class TestNetworkPlumbing:
    def test_mode_validation(self):
        net = Network([ReLU()])
        with pytest.raises(InvalidValueError):
            forward(net, np.ones((1, 2)), "predict")

    def test_empty_batch_rejected(self):
        net = Network([ReLU()])
        with pytest.raises(ShapeError):
            forward(net, np.zeros((0, 2)), "eval")

    def test_caches_record_every_learned_layer(self):
        rng = make_rng(21)
        net = Network([
            Dense(rng.normal(size=(8, 4)), np.zeros(8)), ReLU(),
            BatchNorm(np.ones(8), np.zeros(8)),
            Dense(rng.normal(size=(2, 8)), np.zeros(2)),
        ])
        x = rng.normal(size=(16, 4))
        _, caches = forward(net, x, "train")
        assert len(caches.xs) == len(caches.zs) == 3
        assert caches.batch_size == 16

    def test_backward_rejects_eval_caches(self):
        net = Network([Dense(np.eye(2), np.zeros(2))])
        _, caches = forward(net, np.ones((2, 2)), "eval")
        with pytest.raises(CacheError):
            backward(net, caches, np.ones((2, 2)))

    def test_backward_uses_its_caches_up(self):
        rng = make_rng(23)
        net = Network([ResidualBlock([Dense(rng.normal(size=(2, 2)), np.zeros(2)), ReLU()]),
                       Dense(np.eye(2), np.zeros(2))])
        _, caches = forward(net, np.ones((2, 2)), "train")
        backward(net, caches, np.ones((2, 2)))
        with pytest.raises(CacheError, match="^stage cache holds no 'x': a backward pass used it up"):
            backward(net, caches, np.ones((2, 2)))

    def test_backward_rejects_foreign_caches(self):
        w = np.eye(2)
        net_a = Network([Dense(w, np.zeros(2))])
        net_b = Network([Dense(w, np.zeros(2))])
        _, caches = forward(net_a, np.ones((2, 2)), "train")
        with pytest.raises(CacheError):
            backward(net_b, caches, np.ones((2, 2)))

    def test_homogeneous_scaling_of_affine_stage(self):
        # scaling W and b by c > 0 scales the pre-activation output by c,
        # and relu commutes with positive scaling
        rng = make_rng(22)
        w, b = rng.normal(size=(5, 3)), rng.normal(size=5)
        x = rng.normal(size=(4, 3))
        c = 3.7
        base = Network([Dense(w, b), ReLU()])
        scaled = Network([Dense(c * w, c * b), ReLU()])
        y0, _ = forward(base, x, "eval")
        y1, _ = forward(scaled, x, "eval")
        np.testing.assert_allclose(y1, c * y0, rtol=1e-13)


class TestSoftmaxCrossEntropy:
    def test_known_value(self):
        # cross entropy of logits (1, 2, 3) with the true class 2
        loss, _ = softmax_cross_entropy(np.array([[1.0, 2.0, 3.0]]), np.array([2]))
        assert loss == pytest.approx(0.40760596444438030, rel=1e-14)

    def test_gradient_rows_sum_to_zero(self):
        # the gradient is softmax minus one-hot, so this also checks that
        # softmax rows sum to one, on plain and on x20 (near one-hot) logits
        rng = make_rng(24)
        for logits in (rng.normal(size=(6, 4)), rng.normal(size=(10, 7)) * 20):
            n, c = logits.shape
            _, grad = softmax_cross_entropy(logits, rng.integers(0, c, size=n))
            np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-15)

    def test_gradient_against_finite_differences(self):
        rng = make_rng(25)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        _, grad = softmax_cross_entropy(logits, labels)
        num = numeric_gradient(lambda l: softmax_cross_entropy(l, labels)[0], logits)
        assert gradient_rel_error(grad, num) < GRAD_TOL

    def test_extreme_logits_stay_finite(self):
        loss, grad = softmax_cross_entropy(np.array([[1000.0, 0.0], [-1000.0, 0.0]]),
                                           np.array([0, 0]))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            softmax_cross_entropy(np.ones((2, 3)), np.array([0, 3]))
        with pytest.raises(IndexError):
            softmax_cross_entropy(np.ones((2, 3)), np.array([-1, 0]))

    def test_non_integer_labels_rejected(self):
        with pytest.raises(InvalidValueError):
            softmax_cross_entropy(np.ones((2, 2)), np.array([0.0, 1.0]))
