"""Gain measurement, operator norms, and the whole-network Lipschitz bound."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxgain import (
    AdjointMismatchError,
    BatchNorm,
    CacheError,
    Conv2d,
    Dense,
    Dropout,
    EmptySampleError,
    Flatten,
    InvalidValueError,
    MaxPool2d,
    Network,
    ReLU,
    ResidualBlock,
    ShapeError,
    batch_max_gain,
    build_network,
    forward,
    gain_stats,
    instance_gains,
    layer_operator_norm,
    lipschitz_upper_bound,
    make_rng,
    operator_norm_exact,
    spectral_norm_power_iteration,
)
from maxgain import gain as gain_module
from maxgain.gain import batch_norms
from oracles import (
    brute_force_operator_norm_p1,
    brute_force_operator_norm_pinf,
    gain,
    materialize_linear,
    quartiles_oracle,
)

ALL_P = (1, 2, math.inf)
LAYOUTS = ("c", "channels-last", "padded", "flipped", "broadcast")


def dense_ops(w):
    return (lambda v: w @ v), (lambda u: w.T @ u), w.shape[1]


class TestGain:
    def test_scaling_layer_has_gain_equal_to_scale(self):
        layer = Dense(2.0 * np.eye(3), np.ones(3))  # bias must not matter
        x = make_rng(0).normal(size=3)
        for p in ALL_P:
            assert gain(layer, x, p) == pytest.approx(2.0, rel=1e-14)

    def test_zero_input_has_zero_gain(self):
        layer = Dense(np.ones((2, 2)), np.zeros(2))
        for p in ALL_P:
            assert gain(layer, np.zeros(2), p) == 0.0

    def test_gain_is_scale_invariant_in_the_input(self):
        rng = make_rng(1)
        layer = Dense(rng.normal(size=(4, 6)), rng.normal(size=4))
        x = rng.normal(size=6)
        for p in ALL_P:
            g = gain(layer, x, p)
            assert gain(layer, 5.0 * x, p) == pytest.approx(g, rel=1e-12)
            assert gain(layer, -0.01 * x, p) == pytest.approx(g, rel=1e-12)

    def test_gain_never_exceeds_operator_norm(self):
        rng = make_rng(2)
        for _ in range(20):
            layer = Dense(rng.normal(size=(5, 7)), np.zeros(5))
            x = rng.normal(size=7)
            assert gain(layer, x, 1) <= operator_norm_exact(layer.w, 1) * (1 + 1e-12)
            assert gain(layer, x, math.inf) <= operator_norm_exact(layer.w, math.inf) * (1 + 1e-12)
            assert gain(layer, x, 2) <= np.linalg.norm(layer.w, 2) * (1 + 1e-12)

    def test_instance_gains_zero_rule(self):
        xs = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        zs = np.array([[2.0, 0.0], [5.0, 5.0], [0.0, 1.0]])
        np.testing.assert_allclose(instance_gains(xs, zs, 2), [2.0, 0.0, 0.5])

    def test_batch_max_gain_matches_per_instance_loop(self):
        rng = make_rng(3)
        layer = Dense(rng.normal(size=(5, 4)), rng.normal(size=5))
        xs = rng.normal(size=(16, 4))
        zs = xs @ layer.w.T
        for p in ALL_P:
            expected = max(gain(layer, x, p) for x in xs)
            assert batch_max_gain(xs, zs, p) == pytest.approx(expected, rel=1e-12)

    def test_batch_max_gain_uses_the_caches_not_the_layer(self):
        # stale-cache semantics: the z values passed in are authoritative
        xs = np.array([[1.0, 0.0]])
        zs = np.array([[10.0, 0.0]])
        assert batch_max_gain(xs, zs, 2) == pytest.approx(10.0)

    def test_batch_max_gain_cache_length_mismatch(self):
        with pytest.raises(CacheError):
            batch_max_gain(np.ones((3, 2)), np.ones((2, 2)), 2)

    def test_batch_max_gain_empty_caches(self):
        with pytest.raises(EmptySampleError):
            batch_max_gain(np.zeros((0, 2)), np.zeros((0, 2)), 2)

    def test_conv_shaped_caches(self):
        rng = make_rng(4)
        layer = Conv2d(rng.normal(size=(2, 1, 3, 3)), np.zeros(2), pad=1)
        net = Network([layer])
        x = rng.normal(size=(6, 1, 5, 5))
        _, caches = forward(net, x, "train")
        g = batch_max_gain(caches.xs[0], caches.zs[0], 2)
        expected = max(gain(layer, xi, 2) for xi in x)
        assert g == pytest.approx(expected, rel=1e-12)

    def test_bad_norm_order(self):
        layer = Dense(np.eye(2), np.zeros(2))
        with pytest.raises(InvalidValueError):
            gain(layer, np.ones(2), 3)


class TestOperatorNormExact:
    def test_small_matrix_by_hand(self):
        w = np.array([[1.0, -2.0], [3.0, 4.0]])
        # column sums of |.|: (4, 6); row sums: (3, 7)
        assert operator_norm_exact(w, 1) == 6.0
        assert operator_norm_exact(w, math.inf) == 7.0

    def test_p1_equals_brute_force_over_basis_vectors(self):
        rng = make_rng(5)
        for _ in range(25):
            w = rng.normal(size=rng.integers(1, 9, size=2))
            assert operator_norm_exact(w, 1) == brute_force_operator_norm_p1(w)

    def test_pinf_equals_brute_force_over_sign_vectors(self):
        rng = make_rng(6)
        for _ in range(15):
            w = rng.normal(size=(rng.integers(1, 9), rng.integers(1, 9)))
            assert operator_norm_exact(w, math.inf) == brute_force_operator_norm_pinf(w)

    def test_p2_is_not_exact_here(self):
        with pytest.raises(InvalidValueError):
            operator_norm_exact(np.eye(2), 2)

    def test_degenerate_matrix(self):
        with pytest.raises(ShapeError):
            operator_norm_exact(np.zeros((0, 3)), 1)
        with pytest.raises(ShapeError):
            operator_norm_exact(np.zeros(3), 1)


class TestPowerIteration:
    def test_diagonal_matrix(self):
        amap, atmap, dim = dense_ops(np.diag([3.0, 1.0]))
        result = spectral_norm_power_iteration(amap, atmap, dim)
        assert result.value == pytest.approx(3.0, rel=1e-9)
        assert 1 <= result.iterations < 100  # gapped spectrum converges early

    def test_rotation_has_norm_one(self):
        th = 0.7
        r = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        amap, atmap, dim = dense_ops(r)
        result = spectral_norm_power_iteration(amap, atmap, dim)
        assert result.value == pytest.approx(1.0, rel=1e-12)

    def test_zero_map(self):
        amap, atmap, dim = dense_ops(np.zeros((3, 3)))
        result = spectral_norm_power_iteration(amap, atmap, dim)
        assert result.value == 0.0

    def test_rank_one_map(self):
        u = np.array([3.0, 4.0])
        v = np.array([1.0, 2.0, 2.0])
        w = np.outer(u, v)  # sigma = |u| * |v| = 15
        amap, atmap, dim = dense_ops(w)
        result = spectral_norm_power_iteration(amap, atmap, dim)
        assert result.value == pytest.approx(15.0, rel=1e-12)

    def test_against_dense_eigensolver(self):
        rng = make_rng(7)
        for trial in range(20):
            w = rng.normal(size=(rng.integers(1, 13), rng.integers(1, 13)))
            amap, atmap, dim = dense_ops(w)
            got = spectral_norm_power_iteration(amap, atmap, dim,
                                                iters=5000, tol=1e-13,
                                                rng=make_rng(100 + trial)).value
            want = math.sqrt(max(np.linalg.eigvalsh(w.T @ w).max(), 0.0))
            assert got == pytest.approx(want, rel=1e-8), f"trial {trial}"

    def test_wide_and_tall_maps(self):
        rng = make_rng(8)
        for shape in ((2, 9), (9, 2)):
            w = rng.normal(size=shape)
            amap, atmap, dim = dense_ops(w)
            got = spectral_norm_power_iteration(amap, atmap, dim, iters=3000, tol=1e-13).value
            assert got == pytest.approx(np.linalg.norm(w, 2), rel=1e-8)

    def test_adjoint_mismatch_detected(self):
        w = make_rng(9).normal(size=(4, 4))
        amap = lambda v: w @ v
        wrong = lambda u: 2.0 * (w.T @ u)
        with pytest.raises(AdjointMismatchError):
            spectral_norm_power_iteration(amap, wrong, 4)

    def test_adjoint_check_can_be_skipped(self):
        # with the check off a wrong adjoint is the caller's problem
        w = np.eye(3)
        amap = lambda v: w @ v
        wrong = lambda u: 2.0 * u
        result = spectral_norm_power_iteration(amap, wrong, 3, check_adjoint=False)
        assert math.isfinite(result.value)

    def test_is_deterministic_for_a_given_rng(self):
        w = make_rng(10).normal(size=(6, 6))
        amap, atmap, dim = dense_ops(w)
        a = spectral_norm_power_iteration(amap, atmap, dim, rng=make_rng(1))
        b = spectral_norm_power_iteration(amap, atmap, dim, rng=make_rng(1))
        assert a == b


class TestMaterializeLinear:
    def test_dense_reproduces_the_weight_matrix(self):
        w = make_rng(11).normal(size=(3, 5))
        layer = Dense(w, make_rng(12).normal(size=3))
        np.testing.assert_array_equal(materialize_linear(layer, 5), w)

    def test_delta_kernel_conv_is_the_identity(self):
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0, 1, 1] = 1.0
        layer = Conv2d(kernel, np.zeros(1), pad=1)
        m = materialize_linear(layer, (1, 4, 4))
        np.testing.assert_array_equal(m, np.eye(16))

    def test_batchnorm_is_diagonal(self):
        layer = BatchNorm(np.array([2.0, -3.0]), np.ones(2))
        layer.running_var = np.array([3.0, 0.5])
        m = materialize_linear(layer, 2)
        expected = np.diag(layer.alpha / np.sqrt(layer.running_var + layer.eps))
        np.testing.assert_allclose(m, expected, rtol=1e-15)

    def test_matrix_agrees_with_direct_application(self):
        rng = make_rng(13)
        layer = Conv2d(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3), stride=2, pad=1)
        m = materialize_linear(layer, (2, 6, 6))
        for _ in range(5):
            x = rng.normal(size=(2, 6, 6))
            np.testing.assert_allclose(m @ x.reshape(-1),
                                       layer.apply_linear(x).reshape(-1), rtol=1e-12)


class TestLayerOperatorNorm:
    def test_dense_p2_matches_numpy(self):
        rng = make_rng(14)
        for _ in range(10):
            layer = Dense(rng.normal(size=(6, 8)), np.zeros(6))
            got = layer_operator_norm(layer, 2, (8,))
            assert got == pytest.approx(np.linalg.norm(layer.w, 2), rel=1e-8)

    def test_conv_p2_matches_materialized_svd(self):
        rng = make_rng(15)
        layer = Conv2d(rng.normal(size=(2, 1, 3, 3)), np.zeros(2), pad=1)
        got = spectral_norm_power_iteration(
            lambda v: layer.apply_linear(v.reshape(1, 5, 5)),
            lambda u: layer.apply_linear_adjoint(u.reshape(2, 5, 5), (1, 5, 5)),
            25, iters=3000, tol=1e-13).value
        want = np.linalg.norm(materialize_linear(layer, (1, 5, 5)), 2)
        assert got == pytest.approx(want, rel=1e-8)
        # the closed form bounds the exact norm from above (loosely, on a grid this small)
        assert layer_operator_norm(layer, 2, (1, 5, 5)) >= want

    def test_conv_p1_pinf_via_materialization(self):
        rng = make_rng(16)
        layer = Conv2d(rng.normal(size=(2, 2, 3, 3)), np.zeros(2))
        m = materialize_linear(layer, (2, 4, 4))
        assert layer_operator_norm(layer, 1, (2, 4, 4)) == operator_norm_exact(m, 1)
        assert layer_operator_norm(layer, math.inf, (2, 4, 4)) == operator_norm_exact(m, math.inf)

    def test_shape_the_layer_cannot_take_is_rejected(self):
        layers = [(Dense(np.ones((3, 4)), np.zeros(3)), (5,)),
                  (BatchNorm(np.ones(2), np.zeros(2)), (3, 4, 4)),
                  (Conv2d(np.ones((1, 2, 3, 3)), np.zeros(1)), (2, 2, 2))]
        for layer, shape in layers:
            for p in ALL_P:
                with pytest.raises(ShapeError):
                    layer_operator_norm(layer, p, shape)

    def test_batchnorm_diagonal_norm_for_every_p(self):
        layer = BatchNorm(np.array([1.0, -4.0, 2.0]), np.zeros(3))
        layer.running_var = np.array([1.0, 3.0, 0.1])
        expected = np.max(np.abs(layer.alpha) / np.sqrt(layer.running_var + layer.eps))
        for p in ALL_P:
            assert layer_operator_norm(layer, p, (3,)) == pytest.approx(expected, rel=1e-15)


class TestLipschitzUpperBound:
    def test_single_dense_layer(self):
        w = make_rng(17).normal(size=(4, 4))
        net = Network([Dense(w, np.ones(4))])
        assert lipschitz_upper_bound(net, 1, (4,)) == operator_norm_exact(w, 1)
        assert lipschitz_upper_bound(net, math.inf, (4,)) == operator_norm_exact(w, math.inf)

    def test_composition_multiplies(self):
        rng = make_rng(18)
        w1, w2 = rng.normal(size=(5, 3)), rng.normal(size=(2, 5))
        net = Network([Dense(w1, np.zeros(5)), ReLU(), Dense(w2, np.zeros(2))])
        want = operator_norm_exact(w1, 1) * operator_norm_exact(w2, 1)
        assert lipschitz_upper_bound(net, 1, (3,)) == pytest.approx(want, rel=1e-14)

    def test_dropout_contributes_keep_probability(self):
        net = Network([Dense(np.eye(3), np.zeros(3)), Dropout(0.4)])
        assert lipschitz_upper_bound(net, 1, (3,)) == pytest.approx(0.6, rel=1e-15)

    def test_identity_shortcut_adds_one(self):
        w = make_rng(19).normal(size=(4, 4))
        net = Network([ResidualBlock([Dense(w, np.zeros(4))])])
        want = 1.0 + operator_norm_exact(w, 1)
        assert lipschitz_upper_bound(net, 1, (4,)) == pytest.approx(want, rel=1e-14)

    def test_projection_shortcut_adds_its_norm(self):
        rng = make_rng(20)
        wm, ws = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        net = Network([ResidualBlock([Dense(wm, np.zeros(4))], [Dense(ws, np.zeros(4))])])
        want = operator_norm_exact(wm, 1) + operator_norm_exact(ws, 1)
        assert lipschitz_upper_bound(net, 1, (4,)) == pytest.approx(want, rel=1e-14)

    def test_bound_dominates_observed_differences_mlp(self):
        rng = make_rng(21)
        net = Network([
            Dense(rng.normal(size=(16, 4)), rng.normal(size=16)), ReLU(),
            Dropout(0.3),
            Dense(rng.normal(size=(3, 16)), rng.normal(size=3)),
        ])
        for p in ALL_P:
            bound = lipschitz_upper_bound(net, p, (4,))
            for _ in range(30):
                a = rng.normal(size=(1, 4))
                b = a + 0.1 * rng.normal(size=(1, 4))
                fa, _ = forward(net, a, "eval")
                fb, _ = forward(net, b, "eval")
                num = np.linalg.norm((fa - fb).reshape(-1), p)
                den = np.linalg.norm((a - b).reshape(-1), p)
                assert num <= bound * den * (1 + 1e-9)

    def test_bound_dominates_observed_differences_convnet(self):
        rng = make_rng(22)
        net = Network([
            Conv2d(rng.normal(size=(3, 1, 3, 3)), rng.normal(size=3), pad=1),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Dense(rng.normal(size=(2, 48)), rng.normal(size=2)),
        ])
        bound = lipschitz_upper_bound(net, 2, (1, 8, 8))
        for _ in range(10):
            a = rng.normal(size=(1, 1, 8, 8))
            b = a + 0.05 * rng.normal(size=(1, 1, 8, 8))
            fa, _ = forward(net, a, "eval")
            fb, _ = forward(net, b, "eval")
            num = np.linalg.norm((fa - fb).reshape(-1))
            den = np.linalg.norm((a - b).reshape(-1))
            assert num <= bound * den * (1 + 1e-9)

    def test_cifar_shaped_cnn_for_every_p(self):
        # materializing these convs refused p in {1, inf}; the closed forms need no matrix
        def conv(c_in, c_out):
            return {"type": "conv", "in": c_in, "out": c_out, "kernel": 3, "pad": 1}

        net = build_network({"model": [
            conv(3, 32), {"type": "batchnorm", "channels": 32}, {"type": "relu"},
            {"type": "residual", "main": [conv(32, 32), {"type": "relu"}, conv(32, 32)]},
            {"type": "maxpool", "kernel": 2}, conv(32, 64), {"type": "relu"},
            {"type": "maxpool", "kernel": 2}, {"type": "flatten"},
            {"type": "dense", "in": 64 * 8 * 8, "out": 10}]}, make_rng(0))
        rng = make_rng(24)
        a = rng.normal(size=(2, 3, 32, 32))
        b = a + 0.01 * rng.normal(size=a.shape)
        fa, fb = forward(net, a, "eval")[0], forward(net, b, "eval")[0]
        for p in ALL_P:
            bound = lipschitz_upper_bound(net, p, (3, 32, 32))
            assert math.isfinite(bound)
            for i in range(2):
                assert np.linalg.norm(fa[i] - fb[i], p) <= bound * np.linalg.norm((a - b)[i].reshape(-1), p)

    def test_stages_that_do_not_chain_are_rejected(self):
        # forward refuses this network, so there is no function to bound
        net = Network([Dense(np.ones((3, 2)), np.zeros(3)), BatchNorm(np.ones(4), np.zeros(4))])
        with pytest.raises(ShapeError):
            forward(net, np.ones((2, 2)), "eval")
        for p in ALL_P:
            with pytest.raises(ShapeError):
                lipschitz_upper_bound(net, p, (2,))

    def test_trained_batchnorm_state_enters_the_bound(self):
        layer = BatchNorm(np.ones(2), np.zeros(2))
        layer.running_var = np.array([0.25 - layer.eps, 1.0])
        net = Network([Dense(np.eye(2), np.zeros(2)), layer])
        assert lipschitz_upper_bound(net, 1, (2,)) == pytest.approx(2.0, rel=1e-12)


class TestGainStats:
    def test_one_through_five(self):
        s = gain_stats([5.0, 1.0, 3.0, 2.0, 4.0])
        assert (s.min, s.lower_quartile, s.median, s.upper_quartile, s.max) == \
            (1.0, 2.0, 3.0, 4.0, 5.0)
        assert s.n == 5

    def test_interpolated_quartiles(self):
        # four values: q1 sits three quarters of the way from 1 to 2
        s = gain_stats([1.0, 2.0, 3.0, 4.0])
        assert s.lower_quartile == pytest.approx(1.75)
        assert s.median == pytest.approx(2.5)
        assert s.upper_quartile == pytest.approx(3.25)

    def test_matches_percentile_oracle(self):
        rng = make_rng(23)
        for _ in range(20):
            values = rng.normal(size=rng.integers(1, 40))
            s = gain_stats(values)
            want = quartiles_oracle(values)
            got = (s.min, s.lower_quartile, s.median, s.upper_quartile, s.max)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_single_value(self):
        s = gain_stats([2.5])
        assert s.min == s.median == s.max == 2.5
        assert s.n == 1

    def test_empty_sample(self):
        with pytest.raises(EmptySampleError):
            gain_stats([])


def laid_out(rng, shape, layout):
    """A random (n, c, h, w) batch stored one of the LAYOUTS ways: C order, a
    channels-last array seen as NCHW, the interior of a padded channels-last
    buffer (whose padding holds values that must not be read), that view
    flipped along h and w (negative strides), or a batch broadcast along h."""
    n, c, h, w = shape
    if layout == "c":
        return rng.normal(size=shape)
    if layout == "broadcast":
        return np.broadcast_to(rng.normal(size=(n, c, 1, w)), shape)
    if layout == "channels-last":
        return rng.normal(size=(n, h, w, c)).transpose(0, 3, 1, 2)
    interior = rng.normal(size=(n, h + 2, w + 2, c))[:, 1:h + 1, 1:w + 1].transpose(0, 3, 1, 2)
    return interior if layout == "padded" else interior[:, :, ::-1, ::-1]


def old_batch_norms(arr, p):
    """The row norms of the batch flattened in logical order, as batch_norms
    computed them before it summed in storage order."""
    flat = np.asarray(arr, dtype=np.float64).reshape(arr.shape[0], -1)
    if p == 1:
        return np.abs(flat).sum(axis=1)
    if p == 2:
        return np.sqrt((flat * flat).sum(axis=1))
    return np.abs(flat).max(axis=1)


@st.composite
def stored_batches(draw, layouts=LAYOUTS):
    """(arr, layout): a batch of 1-5 instances of shape (1-6, 1-9, 1-9),
    with entries spread over six decades, in one of the given layouts."""
    shape = tuple(draw(st.integers(1, k)) for k in (5, 6, 9, 9))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(layouts))
    arr = laid_out(rng, shape, layout)
    return arr * 10.0 ** laid_out(rng, shape, "c").clip(-3, 3), layout


NORM_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestStorageOrderNorms:
    @NORM_SETTINGS
    @given(stored_batches())
    def test_norms_match_the_logical_flattening(self, case):
        arr, layout = case
        flat = np.array(arr).reshape(len(arr), -1)
        for p in (1, 2):
            got, want = batch_norms(arr, p), np.linalg.norm(flat, ord=p, axis=1)
            assert np.all(np.abs(got - want) <= 1e-13 * want), (layout, p)
        np.testing.assert_array_equal(batch_norms(arr, math.inf), np.abs(flat).max(axis=1))

    @pytest.mark.parametrize("layout, stored_axes", [
        ("c", (0, 1, 2, 3)), ("channels-last", (0, 2, 3, 1)), ("padded", (0, 2, 3, 1)),
        ("flipped", (0, 2, 3, 1)), ("broadcast", (0, 1, 3, 2))])
    def test_norms_sum_each_instance_in_storage_order(self, layout, stored_axes):
        # bitwise the row norms of the batch flattened with its axes in the
        # order of decreasing stride
        arr = laid_out(make_rng(7), (3, 4, 5, 6), layout)
        flat = np.ascontiguousarray(arr.transpose(stored_axes))
        for p in ALL_P:
            np.testing.assert_array_equal(batch_norms(arr, p), old_batch_norms(flat, p))

    @NORM_SETTINGS
    @given(stored_batches(layouts=("c",)))
    def test_c_contiguous_norms_are_bitwise_the_flattened_row_norms(self, case):
        arr, _ = case
        for p in ALL_P:
            np.testing.assert_array_equal(batch_norms(arr, p), old_batch_norms(arr, p))

    @NORM_SETTINGS
    @given(stored_batches(), stored_batches())
    def test_an_instance_gain_is_the_same_alone_as_in_a_batch(self, xs_case, zs_case):
        (xs, _), (zs, _) = xs_case, zs_case
        k = min(len(xs), len(zs))
        xs, zs = xs[:k], zs[:k]
        for p in ALL_P:
            batch = instance_gains(xs, zs, p)
            for i in range(k):
                assert instance_gains(xs[i:i + 1], zs[i:i + 1], p)[0] == batch[i]

    @NORM_SETTINGS
    @given(stored_batches(), st.integers(1, 3000))
    def test_norms_do_not_depend_on_how_many_instances_a_chunk_holds(self, case, chunk):
        arr, _ = case
        for p in ALL_P:
            whole = batch_norms(arr, p)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(gain_module, "_NORM_CHUNK", chunk)
                np.testing.assert_array_equal(batch_norms(arr, p), whole)

    @pytest.mark.parametrize("p", ALL_P)
    def test_a_channels_last_view_allocates_at_most_its_own_size(self, p):
        # a conv's gain input: the interior of its padded channels-last copy,
        # which a logical-order flattening would copy whole before squaring
        view = laid_out(make_rng(6), (64, 16, 16, 16), "padded")
        tracemalloc.start()
        try:
            batch_norms(view, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= view.nbytes, f"peak {peak} bytes for a {view.nbytes}-byte view"
