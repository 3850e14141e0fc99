"""Array helpers: init schemes, rng determinism."""

import math

import numpy as np
import pytest

from maxgain import InvalidValueError, ShapeError, init_weights, make_rng


class TestInitWeights:
    def test_he_normal_variance(self):
        # fan_in = 8 so the target variance is 2/8 = 0.25
        rng = make_rng(123)
        w = init_weights((125000, 8), "he-normal", rng)
        assert w.var() == pytest.approx(0.25, rel=0.01)
        assert abs(w.mean()) < 0.01

    def test_glorot_uniform_bounds(self):
        rng = make_rng(5)
        w = init_weights((40, 60), "glorot-uniform", rng)
        bound = math.sqrt(6.0 / (40 + 60))
        assert np.abs(w).max() <= bound
        # fills a decent part of the interval
        assert np.abs(w).max() > 0.9 * bound

    def test_conv_fan_in(self):
        # kernel (out=4, in=2, 3, 3): fan_in = 2*9 = 18
        rng = make_rng(11)
        w = init_weights((4, 2, 3, 3), "he-normal", rng)
        assert w.shape == (4, 2, 3, 3)
        big = init_weights((2000, 2, 3, 3), "he-normal", make_rng(12))
        assert big.var() == pytest.approx(2.0 / 18.0, rel=0.05)

    def test_deterministic_given_seed(self):
        a = init_weights((6, 6), "he-normal", make_rng(9))
        b = init_weights((6, 6), "he-normal", make_rng(9))
        assert np.array_equal(a, b)

    def test_unknown_scheme(self):
        with pytest.raises(InvalidValueError):
            init_weights((3, 3), "magic", make_rng(0))

    def test_degenerate_shape(self):
        with pytest.raises(ShapeError):
            init_weights((0, 3), "he-normal", make_rng(0))


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(77).random(100)
        b = make_rng(77).random(100)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        assert not np.array_equal(make_rng(1).random(10), make_rng(2).random(10))

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidValueError):
            make_rng(-1)
