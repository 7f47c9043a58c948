import numpy as np
import pytest

from rapidnet.errors import ShapeError
from rapidnet.tensor import Rng, add, randn


class TestRandn:
    def test_same_seed_bitwise_identical(self):
        a = randn([3, 4, 5], Rng(42))
        b = randn([3, 4, 5], Rng(42))
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(randn([100], Rng(1)), randn([100], Rng(2)))

    def test_law_of_large_numbers(self):
        # sample mean/std of 10^6 draws should sit within 0.01 of (0, 1)
        samples = randn([10 ** 6], Rng(7), mean=0.0, std=1.0, dtype="f64")
        assert abs(float(samples.mean())) < 0.01
        assert abs(float(samples.std()) - 1.0) < 0.01

    def test_mean_std_applied(self):
        samples = randn([10 ** 5], Rng(7), mean=3.0, std=0.5, dtype="f64")
        assert abs(float(samples.mean()) - 3.0) < 0.01
        assert abs(float(samples.std()) - 0.5) < 0.01

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            randn([4], Rng(0), std=-1.0)

    def test_dtypes(self):
        assert randn([2], Rng(0), dtype="f32").dtype == np.float32
        assert randn([2], Rng(0), dtype="f64").dtype == np.float64

    def test_zero_dimension_rejected(self):
        with pytest.raises(ShapeError):
            randn([1, 0, 2], Rng(0))

    def test_negative_dimension_rejected(self):
        with pytest.raises(ShapeError):
            randn([2, -1], Rng(0))


class TestElementwise:
    def test_additive_identity(self, rng):
        x = rng.normal((2, 3, 4, 4))
        assert np.array_equal(add(x, np.zeros_like(x)), x)

    def test_add_values(self):
        out = add(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.array_equal(out, np.array([4.0, 6.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_inputs_not_mutated(self, rng):
        x = rng.normal((3, 3))
        x0 = x.copy()
        add(x, x)
        add(x, 2.0)
        assert np.array_equal(x, x0)

    def test_round_trip_with_zeros(self, rng):
        x = rng.normal((2, 5))
        assert np.array_equal(add(np.zeros(x.shape, dtype=x.dtype), x), x)
