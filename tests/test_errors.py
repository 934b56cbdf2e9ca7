"""The argument checkers: one per kind of argument, shared by every layer."""

import numpy as np
import pytest

from subsetgibbs import Ar1Config, FixedVariances, InvalidParameterError
from subsetgibbs.errors import _checked_indices, _checked_int, _checked_positive, _checked_seed


class TestCheckedInt:
    @pytest.mark.parametrize("value", [2, 5])
    def test_bounds_are_inclusive(self, value):
        assert _checked_int(value, "k", 2, 5) == value

    @pytest.mark.parametrize("value, message", [
        (1, "k must be in [2, 5], got 1"), (6, "k must be in [2, 5], got 6")])
    def test_value_outside_both_bounds_names_the_range(self, value, message):
        with pytest.raises(InvalidParameterError, match=message.replace("[", r"\[")):
            _checked_int(value, "k", 2, 5)

    def test_an_absent_bound_is_open(self):
        assert _checked_int(-10**30, "k") == -10**30
        assert _checked_int(10**30, "k", low=0) == 10**30
        assert _checked_int(-10**30, "k", high=0) == -10**30
        with pytest.raises(InvalidParameterError, match="k must be >= 0, got -1"):
            _checked_int(-1, "k", low=0)
        with pytest.raises(InvalidParameterError, match="k must be <= 0, got 1"):
            _checked_int(1, "k", high=0)

    @pytest.mark.parametrize("value", [np.int8(3), np.int64(3), np.uint64(3)])
    def test_numpy_integers_pass_as_int(self, value):
        result = _checked_int(value, "k", 1, 4)
        assert result == 3 and type(result) is int

    @pytest.mark.parametrize("value", [2.0, 2.7, np.float64(2.0), "2"])
    def test_non_integers_fail_as_integer(self, value):
        with pytest.raises(InvalidParameterError, match="k must be an integer"):
            _checked_int(value, "k", 1, 4)


class TestCheckedSeed:
    @pytest.mark.parametrize("value", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_64_bit_unsigned_range_passes(self, value):
        assert _checked_seed(value) == int(value)

    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_outside_the_range_names_the_argument(self, value):
        with pytest.raises(InvalidParameterError,
                           match=f"--seed must be a 64-bit unsigned integer, got {value}"):
            _checked_seed(value, "--seed")

    def test_float_fails_as_integer(self):
        with pytest.raises(InvalidParameterError, match="seed must be an integer"):
            _checked_seed(1.0)


class TestCheckedPositive:
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_rejects_zero_negative_nan_and_infinities(self, value):
        with pytest.raises(InvalidParameterError, match=f"x must be finite and > 0, got {value}"):
            _checked_positive(value, "x")

    @pytest.mark.parametrize("value", [1e-300, np.float64(0.5), 3])
    def test_accepts_tiny_numpy_and_integer_values(self, value):
        _checked_positive(value, "x")


class TestCheckedIndices:
    @pytest.mark.parametrize("values", [
        [], [[0, 1], [2, 3]], [0.0, 1.0], [2, 1], [1, 1], [-1, 2], [0, 5]])
    def test_rejects_empty_2d_float_unsorted_duplicate_negative_and_out_of_range(self, values):
        with pytest.raises(InvalidParameterError, match="idx must be a nonempty"):
            _checked_indices(np.array(values), "idx", N=5)

    def test_without_N_only_the_lower_end_is_bounded(self):
        np.testing.assert_array_equal(_checked_indices([0, 10**12], "idx"), [0, 10**12])
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            _checked_indices([-1], "idx")

    def test_turns_uint32_into_int64(self):
        result = _checked_indices(np.array([0, 3, 4], dtype=np.uint32), "idx", N=5)
        assert result.dtype == np.int64
        np.testing.assert_array_equal(result, [0, 3, 4])

    def test_int64_input_is_returned_without_a_copy(self):
        values = np.array([1, 2], dtype=np.int64)
        assert _checked_indices(values, "idx", N=3) is values


class TestMisreportedFailures:
    """Two checks that used to say "> 0" or "strictly positive" of a value
    that fails only by not being finite."""

    def test_infinite_noise_variance_is_reported_as_not_finite(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            Ar1Config(N=5, noise_var=float("inf"))

    def test_nan_variance_pin_is_reported_as_not_finite(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            FixedVariances(1.0, float("nan"), 1.0, 1.0)
