"""Quantizer unit and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixquant.quantize import (
    MAX_BITS,
    MIN_BITS,
    CalibrationOutcome,
    quantization_error,
    quantization_grid,
    quantize,
)


class TestQuantSpec:
    """A quantizer's spec is its scale and its width, checked at every call
    and by every bank."""

    def test_valid_spec_roundtrips_fields(self):
        # the largest float is a usable scale: its reciprocal is subnormal, not 0
        scales = {"a.weight": 2.0, "b.weight": 1.7976931348623157e308}
        for bits in (MIN_BITS, MAX_BITS):
            bank = CalibrationOutcome(bits=bits, scales=scales)
            assert (bank.bits, bank.scales) == (bits, scales)

    @pytest.mark.parametrize("bits", [1, 0, -3, MAX_BITS + 1])
    def test_bits_out_of_range_rejected(self, bits):
        with pytest.raises(ValueError, match="bits"):
            quantize(np.ones(2), 1.0, bits)
        with pytest.raises(ValueError, match="bits"):
            quantization_grid(1.0, bits)

    @pytest.mark.parametrize(
        "first, second", [(-1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (1.0, np.nan), (np.inf, 1.0)]
    )
    def test_nonpositive_or_nonfinite_scales_rejected(self, first, second):
        # a bank checks every tensor's scale and names the one it refuses
        bad = "a.weight" if first != 1.0 else "b.weight"
        with pytest.raises(ValueError, match=f"^scales: {bad}: scale must be"):
            CalibrationOutcome(bits=4, scales={"a.weight": first, "b.weight": second})

    # 5e-324 is finite and positive, but its reciprocal overflows
    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan, 5e-324])
    def test_scale_not_positive_finite_or_invertible_rejected(self, scale):
        with pytest.raises(ValueError, match="scale"):
            quantize(np.ones(2), scale, 4)
        with pytest.raises(ValueError, match="scale"):
            quantization_grid(scale, 4)
        with pytest.raises(ValueError, match="scale"):
            quantization_error(np.zeros(2), scale, 4)


class TestQuantize:
    def test_zero_maps_to_zero(self):
        x = np.zeros((3, 5))
        assert np.all(quantize(x, 3.0, 5) == 0.0)

    def test_hand_worked_value_inside_range(self):
        # clip(0.4/0.8)=0.5, *8=4, round=4, /8*0.8=0.4
        out = quantize(np.array([0.4]), 0.8, 4)
        assert out[0] == pytest.approx(0.4, abs=1e-15)

    def test_hand_worked_value_clipped(self):
        # 2.0/1 clips to 1, *2=2, round=2, /2*1=1
        out = quantize(np.array([2.0]), 1.0, 2)
        assert out[0] == 1.0

    def test_ties_round_away_from_zero(self):
        # 0.25 * 2 = 0.5 at b=2: the tie goes up to 1, not down to 0
        assert quantize(np.array([0.25]), 1.0, 2)[0] == 0.5
        assert quantize(np.array([-0.25]), 1.0, 2)[0] == -0.5

    def test_symmetry_in_sign(self):
        x = np.linspace(-2, 2, 41)
        np.testing.assert_array_equal(quantize(-x, 1.3, 3), -quantize(x, 1.3, 3))

    def test_preserves_shape_and_input(self):
        x = np.arange(12, dtype=float).reshape(3, 4) / 7
        before = x.copy()
        out = quantize(x, 1.0, 3)
        assert out.shape == x.shape
        np.testing.assert_array_equal(x, before)

    def test_rejects_nonfinite_input(self):
        with pytest.raises(ValueError):
            quantize(np.array([1.0, np.nan]), 1.0, 4)


# subnormal maxima would push the reciprocal of a max-value scale to infinity
finite_tensors = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=8),
    elements=st.floats(
        -1e6, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=False
    ),
)


def dual_scale(x, alpha, gamma, bits):
    """The quantizer as it was with a pre-scale and a post-scale."""
    half = 2.0 ** (bits - 1)
    y = np.clip(alpha * x, -1.0, 1.0) * half
    return np.copysign(np.floor(np.abs(y) + 0.5), y) / half * gamma


@given(x=finite_tensors, bits=st.integers(MIN_BITS, MAX_BITS), scale=st.floats(1e-3, 1e3))
@settings(max_examples=300, deadline=None)
def test_property_output_on_grid(x, bits, scale):
    out = quantize(x, scale, bits)
    grid = quantization_grid(scale, bits)
    # exact membership, not approximate: same arithmetic path builds both
    assert np.isin(out, grid).all()
    # the scale divides as a multiplication by its reciprocal, as the
    # pre-scale did: x / scale would round differently and move decisions
    np.testing.assert_array_equal(out, dual_scale(x, 1.0 / scale, scale, bits))


@given(bits=st.integers(MIN_BITS, 8), scale=st.floats(1e-3, 1e3), data=st.data())
@settings(max_examples=200, deadline=None)
def test_property_elementwise_monotone(bits, scale, data):
    lo = data.draw(st.floats(-10, 10))
    hi = data.draw(st.floats(lo, 10))
    qlo, qhi = quantize(np.array([lo]), scale, bits)[0], quantize(np.array([hi]), scale, bits)[0]
    assert qlo <= qhi


@given(x=finite_tensors.filter(lambda a: np.abs(a).max() > 0),
       bits=st.integers(MIN_BITS, 10))
@settings(max_examples=300, deadline=None)
def test_property_calibrated_error_bound(x, bits):
    assert quantization_error(x, float(np.abs(x).max()), bits) <= 2.0 ** (-bits)


class TestQuantizationGrid:
    def test_grid_size_and_symmetry(self):
        g = quantization_grid(1.0, 3)
        assert g.size == 2 ** 3 + 1
        np.testing.assert_array_equal(g, -g[::-1])

    def test_grid_scales_with_scale(self):
        g1 = quantization_grid(1.0, 2)
        g3 = quantization_grid(3.0, 2)
        np.testing.assert_allclose(g3, 3.0 * g1)


class TestQuantizationError:
    def test_exactly_representable_is_zero(self):
        assert quantization_error(np.array([0.5]), 1.0, 2) == 0.0

    def test_hand_worked_error(self):
        # Q(0.3) at b=2 is 0.5; |0.5-0.3|/0.3
        err = quantization_error(np.array([0.3]), 1.0, 2)
        assert err == pytest.approx(0.6666666666666667, rel=1e-12)

    def test_all_zero_tensor_errs_zero(self):
        # an all-zero tensor quantizes exactly, at any scale
        assert quantization_error(np.zeros(4), 1.0, 4) == 0.0
        assert quantization_error(np.zeros((2, 3)), 0.25, 2) == 0.0

    def test_error_not_normalized_away_by_scale(self):
        x = np.array([0.11, -0.37, 0.52, 0.9])
        m = np.abs(x).max()
        assert quantization_error(x, m, 8) < quantization_error(x, m, 4)

