"""Quantizer unit and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixquant.quantize import (
    MAX_BITS,
    MIN_BITS,
    QuantSpec,
    quantization_error,
    quantization_grid,
    quantize,
)


def spec(alpha=1.0, gamma=1.0, bits=4):
    return QuantSpec(alpha=alpha, gamma=gamma, bits=bits)


class TestQuantSpec:
    def test_valid_spec_roundtrips_fields(self):
        s = QuantSpec(alpha=0.5, gamma=2.0, bits=8)
        assert (s.alpha, s.gamma, s.bits) == (0.5, 2.0, 8)

    @pytest.mark.parametrize("bits", [1, 0, -3, MAX_BITS + 1])
    def test_bits_out_of_range_rejected(self, bits):
        with pytest.raises(ValueError):
            QuantSpec(alpha=1.0, gamma=1.0, bits=bits)

    @pytest.mark.parametrize("alpha,gamma", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (np.inf, 1.0), (1.0, np.nan)])
    def test_nonpositive_or_nonfinite_scales_rejected(self, alpha, gamma):
        with pytest.raises(ValueError):
            QuantSpec(alpha=alpha, gamma=gamma, bits=4)


class TestQuantize:
    def test_zero_maps_to_zero(self):
        x = np.zeros((3, 5))
        assert np.all(quantize(x, spec(alpha=0.7, gamma=3.0, bits=5)) == 0.0)

    def test_hand_worked_value_inside_range(self):
        # clip(1.25*0.4)=0.5, *8=4, round=4, /8*0.8=0.4
        out = quantize(np.array([0.4]), spec(alpha=1.25, gamma=0.8, bits=4))
        assert out[0] == pytest.approx(0.4, abs=1e-15)

    def test_hand_worked_value_clipped(self):
        # 1*2.0 clips to 1, *2=2, round=2, /2*1=1
        out = quantize(np.array([2.0]), spec(alpha=1.0, gamma=1.0, bits=2))
        assert out[0] == 1.0

    def test_ties_round_away_from_zero(self):
        # 0.25 * 2 = 0.5 at b=2: the tie goes up to 1, not down to 0
        s = spec(alpha=1.0, gamma=1.0, bits=2)
        assert quantize(np.array([0.25]), s)[0] == 0.5
        assert quantize(np.array([-0.25]), s)[0] == -0.5

    def test_symmetry_in_sign(self):
        x = np.linspace(-2, 2, 41)
        s = spec(alpha=0.8, gamma=1.3, bits=3)
        np.testing.assert_array_equal(quantize(-x, s), -quantize(x, s))

    def test_preserves_shape_and_input(self):
        x = np.arange(12, dtype=float).reshape(3, 4) / 7
        before = x.copy()
        out = quantize(x, spec(bits=3))
        assert out.shape == x.shape
        np.testing.assert_array_equal(x, before)

    def test_rejects_nonfinite_input(self):
        with pytest.raises(ValueError):
            quantize(np.array([1.0, np.nan]), spec())


# subnormal maxima would push alpha = 1/max to infinity
finite_tensors = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=8),
    elements=st.floats(
        -1e6, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=False
    ),
)


@given(x=finite_tensors, bits=st.integers(MIN_BITS, 8),
       alpha=st.floats(1e-3, 1e3), gamma=st.floats(1e-3, 1e3))
@settings(max_examples=300, deadline=None)
def test_property_output_on_grid(x, bits, alpha, gamma):
    s = QuantSpec(alpha=alpha, gamma=gamma, bits=bits)
    out = quantize(x, s)
    grid = quantization_grid(s)
    # exact membership, not approximate: same arithmetic path builds both
    assert np.isin(out, grid).all()


@given(bits=st.integers(MIN_BITS, 8), alpha=st.floats(1e-3, 1e3),
       gamma=st.floats(1e-3, 1e3), data=st.data())
@settings(max_examples=200, deadline=None)
def test_property_elementwise_monotone(bits, alpha, gamma, data):
    lo = data.draw(st.floats(-10, 10))
    hi = data.draw(st.floats(lo, 10))
    s = QuantSpec(alpha=alpha, gamma=gamma, bits=bits)
    qlo, qhi = quantize(np.array([lo]), s)[0], quantize(np.array([hi]), s)[0]
    assert qlo <= qhi


@given(x=finite_tensors.filter(lambda a: np.abs(a).max() > 0),
       bits=st.integers(MIN_BITS, 10))
@settings(max_examples=300, deadline=None)
def test_property_calibrated_error_bound(x, bits):
    m = float(np.abs(x).max())
    s = QuantSpec(alpha=1.0 / m, gamma=m, bits=bits)
    assert quantization_error(x, s) <= 2.0 ** (-bits)


class TestQuantizationGrid:
    def test_grid_size_and_symmetry(self):
        g = quantization_grid(spec(bits=3))
        assert g.size == 2 ** 3 + 1
        np.testing.assert_array_equal(g, -g[::-1])

    def test_grid_scales_with_gamma(self):
        g1 = quantization_grid(spec(gamma=1.0, bits=2))
        g3 = quantization_grid(spec(gamma=3.0, bits=2))
        np.testing.assert_allclose(g3, 3.0 * g1)


class TestQuantizationError:
    def test_exactly_representable_is_zero(self):
        assert quantization_error(np.array([0.5]), spec(bits=2)) == 0.0

    def test_hand_worked_error(self):
        # Q(0.3) at b=2 is 0.5; |0.5-0.3|/0.3
        err = quantization_error(np.array([0.3]), spec(bits=2))
        assert err == pytest.approx(0.6666666666666667, rel=1e-12)

    def test_all_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            quantization_error(np.zeros(4), spec())

    def test_error_not_normalized_away_by_scale(self):
        x = np.array([0.11, -0.37, 0.52, 0.9])
        m = np.abs(x).max()
        s4 = QuantSpec(alpha=1 / m, gamma=m, bits=4)
        s8 = QuantSpec(alpha=1 / m, gamma=m, bits=8)
        assert quantization_error(x, s8) < quantization_error(x, s4)

