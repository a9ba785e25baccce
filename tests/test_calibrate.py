"""Calibration and scale-adjustment tests."""

import numpy as np
import pytest

from conftest import make_small_ce_model
from mixquant.calibrate import (
    AdjustmentDivergedError,
    CalibrationOutcome,
    adjust_scales,
    calibrate,
    load_specs,
    save_specs,
)
from mixquant.graph import (
    KIND_AFFINE,
    Dataset,
    GraphError,
    Layer,
    ModelGraph,
    forward,
)
from mixquant.quantize import QuantSpec


def bits_for(model, bits=4):
    return {name: bits for name in model.weight_tensor_names()}


class TestCalibrate:
    def test_weight_scales_follow_max_abs(self):
        w = np.array([[-0.5, 0.25, 2.0]])
        model = ModelGraph([Layer("lin", KIND_AFFINE, w, np.zeros(1))])
        data = Dataset(np.ones((1, 3)), np.zeros(1, dtype=int), 1)
        out = calibrate(model, data, {"lin.weight": 4})
        spec = out.specs["lin.weight"]
        assert spec.alpha == 0.5
        assert spec.gamma == 2.0
        assert spec.bits == 4

    def test_all_zero_tensor_gets_unit_scales(self):
        model = ModelGraph([Layer("lin", KIND_AFFINE, np.zeros((2, 2)), np.zeros(2))])
        data = Dataset(np.ones((1, 2)), np.zeros(1, dtype=int), 2)
        out = calibrate(model, data, {"lin.weight": 8})
        assert out.specs["lin.weight"].alpha == 1.0
        assert out.specs["lin.weight"].gamma == 1.0

    def test_data_order_invariance(self):
        model, data = make_small_ce_model()
        perm = np.random.default_rng(9).permutation(len(data))
        shuffled = data.subset(perm)
        a = calibrate(model, data, bits_for(model))
        b = calibrate(model, shuffled, bits_for(model))
        assert a.specs == b.specs

    def test_unknown_tensor_name_rejected(self):
        model, data = make_small_ce_model()
        with pytest.raises(GraphError):
            calibrate(model, data, {"phantom.weight": 4})

    def test_activation_name_rejected(self):
        model, data = make_small_ce_model()
        with pytest.raises(GraphError, match="first.out"):
            calibrate(model, data, {"first.out": 4})


class TestAdjustScales:
    def test_zero_learning_rate_is_identity(self):
        model, data = make_small_ce_model()
        out = calibrate(model, data, bits_for(model))
        adjusted = adjust_scales(model, data, out, learning_rate=0.0, epochs=5)
        assert adjusted.specs == out.specs
        assert len(adjusted.adjustment_log) == 6
        assert len(set(adjusted.adjustment_log)) == 1

    def test_log_has_epochs_plus_one_entries(self):
        model, data = make_small_ce_model()
        out = calibrate(model, data, bits_for(model))
        adjusted = adjust_scales(model, data, out, epochs=3)
        assert len(adjusted.adjustment_log) == 4

    def test_recovers_from_deliberately_doubled_alpha(self):
        model, data = make_small_ce_model()
        out = calibrate(model, data, bits_for(model, 3))
        broken = {
            name: QuantSpec(spec.alpha * 2.0, spec.gamma, spec.bits)
            for name, spec in out.specs.items()
        }
        start = CalibrationOutcome(specs=broken)
        adjusted = adjust_scales(model, data, start, learning_rate=1e-2, epochs=40)
        assert adjusted.adjustment_log[-1] <= adjusted.adjustment_log[0]

    def test_model_weights_bit_identical_after_adjustment(self):
        model, data = make_small_ce_model()
        before = model.parameter_digest()
        out = calibrate(model, data, bits_for(model))
        adjust_scales(model, data, out, learning_rate=1e-3, epochs=10)
        assert model.parameter_digest() == before

    def test_empty_spec_map_passes_through(self):
        model, data = make_small_ce_model()
        adjusted = adjust_scales(model, data, CalibrationOutcome(specs={}), epochs=2)
        assert adjusted.specs == {}
        assert len(adjusted.adjustment_log) == 3

    def test_input_outcome_not_mutated(self):
        model, data = make_small_ce_model()
        out = calibrate(model, data, bits_for(model, 2))
        frozen = dict(out.specs)
        adjust_scales(model, data, out, learning_rate=1e-2, epochs=5)
        assert out.specs == frozen
        assert out.adjustment_log == []

    def test_divergence_reports_epoch(self):
        from mixquant.graph import HEAD_SQUARED_ERROR

        # a gamma near the float ceiling overflows the squared-error loss
        # on the very first evaluation
        model = ModelGraph(
            [Layer("lin", KIND_AFFINE, np.array([[1.0]]), np.zeros(1))],
            head=HEAD_SQUARED_ERROR,
        )
        data = Dataset(np.array([[1.0]]), np.zeros(1, dtype=int), 1)
        start = CalibrationOutcome(
            specs={"lin.weight": QuantSpec(alpha=1.0, gamma=1e300, bits=4)}
        )
        with np.errstate(over="ignore"), pytest.raises(AdjustmentDivergedError, match="epoch 0"):
            adjust_scales(model, data, start, learning_rate=1e-5, epochs=8)

    def test_negative_learning_rate_rejected(self):
        model, data = make_small_ce_model()
        out = calibrate(model, data, bits_for(model))
        with pytest.raises(GraphError):
            adjust_scales(model, data, out, learning_rate=-1e-5, epochs=1)

    def test_adjustment_changes_quantized_loss_not_clean_loss(self):
        model, data = make_small_ce_model()
        out = calibrate(model, data, bits_for(model, 2))
        adjusted = adjust_scales(model, data, out, learning_rate=1e-2, epochs=20)
        clean = forward(model, data).loss
        assert forward(model, data).loss == clean
        q_before = forward(model, data, quant=out.specs).loss
        q_after = forward(model, data, quant=adjusted.specs).loss
        assert q_after != q_before


class TestSpecsRoundTrip:
    def test_save_load_preserves_full_precision(self, tmp_path):
        outcome = CalibrationOutcome(
            specs={
                "a.weight": QuantSpec(alpha=1 / 3, gamma=2.718281828459045, bits=5),
                "b.weight": QuantSpec(alpha=0.1, gamma=7.0, bits=16),
            },
            adjustment_log=[0.9, 0.30000000000000004],
        )
        path = tmp_path / "specs.json"
        save_specs(outcome, path)
        loaded = load_specs(path)
        assert loaded.specs == outcome.specs
        assert loaded.adjustment_log == outcome.adjustment_log

    def test_rejects_malformed_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "specs": {}}')
        with pytest.raises(ValueError):
            load_specs(path)
