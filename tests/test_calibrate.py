"""Calibration and scale-adjustment tests."""

import tracemalloc

import numpy as np
import pytest

import mixquant.calibrate as calibrate_module
from conftest import make_small_ce_model
from mixquant.calibrate import (
    AdjustmentDivergedError,
    CalibrationOutcome,
    adjust_scales,
    calibrate,
    load_specs,
    save_specs,
)
from mixquant.fixtures import FixtureSpec, build_fixture_model
from mixquant.graph import (
    HEAD_SQUARED_ERROR,
    KIND_AFFINE,
    KIND_RELU,
    Dataset,
    GraphError,
    Layer,
    ModelGraph,
    forward,
)
from mixquant.quantize import QuantSpec, quantize


def bits_for(model, bits=4):
    return {name: bits for name in model.weight_tensor_names()}


def quantized_weights(model, specs):
    return {name: quantize(model.parameter(name), spec) for name, spec in specs.items()}


class TestCalibrate:
    def test_weight_scales_follow_max_abs(self):
        w = np.array([[-0.5, 0.25, 2.0]])
        model = ModelGraph([Layer("lin", KIND_AFFINE, w, np.zeros(1))])
        out = calibrate(model, {"lin.weight": 4})
        spec = out.specs["lin.weight"]
        assert spec.alpha == 0.5
        assert spec.gamma == 2.0
        assert spec.bits == 4

    def test_all_zero_tensor_gets_unit_scales(self):
        model = ModelGraph([Layer("lin", KIND_AFFINE, np.zeros((2, 2)), np.zeros(2))])
        out = calibrate(model, {"lin.weight": 8})
        assert out.specs["lin.weight"].alpha == 1.0
        assert out.specs["lin.weight"].gamma == 1.0

    def test_data_order_invariance(self):
        # data enters calibration only through the full-batch mean loss of
        # the descent step, so row order moves the scales by round-off only
        model, data = make_small_ce_model()
        shuffled = data.subset(np.random.default_rng(9).permutation(len(data)))
        start = calibrate(model, bits_for(model, 3))
        (a,) = adjust_scales(model, data, [start], learning_rate=1e-2, epochs=5)
        (b,) = adjust_scales(model, shuffled, [start], learning_rate=1e-2, epochs=5)
        assert a.specs != start.specs
        for name, spec in a.specs.items():
            assert b.specs[name].alpha == pytest.approx(spec.alpha, rel=1e-12)
            assert b.specs[name].gamma == pytest.approx(spec.gamma, rel=1e-12)

    def test_unknown_tensor_name_rejected(self):
        model, _ = make_small_ce_model()
        with pytest.raises(GraphError):
            calibrate(model, {"phantom.weight": 4})

    def test_activation_name_rejected(self):
        model, _ = make_small_ce_model()
        with pytest.raises(GraphError, match="first.out"):
            calibrate(model, {"first.out": 4})


class TestAdjustScales:
    def test_zero_learning_rate_is_identity(self):
        model, data = make_small_ce_model()
        out = calibrate(model, bits_for(model))
        (adjusted,) = adjust_scales(model, data, [out], learning_rate=0.0, epochs=5)
        assert adjusted.specs == out.specs
        assert len(adjusted.adjustment_log) == 6
        assert len(set(adjusted.adjustment_log)) == 1

    def test_log_has_epochs_plus_one_entries(self):
        model, data = make_small_ce_model()
        out = calibrate(model, bits_for(model))
        (adjusted,) = adjust_scales(model, data, [out], epochs=3)
        assert len(adjusted.adjustment_log) == 4

    def test_recovers_from_deliberately_doubled_alpha(self):
        model, data = make_small_ce_model()
        out = calibrate(model, bits_for(model, 3))
        broken = {
            name: QuantSpec(spec.alpha * 2.0, spec.gamma, spec.bits)
            for name, spec in out.specs.items()
        }
        start = CalibrationOutcome(specs=broken)
        (adjusted,) = adjust_scales(model, data, [start], learning_rate=1e-2, epochs=40)
        assert adjusted.adjustment_log[-1] <= adjusted.adjustment_log[0]

    def test_model_weights_bit_identical_after_adjustment(self):
        model, data = make_small_ce_model()
        before = model.parameter_digest()
        out = calibrate(model, bits_for(model))
        adjust_scales(model, data, [out], learning_rate=1e-3, epochs=10)
        assert model.parameter_digest() == before

    def test_empty_spec_map_passes_through(self):
        model, data = make_small_ce_model()
        (adjusted,) = adjust_scales(model, data, [CalibrationOutcome(specs={})], epochs=2)
        assert adjusted.specs == {}
        assert len(adjusted.adjustment_log) == 3

    def test_input_outcome_not_mutated(self):
        model, data = make_small_ce_model()
        out = calibrate(model, bits_for(model, 2))
        frozen = dict(out.specs)
        adjust_scales(model, data, [out], learning_rate=1e-2, epochs=5)
        assert out.specs == frozen
        assert out.adjustment_log == []

    def test_divergence_reports_epoch(self):
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
            adjust_scales(model, data, [start], learning_rate=1e-5, epochs=8)

    def test_negative_learning_rate_rejected(self):
        model, data = make_small_ce_model()
        out = calibrate(model, bits_for(model))
        with pytest.raises(GraphError):
            adjust_scales(model, data, [out], learning_rate=-1e-5, epochs=1)

    def test_adjustment_changes_quantized_loss_not_clean_loss(self):
        model, data = make_small_ce_model()
        out = calibrate(model, bits_for(model, 2))
        (adjusted,) = adjust_scales(model, data, [out], learning_rate=1e-2, epochs=20)
        clean = forward(model, data).loss
        assert forward(model, data).loss == clean
        q_before = forward(model, data, quantized_weights(model, out.specs)).loss
        q_after = forward(model, data, quantized_weights(model, adjusted.specs)).loss
        assert q_after != q_before


def one_at_a_time(model, data, outcomes, **kwargs):
    return [adjust_scales(model, data, [outcome], **kwargs)[0] for outcome in outcomes]


def assert_same_banks(stacked, single):
    assert len(stacked) == len(single)
    for a, b in zip(stacked, single):
        assert a.specs == b.specs
        assert a.adjustment_log == b.adjustment_log


def seed7_calibration(f1, rows=256):
    model, calib, _ = f1
    return model, calib.subset(np.arange(rows))


def squared_error_model(seed=2, examples=48):
    rng = np.random.default_rng(seed)
    model = ModelGraph(
        [
            Layer("first", KIND_AFFINE, rng.normal(0, 0.6, (5, 3)), rng.normal(0, 0.1, 5)),
            Layer("act", KIND_RELU),
            Layer("second", KIND_AFFINE, rng.normal(0, 0.6, (2, 5)), rng.normal(0, 0.1, 2)),
        ],
        head=HEAD_SQUARED_ERROR,
    )
    data = Dataset(rng.normal(size=(examples, 3)), rng.integers(0, 2, examples), 2)
    return model, data


class TestStackedBanks:
    """Banks advanced together in one pass equal banks descended alone, bit for bit."""

    @pytest.mark.parametrize("widths", [(8, 4), (8, 6, 5, 4, 3, 2)], ids=["8-4", "8-to-2"])
    def test_seed7_banks_match_one_at_a_time(self, f1, widths):
        model, data = seed7_calibration(f1)
        starts = [calibrate(model, bits_for(model, b)) for b in widths]
        stacked = adjust_scales(model, data, starts)
        assert_same_banks(stacked, one_at_a_time(model, data, starts))
        assert all(a.specs != s.specs for a, s in zip(stacked, starts))

    def test_squared_error_head_matches_one_at_a_time(self):
        model, data = squared_error_model()
        starts = [calibrate(model, bits_for(model, b)) for b in (6, 3, 2)]
        kwargs = dict(learning_rate=1e-2, epochs=6)
        stacked = adjust_scales(model, data, starts, **kwargs)
        assert_same_banks(stacked, one_at_a_time(model, data, starts, **kwargs))

    def test_mixed_width_bank_matches_one_at_a_time(self):
        model, data = make_small_ce_model()
        mixed = calibrate(model, {"first.weight": 2, "second.weight": 7})
        starts = [mixed, calibrate(model, bits_for(model, 3)), mixed]
        kwargs = dict(learning_rate=1e-2, epochs=5)
        stacked = adjust_scales(model, data, starts, **kwargs)
        assert_same_banks(stacked, one_at_a_time(model, data, starts, **kwargs))
        assert stacked[0].specs["second.weight"].bits == 7

    def test_empty_spec_map_matches_one_at_a_time(self):
        model, data = make_small_ce_model()
        starts = [CalibrationOutcome(specs={}), calibrate(model, bits_for(model, 4))]
        starts.append(CalibrationOutcome(specs={}))
        kwargs = dict(learning_rate=1e-2, epochs=3)
        stacked = adjust_scales(model, data, starts, **kwargs)
        assert_same_banks(stacked, one_at_a_time(model, data, starts, **kwargs))
        assert stacked[0].adjustment_log == [forward(model, data).loss] * 4

    @pytest.mark.parametrize("per_group", [1, 2])
    def test_small_budget_splits_banks_into_groups(self, f1, monkeypatch, per_group):
        model, data = seed7_calibration(f1)
        starts = [calibrate(model, bits_for(model, b)) for b in (8, 4, 3)]
        single = one_at_a_time(model, data, starts, epochs=4)
        passes = []
        real = calibrate_module.loss_and_scale_gradients

        def spy(model, data, banks, gradient):
            passes.append((len(banks), gradient))
            return real(model, data, banks, gradient)

        monkeypatch.setattr(calibrate_module, "loss_and_scale_gradients", spy)
        monkeypatch.setattr(
            calibrate_module,
            "STACK_FLOATS",
            per_group * calibrate_module._taped_floats(model, len(data)),
        )
        stacked = adjust_scales(model, data, starts, epochs=4)
        assert_same_banks(stacked, single)
        groups = [1, 1, 1] if per_group == 1 else [2, 1]
        # the last epoch of each group computes the loss alone
        assert passes == [(size, epoch < 4) for size in groups for epoch in range(5)]

    def test_wide_banks_run_one_at_a_time(self):
        # A taped pass of this model over 256 rows holds about 347k floats
        # per bank: one bank at a time peaks near 5.3 MB, three stacked
        # near 15.8 MB and all six near 31.7 MB.
        model = build_fixture_model(7, FixtureSpec((64, 192, 160, 128, 96, 64, 32, 10)))
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(256, 64)), rng.integers(0, 10, 256), 10)
        starts = [calibrate(model, bits_for(model, b)) for b in (8, 6, 5, 4, 3, 2)]
        adjust_scales(model, data, starts, epochs=1)
        tracemalloc.start()
        try:
            adjust_scales(model, data, starts, epochs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_divergence_names_the_diverging_bank(self):
        # only the 3-bit bank's post-scale overflows the squared-error loss
        model = ModelGraph(
            [Layer("lin", KIND_AFFINE, np.array([[1.0]]), np.zeros(1))],
            head=HEAD_SQUARED_ERROR,
        )
        data = Dataset(np.array([[1.0]]), np.zeros(1, dtype=int), 1)
        starts = [
            CalibrationOutcome(specs={"lin.weight": QuantSpec(alpha=1.0, gamma=1.0, bits=4)}),
            CalibrationOutcome(specs={"lin.weight": QuantSpec(alpha=1.0, gamma=1e300, bits=3)}),
            CalibrationOutcome(specs={"lin.weight": QuantSpec(alpha=1.0, gamma=1.0, bits=2)}),
        ]
        with np.errstate(over="ignore"), pytest.raises(AdjustmentDivergedError) as caught:
            adjust_scales(model, data, starts, learning_rate=1e-5, epochs=8)
        message = str(caught.value)
        assert "3-bit bank" in message and "epoch 0" in message
        assert "learning rate 1e-05" in message


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
