"""Calibration and scale-adjustment tests."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

import mixquant.calibrate as calibrate_module
import mixquant.graph as graph_module
from conftest import make_small_ce_model, reference_descent
from mixquant.calibrate import (
    AdjustmentDivergedError,
    CalibrationOutcome,
    adjust_scales,
    calibrate,
)
from mixquant.fixtures import FixtureSpec, build_fixture_model
from mixquant.graph import (
    HEAD_SOFTMAX_CE,
    HEAD_SQUARED_ERROR,
    KIND_AFFINE,
    KIND_RELU,
    Dataset,
    GraphError,
    Layer,
    ModelGraph,
    forward,
)
from mixquant.modelio import read_record, write_record
from mixquant.quantize import QuantSpec, quantize


def quantized_weights(model, specs):
    return {name: quantize(model.parameter(name), spec) for name, spec in specs.items()}


class TestCalibrate:
    def test_weight_scales_follow_max_abs(self):
        w = np.array([[-0.5, 0.25, 2.0]])
        model = ModelGraph([Layer("lin", KIND_AFFINE, w, np.zeros(1))])
        spec = calibrate(model, 4)["lin.weight"]
        assert spec.alpha == 0.5
        assert spec.gamma == 2.0
        assert spec.bits == 4

    def test_all_zero_tensor_gets_unit_scales(self):
        model = ModelGraph([Layer("lin", KIND_AFFINE, np.zeros((2, 2)), np.zeros(2))])
        specs = calibrate(model, 8)
        assert specs["lin.weight"].alpha == 1.0
        assert specs["lin.weight"].gamma == 1.0

    def test_data_order_invariance(self):
        # data enters calibration only through the full-batch mean loss of
        # the descent step, so row order moves the scales by round-off only
        model, data = make_small_ce_model()
        shuffled = data.subset(np.random.default_rng(9).permutation(len(data)))
        start = calibrate(model, 3)
        a = adjust_scales(model, data, {3: start}, learning_rate=1e-2, epochs=5)[3]
        b = adjust_scales(model, shuffled, {3: start}, learning_rate=1e-2, epochs=5)[3]
        assert a.specs != start
        for name, spec in a.specs.items():
            assert b.specs[name].alpha == pytest.approx(spec.alpha, rel=1e-12)
            assert b.specs[name].gamma == pytest.approx(spec.gamma, rel=1e-12)

    def test_activation_name_rejected(self):
        model, data = make_small_ce_model()
        bank = {**calibrate(model, 4), "first.out": QuantSpec(1.0, 1.0, 4)}
        with pytest.raises(GraphError, match="first.out"):
            adjust_scales(model, data, {4: bank}, epochs=1)


class TestAdjustScales:
    def test_zero_learning_rate_is_identity(self):
        model, data = make_small_ce_model()
        start = calibrate(model, 4)
        adjusted = adjust_scales(model, data, {4: start}, learning_rate=0.0, epochs=5)[4]
        assert adjusted.specs == start
        assert len(adjusted.adjustment_log) == 6
        assert len(set(adjusted.adjustment_log)) == 1

    def test_log_has_epochs_plus_one_entries(self):
        model, data = make_small_ce_model()
        adjusted = adjust_scales(model, data, {4: calibrate(model, 4)}, epochs=3)[4]
        assert len(adjusted.adjustment_log) == 4

    def test_recovers_from_deliberately_doubled_alpha(self):
        model, data = make_small_ce_model()
        broken = {
            name: QuantSpec(spec.alpha * 2.0, spec.gamma, spec.bits)
            for name, spec in calibrate(model, 3).items()
        }
        adjusted = adjust_scales(model, data, {3: broken}, learning_rate=1e-2, epochs=40)[3]
        assert adjusted.adjustment_log[-1] <= adjusted.adjustment_log[0]

    def test_model_weights_bit_identical_after_adjustment(self):
        model, data = make_small_ce_model()
        before = model.parameter_digest()
        adjust_scales(model, data, {4: calibrate(model, 4)}, learning_rate=1e-3, epochs=10)
        assert model.parameter_digest() == before

    def test_input_outcome_not_mutated(self):
        model, data = make_small_ce_model()
        start = calibrate(model, 2)
        frozen = dict(start)
        adjust_scales(model, data, {2: start}, learning_rate=1e-2, epochs=5)
        assert start == frozen

    def test_divergence_reports_epoch(self):
        # a gamma near the float ceiling overflows the squared-error loss
        # on the very first evaluation
        model = ModelGraph(
            [Layer("lin", KIND_AFFINE, np.array([[1.0]]), np.zeros(1))],
            head=HEAD_SQUARED_ERROR,
        )
        data = Dataset(np.array([[1.0]]), np.zeros(1, dtype=int), 1)
        start = {"lin.weight": QuantSpec(alpha=1.0, gamma=1e300, bits=4)}
        with np.errstate(over="ignore"), pytest.raises(AdjustmentDivergedError, match="epoch 0"):
            adjust_scales(model, data, {4: start}, learning_rate=1e-5, epochs=8)

    def test_negative_learning_rate_rejected(self):
        model, data = make_small_ce_model()
        with pytest.raises(GraphError):
            adjust_scales(model, data, {4: calibrate(model, 4)}, learning_rate=-1e-5, epochs=1)

    def test_adjustment_changes_quantized_loss_not_clean_loss(self):
        model, data = make_small_ce_model()
        start = calibrate(model, 2)
        adjusted = adjust_scales(model, data, {2: start}, learning_rate=1e-2, epochs=20)[2]
        clean = forward(model, data).loss
        assert forward(model, data).loss == clean
        q_before = forward(model, data, quantized_weights(model, start)).loss
        q_after = forward(model, data, quantized_weights(model, adjusted.specs)).loss
        assert q_after != q_before


def one_at_a_time(model, data, banks, **kwargs):
    return {bits: adjust_scales(model, data, {bits: bank}, **kwargs)[bits]
            for bits, bank in banks.items()}


def assert_same_banks(stacked, single):
    assert list(stacked) == list(single)
    for bits, outcome in stacked.items():
        assert outcome.specs == single[bits].specs
        assert outcome.adjustment_log == single[bits].adjustment_log


def wide_banks(widths=(8, 6, 5, 4, 3, 2)):
    """A 64-192-160-128-96-64-32-10 model, 256 random rows and one bank per width."""
    model = build_fixture_model(7, FixtureSpec((64, 192, 160, 128, 96, 64, 32, 10)))
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(256, 64)), rng.integers(0, 10, 256), 10)
    return model, data, {b: calibrate(model, b) for b in widths}


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


def one_weight_banks(gammas):
    """A one-weight squared-error model, one row, and a bank per ``(bits, gamma)``."""
    model = ModelGraph(
        [Layer("lin", KIND_AFFINE, np.array([[1.0]]), np.zeros(1))],
        head=HEAD_SQUARED_ERROR,
    )
    data = Dataset(np.array([[1.0]]), np.zeros(1, dtype=int), 1)
    return model, data, {b: {"lin.weight": QuantSpec(1.0, g, b)} for b, g in gammas}


class TestStackedBanks:
    """Banks advanced together in one pass equal banks descended alone, bit for bit."""

    @pytest.mark.parametrize("widths", [(8, 4), (8, 6, 5, 4, 3, 2)], ids=["8-4", "8-to-2"])
    def test_seed7_banks_match_one_at_a_time(self, f1, widths):
        model, data = seed7_calibration(f1)
        starts = {b: calibrate(model, b) for b in widths}
        stacked = adjust_scales(model, data, starts)
        assert_same_banks(stacked, one_at_a_time(model, data, starts))
        assert all(stacked[b].specs != start for b, start in starts.items())

    def test_squared_error_head_matches_one_at_a_time(self):
        model, data = squared_error_model()
        starts = {b: calibrate(model, b) for b in (6, 3, 2)}
        kwargs = dict(learning_rate=1e-2, epochs=6)
        stacked = adjust_scales(model, data, starts, **kwargs)
        assert_same_banks(stacked, one_at_a_time(model, data, starts, **kwargs))

    @pytest.mark.parametrize("per_group", [1, 2])
    def test_small_budget_splits_banks_into_groups(self, f1, monkeypatch, workers, per_group):
        # one worker: on several, the groups' passes interleave
        workers(1)
        model, data = seed7_calibration(f1)
        starts = {b: calibrate(model, b) for b in (8, 4, 3)}
        single = one_at_a_time(model, data, starts, epochs=4)
        passes = []
        real = calibrate_module.loss_and_scale_gradients

        def spy(model, data, names, bits, scales, gradient):
            passes.append((bits.tolist(), gradient))
            return real(model, data, names, bits, scales, gradient)

        monkeypatch.setattr(calibrate_module, "loss_and_scale_gradients", spy)
        monkeypatch.setattr(
            graph_module,
            "STACK_FLOATS",
            per_group * calibrate_module._taped_floats(model, len(data)),
        )
        stacked = adjust_scales(model, data, starts, epochs=4)
        assert_same_banks(stacked, single)
        groups = [[8], [4], [3]] if per_group == 1 else [[8, 4], [3]]
        # the last epoch of each group computes the loss alone
        assert passes == [(group, epoch < 4) for group in groups for epoch in range(5)]

    def test_budget_groups_seed7_banks_together_and_wide_banks_alone(
        self, f1, monkeypatch, workers
    ):
        # the budget alone sets the groups, so they are the same on any
        # number of workers
        seed7, seed7_data = seed7_calibration(f1)
        wide, wide_data, wide_starts = wide_banks()
        assert calibrate_module._taped_floats(seed7, len(seed7_data)) == 256 * 90
        assert calibrate_module._taped_floats(wide, len(wide_data)) == 256 * 682
        seed7_starts = {b: calibrate(seed7, b) for b in (8, 6, 5, 4, 3, 2)}
        groups = []
        real = calibrate_module.loss_and_scale_gradients

        def spy(model, data, names, bits, scales, gradient):
            groups.append(bits.tolist())
            return real(model, data, names, bits, scales, gradient)

        monkeypatch.setattr(calibrate_module, "loss_and_scale_gradients", spy)
        for count in (1, 2):
            workers(count)
            groups.clear()
            adjust_scales(seed7, seed7_data, seed7_starts, epochs=0)
            assert groups == [[8, 6, 5, 4, 3, 2]]
            groups.clear()
            adjust_scales(wide, wide_data, wide_starts, epochs=0)
            assert sorted(groups) == [[2], [3], [4], [5], [6], [8]]

    def test_wide_banks_run_one_at_a_time(self, workers):
        # A taped pass of this model over 256 rows holds about 175k floats
        # per bank, its affine outputs: one bank at a time peaks near
        # 3.4 MiB, one bank on each of two workers near 6.7 MiB, and all
        # six stacked in one pass near 20.3 MiB.
        model, data, starts = wide_banks()
        adjust_scales(model, data, starts, epochs=1)
        for count in (1, 2):
            workers(count)
            tracemalloc.start()
            try:
                adjust_scales(model, data, starts, epochs=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20

    def test_wide_banks_do_not_depend_on_the_workers(self, monkeypatch, workers):
        model, data, starts = wide_banks()
        workers(1)
        single = one_at_a_time(model, data, starts, epochs=3)
        threads = set()
        real = calibrate_module.loss_and_scale_gradients

        def spy(*args):
            threads.add(threading.current_thread())  # kept alive: an ident can be reused
            return real(*args)

        monkeypatch.setattr(calibrate_module, "loss_and_scale_gradients", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than CPUs, switching often
        try:
            for count in (1, 2, 3, 6):
                workers(count)
                threads.clear()
                assert_same_banks(adjust_scales(model, data, starts, epochs=3), single)
                assert len(threads) == count  # each wide bank is a group of its own
        finally:
            sys.setswitchinterval(interval)

    def test_divergence_on_workers_names_the_earliest_bank(self, monkeypatch, workers):
        # one bank per group, and the 3- and 2-bit banks overflow: on two
        # workers the caller runs the 4- and 3-bit banks and a worker the
        # 5- and 2-bit ones; on three, the 3-bit bank has a worker of its own
        model, data, starts = one_weight_banks(((4, 1.0), (3, 1e300), (5, 1.0), (2, 1e300)))
        monkeypatch.setattr(
            graph_module, "STACK_FLOATS", calibrate_module._taped_floats(model, len(data))
        )
        for count in (1, 2, 3):
            workers(count)
            with np.errstate(over="ignore"), pytest.raises(AdjustmentDivergedError) as caught:
                adjust_scales(model, data, starts, learning_rate=1e-5, epochs=8)
            assert "3-bit bank" in str(caught.value) and "epoch 0" in str(caught.value)

    def test_divergence_names_the_diverging_bank(self):
        # only the 3-bit bank's post-scale overflows the squared-error loss
        model, data, starts = one_weight_banks(((4, 1.0), (3, 1e300), (2, 1.0)))
        with np.errstate(over="ignore"), pytest.raises(AdjustmentDivergedError) as caught:
            adjust_scales(model, data, starts, learning_rate=1e-5, epochs=8)
        message = str(caught.value)
        assert "3-bit bank" in message and "epoch 0" in message
        assert "learning rate 1e-05" in message


class TestReferenceDescent:
    """The array descent equals a per-bank, per-tensor descent in Python floats, bit for bit."""

    def test_seed7_banks_match_the_reference(self, f1):
        model, data = seed7_calibration(f1)
        starts = {b: calibrate(model, b) for b in (8, 6, 5, 4, 3, 2)}
        for bits, adjusted in adjust_scales(model, data, starts).items():
            specs, log = reference_descent(model, data, starts[bits], 1e-5, 20)
            assert adjusted.specs == specs
            assert adjusted.adjustment_log == log

    @pytest.mark.parametrize("head", [HEAD_SOFTMAX_CE, HEAD_SQUARED_ERROR])
    def test_three_layer_banks_match_the_reference(self, head):
        # pre-scales 1.5 times the max-value ones clip weights of every
        # tensor under softmax-CE; under squared error some scales reach the floor
        model = ModelGraph(
            build_fixture_model(3, FixtureSpec((5, 8, 6, 3))).layers, head=head
        )
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(size=(40, 5)), rng.integers(0, 3, 40), 3)
        starts = {
            b: {n: QuantSpec(1.5 * s.alpha, s.gamma, s.bits) for n, s in calibrate(model, b).items()}
            for b in (4, 2, 5)
        }
        for bits, adjusted in adjust_scales(model, data, starts, 1e-2, 12).items():
            specs, log = reference_descent(model, data, starts[bits], 1e-2, 12)
            assert adjusted.specs == specs
            assert adjusted.adjustment_log == log
            assert specs != starts[bits]


class TestDescentEdges:
    """What the per-bank checks of the old stacked pass covered, now at ``adjust_scales``."""

    def test_loss_is_the_quantized_forward_loss(self, f1):
        model, calib, _ = f1
        start = calibrate(model, 3)
        adjusted = adjust_scales(model, calib, {3: start}, epochs=0)[3]
        loss = forward(model, calib, quantized_weights(model, start)).loss
        assert adjusted.adjustment_log == [loss]
        assert adjusted.specs == start

    def test_unknown_tensor_rejected(self):
        model, data = make_small_ce_model()
        bank = {"first.bias": QuantSpec(1.0, 1.0, 4)}
        with pytest.raises(GraphError, match="first.bias"):
            adjust_scales(model, data, {4: bank}, epochs=1)

    @pytest.mark.parametrize("fault", ["missing-tensor", "empty", "mixed-widths", "other-width"])
    def test_bank_not_one_width_over_every_tensor_rejected(self, fault):
        model, data = make_small_ce_model()
        bank = calibrate(model, 4)
        if fault == "missing-tensor":
            del bank["second.weight"]
        elif fault == "empty":
            bank.clear()
        elif fault == "mixed-widths":
            bank["second.weight"] = calibrate(model, 7)["second.weight"]
        banks = {8: calibrate(model, 8), (3 if fault == "other-width" else 4): bank}
        with pytest.raises(GraphError, match="-bit bank must hold every weight tensor"):
            adjust_scales(model, data, banks, epochs=1)


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
        write_record(path, outcome)
        loaded = read_record(path, CalibrationOutcome)
        assert loaded.specs == outcome.specs
        assert loaded.adjustment_log == outcome.adjustment_log

    def test_rejects_malformed_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "specs": {}}')
        with pytest.raises(ValueError):
            read_record(path, CalibrationOutcome)
