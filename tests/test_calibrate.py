"""Max-value calibration and the specs record."""

import numpy as np
import pytest

from conftest import make_small_ce_model
from mixquant.graph import Layer, ModelGraph
from mixquant.modelio import read_record, write_record
from mixquant.quantize import CalibrationOutcome, calibrate


class TestCalibrate:
    def test_weight_scales_follow_max_abs(self):
        w = np.array([[-0.5, 0.25, 2.0]])
        model = ModelGraph([Layer("lin", w, np.zeros(1))])
        assert calibrate(model, 4) == CalibrationOutcome(bits=4, scales={"lin.weight": 2.0})

    def test_all_zero_tensor_gets_unit_scales(self):
        model = ModelGraph([Layer("lin", np.zeros((2, 2)), np.zeros(2))])
        assert calibrate(model, 8).scales == {"lin.weight": 1.0}

    @pytest.mark.parametrize("bits", [2, 5, 16])
    def test_one_bank_holds_every_weight_tensor_at_its_width(self, bits):
        model, _ = make_small_ce_model()
        before = model.parameter_digest()
        bank = calibrate(model, bits)
        assert bank.bits == bits
        assert list(bank.scales) == model.weight_tensor_names()
        for name, scale in bank.scales.items():
            assert scale == float(np.max(np.abs(model.parameter(name))))
        assert model.parameter_digest() == before


class TestSpecsRoundTrip:
    def test_save_load_preserves_full_precision(self, tmp_path):
        outcome = CalibrationOutcome(
            bits=5, scales={"a.weight": 2.718281828459045, "b.weight": 1 / 3}
        )
        path = tmp_path / "specs.json"
        write_record(path, outcome)
        assert read_record(path, CalibrationOutcome) == outcome

    def test_rejects_malformed_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "bits": 4, "scales": {}}')
        with pytest.raises(ValueError):
            read_record(path, CalibrationOutcome)

