"""Max-value calibration and the specs record."""

import numpy as np
import pytest

from conftest import make_small_ce_model
from mixquant.calibrate import CalibrationOutcome, calibrate
from mixquant.graph import Layer, ModelGraph
from mixquant.modelio import read_record, write_record
from mixquant.quantize import QuantSpec


class TestCalibrate:
    def test_weight_scales_follow_max_abs(self):
        w = np.array([[-0.5, 0.25, 2.0]])
        model = ModelGraph([Layer("lin", w, np.zeros(1))])
        spec = calibrate(model, 4)["lin.weight"]
        assert spec.alpha == 0.5
        assert spec.gamma == 2.0
        assert spec.bits == 4

    def test_all_zero_tensor_gets_unit_scales(self):
        model = ModelGraph([Layer("lin", np.zeros((2, 2)), np.zeros(2))])
        specs = calibrate(model, 8)
        assert specs["lin.weight"].alpha == 1.0
        assert specs["lin.weight"].gamma == 1.0

    @pytest.mark.parametrize("bits", [2, 5, 16])
    def test_one_bank_holds_every_weight_tensor_at_its_width(self, bits):
        model, _ = make_small_ce_model()
        before = model.parameter_digest()
        specs = calibrate(model, bits)
        assert list(specs) == model.weight_tensor_names()
        for name, spec in specs.items():
            peak = float(np.max(np.abs(model.parameter(name))))
            assert spec == QuantSpec(alpha=1.0 / peak, gamma=peak, bits=bits)
        assert model.parameter_digest() == before


class TestSpecsRoundTrip:
    def test_save_load_preserves_full_precision(self, tmp_path):
        outcome = CalibrationOutcome(
            specs={
                "a.weight": QuantSpec(alpha=1 / 3, gamma=2.718281828459045, bits=5),
                "b.weight": QuantSpec(alpha=0.1, gamma=7.0, bits=16),
            },
        )
        path = tmp_path / "specs.json"
        write_record(path, outcome)
        assert read_record(path, CalibrationOutcome) == outcome

    def test_rejects_malformed_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "specs": {}}')
        with pytest.raises(ValueError):
            read_record(path, CalibrationOutcome)
