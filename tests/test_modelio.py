"""Model and dataset file pair round trips and validation."""

import json

import numpy as np
import pytest

from conftest import make_small_ce_model
from mixquant.graph import HEAD_SQUARED_ERROR, KIND_AFFINE, Dataset, Layer, ModelGraph
from mixquant.modelio import (
    DataFormatError,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)


def f32(values):
    return np.asarray(values, dtype=np.float32).astype(np.float64)


class TestModelRoundTrip:
    def test_float32_representable_model_survives_exactly(self, tmp_path):
        rng = np.random.default_rng(4)
        model = ModelGraph(
            [
                Layer("a", KIND_AFFINE, f32(rng.normal(size=(5, 3))), f32(rng.normal(size=5))),
                Layer("b", KIND_AFFINE, f32(rng.normal(size=(2, 5))), f32(rng.normal(size=2))),
            ]
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.parameter_digest() == model.parameter_digest()
        assert loaded.head == model.head

    def test_relu_layers_and_head_preserved(self, tmp_path):
        model, _ = make_small_ce_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert [(l.name, l.kind) for l in loaded.layers] == [
            (l.name, l.kind) for l in model.layers
        ]

    def test_squared_error_head_round_trips(self, tmp_path):
        model = ModelGraph(
            [Layer("z", KIND_AFFINE, np.eye(2), np.zeros(2))], head=HEAD_SQUARED_ERROR
        )
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path).head == HEAD_SQUARED_ERROR

    def test_truncated_blob_rejected(self, tmp_path):
        model, _ = make_small_ce_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        blob = tmp_path / "model.bin"
        blob.write_bytes(blob.read_bytes()[:-4])
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "not-a-model"}')
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_unparseable_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{nope")
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_offsets_past_blob_rejected(self, tmp_path):
        model = ModelGraph([Layer("a", KIND_AFFINE, np.eye(2), np.zeros(2))])
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["layers"][0]["weight_offset"] = 10_000
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("weight_offset", -4),
            ("bias_offset", -1),
            ("out_dim", -2),
            ("in_dim", 0),
            # unaligned, fractional, string and boolean offsets
            ("bias_offset", 3),
            ("weight_offset", 0.9),
            ("bias_offset", "8"),
            ("weight_offset", True),
            ("out_dim", 2.0),
            # the bias would be read from the weight's bytes
            ("bias_offset", 0),
        ],
    )
    def test_negative_offsets_and_widths_rejected(self, tmp_path, field, value):
        model = ModelGraph([Layer("a", KIND_AFFINE, np.eye(2), np.zeros(2))])
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["layers"][0][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError):
            load_model(path)

    def test_manifest_is_deterministic(self, tmp_path):
        model, _ = make_small_ce_model()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(model, b)
        assert a.read_text().replace('"a.bin"', "") == b.read_text().replace('"b.bin"', "")


class TestDatasetRoundTrip:
    def test_float32_dataset_survives_exactly(self, tmp_path):
        data = Dataset(
            f32(np.random.default_rng(1).normal(size=(10, 4))),
            np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0]),
            3,
        )
        path = tmp_path / "data.json"
        save_dataset(data, path)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.features, data.features)
        np.testing.assert_array_equal(loaded.labels, data.labels)
        assert loaded.num_classes == 3

    def test_wrong_blob_length_rejected(self, tmp_path):
        data = Dataset(np.zeros((4, 2), dtype=np.float32), np.zeros(4, dtype=int), 2)
        path = tmp_path / "data.json"
        save_dataset(data, path)
        (tmp_path / "data.features.bin").write_bytes(b"\x00" * 7)
        with pytest.raises(DataFormatError):
            load_dataset(path)

    def test_label_out_of_range_rejected_on_load(self, tmp_path):
        data = Dataset(np.zeros((2, 2)), np.array([0, 1]), 2)
        path = tmp_path / "data.json"
        save_dataset(data, path)
        bad = np.array([0, 9], dtype="<u4")
        (tmp_path / "data.labels.bin").write_bytes(bad.tobytes())
        with pytest.raises(DataFormatError):
            load_dataset(path)
