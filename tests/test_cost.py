"""Cost model tests: sizes, latency table, relatives."""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixquant.cost import (
    LatencyTable,
    MissingLatencyEntry,
    cost_report,
    model_latency,
    model_size,
)
from mixquant.fixtures import build_fixture_latency_table
from mixquant.graph import GraphError, Layer, ModelGraph
from mixquant.modelio import DataFormatError
from mixquant.search import QuantConfig


def two_layer_model():
    return ModelGraph(
        [
            Layer("dense1", np.zeros((4, 3)), np.zeros(4), relu=True),
            Layer("dense2", np.zeros((2, 4)), np.zeros(2)),
        ]
    )


def filled_table(model, bits_list=(2, 4, 8, 16), value=1.0):
    table = LatencyTable()
    for layer in model.layers:
        out_dim, in_dim = layer.weight.shape
        for b in bits_list:
            table.add("matmul", out_dim, 1, in_dim, b, value * b)
    return table


class TestLatencyTable:
    def test_add_and_lookup(self):
        table = LatencyTable()
        table.add("matmul", 8, 1, 4, 8, 12.5)
        assert table.lookup("matmul", 8, 1, 4, 8) == 12.5
        assert len(table.entries) == 1

    def test_duplicate_entry_rejected(self):
        table = LatencyTable()
        table.add("matmul", 8, 1, 4, 8, 12.5)
        with pytest.raises(ValueError):
            table.add("matmul", 8, 1, 4, 8, 99.0)

    def test_unknown_kind_rejected(self):
        table = LatencyTable()
        with pytest.raises(ValueError):
            table.add("conv2d", 8, 1, 4, 8, 1.0)

    @pytest.mark.parametrize(
        "field,value",
        [("m", 0), ("k", -1), ("latency_us", -2.0), ("latency_us", np.inf), ("latency_us", np.nan)],
    )
    def test_nonpositive_values_rejected(self, field, value):
        table = LatencyTable()
        kwargs = {"kind": "matmul", "m": 2, "n": 1, "k": 2, "bits": 8, "latency_us": 1.0}
        kwargs[field] = value
        with pytest.raises(ValueError):
            table.add(**kwargs)

    def test_missing_entry_is_a_hard_error(self):
        table = LatencyTable()
        table.add("matmul", 8, 1, 4, 8, 12.5)
        with pytest.raises(MissingLatencyEntry):
            table.lookup("matmul", 8, 1, 4, 4)

    def test_csv_round_trip(self, tmp_path):
        table = LatencyTable()
        table.add("matmul", 8, 1, 4, 8, 12.5)
        table.add("matmul", 2, 1, 4, 4, 0.125)
        path = tmp_path / "latency.csv"
        table.to_csv(path)
        loaded = LatencyTable.from_csv(path)
        assert loaded.lookup("matmul", 8, 1, 4, 8) == 12.5
        assert loaded.lookup("matmul", 2, 1, 4, 4) == 0.125
        assert len(loaded.entries) == 2

    def test_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("op,rows,cols,inner,width,us\nmatmul,1,1,1,8,1.0\n")
        with pytest.raises(ValueError):
            LatencyTable.from_csv(path)

    @pytest.mark.parametrize("latency", ["inf", "nan", "-inf"])
    def test_csv_non_finite_latency_rejected(self, tmp_path, latency):
        path = tmp_path / "inf.csv"
        path.write_text(f"kind,m,n,k,bits,latency_us\nmatmul,2,1,3,8,{latency}\n")
        with pytest.raises(DataFormatError):
            LatencyTable.from_csv(path)

    @pytest.mark.parametrize(
        "row",
        [b"matmul,24,1,16,4,\xff\xfe", b"matmul,2,1,3,8," + b"1" * 2**18],
        ids=["not-utf8", "over-field-limit"],
    )
    def test_csv_undecodable_or_unparsable_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"kind,m,n,k,bits,latency_us\n" + row + b"\n")
        with pytest.raises(DataFormatError, match="cannot read latency table"):
            LatencyTable.from_csv(path)

    @pytest.mark.parametrize("name", ["missing.csv", "lat\x00ency.csv"], ids=["missing", "nul"])
    def test_csv_path_that_cannot_open_rejected(self, tmp_path, name):
        with pytest.raises(DataFormatError, match="cannot read latency table"):
            LatencyTable.from_csv(tmp_path / name)

    def test_csv_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "kind,m,n,k,bits,latency_us\n"
            "matmul,2,1,3,8,1.0\n"
            "matmul,2,1,3,8,2.0\n"
        )
        with pytest.raises(ValueError):
            LatencyTable.from_csv(path)

    @pytest.mark.parametrize(
        "row,reason",
        [
            ("matmul,2,1,3,8,2.0", "duplicate latency entry for ('matmul', 2, 1, 3, 8)"),
            ("matmul,2,1,4,8,-1.0",
             "latency for ('matmul', 2, 1, 4, 8) must be finite and > 0, got -1.0"),
            ("matmul,2,1,4,4.5,1.0", "invalid literal for int() with base 10: '4.5'"),
            ("matmul,2,1,4,8", "5 fields, expected 6"),
        ],
        ids=["duplicate", "negative-latency", "non-integer-width", "short"],
    )
    def test_csv_refused_row_names_its_reason(self, tmp_path, row, reason):
        path = tmp_path / "bad.csv"
        path.write_text(f"kind,m,n,k,bits,latency_us\nmatmul,2,1,3,8,1.0\n{row}\n")
        message = f"{path}: malformed row {row.split(',')!r}: {reason}"
        with pytest.raises(DataFormatError) as refused:
            LatencyTable.from_csv(path)
        assert str(refused.value) == message


# A CSV cell: any text, or one that parses as an integer or a float.
CELLS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.integers(-(2**70), 2**70).map(str),
    st.floats().map(repr),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_latency_row_changed_loads_or_is_refused(f1, data):
    """The seed-7 table with one cell replaced, or a row of arbitrary cells
    appended, loads or is refused as malformed."""
    model, _, _ = f1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "latency.csv"
        build_fixture_latency_table(model).to_csv(path)
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        if data.draw(st.booleans()):
            row = data.draw(st.sampled_from(rows))
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(CELLS)
        else:
            rows.append(data.draw(st.lists(CELLS, max_size=8)))
        with path.open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
        try:
            LatencyTable.from_csv(path)
        except DataFormatError:
            pass


class TestModelSize:
    def test_counts_weights_and_biases_at_weight_width(self):
        model = two_layer_model()
        # dense1: 12 + 4 = 16 elements, dense2: 8 + 2 = 10 elements
        uniform16 = QuantConfig.uniform(["dense1.weight", "dense2.weight"], 16)
        assert model_size(model, uniform16) == 26 * 2.0
        mixed = uniform16.replace({"dense1.weight": 4})
        assert model_size(model, mixed) == 16 * 0.5 + 10 * 2.0

    def test_activation_entries_do_not_add_storage(self):
        model = two_layer_model()
        config = QuantConfig(
            bits={"dense1.weight": 8, "dense2.weight": 8, "dense1.out": 8, "relu1.out": 8}
        )
        assert model_size(model, config) == 26 * 1.0

    def test_missing_weight_assignment_rejected(self):
        model = two_layer_model()
        with pytest.raises(GraphError):
            model_size(model, QuantConfig(bits={"dense1.weight": 8}))


class TestModelLatency:
    def test_sums_per_layer_lookups(self):
        model = two_layer_model()
        table = filled_table(model)
        config = QuantConfig.uniform(["dense1.weight", "dense2.weight"], 16)
        assert model_latency(model, config, table) == 32.0
        mixed = config.replace({"dense2.weight": 4})
        assert model_latency(model, mixed, table) == 16.0 + 4.0

    def test_missing_table_entry_propagates(self):
        model = two_layer_model()
        table = filled_table(model, bits_list=(16,))
        config = QuantConfig.uniform(["dense1.weight", "dense2.weight"], 16).replace(
            {"dense1.weight": 8}
        )
        with pytest.raises(MissingLatencyEntry):
            model_latency(model, config, table)


class TestCostReport:
    def test_uniform_baseline_reports_unity(self):
        model = two_layer_model()
        table = filled_table(model)
        config = QuantConfig.uniform(["dense1.weight", "dense2.weight"], 16)
        report = cost_report(model, config, table)
        assert report.relative_size == 1.0
        assert report.relative_latency == 1.0

    def test_half_width_halves_both_relatives(self):
        model = two_layer_model()
        table = filled_table(model)
        config = QuantConfig.uniform(["dense1.weight", "dense2.weight"], 8)
        report = cost_report(model, config, table)
        assert report.relative_size == 0.5
        assert report.relative_latency == 0.5
        assert report.size_bytes == 26.0
