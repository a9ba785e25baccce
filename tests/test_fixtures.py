"""Fixture generation tests: determinism, separation, difficulty."""

import numpy as np
import pytest

from mixquant.cost import MissingLatencyEntry
from mixquant.cli import EXIT_OK, main
from mixquant.fixtures import (
    FixtureSpec,
    build_fixture,
    build_fixture_latency_table,
    build_fixture_model,
)
from mixquant.graph import GraphError, chain_accuracies
from mixquant.modelio import load_dataset, load_model, save_dataset, save_model


class TestFixtureSpec:
    def test_defaults_are_valid(self):
        spec = FixtureSpec()
        assert spec.dims[0] > 0 and spec.dims[-1] >= 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dims": (4,)},
            {"dims": (4, 0, 2)},
            {"calib_examples": 0},
            {"eval_examples": -1},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises((GraphError, ValueError)):
            FixtureSpec(**kwargs)


class TestBuildFixture:
    def test_same_seed_reproduces_bit_identically(self):
        m1, c1, e1 = build_fixture(7)
        m2, c2, e2 = build_fixture(7)
        assert m1.parameter_digest() == m2.parameter_digest()
        np.testing.assert_array_equal(c1.features, c2.features)
        np.testing.assert_array_equal(e1.features, e2.features)
        np.testing.assert_array_equal(e1.labels, e2.labels)

    def test_different_seeds_differ(self):
        m1, _, _ = build_fixture(7)
        m2, _, _ = build_fixture(8)
        assert m1.parameter_digest() != m2.parameter_digest()

    def test_meets_accuracy_floor(self, f1):
        # labels are the model's own argmax: correct by construction
        model, calib, evalset = f1
        [calib_accuracy] = chain_accuracies(model, calib, [{}])
        assert calib_accuracy == chain_accuracies(model, evalset, [{}])[0] == 1.0

    def test_wide_fixture_bytes_do_not_depend_on_the_workers(self, workers, tmp_path, capsys):
        # the wide pool of 3321 rows labels in 19 row blocks
        dims = ["--dims", "64,192,160,128,96,64,32,10"]
        files = []
        for count in (1, 3):
            workers(count)
            out = tmp_path / f"workers-{count}"
            assert main(["gen-fixture", "--seed", "7", "--out", str(out), *dims]) == EXIT_OK
            files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        capsys.readouterr()
        assert len(files[0]) == 9 and files[0] == files[1]

    def test_calibration_and_eval_rows_disjoint(self, f1):
        _, calib, evalset = f1
        calib_rows = {row.tobytes() for row in calib.features}
        eval_rows = {row.tobytes() for row in evalset.features}
        assert not calib_rows & eval_rows

    def test_requested_example_counts(self, f1):
        _, calib, evalset = f1
        assert len(calib) == FixtureSpec().calib_examples
        assert len(evalset) == FixtureSpec().eval_examples

    def test_model_shape_follows_spec(self):
        spec = FixtureSpec(dims=(6, 8, 4, 3), calib_examples=32, eval_examples=64)
        model = build_fixture_model(0, spec)
        assert model.input_dim == 6
        assert model.output_dim == 3
        assert model.weight_tensor_names() == [
            "dense1.weight",
            "dense2.weight",
            "dense3.weight",
        ]

    def test_file_round_trip_is_exact(self, f1, tmp_path):
        # fixtures are generated pre-snapped to float32 so the float32
        # file pair loses nothing
        model, calib, _ = f1
        save_model(model, tmp_path / "m.json")
        save_dataset(calib, tmp_path / "c.json")
        assert load_model(tmp_path / "m.json").parameter_digest() == model.parameter_digest()
        np.testing.assert_array_equal(load_dataset(tmp_path / "c.json").features, calib.features)

    def test_zero_examples_rejected(self):
        with pytest.raises((GraphError, ValueError)):
            build_fixture(0, FixtureSpec(calib_examples=0, eval_examples=0))


class TestFixtureLatencyTable:
    def test_covers_every_layer_and_width(self, f1):
        model, _, _ = f1
        table = build_fixture_latency_table(model)
        for layer in model.layers:
            out_dim, in_dim = layer.weight.shape
            for bits in range(2, 17):
                assert table.lookup("matmul", out_dim, 1, in_dim, bits) > 0.0

    def test_latency_scales_with_width(self, f1):
        model, _, _ = f1
        table = build_fixture_latency_table(model)
        layer = model.layers[0]
        out_dim, in_dim = layer.weight.shape
        fast = table.lookup("matmul", out_dim, 1, in_dim, 4)
        slow = table.lookup("matmul", out_dim, 1, in_dim, 16)
        assert fast < slow

    def test_repeated_layer_shapes_share_rows(self):
        model = build_fixture_model(1, FixtureSpec(dims=(4, 6, 6, 6, 2)))
        table = build_fixture_latency_table(model)
        assert sorted(table.entries) == [
            ("matmul", m, 1, k, b) for m, k in ((2, 6), (6, 4), (6, 6)) for b in range(2, 17)
        ]

    def test_unlisted_shape_still_errors(self, f1):
        model, _, _ = f1
        table = build_fixture_latency_table(model)
        with pytest.raises(MissingLatencyEntry):
            table.lookup("matmul", 999, 1, 999, 8)
