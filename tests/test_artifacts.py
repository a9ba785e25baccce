"""The one JSON layer: every artifact kind round-trips, is byte-stable and rejects foreign files."""

import functools
import json
import shutil
from pathlib import Path

import pytest

from conftest import edit_json
from mixquant.calibrate import CalibrationOutcome
from mixquant.cli import EXIT_DATA, main
from mixquant.fixtures import FixtureSpec, build_fixture, build_fixture_latency_table
from mixquant.graph import Dataset, ModelGraph
from mixquant.modelio import (
    DataFormatError,
    load_dataset,
    load_model,
    read_record,
    save_dataset,
    save_model,
    write_json,
    write_record,
)
from mixquant.pipeline import PipelineConfig, load_manifest, run_pipeline
from mixquant.quantize import QuantSpec
from mixquant.search import QuantConfig


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    model, calib, evalset = build_fixture(
        3, FixtureSpec(dims=(6, 10, 8, 3), calib_examples=96, eval_examples=160)
    )
    save_model(model, root / "model.json")
    save_dataset(calib, root / "calib.json")
    save_dataset(evalset, root / "eval.json")
    build_fixture_latency_table(model).to_csv(root / "latency.csv")
    config = PipelineConfig(
        model=str(root / "model.json"),
        calib_data=str(root / "calib.json"),
        eval_data=str(root / "eval.json"),
        latency_table=str(root / "latency.csv"),
        out_dir=str(root / "run"),
        metric="qe",
        epochs=3,
    )
    return config, run_pipeline(config)


def _comparable(obj):
    """Models and datasets define no equality: compare their structure and digests."""
    if isinstance(obj, ModelGraph):
        return obj.head, obj.parameter_digest(), [(l.name, l.kind) for l in obj.layers]
    if isinstance(obj, Dataset):
        return obj.digest()
    return obj


def _written(kind, small_run, tmp_path):
    """``(path, load, original)``: a file of ``kind`` as the package writes
    it, its loader, and the object it must load back as."""
    config, result = small_run
    path = tmp_path / f"{kind}.json"
    if kind == "manifest":
        shutil.copy(Path(config.out_dir) / "manifest.json", path)
        return path, load_manifest, result.manifest
    records = {
        "specs": CalibrationOutcome(
            specs={"a.weight": QuantSpec(alpha=1 / 3, gamma=2.718281828459045, bits=5)},
            adjustment_log=[0.9, 0.30000000000000004],
        ),
        "sensitivity": result.report,
        "config": result.config,
        "outcome": result.outcome,
        "cost": result.cost,
    }
    if kind in records:
        original = records[kind]
        write_record(path, original)
        return path, functools.partial(read_record, kind=type(original)), original
    if kind == "model":
        original = load_model(config.model)
        save_model(original, path)
        return path, load_model, original
    original = load_dataset(config.eval_data)
    save_dataset(original, path)
    return path, load_dataset, original


@pytest.mark.parametrize(
    "kind",
    ["specs", "sensitivity", "config", "outcome", "manifest", "cost", "model", "dataset"],
)
def test_artifact_round_trip_layout_and_rejection(kind, small_run, tmp_path):
    path, load, original = _written(kind, small_run, tmp_path)
    assert _comparable(load(path)) == _comparable(original)

    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    for content in ("{nope", "[]", '{"format": "mixquant-something-else"}'):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        with pytest.raises(DataFormatError):
            load(bad)


def _drop(key):
    return lambda payload: payload.pop(key)


@pytest.mark.parametrize(
    "kind, damage",
    [
        pytest.param("specs", _drop("specs"), id="specs-without-specs"),
        pytest.param("specs", _drop("adjustment_log"), id="specs-without-log"),
        pytest.param("sensitivity", _drop("scores"), id="report-without-scores"),
        pytest.param(
            "sensitivity",
            lambda payload: payload["ordering"].append("ghost.weight"),
            id="report-ordering-names-unscored-tensor",
        ),
        pytest.param(
            "outcome", lambda payload: payload.update(trace="oops"), id="outcome-trace-string"
        ),
        pytest.param("cost", lambda payload: payload.update(extra=1), id="cost-unknown-key"),
        pytest.param(
            "manifest",
            lambda payload: payload["parameters"].pop("seed"),
            id="manifest-without-a-parameter",
        ),
    ],
)
def test_incomplete_artifact_rejected(kind, damage, small_run, tmp_path):
    path, load, _ = _written(kind, small_run, tmp_path)
    payload = json.loads(path.read_text())
    damage(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError, match=f"malformed '{payload['format']}' file"):
        load(path)


def test_compare_refuses_a_manifest_without_inputs(small_run, tmp_path, capsys):
    config, _ = small_run
    runs = [tmp_path / "a", tmp_path / "b"]
    for run in runs:
        shutil.copytree(config.out_dir, run)
    manifest = json.loads((runs[1] / "manifest.json").read_text())
    del manifest["inputs"]
    (runs[1] / "manifest.json").write_text(json.dumps(manifest))
    assert main(["compare", *map(str, runs)]) == EXIT_DATA
    assert "manifest.json" in capsys.readouterr().err


def _compare_with(small_run, tmp_path, name, keys, value):
    """``compare`` exit code for two copies of the small run, the second with
    ``value`` set at ``keys`` in its ``name``."""
    config, _ = small_run
    runs = [tmp_path / "a", tmp_path / "b"]
    for run in runs:
        shutil.copytree(config.out_dir, run)
    edit_json(runs[1] / name, keys, value)
    return main(["compare", *map(str, runs)])


def test_fractional_bit_width_rejected(small_run, tmp_path, capsys):
    _, result = small_run
    tensor = sorted(result.config.bits)[0]
    path = tmp_path / "config.json"
    write_record(path, result.config)
    edit_json(path, ("bits", tensor), 4.7)
    with pytest.raises(DataFormatError, match="expected an integer, got 4.7"):
        read_record(path, QuantConfig)
    keys = ("config", "bits", tensor)
    assert _compare_with(small_run, tmp_path, "outcome.json", keys, 4.7) == EXIT_DATA
    assert "outcome.json" in capsys.readouterr().err


def test_fractional_bits_and_bool_scale_rejected(tmp_path):
    path = tmp_path / "specs.json"
    write_record(path, CalibrationOutcome(specs={"a.weight": QuantSpec(0.5, 2.0, 4)}))
    edit_json(path, ("specs", "a.weight", "bits"), 4.9)
    with pytest.raises(DataFormatError, match="expected an integer, got 4.9"):
        read_record(path, CalibrationOutcome)
    edit_json(path, ("specs", "a.weight", "bits"), 4)
    edit_json(path, ("specs", "a.weight", "alpha"), True)
    with pytest.raises(DataFormatError, match="expected a number, got True"):
        read_record(path, CalibrationOutcome)


def test_compare_refuses_a_string_eval_count(small_run, tmp_path, capsys):
    assert _compare_with(small_run, tmp_path, "outcome.json", ("evals",), "12") == EXIT_DATA
    assert "expected an integer, got '12'" in capsys.readouterr().err


def test_run_refuses_a_fractional_dataset_count(small_run, tmp_path, capsys):
    config, _ = small_run
    source = Path(config.calib_data)
    for blob in source.parent.glob(f"{source.stem}.*"):
        shutil.copy(blob, tmp_path)
    calib = tmp_path / source.name
    count = json.loads(calib.read_text())["num_examples"]
    edit_json(calib, ("num_examples",), float(count))
    args = [
        "run", "--model", config.model, "--calib", str(calib), "--eval", config.eval_data,
        "--latency-table", config.latency_table, "--out", str(tmp_path / "run"),
    ]
    assert main(args) == EXIT_DATA
    assert f"expected an integer, got {float(count)}" in capsys.readouterr().err


def test_negative_feature_width_rejected(tmp_path):
    # zero rows of -5 features expect empty blobs, which numpy cannot shape
    for name in ("d.features.bin", "d.labels.bin"):
        (tmp_path / name).write_bytes(b"")
    body = {"num_examples": 0, "feature_dim": -5, "num_classes": 2,
            "features": "d.features.bin", "labels": "d.labels.bin"}
    write_json(tmp_path / "d.json", "mixquant-dataset", body)
    with pytest.raises(DataFormatError, match="0 examples of -5 features"):
        load_dataset(tmp_path / "d.json")
