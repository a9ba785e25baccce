"""The one JSON layer: every artifact kind round-trips, is byte-stable and rejects foreign files."""

import json
import shutil
from pathlib import Path

import pytest

from mixquant.calibrate import CalibrationOutcome, load_specs, save_specs
from mixquant.cli import EXIT_DATA, main
from mixquant.fixtures import FixtureSpec, build_fixture, build_fixture_latency_table
from mixquant.graph import Dataset, ModelGraph
from mixquant.modelio import (
    DataFormatError,
    load_dataset,
    load_model,
    read_json,
    save_dataset,
    save_model,
)
from mixquant.pipeline import (
    COST_FORMAT,
    PipelineConfig,
    _parse_cost,
    load_manifest,
    run_pipeline,
)
from mixquant.quantize import QuantSpec
from mixquant.search import load_config, load_outcome, save_config, save_outcome
from mixquant.sensitivity import load_report, save_report


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
    run_dir = Path(config.out_dir)
    path = tmp_path / f"{kind}.json"
    if kind == "specs":
        original = CalibrationOutcome(
            specs={"a.weight": QuantSpec(alpha=1 / 3, gamma=2.718281828459045, bits=5)},
            adjustment_log=[0.9, 0.30000000000000004],
        )
        save_specs(original, path)
        return path, load_specs, original
    if kind == "sensitivity":
        save_report(result.report, path)
        return path, load_report, result.report
    if kind == "config":
        save_config(result.config, path)
        return path, load_config, result.config
    if kind == "outcome":
        save_outcome(result.outcome, path)
        return path, load_outcome, result.outcome
    if kind == "manifest":
        return run_dir / "manifest.json", load_manifest, config
    if kind == "cost":
        return run_dir / "cost.json", lambda p: read_json(p, COST_FORMAT, _parse_cost), result.cost
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
