"""The one JSON layer: every artifact kind round-trips, is byte-stable and rejects foreign files."""

import json
from pathlib import Path

import pytest

from mixquant.calibrate import CalibrationOutcome, load_specs, save_specs
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
from mixquant.pipeline import COST_FORMAT, PipelineConfig, load_manifest, run_pipeline
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
        return run_dir / "cost.json", lambda p: read_json(p, COST_FORMAT), result.cost
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
