"""End-to-end pipeline tests on a compact generated fixture."""

import dataclasses
import json

import numpy as np
import pytest

from mixquant.calibrate import load_specs
from mixquant.fixtures import FixtureSpec, build_fixture, build_fixture_latency_table
from mixquant.modelio import DataFormatError, load_model, save_dataset, save_model
from mixquant.pipeline import (
    PipelineConfig,
    PipelineConfigError,
    compare_runs,
    load_manifest,
    run_pipeline,
)
from mixquant.search import evaluate_config, load_config, load_outcome
from mixquant.sensitivity import load_report

SMALL = FixtureSpec(dims=(8, 12, 12, 8, 2), calib_examples=96, eval_examples=256)


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    model, calib, evalset = build_fixture(13, SMALL)
    save_model(model, root / "model.json")
    save_dataset(calib, root / "calib.json")
    save_dataset(evalset, root / "eval.json")
    build_fixture_latency_table(model).to_csv(root / "latency.csv")
    return root


def config_for(inputs, out_dir, **overrides):
    base = PipelineConfig(
        model=str(inputs / "model.json"),
        calib_data=str(inputs / "calib.json"),
        eval_data=str(inputs / "eval.json"),
        latency_table=str(inputs / "latency.csv"),
        out_dir=str(out_dir),
        epochs=4,
    )
    return dataclasses.replace(base, **overrides)


@pytest.fixture(scope="module")
def hessian_run(small_inputs, tmp_path_factory):
    out = tmp_path_factory.mktemp("run-hessian")
    return run_pipeline(config_for(small_inputs, out)), out


class TestRunPipeline:
    def test_writes_all_artifacts(self, hessian_run):
        _, out = hessian_run
        for name in (
            "manifest.json",
            "sensitivity.json",
            "config.json",
            "outcome.json",
            "cost.json",
            "specs-4bit.json",
            "specs-8bit.json",
        ):
            assert (out / name).exists(), name

    def test_outcome_meets_target_under_independent_evaluation(
        self, hessian_run, small_inputs
    ):
        result, out = hessian_run
        model = load_model(small_inputs / "model.json")
        from mixquant.modelio import load_dataset

        eval_data = load_dataset(small_inputs / "eval.json")
        bank = {
            bits: load_specs(out / f"specs-{bits}bit.json").specs for bits in (4, 8)
        }
        measured = evaluate_config(model, eval_data, bank, load_config(out / "config.json"))
        assert measured >= result.outcome.target
        assert measured == result.outcome.achieved_accuracy

    def test_saved_config_covers_all_quantizable_tensors(self, hessian_run, small_inputs):
        _, out = hessian_run
        model = load_model(small_inputs / "model.json")
        config = load_config(out / "config.json")
        assert list(config.bits) == sorted(model.weight_tensor_names())

    def test_manifest_round_trips_parameters(self, hessian_run, small_inputs):
        result, out = hessian_run
        rebuilt = load_manifest(out / "manifest.json")
        assert rebuilt == config_for(small_inputs, out)
        assert result.manifest["baseline_accuracy"] == result.baseline_accuracy

    def test_search_trace_in_outcome_file(self, hessian_run):
        result, out = hessian_run
        outcome = load_outcome(out / "outcome.json")
        assert outcome.evals == len(outcome.trace) == result.outcome.evals

    def test_cost_relatives_below_unity(self, hessian_run):
        result, _ = hessian_run
        assert 0.0 < result.cost["relative_size"] < 1.0
        assert result.cost["relative_latency"] <= 1.0

    def test_reruns_byte_identical(self, small_inputs, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pipeline(config_for(small_inputs, out_a, metric="qe", epochs=2))
        run_pipeline(config_for(small_inputs, out_b, metric="qe", epochs=2))
        for name in ("sensitivity.json", "config.json", "outcome.json", "cost.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    @pytest.mark.parametrize("metric", ["qe", "noise", "random"])
    def test_other_metrics_complete(self, small_inputs, tmp_path, metric):
        result = run_pipeline(
            config_for(small_inputs, tmp_path / metric, metric=metric, trials=2, epochs=2)
        )
        assert result.report.metric == metric
        assert result.outcome.achieved_accuracy >= result.outcome.target

    def test_bisection_algo_completes(self, small_inputs, tmp_path):
        result = run_pipeline(
            config_for(small_inputs, tmp_path / "bis", algo="bisection", epochs=2)
        )
        assert any("threshold" in entry for entry in result.outcome.trace)

    def test_sensitivity_ordering_drives_search_space(self, hessian_run, small_inputs):
        result, out = hessian_run
        model = load_model(small_inputs / "model.json")
        report = load_report(out / "sensitivity.json")
        assert sorted(report.ordering) == sorted(model.weight_tensor_names())


class TestPipelineValidation:
    def test_unknown_metric_rejected(self, small_inputs, tmp_path):
        with pytest.raises(PipelineConfigError):
            run_pipeline(config_for(small_inputs, tmp_path, metric="entropy"))

    def test_unknown_algo_rejected(self, small_inputs, tmp_path):
        with pytest.raises(PipelineConfigError):
            run_pipeline(config_for(small_inputs, tmp_path, algo="anneal"))

    def test_target_above_one_rejected(self, small_inputs, tmp_path):
        with pytest.raises(PipelineConfigError):
            run_pipeline(config_for(small_inputs, tmp_path, target=1.01))

    def test_bits_above_baseline_rejected(self, small_inputs, tmp_path):
        with pytest.raises(PipelineConfigError):
            run_pipeline(config_for(small_inputs, tmp_path, bits=(4, 32)))

    def test_missing_model_file_reports_stage(self, small_inputs, tmp_path):
        config = config_for(small_inputs, tmp_path, model=str(tmp_path / "ghost.json"))
        with pytest.raises(DataFormatError, match=r"\[stage: load-inputs\]"):
            run_pipeline(config)

    def test_tiny_calibration_file_rejected(self, small_inputs, tmp_path):
        from mixquant.graph import Dataset

        path = tmp_path / "one.json"
        save_dataset(Dataset(np.zeros((1, 8), dtype=np.float32), np.zeros(1, dtype=int), 2), path)
        with pytest.raises(PipelineConfigError, match="disjoint"):
            run_pipeline(config_for(small_inputs, tmp_path, calib_data=str(path)))


@pytest.fixture(scope="module")
def three_runs(small_inputs, tmp_path_factory):
    root = tmp_path_factory.mktemp("cmp")
    dirs = []
    for metric, seed in (("hessian", 42), ("random", 1), ("random", 2)):
        out = root / f"{metric}-{seed}"
        run_pipeline(config_for(small_inputs, out, metric=metric, seed=seed, epochs=2))
        dirs.append(out)
    return dirs


class TestCompareRuns:
    def test_rows_aggregates_and_distances(self, three_runs):
        summary = compare_runs(three_runs)
        assert len(summary["rows"]) == 3
        assert {r["metric"] for r in summary["rows"]} == {"hessian", "random"}
        random_groups = [a for a in summary["aggregates"] if a["metric"] == "random"]
        assert len(random_groups) == 1 and random_groups[0]["runs"] == 2
        assert len(summary["ordering_distances"]) == 3
        for entry in summary["ordering_distances"]:
            assert entry["distance"] >= 0

    def test_identical_runs_have_zero_distance(self, small_inputs, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_pipeline(config_for(small_inputs, out, metric="qe", epochs=2))
        summary = compare_runs([a, b])
        assert summary["ordering_distances"][0]["distance"] == 0

    def test_fewer_than_two_rejected(self, three_runs):
        with pytest.raises(PipelineConfigError):
            compare_runs(three_runs[:1])

    def test_mismatched_models_rejected(self, three_runs, tmp_path):
        other_root = tmp_path / "other-inputs"
        other_root.mkdir()
        model, calib, evalset = build_fixture(99, SMALL)
        save_model(model, other_root / "model.json")
        save_dataset(calib, other_root / "calib.json")
        save_dataset(evalset, other_root / "eval.json")
        build_fixture_latency_table(model).to_csv(other_root / "latency.csv")
        foreign = tmp_path / "foreign-run"
        run_pipeline(config_for(other_root, foreign, epochs=2))
        with pytest.raises(PipelineConfigError, match="different models"):
            compare_runs([three_runs[0], foreign])

    def test_corrupt_run_dir_rejected(self, three_runs, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(DataFormatError):
            compare_runs([three_runs[0], empty])
