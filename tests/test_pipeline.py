"""End-to-end pipeline tests on a compact generated fixture."""

import dataclasses
import json

import numpy as np
import pytest

import mixquant.pipeline as pipeline_module
from conftest import quantized_accuracy
from mixquant.calibrate import DEFAULT_EPOCHS, CalibrationOutcome
from mixquant.fixtures import FixtureSpec, build_fixture, build_fixture_latency_table
from mixquant.modelio import DataFormatError, load_model, read_record, save_dataset, save_model
from mixquant.pipeline import (
    PipelineConfig,
    PipelineConfigError,
    compare_runs,
    load_manifest,
    run_pipeline,
)
from mixquant.search import QuantConfig, SearchOutcome
from mixquant.sensitivity import SensitivityReport

SMALL = FixtureSpec(dims=(8, 12, 12, 8, 2), calib_examples=96, eval_examples=256)
WIDE = FixtureSpec(
    dims=(64, 192, 160, 128, 96, 64, 32, 10), calib_examples=512, eval_examples=1024
)
# The benchmark's wide fixture, split sizes included.
WIDE_BENCH = dataclasses.replace(WIDE, calib_examples=2048, eval_examples=8192)


def write_inputs(root, seed, spec):
    model, calib, evalset = build_fixture(seed, spec)
    save_model(model, root / "model.json")
    save_dataset(calib, root / "calib.json")
    save_dataset(evalset, root / "eval.json")
    build_fixture_latency_table(model).to_csv(root / "latency.csv")
    return root


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("inputs"), 13, SMALL)


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
            bits: read_record(out / f"specs-{bits}bit.json", CalibrationOutcome).specs
            for bits in (4, 8)
        }
        config = read_record(out / "config.json", QuantConfig)
        measured = quantized_accuracy(model, eval_data, bank, config)
        assert measured >= result.outcome.target
        assert measured == result.outcome.achieved_accuracy

    def test_saved_config_covers_all_quantizable_tensors(self, hessian_run, small_inputs):
        _, out = hessian_run
        model = load_model(small_inputs / "model.json")
        config = read_record(out / "config.json", QuantConfig)
        assert list(config.bits) == sorted(model.weight_tensor_names())

    def test_manifest_round_trips_parameters(self, hessian_run, small_inputs):
        result, out = hessian_run
        rebuilt = load_manifest(out / "manifest.json")
        assert rebuilt.parameters == config_for(small_inputs, out)
        assert rebuilt == result.manifest
        assert result.manifest.baseline_accuracy == result.baseline_accuracy

    def test_search_trace_in_outcome_file(self, hessian_run):
        result, out = hessian_run
        outcome = read_record(out / "outcome.json", SearchOutcome)
        assert outcome.evals == len(outcome.trace) == result.outcome.evals

    def test_cost_relatives_below_unity(self, hessian_run):
        result, _ = hessian_run
        assert 0.0 < result.cost.relative_size < 1.0
        assert result.cost.relative_latency <= 1.0

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
        report = read_record(out / "sensitivity.json", SensitivityReport)
        assert sorted(report.ordering) == sorted(model.weight_tensor_names())


class TestEvaluatorMemo:
    @staticmethod
    def counted_run(f1, tmp_path, monkeypatch, algo):
        """A run's configs evaluated by the search and by verify-target."""
        model, calib, evalset = f1
        save_model(model, tmp_path / "model.json")
        save_dataset(calib, tmp_path / "calib.json")
        save_dataset(evalset, tmp_path / "eval.json")
        build_fixture_latency_table(model).to_csv(tmp_path / "latency.csv")
        calls = []
        chained = pipeline_module.evaluate_configs

        def counting_chain(model, data, specs_by_bits, configs):
            calls.append([frozenset(c.bits.items()) for c in configs])
            return chained(model, data, specs_by_bits, configs)

        monkeypatch.setattr(pipeline_module, "evaluate_configs", counting_chain)
        config = config_for(
            tmp_path, tmp_path / "run", metric="noise", algo=algo, bits=(2, 3, 4, 5, 6, 8)
        )
        result = run_pipeline(dataclasses.replace(config, epochs=DEFAULT_EPOCHS))
        # measure-baseline evaluates the all-baseline config, and verify-target
        # makes its own evaluation of the config the search committed
        measured, *searches, verified = calls
        assert measured == [frozenset(dict.fromkeys(model.weight_tensor_names(), 16).items())]
        searched = [config for chain in searches for config in chain]
        committed = frozenset(result.config.bits.items())
        assert verified == [committed] and committed in searched
        return searched, result

    def test_each_distinct_config_is_evaluated_once(self, f1, tmp_path, monkeypatch):
        searched, result = self.counted_run(f1, tmp_path, monkeypatch, "bisection")
        assert len(searched) == len(set(searched))
        # every probe is evaluated, some of them speculatively ahead of a rejection
        assert len(result.outcome.trace) == result.outcome.evals <= len(searched)

    def test_greedy_evaluates_each_probe_once(self, f1, tmp_path, monkeypatch):
        searched, result = self.counted_run(f1, tmp_path, monkeypatch, "greedy")
        assert len(searched) == len(set(searched))
        # every probe is evaluated, some of them speculatively ahead of a rejection
        probes = len(result.outcome.trace)
        assert probes == result.outcome.evals <= len(searched)


@pytest.mark.parametrize(
    "metric, algo, bits",
    [("qe", "greedy", (4, 8)), ("noise", "bisection", (2, 3, 4, 5, 6, 8))],
    ids=["qe-greedy", "noise-bisection"],
)
def test_wide_runs_do_not_depend_on_the_workers(tmp_path, workers, metric, algo, bits):
    # each wide bank is a calibration group of its own, and the eval
    # split is several row blocks, so two workers split both
    inputs = write_inputs(tmp_path, 7, WIDE)
    config = config_for(
        inputs, tmp_path / "run", metric=metric, algo=algo, bits=bits,
        baseline_bits=16, target=0.99, epochs=DEFAULT_EPOCHS,
    )
    written = []
    for count in (1, 2):
        workers(count)
        run_pipeline(config)
        written.append({p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()})
    assert written[0] == written[1]
    assert len(written[0]) == 5 + len(bits)  # a specs file per width below 16


@pytest.mark.parametrize(
    "spec, metric, forwards",
    [(WIDE_BENCH, "qe", 7.221), (FixtureSpec(), "hessian", 6.541)],
    ids=["wide-qe", "seed7-hessian"],
)
def test_search_forwards_per_greedy_run(tmp_path, eval_forwards, spec, metric, forwards):
    """Eval-split forwards of multiply-adds the search spends per greedy
    ``4,8`` run, mean over pipeline seeds 35-39: the qe-wide and
    hessian-small benchmark cells, priced with no clock. Under the
    earlier rule, with only the tails' sum bounded at half a forward,
    they were 8.193 and 7.906."""
    inputs = write_inputs(tmp_path, 7, spec)
    per_run = []
    for seed in range(35, 40):
        eval_forwards.clear()
        run_pipeline(
            config_for(inputs, tmp_path / "run", metric=metric, seed=seed, epochs=DEFAULT_EPOCHS)
        )
        per_run.append(sum(eval_forwards[1:-1]))  # the baseline and verification are one each
    assert np.mean(per_run) == pytest.approx(forwards, abs=5e-4)


def test_search_forwards_per_bisection_run(tmp_path, eval_forwards):
    """The sweep-wide benchmark cell, priced as the greedy cells above:
    wide noise/bisection over ``2,3,4,5,6,8``, mean over pipeline seeds
    35-39. Offering the whole new path right after a rejection, and
    bounding the tails' sum at one forward, it was 9.274."""
    inputs = write_inputs(tmp_path, 7, WIDE_BENCH)
    per_run = []
    for seed in range(35, 40):
        eval_forwards.clear()
        run_pipeline(
            config_for(
                inputs, tmp_path / "run", metric="noise", algo="bisection",
                bits=(2, 3, 4, 5, 6, 8), seed=seed, epochs=DEFAULT_EPOCHS,
            )
        )
        per_run.append(sum(eval_forwards[1:-1]))
    assert np.mean(per_run) == pytest.approx(9.368, abs=5e-4)


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
