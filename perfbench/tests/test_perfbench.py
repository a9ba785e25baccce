"""Self-tests of the benchmark: tracer transparency, metric tables, checks.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import metrics
import run
import spans
from mixquant import pipeline
from mixquant.fixtures import FixtureSpec, build_fixture, build_fixture_latency_table
from mixquant.modelio import save_dataset, save_model

PERFBENCH = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A small fixture on disk and a pipeline config over it."""
    root = tmp_path_factory.mktemp("fixture")
    model, calib, evalset = build_fixture(3, FixtureSpec(dims=(6, 10, 8, 3), calib_examples=96, eval_examples=160))
    save_model(model, root / "model.json")
    save_dataset(calib, root / "calib.json")
    save_dataset(evalset, root / "eval.json")
    build_fixture_latency_table(model).to_csv(root / "latency.csv")
    config = pipeline.PipelineConfig(
        model=str(root / "model.json"),
        calib_data=str(root / "calib.json"),
        eval_data=str(root / "eval.json"),
        latency_table=str(root / "latency.csv"),
        out_dir=str(root / "run"),
        probes=4,
        trials=2,
        epochs=3,
    )
    return root, config


def _run(config) -> dict[str, bytes]:
    shutil.rmtree(config.out_dir, ignore_errors=True)
    pipeline.run_pipeline(config)
    return checks.read_run_dir(Path(config.out_dir))


@pytest.mark.parametrize(
    "metric, algo", [("hessian", "greedy"), ("noise", "bisection"), ("qe", "greedy")]
)
def test_tracing_leaves_artifacts_byte_identical(tiny, metric, algo):
    _, base = tiny
    config = replace(base, metric=metric, algo=algo)
    untraced = _run(config)
    with spans.Tracer() as tracer:
        traced = _run(config)
    assert tracer.absent == []
    assert tracer.spans, "the traced run recorded no spans"
    assert checks.compare_bytes(untraced, traced) == []
    assert pipeline.forward.__name__ == "forward"
    assert not hasattr(pipeline.run_pipeline, "__wrapped__"), "wrappers left installed"


def test_layer_metrics_cover_the_per_layer_table(tiny):
    _, base = tiny
    config = replace(base, metric="hessian")
    with spans.Tracer() as tracer:
        tracer.run_id = 5
        _run(config)
    (run_id, values), = spans.layer_metrics(tracer).items()
    assert run_id == 5
    # These come from the artifacts, the fixture step and the untraced loop.
    outside = {"search.probes", "search.accept_ratio", "pipeline.bytes_written",
               "fixtures.gen_s", "trace.overhead_s"}
    assert set(metrics.PER_LAYER) - outside <= set(values)
    assert values["sensitivity.hvp_calls"] > 0
    assert values["graph.gradients_calls"] == 2 * values["sensitivity.hvp_calls"]
    assert values["modelio.bytes_read"] == sum(
        p.stat().st_size for p in Path(config.model).parent.iterdir()
        if p.suffix in (".json", ".bin")
    )
    self_total = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert self_total == pytest.approx(values["pipeline.run_s"], rel=1e-9)


def test_tracer_survives_missing_targets(tiny):
    _, config = tiny
    missing = (
        spans.Target("mixquant.graph", "no_such_function", "graph", "forward"),
        spans.Target("mixquant.graph", "ModelGraph.no_such_method", "graph", "with_parameter"),
        spans.Target("mixquant.no_such_module", "anything", "graph", "hvp"),
    )
    with spans.Tracer(spans.TARGETS + missing) as tracer:
        _run(config)
    assert tracer.absent == [
        "mixquant.graph:no_such_function",
        "mixquant.graph:ModelGraph.no_such_method",
        "mixquant.no_such_module:anything",
    ]
    assert spans.layer_metrics(tracer)[0]["search.evals"] > 0


def test_metric_names_units_and_directions():
    tables = {"end_to_end": metrics.END_TO_END, "per_layer": metrics.PER_LAYER}
    for table in tables.values():
        for name, (unit, better, meaning) in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)
            assert better in ("higher", "lower"), name
            assert meaning, name
    assert NAME.fullmatch(metrics.ERROR_RATE[0])
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    for key, table in tables.items():
        assert [m["name"] for m in declared[key]] == list(table)
        for entry in declared[key]:
            assert (entry["unit"], entry["better"]) == table[entry["name"]][:2]


def test_checks_catch_tampered_artifacts(tiny):
    root, config = tiny
    files = _run(config)
    fixture = checks.Fixture.read(root)
    summary, errors = checks.check_run(files, fixture, (4,), 16)
    assert errors == [] and summary is not None

    cost = json.loads(files["cost.json"])
    cost["relative_size"] *= 1.001
    outcome = json.loads(files["outcome.json"])
    outcome["achieved_accuracy"] = outcome["target"] / 2
    tampered = dict(files)
    tampered["cost.json"] = json.dumps(cost).encode()
    tampered["outcome.json"] = json.dumps(outcome).encode()
    _, errors = checks.check_run(tampered, fixture, (4,), 16)
    assert any("relative_size" in e for e in errors)
    assert any("below target" in e for e in errors)

    del tampered["specs-4bit.json"]
    _, errors = checks.check_run(tampered, fixture, (4,), 16)
    assert errors and "missing" in errors[0]
    assert checks.compare_bytes(files, tampered) == ["cost.json", "outcome.json", "specs-4bit.json"]


def _bench(root, config):
    workload = run.Workload((), config.metric, config.algo, config.bits)
    return run.Bench(workload, [config], pipeline, checks.Fixture.read(root))


def test_loop_fails_a_run_that_writes_nothing(tiny):
    root, config = tiny
    bench = _bench(root, config)
    assert bench.run_once(0, "first") is not None
    bench.pipeline = type("Silent", (), {"run_pipeline": staticmethod(lambda config: None)})
    assert bench.run_once(0, "silent") is None
    assert (bench.attempted, bench.failed) == (2, 1)


def test_cold_start_reproduces_the_run(tiny, tmp_path, monkeypatch):
    root, config = tiny
    monkeypatch.setenv("PYTHONPATH", str(run.SRC))
    bench = _bench(root, config)
    assert bench.run_once(0, "first") is not None
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(bench.references[0]["manifest.json"])
    assert bench.cold_start(manifest, "cold") > 0
    assert bench.failed == 0
    assert bench.cold_start(tmp_path / "no-such-manifest.json", "missing") is None
    assert bench.failed == 1


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qe-wide", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
