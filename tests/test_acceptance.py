"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test carries its stated runtime limit where one applies; the
terminal summary hook in conftest prints one PASS/FAIL line per
criterion at the end of the session.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from conftest import (
    O1_NAMES,
    first_only,
    make_diagonal_quadratic,
    o1_accuracy,
    o1_size_bytes,
    quantized_accuracy,
    r_op_hvp,
    reference_levenshtein,
    with_tensor,
)
from mixquant.calibrate import CalibrationOutcome
from mixquant.cost import model_size
from mixquant.fixtures import build_fixture_latency_table
from mixquant.graph import (
    KIND_AFFINE,
    KIND_RELU,
    Layer,
    ModelGraph,
    forward,
    gradients,
    hessian_traces,
)
from mixquant.modelio import load_dataset, load_model, read_record, save_dataset, save_model
from mixquant.pipeline import PipelineConfig, compare_runs, run_pipeline
from mixquant.quantize import QuantSpec, quantization_error, quantization_grid, quantize
from mixquant.search import (
    QuantConfig,
    SearchOutcome,
    bisection_search,
    greedy_search,
)
from mixquant.sensitivity import ordering_distance, score_noise


def test_criterion_1_grid_and_error_bound():
    started = time.monotonic()
    rng = np.random.default_rng(20240501)
    for case in range(1000):
        size = int(rng.integers(1, 65))
        x = rng.normal(0.0, float(rng.uniform(0.1, 10.0)), size=size)
        if not np.abs(x).max():
            x[0] = 1.0
        for bits in (2, 4, 8):
            free = QuantSpec(
                alpha=float(rng.uniform(0.05, 20.0)),
                gamma=float(rng.uniform(0.05, 20.0)),
                bits=bits,
            )
            assert np.isin(quantize(x, free), quantization_grid(free)).all()

            peak = float(np.abs(x).max())
            calibrated = QuantSpec(alpha=1.0 / peak, gamma=peak, bits=bits)
            assert np.isin(quantize(x, calibrated), quantization_grid(calibrated)).all()
            assert quantization_error(x, calibrated) <= 2.0 ** (-bits)
    assert time.monotonic() - started < 5.0


def _kink_clearance(model, data):
    """Per-example margin to the nearest relu kink across all layers."""
    x = data.features
    clearance = np.full(x.shape[0], np.inf)
    for layer in model.layers:
        if layer.kind == KIND_AFFINE:
            x = x @ layer.weight.T + layer.bias
        elif layer.kind == KIND_RELU:
            clearance = np.minimum(clearance, np.abs(x).min(axis=1))
            x = np.maximum(x, 0.0)
    return clearance


def test_criterion_2_gradient_fidelity(f1):
    started = time.monotonic()
    model, full_calib, _ = f1
    # The difference oracle is only a derivative estimate where the loss is
    # smooth within the step, so examples whose relu inputs sit closer to a
    # kink than any 1e-4 parameter bump can push them are excluded. The
    # gradients themselves are exact everywhere; kink-straddling examples
    # would only invalidate the oracle, not the thing under test.
    keep = np.flatnonzero(_kink_clearance(model, full_calib) > 1e-2)
    assert keep.size >= 100
    calib = full_calib.subset(keep)
    grads = gradients(model, calib)
    step = 1e-4
    for name in model.parameter_names():
        base = model.parameter(name)
        fd = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = base.copy()
            bumped[idx] += step
            up = forward(with_tensor(model, name, bumped), calib).loss
            bumped[idx] -= 2.0 * step
            down = forward(with_tensor(model, name, bumped), calib).loss
            fd[idx] = (up - down) / (2.0 * step)
        rel = np.linalg.norm(grads[name] - fd) / np.linalg.norm(fd)
        assert rel <= 1e-3, f"{name}: relative gradient error {rel:.3e}"
    assert time.monotonic() - started < 10.0


def test_criterion_3_hessian_trace():
    started = time.monotonic()
    model, data, diag = make_diagonal_quadratic()
    trace = hessian_traces(model, data)["probe.weight"]
    assert trace == pytest.approx(float(diag.sum()), rel=1e-13)

    v = np.random.default_rng(99).normal(size=(1, 3))
    hv = r_op_hvp(model, data, "probe.weight", v)
    rel = np.linalg.norm(hv - diag * v) / np.linalg.norm(diag * v)
    assert rel <= 1e-4
    assert time.monotonic() - started < 10.0


def test_criterion_4_noise_null_and_determinism(f1):
    model, calib, _ = f1
    null = score_noise(model, calib, noise_scale=0.0, trials=5, seed=42)
    for score in null.scores.values():
        assert score.mean == 0.0
        assert score.std == 0.0

    first = score_noise(model, calib, noise_scale=0.05, trials=5, seed=42)
    second = score_noise(model, calib, noise_scale=0.05, trials=5, seed=42)
    assert first == second


def test_criterion_5_search_matches_exhaustive_oracle():
    started = time.monotonic()
    target_fraction, baseline = 0.99, 1.0

    greedy = greedy_search(
        first_only(o1_accuracy), O1_NAMES, (4, 8, 16), target_fraction, baseline
    )
    best_size = min(
        o1_size_bytes(QuantConfig(bits=dict(zip(O1_NAMES, combo))))
        for combo in itertools.product((4, 8, 16), repeat=4)
        if o1_accuracy(QuantConfig(bits=dict(zip(O1_NAMES, combo)))) >= greedy.target
    )
    assert o1_size_bytes(greedy.config) == best_size
    assert o1_accuracy(greedy.config) >= greedy.target

    bisect = bisection_search(
        first_only(o1_accuracy), O1_NAMES, (4, 8, 16), target_fraction, baseline
    )
    prefix_best = None
    for t8 in range(5):
        for t4 in range(t8 + 1):
            bits = {n: 16 for n in O1_NAMES}
            bits.update({n: 8 for n in O1_NAMES[:t8]})
            bits.update({n: 4 for n in O1_NAMES[:t4]})
            candidate = QuantConfig(bits=bits)
            if o1_accuracy(candidate) >= bisect.target:
                size = o1_size_bytes(candidate)
                if prefix_best is None or size < prefix_best[0]:
                    prefix_best = (size, candidate)
    assert o1_size_bytes(bisect.config) == prefix_best[0]
    assert bisect.config.bits == prefix_best[1].bits
    assert time.monotonic() - started < 1.0


def test_criterion_6_evaluation_budgets():
    def separable(names):
        weights = {name: i + 1 for i, name in enumerate(names)}
        total = sum(weights.values())
        penalty = {16: 0.0, 8: 0.004 / total, 4: 0.02 / total}

        def evaluator(config):
            return 1.0 - sum(weights[n] * penalty[b] for n, b in config.bits.items())

        return evaluator

    for n in (1, 4, 54):
        names = [f"t{i:02d}" for i in range(n)]
        oracles = (separable(names), lambda c: 1.0, lambda c: 0.0)
        greedy_budget = 2 * n
        bisect_budget = 2 * (int(np.ceil(np.log2(max(n, 1)))) + 2)
        for oracle in oracles:
            greedy = greedy_search(first_only(oracle), names, (4, 8), 0.998, 1.0)
            assert greedy.evals <= greedy_budget, (n, greedy.evals)
            bisect = bisection_search(first_only(oracle), names, (4, 8), 0.998, 1.0)
            assert bisect.evals <= bisect_budget, (n, bisect.evals)


def test_criterion_7_end_to_end_fixture(f1, tmp_path):
    started = time.monotonic()
    model, calib, evalset = f1

    inputs = tmp_path / "inputs"
    inputs.mkdir()
    save_model(model, inputs / "model.json")
    save_dataset(calib, inputs / "calib.json")
    save_dataset(evalset, inputs / "eval.json")
    build_fixture_latency_table(model).to_csv(inputs / "latency.csv")

    base = PipelineConfig(
        model=str(inputs / "model.json"),
        calib_data=str(inputs / "calib.json"),
        eval_data=str(inputs / "eval.json"),
        latency_table=str(inputs / "latency.csv"),
        out_dir=str(tmp_path / "hessian"),
        metric="hessian",
        algo="greedy",
        target=0.99,
    )
    baseline_accuracy = forward(model, evalset).accuracy
    assert baseline_accuracy >= 0.95

    hessian_result = run_pipeline(base)

    # independent re-verification from the written artifacts alone
    run_dir = tmp_path / "hessian"
    stored_model = load_model(inputs / "model.json")
    stored_eval = load_dataset(inputs / "eval.json")
    stored_config = read_record(run_dir / "config.json", QuantConfig)
    bank = {
        b: read_record(run_dir / f"specs-{b}bit.json", CalibrationOutcome).specs for b in (4, 8)
    }
    independent = quantized_accuracy(stored_model, stored_eval, bank, stored_config)
    stored_outcome = read_record(run_dir / "outcome.json", SearchOutcome)
    assert independent >= 0.99 * baseline_accuracy
    assert independent == stored_outcome.achieved_accuracy
    assert hessian_result.cost.relative_size < 1.0

    random_dirs = []
    for seed in range(1, 6):
        out = tmp_path / f"random-{seed}"
        run_pipeline(
            dataclasses.replace(base, metric="random", seed=seed, out_dir=str(out))
        )
        random_dirs.append(out)

    summary = compare_runs([run_dir, *random_dirs])
    random_agg = next(a for a in summary["aggregates"] if a["metric"] == "random")
    hessian_row = next(r for r in summary["rows"] if r["metric"] == "hessian")
    allowed = random_agg["relative_size_mean"] + random_agg["relative_size_std"]
    assert hessian_row["relative_size"] <= allowed, (
        f"hessian relative size {hessian_row['relative_size']:.4f} exceeds "
        f"random mean + std = {allowed:.4f}"
    )
    assert time.monotonic() - started < 120.0


def test_criterion_8_ordering_distance():
    same = ["dense1.weight", "dense2.weight", "dense3.weight"]
    assert ordering_distance(same, same) == 0
    assert ordering_distance(same, same) == reference_levenshtein(same, same)

    kitten, sitting = list("kitten"), list("sitting")
    assert ordering_distance(kitten, sitting) == 3
    assert ordering_distance(kitten, sitting) == reference_levenshtein(kitten, sitting)


def test_criterion_9_size_arithmetic():
    # 1000 x 25499 weight plus 1000 bias: exactly 25.5e6 parameters
    model = ModelGraph(
        [Layer("big", KIND_AFFINE, np.zeros((1000, 25499)), np.zeros(1000))]
    )
    assert model.parameter_count() == 25_500_000

    sizes = {}
    for bits in (16, 8, 4):
        config = QuantConfig(bits={"big.weight": bits})
        sizes[bits] = model_size(model, config)

    megabyte = 1e6
    assert sizes[16] / megabyte == 51.00
    assert sizes[8] / megabyte == 25.50
    assert sizes[4] / megabyte == 12.75
    assert sizes[16] / sizes[16] == 1.00
    assert sizes[8] / sizes[16] == 0.50
    assert sizes[4] / sizes[16] == 0.25
