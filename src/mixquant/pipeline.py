"""End-to-end run orchestration: calibrate, score, search, report.

A run loads a model with calibration and eval splits, calibrates and
adjusts one bank of quantizer scales per candidate bit width, scores tensor
sensitivity with the chosen metric, searches bit widths over the induced
ordering against the eval split, and writes every report plus a manifest
that reproduces the run byte for byte. The search space, the final
config and the cost report all cover the model's weight tensors only;
activations stay in float.

The search's evaluator memoizes accuracies by config and answers a chain
of offered configs with one chained engine pass over the longest prefix
whose speculative tail costs at most ``SPECULATION_FORWARDS`` forwards of
multiply-adds, sending each distinct config of it to the engine once;
the final verification is an independent, uncached evaluation. An
output path that is a file, or lies below one, is refused before any
stage runs.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import (
    DEFAULT_EPOCHS,
    DEFAULT_LEARNING_RATE,
    adjust_scales,
    calibrate,
    save_specs,
)
from .cost import LatencyTable, cost_report
from .graph import Dataset, GraphError, ModelGraph, forward
from .modelio import DataFormatError, load_dataset, load_model, read_json, write_json
from .rng import substream
from .search import (
    DEFAULT_BASELINE_BITS,
    QuantConfig,
    SearchOutcome,
    TargetUnreachableError,
    bisection_search,
    evaluate_config,
    evaluate_configs,
    greedy_search,
    load_outcome,
    save_config,
    save_outcome,
)
from .sensitivity import (
    DEFAULT_NOISE_SCALE,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    METRIC_HESSIAN,
    METRIC_NOISE,
    METRIC_QE,
    METRIC_RANDOM,
    METRICS,
    SensitivityReport,
    load_report,
    ordering_distance,
    save_report,
    score_hessian,
    score_noise,
    score_qe,
    score_random,
)

MANIFEST_FORMAT = "mixquant-run-manifest"
COST_FORMAT = "mixquant-cost-report"
COMPARISON_FORMAT = "mixquant-comparison"

ALGO_BISECTION = "bisection"
ALGO_GREEDY = "greedy"
ALGOS = (ALGO_BISECTION, ALGO_GREEDY)

# Per-stage sample counts for the two disjoint calibration-file subsets.
DEFAULT_STAGE_SAMPLES = 256

# Most multiply-adds, in forwards, that the search evaluator spends past
# the first config of an offered chain: answers the search may discard
# when an earlier probe is rejected.
SPECULATION_FORWARDS = 0.5


# PipelineConfig fields that take a path string, an int, or an int or a
# float; a bool is neither number, although Python counts it as an int.
_PATH_FIELDS = ("model", "calib_data", "eval_data", "latency_table", "out_dir")
_INTEGER_FIELDS = (
    "seed",
    "trials",
    "epochs",
    "baseline_bits",
    "sensitivity_samples",
    "calibration_samples",
)
_NUMBER_FIELDS = ("target", "noise_scale", "learning_rate")


class PipelineConfigError(ValueError):
    """Invalid run parameters, as opposed to malformed data files."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run depends on; serialized verbatim into the manifest."""

    model: str
    calib_data: str
    eval_data: str
    latency_table: str
    out_dir: str
    metric: str = METRIC_HESSIAN
    algo: str = ALGO_GREEDY
    bits: tuple[int, ...] = (4, 8)
    target: float = 0.99
    seed: int = DEFAULT_SEED
    noise_scale: float = DEFAULT_NOISE_SCALE
    trials: int = DEFAULT_TRIALS
    learning_rate: float = DEFAULT_LEARNING_RATE
    epochs: int = DEFAULT_EPOCHS
    baseline_bits: int = DEFAULT_BASELINE_BITS
    sensitivity_samples: int = DEFAULT_STAGE_SAMPLES
    calibration_samples: int = DEFAULT_STAGE_SAMPLES

    def validate(self) -> None:
        for name in _PATH_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, str):
                raise PipelineConfigError(f"{name} must be a path string, got {value!r}")
        integers = [(name, getattr(self, name)) for name in _INTEGER_FIELDS]
        for name, value in integers + [("bit width", b) for b in self.bits]:
            if not isinstance(value, int) or isinstance(value, bool):
                raise PipelineConfigError(f"{name} must be an integer, got {value!r}")
        for name in _NUMBER_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise PipelineConfigError(f"{name} must be a number, got {value!r}")
        if self.metric not in METRICS:
            raise PipelineConfigError(f"unknown metric {self.metric!r}; choose from {METRICS}")
        if self.algo not in ALGOS:
            raise PipelineConfigError(f"unknown algo {self.algo!r}; choose from {ALGOS}")
        if not self.bits:
            raise PipelineConfigError("at least one candidate bit width is required")
        for b in self.bits:
            if not 2 <= b <= self.baseline_bits:
                raise PipelineConfigError(
                    f"candidate bit width {b} outside [2, {self.baseline_bits}]"
                )
        if not 0.0 < self.target <= 1.0:
            raise PipelineConfigError(f"target must lie in (0, 1], got {self.target}")
        if self.trials < 1:
            raise PipelineConfigError(f"trials must be >= 1, got {self.trials}")
        rates = {"noise_scale": self.noise_scale, "learning_rate": self.learning_rate}
        for name, value in rates.items():
            if not math.isfinite(value):
                raise PipelineConfigError(f"{name} must be finite, got {value}")
        if self.noise_scale < 0 or self.learning_rate < 0 or self.epochs < 0:
            raise PipelineConfigError("noise_scale, learning_rate and epochs must be >= 0")
        if self.sensitivity_samples < 1 or self.calibration_samples < 1:
            raise PipelineConfigError("subset sample counts must be >= 1")


@dataclass
class RunResult:
    out_dir: Path
    manifest: dict
    report: SensitivityReport
    outcome: SearchOutcome
    config: QuantConfig
    cost: dict
    baseline_accuracy: float


class _Stage:
    """Context wrapper that prefixes errors with the failing stage name."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, Exception):
            exc.args = (f"[stage: {self.name}] {exc}",) + exc.args[1:]
        return False


def check_out_dir(path: str | Path) -> None:
    """Refuse an output directory that is a file or lies below one.

    Called before any work, so such a path fails fast instead of after a
    whole run. A directory that does not exist yet is fine.
    """
    path = Path(path)
    for existing in (path, *path.parents):
        if existing.exists():
            if not existing.is_dir():
                raise PipelineConfigError(
                    f"output directory {str(path)!r} is not a directory: "
                    f"{str(existing)!r} is a file"
                )
            return


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _split_subsets(data: Dataset, config: PipelineConfig) -> tuple[Dataset, Dataset]:
    """Two disjoint seeded samples: one scores sensitivity, one calibrates."""
    n = len(data)
    n_sens = min(config.sensitivity_samples, n // 2)
    n_cal = min(config.calibration_samples, n - n_sens)
    if n_sens < 1 or n_cal < 1:
        raise PipelineConfigError(
            f"calibration file with {n} examples cannot fill two disjoint subsets"
        )
    perm = substream(config.seed, "data-split").permutation(n)
    return data.subset(perm[:n_sens]), data.subset(perm[n_sens : n_sens + n_cal])


def _score(
    config: PipelineConfig,
    model: ModelGraph,
    sens_data: Dataset,
    spec_bank: dict[int, dict],
    levels: list[int],
) -> SensitivityReport:
    if config.metric == METRIC_QE:
        return score_qe(model, spec_bank[min(levels)])
    if config.metric == METRIC_NOISE:
        return score_noise(
            model,
            sens_data,
            noise_scale=config.noise_scale,
            trials=config.trials,
            seed=config.seed,
        )
    if config.metric == METRIC_HESSIAN:
        return score_hessian(model, sens_data)
    return score_random(model.weight_tensor_names(), seed=config.seed)


def _chain_macs(model: ModelGraph, configs) -> list[int]:
    """Multiply-adds per row of each config of a chained evaluation.

    The first config costs a whole forward; each later one the affine
    layers from the first whose width differs from its predecessor's on.
    """
    names = model.weight_tensor_names()
    macs = [model.parameter(name).size for name in names]
    costs = [sum(macs)]
    for prev, config in zip(configs, configs[1:]):
        first = next(
            (i for i, name in enumerate(names) if prev.bits.get(name) != config.bits.get(name)),
            len(names),
        )
        costs.append(sum(macs[first:]))
    return costs


def _evaluate_chain(
    model: ModelGraph,
    data: Dataset,
    spec_bank: dict[int, dict],
    accuracies: dict[frozenset, float],
    configs,
) -> list[float]:
    """The search evaluator, memoized by config in ``accuracies``.

    Answers the longest prefix of ``configs`` that stops before any config
    already evaluated and whose configs after the first cost at most
    ``SPECULATION_FORWARDS`` forwards of multiply-adds, and sends each
    distinct config of it to the engine once, in one chained pass: a
    config that repeats its predecessor, as bisection's verification
    does, costs nothing. A first config already evaluated is answered
    from the memo alone.
    """
    keys = [frozenset(c.bits.items()) for c in configs]
    if keys[0] in accuracies:
        return [accuracies[keys[0]]]
    costs = _chain_macs(model, configs)
    budget = SPECULATION_FORWARDS * costs[0]
    count, spent = 1, 0
    while count < len(configs) and keys[count] not in accuracies:
        spent += costs[count]
        if spent > budget:
            break
        count += 1
    fresh = dict(zip(keys[:count], configs[:count]))
    answers = evaluate_configs(model, data, spec_bank, list(fresh.values()))
    accuracies.update(zip(fresh, answers))
    return [accuracies[key] for key in keys[:count]]


def run_pipeline(config: PipelineConfig) -> RunResult:
    """Execute one full run and write its artifacts under ``config.out_dir``."""
    config.validate()
    check_out_dir(config.out_dir)

    with _Stage("load-inputs"):
        model = load_model(config.model)
        calib_data = load_dataset(config.calib_data)
        eval_data = load_dataset(config.eval_data)
        table = LatencyTable.from_csv(config.latency_table)

    levels = sorted({b for b in config.bits if b < config.baseline_bits}, reverse=True)
    if not levels:
        raise PipelineConfigError(
            f"no candidate bit width lies below the baseline {config.baseline_bits}"
        )
    weight_names = model.weight_tensor_names()
    if not weight_names:
        raise PipelineConfigError("model has no weight tensors to quantize")

    with _Stage("split-calibration-data"):
        sens_data, cal_data = _split_subsets(calib_data, config)

    with _Stage("calibrate-scales"):
        adjusted = adjust_scales(
            model,
            cal_data,
            [calibrate(model, {name: bits for name in weight_names}) for bits in levels],
            learning_rate=config.learning_rate,
            epochs=config.epochs,
        )
        bank_outcomes = dict(zip(levels, adjusted))
        spec_bank = {bits: outcome.specs for bits, outcome in bank_outcomes.items()}

    with _Stage("score-sensitivity"):
        report = _score(config, model, sens_data, spec_bank, levels)

    with _Stage("measure-baseline"):
        baseline_accuracy = forward(model, eval_data).accuracy

    with _Stage("search-bit-widths"):
        # Evaluation is deterministic, and bisection's verification probe
        # repeats a probe it already ran; the trace still gets every call.
        # A partial of a module-level function forms no reference cycle, so
        # the eval split is freed as soon as the run returns.
        evaluator = functools.partial(_evaluate_chain, model, eval_data, spec_bank, {})
        search = bisection_search if config.algo == ALGO_BISECTION else greedy_search
        outcome = search(
            evaluator,
            list(report.ordering),
            levels,
            config.target,
            baseline_accuracy,
            baseline_bits=config.baseline_bits,
        )

    with _Stage("verify-target"):
        verified = evaluate_config(model, eval_data, spec_bank, outcome.config)
        if verified < outcome.target:
            raise TargetUnreachableError(
                f"committed configuration reaches accuracy {verified:.6f}, "
                f"below target {outcome.target:.6f}"
            )

    with _Stage("report-costs"):
        cost = cost_report(model, outcome.config, table)

    with _Stage("write-artifacts"):
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": 1,
            "tool_version": __version__,
            "parameters": asdict(config),
            "inputs": {
                # content digests, not file hashes: the manifest JSON of two
                # same-shaped models is identical, the parameters are not
                "model_sha256": model.parameter_digest(),
                "calib_data_sha256": calib_data.digest(),
                "eval_data_sha256": eval_data.digest(),
                "latency_table_sha256": _sha256(Path(config.latency_table)),
            },
            "baseline_accuracy": baseline_accuracy,
        }
        write_json(out_dir / "manifest.json", manifest)
        save_report(report, out_dir / "sensitivity.json")
        save_config(outcome.config, out_dir / "config.json")
        save_outcome(outcome, out_dir / "outcome.json")
        cost_payload = {
            "format": COST_FORMAT,
            "version": 1,
            "size_bytes": cost.size_bytes,
            "latency_us": cost.latency_us,
            "relative_size": cost.relative_size,
            "relative_latency": cost.relative_latency,
        }
        write_json(out_dir / "cost.json", cost_payload)
        spec_files = {f"specs-{bits}bit.json": b for bits, b in bank_outcomes.items()}
        for name, outcome_b in spec_files.items():
            save_specs(outcome_b, out_dir / name)
        # An earlier run into the same directory may have had other widths.
        for stale in out_dir.glob("specs-*bit.json"):
            if stale.name not in spec_files:
                stale.unlink()

    return RunResult(
        out_dir=out_dir,
        manifest=manifest,
        report=report,
        outcome=outcome,
        config=outcome.config,
        cost=cost_payload,
        baseline_accuracy=baseline_accuracy,
    )


def _manifest_config(payload: dict, path: Path) -> PipelineConfig:
    try:
        params = dict(payload["parameters"])
        params.pop("probes", None)  # written by versions that sampled Hessian traces
        params["bits"] = tuple(params["bits"])
        config = PipelineConfig(**params)
        config.validate()
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed manifest parameters in {path}: {exc}") from exc
    return config


def load_manifest(path: str | Path) -> PipelineConfig:
    """Rebuild the PipelineConfig a manifest was written from."""
    return _manifest_config(read_json(path, MANIFEST_FORMAT), path)


def _load_run(run_dir: Path) -> dict:
    """Everything ``compare`` reads from a run directory, through the typed loaders."""
    manifest_path = run_dir / "manifest.json"
    manifest = read_json(manifest_path, MANIFEST_FORMAT)
    cost_path = run_dir / "cost.json"
    cost = read_json(cost_path, COST_FORMAT)
    inputs = manifest.get("inputs", {})
    if not isinstance(inputs, dict) or not isinstance(inputs.get("model_sha256", ""), str):
        raise DataFormatError(f"malformed manifest inputs in {manifest_path}")
    try:
        relative_size = float(cost["relative_size"])
        relative_latency = float(cost["relative_latency"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed cost report in {cost_path}") from exc
    return {
        "dir": run_dir,
        "config": _manifest_config(manifest, manifest_path),
        "model_sha256": inputs.get("model_sha256"),
        "relative_size": relative_size,
        "relative_latency": relative_latency,
        "outcome": load_outcome(run_dir / "outcome.json"),
        "report": load_report(run_dir / "sensitivity.json"),
    }


def compare_runs(run_dirs) -> dict:
    """Side-by-side summary of completed runs over the same model.

    Collects per-run cost and accuracy rows, aggregates mean and spread
    for repeated (metric, algo) groups, and reports pairwise edit
    distances between the runs' sensitivity orderings. Runs over
    different models are refused.
    """
    runs = [_load_run(Path(d)) for d in run_dirs]
    if len(runs) < 2:
        raise PipelineConfigError("compare needs at least two run directories")

    model_hashes = {r["model_sha256"] for r in runs}
    if len(model_hashes) != 1 or None in model_hashes:
        raise PipelineConfigError("runs were produced from different models")

    labels = _distinct_labels([r["dir"] for r in runs])
    rows = []
    for label, run in zip(labels, runs):
        config, outcome = run["config"], run["outcome"]
        rows.append(
            {
                "run": label,
                "metric": config.metric,
                "algo": config.algo,
                "seed": config.seed,
                "target": config.target,
                "achieved_accuracy": outcome.achieved_accuracy,
                "evals": outcome.evals,
                "relative_size": run["relative_size"],
                "relative_latency": run["relative_latency"],
            }
        )

    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["metric"], row["algo"]), []).append(row)
    aggregates = []
    for (metric, algo), members in sorted(groups.items()):
        if len(members) < 2:
            continue
        sizes = np.array([m["relative_size"] for m in members], dtype=np.float64)
        lats = np.array([m["relative_latency"] for m in members], dtype=np.float64)
        aggregates.append(
            {
                "metric": metric,
                "algo": algo,
                "runs": len(members),
                "relative_size_mean": float(sizes.mean()),
                "relative_size_std": float(sizes.std()),
                "relative_latency_mean": float(lats.mean()),
                "relative_latency_std": float(lats.std()),
            }
        )

    name_sets = {frozenset(r["report"].ordering) for r in runs}
    if len(name_sets) != 1:
        raise PipelineConfigError(
            "sensitivity orderings cover different tensor sets; cannot compare"
        )
    distances = []
    for i, run_a in enumerate(runs):
        for j in range(i + 1, len(runs)):
            run_b = runs[j]
            distances.append(
                {
                    "a": labels[i],
                    "b": labels[j],
                    "distance": ordering_distance(
                        list(run_a["report"].ordering), list(run_b["report"].ordering)
                    ),
                }
            )

    return {
        "format": COMPARISON_FORMAT,
        "version": 1,
        "rows": rows,
        "aggregates": aggregates,
        "ordering_distances": distances,
    }


def _distinct_labels(paths: list[Path]) -> list[str]:
    names = [p.name for p in paths]
    if len(set(names)) == len(names):
        return names
    return [str(p) for p in paths]
