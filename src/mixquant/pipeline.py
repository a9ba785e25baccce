"""End-to-end run orchestration: calibrate, score, search, report.

A run loads a model with calibration and eval splits, calibrates and
adjusts one bank of quantizer scales per candidate bit width, scores tensor
sensitivity with the chosen metric, searches bit widths over the induced
ordering against the eval split, and writes every report plus a manifest
that reproduces the run byte for byte. The search space, the final
config and the cost report all cover the model's weight tensors only;
activations stay in float.

The run's one evaluator, :func:`evaluate_configs`, answers a chain of
configs in one chained engine pass. The search's chains go through
:func:`_evaluate_chain`, which answers the longest prefix in which each
config past the first has a tail of at most half of the first config's
forward, in multiply-adds as the engine prices them. The baseline and
the final verification evaluate one config each; the verification
decides exactly as the searches do, by :func:`search.accepts` against
the bar of :func:`search.accuracy_bar`, and a float appears only where a
record is written. An output path that is a file or a symlink that leads
to no directory, or lies below one, or that the system cannot look up,
is refused before any stage runs.
"""

from __future__ import annotations

import errno
import functools
import hashlib
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import ClassVar, Mapping, Sequence

import numpy as np

from . import __version__
from .calibrate import (
    DEFAULT_EPOCHS,
    DEFAULT_LEARNING_RATE,
    CalibrationOutcome,
    adjust_scales,
    calibrate,
)
from .cost import CostReport, LatencyTable, cost_report, model_latency
from .graph import Dataset, GraphError, ModelGraph, chain_accuracies, chain_macs, one_blas_thread
from .graph import _check_compat
from .modelio import decode, load_dataset, load_model, read_json, read_record, write_record
from .quantize import MAX_BITS, MIN_BITS, QuantSpec, quantize
from .rng import substream
from .search import (
    DEFAULT_BASELINE_BITS,
    QuantConfig,
    SearchOutcome,
    TargetUnreachableError,
    accepts,
    accuracy_bar,
    bisection_search,
    greedy_search,
    search_levels,
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
    ordering_distance,
    score_hessian,
    score_noise,
    score_qe,
    score_random,
)

COMPARISON_FORMAT = "mixquant-comparison"

ALGO_BISECTION = "bisection"
ALGO_GREEDY = "greedy"
ALGOS = (ALGO_BISECTION, ALGO_GREEDY)

# Per-stage sample counts for the two disjoint calibration-file subsets.
DEFAULT_STAGE_SAMPLES = 256


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
        """Refuse a field of another type than :func:`modelio.decode` reads, or out of range."""
        values = vars(self)
        try:
            decode(values, PipelineConfig)
        except (TypeError, ValueError) as exc:
            raise PipelineConfigError(str(exc)) from exc
        if self.metric not in METRICS:
            raise PipelineConfigError(f"unknown metric {self.metric!r}; choose from {METRICS}")
        if self.algo not in ALGOS:
            raise PipelineConfigError(f"unknown algo {self.algo!r}; choose from {ALGOS}")
        # every other string field is a path
        for name, value in values.items():
            if isinstance(value, str) and (not value or "\x00" in value):
                raise PipelineConfigError(
                    f"{name} must be a non-empty path string with no NUL, got {value!r}"
                )
        if not self.bits:
            raise PipelineConfigError("at least one candidate bit width is required")
        top = min(MAX_BITS, self.baseline_bits)
        for b in self.bits:
            if not MIN_BITS <= b <= top:
                raise PipelineConfigError(f"candidate bit width {b} outside [{MIN_BITS}, {top}]")
        if not 0.0 < self.target <= 1.0:
            raise PipelineConfigError(f"target must lie in (0, 1], got {self.target}")
        if self.trials < 1:
            raise PipelineConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise PipelineConfigError(f"seed must be >= 0, got {self.seed}")
        rates = {"noise_scale": self.noise_scale, "learning_rate": self.learning_rate}
        for name, value in rates.items():
            if not math.isfinite(value):
                raise PipelineConfigError(f"{name} must be finite, got {value}")
        if self.noise_scale < 0 or self.learning_rate < 0 or self.epochs < 0:
            raise PipelineConfigError("noise_scale, learning_rate and epochs must be >= 0")
        if self.sensitivity_samples < 1 or self.calibration_samples < 1:
            raise PipelineConfigError("subset sample counts must be >= 1")


@dataclass(frozen=True)
class RunInputs:
    """Content digests of a run's inputs, not file hashes: the manifest
    JSON of two same-shaped models is identical, the parameters are not."""

    model_sha256: str
    calib_data_sha256: str
    eval_data_sha256: str
    latency_table_sha256: str


@dataclass(frozen=True)
class RunManifest:
    """What a run ran with and on: ``run --manifest`` reruns it byte for byte."""

    FORMAT: ClassVar[str] = "mixquant-run-manifest"

    tool_version: str
    parameters: PipelineConfig
    inputs: RunInputs
    baseline_accuracy: float


@dataclass
class RunResult:
    out_dir: Path
    manifest: RunManifest
    report: SensitivityReport
    outcome: SearchOutcome
    cost: CostReport

    @property
    def config(self) -> QuantConfig:
        """The committed config, ``outcome.config``."""
        return self.outcome.config


class _Stage:
    """Context wrapper that prefixes errors with the failing stage name.

    An :class:`OSError` with a ``strerror`` takes the prefix there: its
    ``str()`` reads errno, strerror and file, not ``args``."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, OSError) and exc.strerror is not None:
            exc.strerror = f"[stage: {self.name}] {exc.strerror}"
        elif isinstance(exc, Exception):
            exc.args = (f"[stage: {self.name}] {exc}",) + exc.args[1:]
        return False


def check_out_path(path: str | Path, file: bool = False) -> None:
    """Refuse an output path that is empty or holds a NUL, that the system
    cannot look up (one holding a name too long, say), or whose nearest
    existing name is not a directory: a file, or a symlink that dangles,
    loops or leads to a file. With ``file`` set the path names a file to
    write, which may exist, but not as a directory.

    Called before any work, so such a path fails fast instead of after a
    whole run. A directory that does not exist yet is fine.
    """
    text = str(path)
    if not text or "\x00" in text:
        raise PipelineConfigError(f"output path {text!r} must be non-empty with no NUL")
    path = Path(path)
    for existing in (path, *path.parents):
        try:
            os.lstat(existing)  # a symlink counts even when it leads nowhere
        except OSError as exc:
            if exc.errno in (errno.ENOENT, errno.ENOTDIR, errno.ELOOP):
                continue  # missing, or below a name that is no directory: look there
            raise PipelineConfigError(f"output path {text!r} is unusable: {exc.strerror}") from exc
        if file and existing == path:
            if path.is_dir():
                raise PipelineConfigError(f"output path {text!r} must name a file, not a directory")
        elif not existing.is_dir():
            raise PipelineConfigError(
                f"output path {text!r} is unusable: "
                f"{str(existing)!r} is a file or a link to no directory"
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


def evaluate_configs(
    model: ModelGraph,
    data: Dataset,
    specs_by_bits: Mapping[int, Mapping[str, QuantSpec]],
    configs: Sequence[QuantConfig],
) -> list[Fraction]:
    """Exact accuracy of the model under each config, as one chained engine pass.

    Each tensor assigned a width ``b`` below the config's baseline is
    fake-quantized with its calibrated spec in ``specs_by_bits[b]``, which
    must exist; the others stay unquantized. Each (tensor, width) pair is
    quantized once per call, so a tensor a config leaves unchanged is the
    same array as in its predecessor's weights, and the engine resumes
    each config below its change.
    """
    quantized: dict = {}
    maps: list[dict] = [{} for _ in configs]
    for weights, config in zip(maps, configs):
        for name, b in config.bits.items():
            if b == config.baseline_bits:
                continue
            if (name, b) not in quantized:
                spec = specs_by_bits.get(b, {}).get(name)
                if spec is None or spec.bits != b:
                    raise GraphError(f"no calibrated spec for tensor {name!r} at {b} bits")
                quantized[name, b] = quantize(model.parameter(name), spec)
            weights[name] = quantized[name, b]
    return chain_accuracies(model, data, maps)


def _chain_macs(model: ModelGraph, configs: Sequence[QuantConfig]) -> list[int]:
    """Multiply-adds per row of each config of a chained evaluation: each
    config changes the tensors whose widths differ from its predecessor's."""
    changes = [a.bits.items() ^ b.bits.items() for a, b in zip(configs, configs[1:])]
    return chain_macs(model, [{name for name, _ in change} for change in changes])


def _evaluate_chain(
    model: ModelGraph, data: Dataset, spec_bank: dict[int, dict], configs
) -> list[Fraction]:
    """The search evaluator.

    Answers, in one chained pass, the longest prefix of ``configs`` in
    which each config after the first has a tail of at most half the
    first config's forward. Chaining a probe of tail ``t`` forwards saves
    ``1 - t`` when its answer is used and wastes ``t`` when an earlier
    probe is rejected, so at even odds it pays while ``t <= 1/2``.
    """
    costs = _chain_macs(model, configs)
    count = 1
    while count < len(configs) and 2 * costs[count] <= costs[0]:
        count += 1
    return evaluate_configs(model, data, spec_bank, configs[:count])


@one_blas_thread()
def run_pipeline(config: PipelineConfig) -> RunResult:
    """Execute one full run and write its artifacts under ``config.out_dir``.

    The run holds BLAS at one thread (:func:`graph.one_blas_thread`)."""
    config.validate()
    check_out_path(config.out_dir)

    levels = search_levels(config.bits, config.baseline_bits)
    if not levels:
        raise PipelineConfigError(
            f"no candidate bit width lies below the baseline {config.baseline_bits}"
        )

    with _Stage("load-inputs"):
        model = load_model(config.model)
        calib_data = load_dataset(config.calib_data)
        eval_data = load_dataset(config.eval_data)
        table = LatencyTable.from_csv(config.latency_table)
        # Inputs that do not fit together fail here rather than after calibration.
        for data in (calib_data, eval_data):
            _check_compat(model, data)
        weight_names = model.weight_tensor_names()
        for bits in (*levels, config.baseline_bits):
            model_latency(model, QuantConfig.uniform(weight_names, bits, bits), table)

    with _Stage("split-calibration-data"):
        sens_data, cal_data = _split_subsets(calib_data, config)

    with _Stage("calibrate-scales"):
        bank_outcomes = adjust_scales(
            model,
            cal_data,
            {bits: calibrate(model, bits) for bits in levels},
            learning_rate=config.learning_rate,
            epochs=config.epochs,
        )
        spec_bank = {bits: outcome.specs for bits, outcome in bank_outcomes.items()}

    with _Stage("score-sensitivity"):
        report = _score(config, model, sens_data, spec_bank, levels)

    with _Stage("measure-baseline"):
        baseline = QuantConfig.uniform(weight_names, config.baseline_bits, config.baseline_bits)
        [baseline_accuracy] = evaluate_configs(model, eval_data, spec_bank, [baseline])

    with _Stage("search-bit-widths"):
        # Evaluation is deterministic, so neither search repeats a config.
        # A partial of a module-level function forms no reference cycle, so
        # the eval split is freed as soon as the run returns.
        evaluator = functools.partial(_evaluate_chain, model, eval_data, spec_bank)
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
        [verified] = evaluate_configs(model, eval_data, spec_bank, [outcome.config])
        bar = accuracy_bar(config.target, baseline_accuracy)
        if not accepts(verified, bar):
            raise TargetUnreachableError(
                f"committed configuration reaches accuracy {float(verified):.6f}, "
                f"below target {float(bar):.6f}"
            )

    with _Stage("report-costs"):
        cost = cost_report(model, outcome.config, table)

    with _Stage("write-artifacts"):
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        inputs = RunInputs(
            model_sha256=model.parameter_digest(),
            calib_data_sha256=calib_data.digest(),
            eval_data_sha256=eval_data.digest(),
            latency_table_sha256=_sha256(Path(config.latency_table)),
        )
        manifest = RunManifest(__version__, config, inputs, float(baseline_accuracy))
        files = _record_files(levels)
        specs = [bank_outcomes[bits] for bits in levels]
        records = [manifest, report, outcome.config, outcome, cost, *specs]
        for name, record in zip(files, records, strict=True):
            write_record(out_dir / name, record)
        # An earlier run into the same directory may have had other widths,
        # and another run into it may remove a stale file first.
        for stale in out_dir.glob("specs-*bit.json"):
            if stale.name not in files:
                stale.unlink(missing_ok=True)

    return RunResult(
        out_dir=out_dir,
        manifest=manifest,
        report=report,
        outcome=outcome,
        cost=cost,
    )


def load_manifest(path: str | Path) -> RunManifest:
    """The run manifest in ``path``, whose parameters must validate."""

    def parse(body: dict) -> RunManifest:
        manifest = decode(body, RunManifest)
        manifest.parameters.validate()
        return manifest

    return read_json(path, RunManifest.FORMAT, parse)


def _record_files(levels: Sequence[int]) -> dict[str, type]:
    """The record of a run searching ``levels`` by file name, in the order the run
    writes them, and its type: the manifest, the report, the config, the outcome,
    the cost and one specs file per width."""
    return {
        "manifest.json": RunManifest,
        "sensitivity.json": SensitivityReport,
        "config.json": QuantConfig,
        "outcome.json": SearchOutcome,
        "cost.json": CostReport,
        **{f"specs-{bits}bit.json": CalibrationOutcome for bits in levels},
    }


def _load_run(run_dir: Path) -> dict:
    """Every record of a run directory by file name, and the directory under ``"dir"``."""
    manifest = load_manifest(run_dir / "manifest.json")
    levels = search_levels(manifest.parameters.bits, manifest.parameters.baseline_bits)
    records = {
        name: read_record(run_dir / name, kind)
        for name, kind in _record_files(levels).items()
        if kind is not RunManifest
    }
    return {"dir": run_dir, "manifest.json": manifest, **records}


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

    model_hashes = {r["manifest.json"].inputs.model_sha256 for r in runs}
    if len(model_hashes) != 1:
        raise PipelineConfigError("runs were produced from different models")

    labels = _distinct_labels([r["dir"] for r in runs])
    rows = []
    for label, run in zip(labels, runs):
        config, outcome = run["manifest.json"].parameters, run["outcome.json"]
        rows.append(
            {
                "run": label,
                "metric": config.metric,
                "algo": config.algo,
                "seed": config.seed,
                "target": config.target,
                "achieved_accuracy": outcome.achieved_accuracy,
                "evals": outcome.evals,
                "relative_size": run["cost.json"].relative_size,
                "relative_latency": run["cost.json"].relative_latency,
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

    orderings = [list(r["sensitivity.json"].ordering) for r in runs]
    name_sets = {frozenset(ordering) for ordering in orderings}
    if len(name_sets) != 1:
        raise PipelineConfigError(
            "sensitivity orderings cover different tensor sets; cannot compare"
        )
    distances = []
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            distance = ordering_distance(orderings[i], orderings[j])
            distances.append({"a": labels[i], "b": labels[j], "distance": distance})

    return {
        "rows": rows,
        "aggregates": aggregates,
        "ordering_distances": distances,
    }


def _distinct_labels(paths: list[Path]) -> list[str]:
    names = [p.name for p in paths]
    if len(set(names)) == len(names):
        return names
    return [str(p) for p in paths]
