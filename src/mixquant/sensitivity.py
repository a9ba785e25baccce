"""Per-tensor sensitivity metrics and the orderings they induce.

Each metric assigns every scored tensor a mean score (plus spread over
repeated trials where the metric is stochastic) and the report orders
tensors ascending by mean, least sensitive first. That ordering is what
the bit-width searches consume. Three model-driven metrics are provided,
quantization error, loss degradation under weight noise, and the exact
trace of each tensor's loss-Hessian block, plus a seeded random ordering
that serves as the comparison baseline.

The noise metric draws from a private substream per tensor (stream id
is the tensor's position in the scored list), so scores do not depend on
evaluation order. All of its losses, the clean one and one per tensor
per trial, come from one chained engine pass (:func:`chain_losses`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .graph import Dataset, GraphError, ModelGraph, chain_losses, hessian_traces
from .modelio import DataFormatError, read_json, write_json
from .quantize import QuantSpec, quantization_error
from .rng import substream

REPORT_FORMAT = "mixquant-sensitivity"

METRIC_QE = "qe"
METRIC_NOISE = "noise"
METRIC_HESSIAN = "hessian"
METRIC_RANDOM = "random"
METRICS = (METRIC_QE, METRIC_NOISE, METRIC_HESSIAN, METRIC_RANDOM)

DEFAULT_NOISE_SCALE = 0.05
DEFAULT_TRIALS = 5
DEFAULT_SEED = 42


@dataclass(frozen=True)
class TensorScore:
    mean: float
    std: float
    trials: int


@dataclass(frozen=True)
class SensitivityReport:
    """Scores per tensor plus the ascending ordering they induce."""

    metric: str
    scores: dict[str, TensorScore]
    ordering: tuple[str, ...]
    seed: int


def _build_report(metric: str, scores: dict[str, TensorScore], seed: int) -> SensitivityReport:
    # Ascending by mean; exact ties fall back to the tensor name.
    ordering = tuple(sorted(scores, key=lambda name: (scores[name].mean, name)))
    return SensitivityReport(metric=metric, scores=scores, ordering=ordering, seed=seed)


def _stat(samples: list[float]) -> TensorScore:
    values = np.asarray(samples, dtype=np.float64)
    # Population spread: a single trial legitimately reports zero std.
    return TensorScore(
        mean=float(values.mean()), std=float(values.std()), trials=len(samples)
    )


def score_qe(model: ModelGraph, specs: Mapping[str, QuantSpec]) -> SensitivityReport:
    """Normalized RMS quantization error per weight tensor in ``specs``.

    Each tensor is probed at its spec's own width; the pipeline passes the
    bank of the lowest candidate width, the most discriminative one.
    """
    if not specs:
        raise GraphError("score_qe needs at least one tensor spec")
    unknown = sorted(set(specs) - set(model.weight_tensor_names()))
    if unknown:
        raise GraphError(f"specs name unknown tensors: {unknown}")
    scores: dict[str, TensorScore] = {}
    for name, spec in specs.items():
        scores[name] = _stat([quantization_error(model.parameter(name), spec)])
    return _build_report(METRIC_QE, scores, seed=0)


def score_noise(
    model: ModelGraph,
    data: Dataset,
    noise_scale: float = DEFAULT_NOISE_SCALE,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> SensitivityReport:
    """Loss increase when one weight tensor is perturbed by Gaussian noise.

    For each weight tensor the noise is drawn with standard deviation
    ``noise_scale * max|w|``, the noisy array is passed to the engine in
    place of the stored tensor, and the score is the perturbed-minus-clean
    loss. Mean and spread are taken over ``trials`` independent draws.
    Every loss comes from one chained pass and equals that of a
    :func:`forward` of its own; all ``trials`` noisy copies of every
    tensor are held at once.
    """
    if trials < 1:
        raise GraphError(f"trials must be >= 1, got {trials}")
    if not noise_scale >= 0:  # also rejects NaN
        raise GraphError(f"noise_scale must be >= 0, got {noise_scale}")
    names = model.weight_tensor_names()
    # Last tensor first, so each perturbed map resumes at its own layer;
    # every tensor draws from its own substream, so the order moves no draw.
    perturbed: list[str] = []
    maps: list[dict[str, np.ndarray]] = [{}]  # the clean map first
    for index in reversed(range(len(names))):
        name = names[index]
        w = model.parameter(name)
        sigma = noise_scale * float(np.max(np.abs(w)))
        rng = substream(seed, "noise", index)
        for _ in range(trials):
            noisy = w + rng.normal(0.0, sigma, size=w.shape) if sigma > 0 else w
            perturbed.append(name)
            maps.append({name: noisy})
    clean, *losses = chain_losses(model, data, maps)
    samples: dict[str, list[float]] = {name: [] for name in names}
    for name, loss in zip(perturbed, losses):
        samples[name].append(loss - clean)
    scores = {name: _stat(samples[name]) for name in names}
    return _build_report(METRIC_NOISE, scores, seed=seed)


def score_hessian(model: ModelGraph, data: Dataset) -> SensitivityReport:
    """Exact loss-curvature trace per weight tensor.

    Each tensor's score is the trace of its block of the mean loss's
    Hessian over the full dataset (:func:`hessian_traces`), divided by the
    tensor's element count, making differently sized tensors comparable.
    The scores are exact, so each is one trial with zero spread.
    """
    scores = {
        name: _stat([trace / model.parameter(name).size])
        for name, trace in hessian_traces(model, data).items()
    }
    return _build_report(METRIC_HESSIAN, scores, seed=0)


def score_random(tensor_names: list[str], seed: int) -> SensitivityReport:
    """A seeded uniform-random ordering posing as sensitivity scores.

    Every tensor's score is its rank in a random permutation, so the
    induced ordering is exactly that permutation. Used as the baseline
    the informed metrics must beat.
    """
    names = list(tensor_names)
    if not names:
        raise GraphError("score_random needs at least one tensor name")
    if len(set(names)) != len(names):
        raise GraphError("tensor names must be unique")
    perm = substream(seed, "random").permutation(len(names))
    order = [names[i] for i in perm]
    scores = {name: _stat([float(rank)]) for rank, name in enumerate(order)}
    return _build_report(METRIC_RANDOM, scores, seed=seed)


def ordering_distance(a: list[str], b: list[str]) -> int:
    """Edit distance between two orderings, one symbol per tensor name.

    Counts the minimum number of single-name insertions, deletions and
    substitutions turning ``a`` into ``b``. Identical orderings give 0;
    the distance never exceeds the longer length.
    """
    a = list(a)
    b = list(b)
    if len(a) > len(b):
        a, b = b, a
    previous = list(range(len(a) + 1))
    for i, symbol_b in enumerate(b, start=1):
        current = [i] + [0] * len(a)
        for j, symbol_a in enumerate(a, start=1):
            cost = 0 if symbol_a == symbol_b else 1
            current[j] = min(
                previous[j] + 1,  # delete
                current[j - 1] + 1,  # insert
                previous[j - 1] + cost,  # substitute or match
            )
        previous = current
    return previous[len(a)]


def save_report(report: SensitivityReport, path: str | Path) -> None:
    write_json(
        path,
        {
            "format": REPORT_FORMAT,
            "version": 1,
            "metric": report.metric,
            "seed": report.seed,
            "ordering": list(report.ordering),
            "scores": {
                name: {"mean": s.mean, "std": s.std, "trials": s.trials}
                for name, s in report.scores.items()
            },
        },
    )


def load_report(path: str | Path) -> SensitivityReport:
    payload = read_json(path, REPORT_FORMAT)
    try:
        scores = {
            name: TensorScore(
                mean=float(s["mean"]), std=float(s["std"]), trials=int(s["trials"])
            )
            for name, s in payload.get("scores", {}).items()
        }
        report = SensitivityReport(
            metric=str(payload["metric"]),
            scores=scores,
            ordering=tuple(payload["ordering"]),
            seed=int(payload["seed"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed sensitivity report in {path}") from exc
    if not all(isinstance(name, str) for name in report.ordering):
        raise DataFormatError(f"{path}: the ordering must list tensor names")
    return report
