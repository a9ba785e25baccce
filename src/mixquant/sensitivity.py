"""Per-tensor sensitivity metrics and the orderings they induce.

Each metric assigns every scored tensor a mean score (plus spread over
repeated trials where the metric is stochastic) and the report orders
tensors ascending by mean, least sensitive first. That ordering is what
the bit-width searches consume. Three model-driven metrics are provided,
quantization error, loss degradation under weight noise, and a
stochastic estimate of loss curvature, plus a seeded random ordering
that serves as the comparison baseline.

Stochastic metrics draw from a private substream per tensor (stream id
is the tensor's position in the scored list), so scores do not depend on
evaluation order and tensors could be scored concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .graph import (
    KIND_AFFINE,
    Dataset,
    GraphError,
    ModelGraph,
    forward,
    forward_tape,
    hessian_vector_product,
)
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
DEFAULT_PROBES = 128
DEFAULT_SEED = 42

# Floats one chunk of Hessian probes may hold per activation array
# (probes x rows x widest layer). Bounds the batched R-pass's working set
# so that peak memory does not grow with the probe count.
PROBE_CHUNK_FLOATS = 1 << 15


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
    """
    if trials < 1:
        raise GraphError(f"trials must be >= 1, got {trials}")
    if not noise_scale >= 0:  # also rejects NaN
        raise GraphError(f"noise_scale must be >= 0, got {noise_scale}")
    base = forward(model, data)
    scores: dict[str, TensorScore] = {}
    for index, name in enumerate(model.weight_tensor_names()):
        w = model.parameter(name)
        sigma = noise_scale * float(np.max(np.abs(w)))
        rng = substream(seed, "noise", index)
        samples = []
        for _ in range(trials):
            noisy = w + rng.normal(0.0, sigma, size=w.shape) if sigma > 0 else w
            samples.append(forward(model, data, {name: noisy}).loss - base.loss)
        scores[name] = _stat(samples)
    return _build_report(METRIC_NOISE, scores, seed=seed)


def hutchinson_trace(
    rng: np.random.Generator, hvp, shape, probes: int, chunk: int | None = None
) -> list[float]:
    """Per-probe samples of a Hessian trace estimate.

    Draws sign vectors ``z`` with independent +/-1 entries and returns
    ``z . hvp(z)`` for each; the mean over probes estimates the trace,
    exactly in expectation since ``E[z z^T]`` is the identity. ``hvp``
    takes a stack ``(k,) + shape`` of probes and returns their products
    in the same shape. Probes go through it ``chunk`` at a time (default:
    all at once); the draws are the same for every chunk size.
    """
    if probes < 1:
        raise GraphError(f"probes must be >= 1, got {probes}")
    chunk = probes if chunk is None else chunk
    if chunk < 1:
        raise GraphError(f"chunk must be >= 1, got {chunk}")
    samples: list[float] = []
    for start in range(0, probes, chunk):
        k = min(chunk, probes - start)
        z = rng.integers(0, 2, size=(k, *shape)).astype(np.float64) * 2.0 - 1.0
        samples.extend((z * hvp(z)).reshape(k, -1).sum(axis=1).tolist())
    return samples


def _probe_chunk(model: ModelGraph, data: Dataset) -> int:
    widest = max(
        max(layer.weight.shape) for layer in model.layers if layer.kind == KIND_AFFINE
    )
    return max(1, PROBE_CHUNK_FLOATS // (len(data) * widest))


def score_hessian(
    model: ModelGraph,
    data: Dataset,
    probes: int = DEFAULT_PROBES,
    seed: int = DEFAULT_SEED,
) -> SensitivityReport:
    """Stochastic loss-curvature trace per weight tensor.

    Each tensor's score is the mean over sign-vector probes of
    ``z . H z`` with exact Hessian-vector products taken on the full
    dataset as one batch. One forward pass serves every product, and
    probes are pushed through in chunks sized by ``PROBE_CHUNK_FLOATS``.
    Every sample is divided by the tensor's element count, making
    differently sized tensors comparable.
    """
    tape = forward_tape(model, data)
    chunk = _probe_chunk(model, data)
    scores: dict[str, TensorScore] = {}
    for index, name in enumerate(model.weight_tensor_names()):
        w = model.parameter(name)
        rng = substream(seed, "hessian", index)
        samples = hutchinson_trace(
            rng,
            lambda z: hessian_vector_product(model, data, name, z, tape=tape),
            w.shape,
            probes,
            chunk,
        )
        scores[name] = _stat([s / w.size for s in samples])
    return _build_report(METRIC_HESSIAN, scores, seed=seed)


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
