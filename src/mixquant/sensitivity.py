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
evaluation order or grouping. Its losses, one per tensor per trial, come
from chained engine passes (:func:`chain_losses`), one per group of
perturbations, last tensor first, as :func:`~mixquant.graph.stack_groups`
packs their noisy copies one (tensor, trial) at a time; each pass has the
clean loss first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping

import numpy as np

from . import graph
from .graph import Dataset, GraphError, ModelGraph, chain_losses, hessian_traces
from .quantize import QuantSpec, quantization_error
from .rng import substream

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

    FORMAT: ClassVar[str] = "mixquant-sensitivity"

    metric: str
    scores: dict[str, TensorScore]
    ordering: tuple[str, ...]
    seed: int

    def __post_init__(self) -> None:
        if sorted(self.ordering) != sorted(self.scores):
            raise ValueError("the ordering must list every scored tensor once")


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
    bank of the lowest candidate width, the most discriminative one. An
    all-zero tensor scores 0.0: any scales quantize it exactly.
    """
    if not specs:
        raise GraphError("score_qe needs at least one tensor spec")
    unknown = sorted(set(specs) - set(model.weight_tensor_names()))
    if unknown:
        raise GraphError(f"specs name unknown tensors: {unknown}")
    scores: dict[str, TensorScore] = {}
    for name, spec in specs.items():
        w = model.parameter(name)
        scores[name] = _stat([quantization_error(w, spec) if np.any(w) else 0.0])
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
    Tensors go last first, and their noisy copies, one per tensor and
    trial, in groups that fit :data:`~mixquant.graph.STACK_FLOATS`
    (:func:`~mixquant.graph.stack_groups`), so a group may end inside one
    tensor's trials. Each group's losses, its own clean one first, come
    from one chained pass, and each equals the loss of a pass over its map
    alone (:func:`~mixquant.graph.chain_losses` of a one-map chain).
    """
    if trials < 1:
        raise GraphError(f"trials must be >= 1, got {trials}")
    if not noise_scale >= 0:  # also rejects NaN
        raise GraphError(f"noise_scale must be >= 0, got {noise_scale}")
    names = model.weight_tensor_names()
    tensors = [model.parameter(name) for name in names]
    sigmas = [noise_scale * float(np.max(np.abs(w))) for w in tensors]
    # Last tensor first, so each perturbed map resumes at its own layer;
    # every tensor draws from its own substream, so neither the order nor
    # the groups move a draw.
    rngs = [substream(seed, "noise", index) for index in range(len(names))]
    order = [index for index in range(len(names))[::-1] for _ in range(trials)]
    samples: dict[str, list[float]] = {name: [] for name in names}
    for group in graph.stack_groups([tensors[index].size for index in order]):
        maps: list[dict[str, np.ndarray]] = [{}]  # the clean map first
        for index in (order[i] for i in group):
            w, sigma = tensors[index], sigmas[index]
            noisy = w + rngs[index].normal(0.0, sigma, size=w.shape) if sigma > 0 else w
            maps.append({names[index]: noisy})
        clean, *losses = chain_losses(model, data, maps)
        for [name], loss in zip(maps[1:], losses):
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
