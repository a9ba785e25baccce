"""Mixed-precision bit-width search over a sensitivity ordering.

Both search strategies walk candidate bit widths from highest to lowest
and only ever lower a tensor's width, never raise it. They are written
against an abstract evaluator, so they can be driven by the real
quantized engine or by a synthetic oracle in tests. The evaluator is
offered a non-empty chain of bit-width assignments, each the previous
one with more tensors lowered, and returns the accuracies in [0, 1] of a
non-empty prefix of it: each search offers the evaluations it would make
if every one were accepted, and consumes the answers up to the first
rejection.
Evaluation counts are instrumented and checked against the analytic
budgets.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .graph import Dataset, GraphError, ModelGraph, chain_accuracies
from .modelio import json_number, read_json, write_json
from .quantize import MAX_BITS, MIN_BITS, QuantSpec, quantize

CONFIG_FORMAT = "mixquant-quant-config"
OUTCOME_FORMAT = "mixquant-search-outcome"

DEFAULT_BASELINE_BITS = 16


class TargetUnreachableError(RuntimeError):
    """The committed configuration failed its final accuracy verification."""


@dataclass(frozen=True)
class QuantConfig:
    """A per-tensor bit-width assignment over a fixed tensor set.

    ``baseline_bits`` is the precision standing in for "not quantized";
    tensors left at it bypass the quantizer entirely.
    """

    bits: dict[str, int]
    baseline_bits: int = DEFAULT_BASELINE_BITS

    def __post_init__(self) -> None:
        for name, b in self.bits.items():
            if b == self.baseline_bits:
                continue
            if not isinstance(b, int) or not MIN_BITS <= b <= MAX_BITS:
                raise GraphError(
                    f"tensor {name!r} assigned invalid bit width {b!r}; expected "
                    f"{self.baseline_bits} or an integer in [{MIN_BITS}, {MAX_BITS}]"
                )

    @classmethod
    def uniform(
        cls, names, bits: int, baseline_bits: int = DEFAULT_BASELINE_BITS
    ) -> "QuantConfig":
        return cls(bits={name: bits for name in names}, baseline_bits=baseline_bits)

    def replace(self, assignments: Mapping[str, int]) -> "QuantConfig":
        merged = dict(self.bits)
        merged.update(assignments)
        return QuantConfig(bits=merged, baseline_bits=self.baseline_bits)


@dataclass(frozen=True)
class SearchOutcome:
    """What a search returned and how it got there.

    ``target`` is the absolute accuracy bar (target fraction times
    baseline accuracy), ``trace`` one entry per probe whose answer the
    search used.
    """

    config: QuantConfig
    evals: int
    target: float
    achieved_accuracy: float
    trace: tuple[dict, ...] = field(default_factory=tuple)


# Offered a non-empty chain of configs, returns the accuracies of a
# non-empty prefix of it.
Evaluator = Callable[[Sequence[QuantConfig]], Sequence[float]]


def _quantized_weights(
    model: ModelGraph,
    specs_by_bits: Mapping[int, Mapping[str, QuantSpec]],
    config: QuantConfig,
    quantized: dict,
) -> dict:
    """Replacement arrays for ``config``; each (tensor, width) pair is
    quantized once per ``quantized`` cache and then shared by identity."""
    weights = {}
    for name, b in config.bits.items():
        if b == config.baseline_bits:
            continue
        if (name, b) not in quantized:
            spec = specs_by_bits.get(b, {}).get(name)
            if spec is None or spec.bits != b:
                raise GraphError(f"no calibrated spec for tensor {name!r} at {b} bits")
            quantized[name, b] = quantize(model.parameter(name), spec)
        weights[name] = quantized[name, b]
    return weights


def evaluate_configs(
    model: ModelGraph,
    data: Dataset,
    specs_by_bits: Mapping[int, Mapping[str, QuantSpec]],
    configs: Sequence[QuantConfig],
) -> list[float]:
    """Accuracy of the model under each config, as one chained engine pass.

    ``specs_by_bits[b]`` holds the calibrated ``b``-bit specs to use for
    tensors assigned width ``b``; scales are never recalibrated here. Each
    such tensor is fake-quantized and passed to the engine in place of the
    stored weight; tensors at the baseline width are evaluated unquantized.
    A missing ``b``-bit spec for an assigned (tensor, width) pair is an
    error. Each (tensor, width) pair is quantized once per call, so a
    tensor a config leaves unchanged is the same array in its
    predecessor's weights, and the engine resumes each config below its
    change.
    """
    quantized: dict = {}
    return chain_accuracies(
        model, data, [_quantized_weights(model, specs_by_bits, c, quantized) for c in configs]
    )


def _common_checks(ordering, candidate_bits, target_fraction, baseline_accuracy, baseline_bits):
    names = list(ordering)
    if not names:
        raise GraphError("search needs a non-empty tensor ordering")
    if len(set(names)) != len(names):
        raise GraphError("tensor ordering contains duplicates")
    if not candidate_bits:
        raise GraphError("search needs at least one candidate bit width")
    if not 0.0 < target_fraction <= 1.0:
        raise GraphError(
            f"target fraction must lie in (0, 1], got {target_fraction}"
        )
    if not 0.0 <= baseline_accuracy <= 1.0:
        raise GraphError(f"baseline accuracy must lie in [0, 1], got {baseline_accuracy}")
    # Candidates at or above the baseline width are no-ops; drop them.
    levels = sorted({int(b) for b in candidate_bits if int(b) < baseline_bits}, reverse=True)
    return names, levels


def _answers(evaluator: Evaluator, offered: list[QuantConfig]) -> Sequence[float]:
    """The evaluator's accuracies for ``offered``, checked to be a non-empty prefix."""
    answers = evaluator(offered)
    if not 1 <= len(answers) <= len(offered):
        raise RuntimeError(
            f"evaluator answered {len(answers)} of {len(offered)} offered configs"
        )
    return answers


def greedy_search(
    evaluator: Evaluator,
    ordering,
    candidate_bits,
    target_fraction: float,
    baseline_accuracy: float,
    baseline_bits: int = DEFAULT_BASELINE_BITS,
) -> SearchOutcome:
    """Per-tensor greedy descent through the candidate bit widths.

    At each width, walk the surviving tensors least-sensitive first, try
    lowering each one, and keep the change only when accuracy stays at or
    above the target. Tensors that survive a width are the only ones
    considered at the next, lower width. Uses at most ``len(candidate_bits)
    * len(ordering)`` evaluations.

    The evaluator is offered every remaining probe as if each were
    accepted, across widths, and its answers are consumed up to the first
    rejection; right after a rejection only the next probe is offered.
    The outcome does not depend on how many answers the evaluator gives.
    """
    names, levels = _common_checks(
        ordering, candidate_bits, target_fraction, baseline_accuracy, baseline_bits
    )
    target = target_fraction * baseline_accuracy
    config = QuantConfig.uniform(names, baseline_bits, baseline_bits)
    achieved = baseline_accuracy
    trace: list[dict] = []
    # (tensor, width) probes still to make, in order, if every one is accepted
    probes = [(name, bits) for bits in levels for name in names]
    rejected = None  # the tensor the last answer rejected, if it did
    while probes:
        offered = probes if rejected is None else probes[:1]
        chain = []
        candidate = config
        for name, bits in offered:
            candidate = candidate.replace({name: bits})
            chain.append(candidate)
        rejected = None
        consumed = 0
        for (name, bits), candidate, accuracy in zip(offered, chain, _answers(evaluator, chain)):
            consumed += 1
            ok = accuracy >= target
            trace.append(
                {"tensor": name, "bits": bits, "accuracy": accuracy, "accepted": ok}
            )
            if not ok:
                rejected = name
                break
            config = candidate
            achieved = accuracy
        # a tensor rejected at one width is not tried at the lower ones
        probes = [(n, b) for n, b in probes[consumed:] if n != rejected]
    budget = len(levels) * len(names)
    if len(trace) > budget:
        raise RuntimeError(
            f"greedy search used {len(trace)} evaluations, over its budget {budget}"
        )
    return SearchOutcome(
        config=config,
        evals=len(trace),
        target=target,
        achieved_accuracy=achieved,
        trace=tuple(trace),
    )


def _bisection_path(
    config: QuantConfig, names: Sequence[str], levels: Sequence[int], low: int, high: int
) -> list[tuple[int, int, QuantConfig]]:
    """Every probe bisection has left, as ``(threshold, bits, config)``,
    if each one is accepted.

    ``levels[0]`` is the width being bisected, where lowering the first
    ``low`` of ``names`` passes and the first ``high`` fails. Accepted
    probes raise ``low`` until the bounds meet; a width that ends with
    ``low > 0`` commits that threshold, and the next width is bisected
    below it.
    """
    path = []
    for bits in levels:
        while high - low > 1:
            low = (low + high) // 2
            path.append((low, bits, config.replace(dict.fromkeys(names[:low], bits))))
        if low == 0:
            break
        config = config.replace(dict.fromkeys(names[:low], bits))
        low, high = 0, low + 1
    return path


def bisection_search(
    evaluator: Evaluator,
    ordering,
    candidate_bits,
    target_fraction: float,
    baseline_accuracy: float,
    baseline_bits: int = DEFAULT_BASELINE_BITS,
) -> SearchOutcome:
    """Prefix-threshold bisection through the candidate bit widths.

    At each width, binary-search the largest prefix of the ordering that
    can drop to that width while accuracy holds the target; commit it,
    then restrict the next width to that prefix. A width commits at the
    accuracy of its accepted probe at the threshold; the evaluator is
    deterministic, so that probe is not repeated. Uses at most
    ``len(candidate_bits) * (ceil(log2 N) + 2)`` evaluations.

    The evaluator is offered every remaining probe as if each were
    accepted, across widths, and its answers are consumed up to the first
    rejection, after which the new all-accepted path is offered. The
    outcome does not depend on how many answers the evaluator gives.
    """
    names, levels = _common_checks(
        ordering, candidate_bits, target_fraction, baseline_accuracy, baseline_bits
    )
    target = target_fraction * baseline_accuracy
    config = QuantConfig.uniform(names, baseline_bits, baseline_bits)
    achieved = baseline_accuracy
    trace: list[dict] = []
    level = 0
    # Invariant: thresholds <= low pass (0 is the committed config), and
    # ``passed`` holds the config and accuracy at low; thresholds >= high
    # fail (the committed threshold of the width before, plus one, or
    # len(names) + 1: a virtual sentinel).
    low, high = 0, len(names) + 1
    passed = (config, achieved)
    while path := _bisection_path(config, names, levels[level:], low, high):
        answers = _answers(evaluator, [candidate for *_, candidate in path])
        for (threshold, bits, candidate), accuracy in zip(path, answers):
            ok = accuracy >= target
            trace.append(
                {"threshold": threshold, "bits": bits, "accuracy": accuracy, "accepted": ok}
            )
            if ok:
                low, passed = threshold, (candidate, accuracy)
            else:
                high = threshold
            if high - low == 1:
                # the width is settled: commit its threshold, which ends
                # the search if it is 0
                config, achieved = passed
                level, low, high = level + 1, 0, low + 1
            if not ok:
                break
    budget = len(levels) * (math.ceil(math.log2(max(len(names), 1))) + 2)
    if len(trace) > budget:
        raise RuntimeError(
            f"bisection search used {len(trace)} evaluations, over its budget {budget}"
        )
    return SearchOutcome(
        config=config,
        evals=len(trace),
        target=target,
        achieved_accuracy=achieved,
        trace=tuple(trace),
    )


def _parse_config(payload: dict) -> QuantConfig:
    return QuantConfig(
        bits={name: json_number(b, integer=True) for name, b in payload["bits"].items()},
        baseline_bits=json_number(payload["baseline_bits"], integer=True),
    )


def save_config(config: QuantConfig, path: str | Path) -> None:
    write_json(path, CONFIG_FORMAT, asdict(config))


def load_config(path: str | Path) -> QuantConfig:
    return read_json(path, CONFIG_FORMAT, _parse_config)


def save_outcome(outcome: SearchOutcome, path: str | Path) -> None:
    write_json(path, OUTCOME_FORMAT, asdict(outcome))


def _parse_outcome(payload: dict) -> SearchOutcome:
    trace = payload["trace"]
    if not isinstance(trace, list) or not all(isinstance(entry, dict) for entry in trace):
        raise TypeError("the trace must be a list of objects")
    return SearchOutcome(
        config=_parse_config(payload["config"]),
        evals=json_number(payload["evals"], integer=True),
        target=json_number(payload["target"]),
        achieved_accuracy=json_number(payload["achieved_accuracy"]),
        trace=tuple(trace),
    )


def load_outcome(path: str | Path) -> SearchOutcome:
    return read_json(path, OUTCOME_FORMAT, _parse_outcome)
