"""Mixed-precision bit-width search over a sensitivity ordering.

Both search strategies walk candidate bit widths from highest to lowest
and only ever lower a tensor's width, never raise it. They are written
against an abstract evaluator, a function from a bit-width assignment to
an accuracy in [0, 1], so they can be driven by the real quantized
engine or by a synthetic oracle in tests. Evaluation counts are
instrumented and checked against the analytic budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from .graph import Dataset, GraphError, ModelGraph, forward
from .modelio import DataFormatError, read_json, write_json
from .quantize import MAX_BITS, MIN_BITS, QuantSpec

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
    baseline accuracy), ``trace`` one entry per evaluator call.
    """

    config: QuantConfig
    evals: int
    target: float
    achieved_accuracy: float
    trace: tuple[dict, ...] = field(default_factory=tuple)


Evaluator = Callable[[QuantConfig], float]


def evaluate_config(
    model: ModelGraph,
    data: Dataset,
    specs_by_bits: Mapping[int, Mapping[str, QuantSpec]],
    config: QuantConfig,
) -> float:
    """Accuracy of the model under ``config`` with pre-calibrated scales.

    ``specs_by_bits[b]`` holds the calibrated specs to use for tensors
    assigned width ``b``; scales are never recalibrated here. Tensors at
    the baseline width are evaluated unquantized. A missing spec for an
    assigned (tensor, width) pair is an error.
    """
    quant: dict[str, QuantSpec] = {}
    for name, b in config.bits.items():
        if b == config.baseline_bits:
            continue
        per_width = specs_by_bits.get(b)
        if per_width is None or name not in per_width:
            raise GraphError(f"no calibrated spec for tensor {name!r} at {b} bits")
        quant[name] = per_width[name].with_bits(b)
    return forward(model, data, quant).accuracy


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
    """
    names, levels = _common_checks(
        ordering, candidate_bits, target_fraction, baseline_accuracy, baseline_bits
    )
    target = target_fraction * baseline_accuracy
    config = QuantConfig.uniform(names, baseline_bits, baseline_bits)
    achieved = baseline_accuracy
    trace: list[dict] = []
    survivors = names
    for bits in levels:
        kept: list[str] = []
        for name in survivors:
            candidate = config.replace({name: bits})
            accuracy = evaluator(candidate)
            ok = accuracy >= target
            trace.append(
                {"tensor": name, "bits": bits, "accuracy": accuracy, "accepted": ok}
            )
            if ok:
                config = candidate
                achieved = accuracy
                kept.append(name)
        survivors = kept
        if not survivors:
            break
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
    then restrict the next width to that prefix. The committed threshold
    is re-verified once per width and falls back to the last confirmed
    passing threshold if the verification fails, which only a
    non-deterministic evaluator can trigger. Uses at most
    ``len(candidate_bits) * (ceil(log2 N) + 2)`` probe evaluations plus
    one verification per width.
    """
    names, levels = _common_checks(
        ordering, candidate_bits, target_fraction, baseline_accuracy, baseline_bits
    )
    target = target_fraction * baseline_accuracy
    config = QuantConfig.uniform(names, baseline_bits, baseline_bits)
    achieved = baseline_accuracy
    trace: list[dict] = []
    prefix = names

    def prefix_config(base: QuantConfig, count: int, bits: int) -> QuantConfig:
        return base.replace({name: bits for name in prefix[:count]})

    for bits in levels:
        n = len(prefix)
        if n == 0:
            break
        # Invariant: thresholds <= low pass (0 is the committed config),
        # thresholds >= high fail (n + 1 is a virtual sentinel).
        low, high = 0, n + 1
        while high - low > 1:
            threshold = (low + high) // 2
            accuracy = evaluator(prefix_config(config, threshold, bits))
            ok = accuracy >= target
            trace.append(
                {"threshold": threshold, "bits": bits, "accuracy": accuracy, "accepted": ok}
            )
            if ok:
                low = threshold
            else:
                high = threshold
        if low > 0:
            committed = prefix_config(config, low, bits)
            verify = evaluator(committed)
            trace.append(
                {
                    "threshold": low,
                    "bits": bits,
                    "accuracy": verify,
                    "accepted": verify >= target,
                    "verification": True,
                }
            )
            if verify < target:
                # Stale pass under a non-deterministic evaluator: keep the
                # largest threshold that held during verification, none.
                low = 0
                committed = config
                verify = achieved
            config = committed
            achieved = verify
        prefix = prefix[:low]
    max_level = max(len(names), 1)
    budget = len(levels) * (math.ceil(math.log2(max_level)) + 2) + len(levels)
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


def _config_payload(config: QuantConfig) -> dict:
    return {"baseline_bits": config.baseline_bits, "bits": dict(config.bits)}


def _config_from_payload(payload: dict) -> QuantConfig:
    return QuantConfig(
        bits={name: int(b) for name, b in payload["bits"].items()},
        baseline_bits=int(payload["baseline_bits"]),
    )


def save_config(config: QuantConfig, path: str | Path) -> None:
    write_json(path, {"format": CONFIG_FORMAT, "version": 1, **_config_payload(config)})


def load_config(path: str | Path) -> QuantConfig:
    payload = read_json(path, CONFIG_FORMAT)
    try:
        return _config_from_payload(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed quantization config in {path}") from exc


def save_outcome(outcome: SearchOutcome, path: str | Path) -> None:
    write_json(
        path,
        {
            "format": OUTCOME_FORMAT,
            "version": 1,
            "config": _config_payload(outcome.config),
            "evals": outcome.evals,
            "target": outcome.target,
            "achieved_accuracy": outcome.achieved_accuracy,
            "trace": list(outcome.trace),
        },
    )


def load_outcome(path: str | Path) -> SearchOutcome:
    payload = read_json(path, OUTCOME_FORMAT)
    try:
        return SearchOutcome(
            config=_config_from_payload(payload["config"]),
            evals=int(payload["evals"]),
            target=float(payload["target"]),
            achieved_accuracy=float(payload["achieved_accuracy"]),
            trace=tuple(payload["trace"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed search outcome in {path}") from exc
