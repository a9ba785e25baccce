"""Mixed-precision bit-width search over a sensitivity ordering.

Both searches walk candidate bit widths from highest to lowest and only
ever lower a tensor's width, never raise it. Each is a plain sequential
walk that asks a ``probe(config) -> accuracy`` callback for one config
at a time, and :func:`accepts` judges every answer against the exact bar
of :func:`accuracy_bar`, which reads a float target or baseline accuracy
as the decimal it prints (a baseline of 0.8 is 4/5). Accuracies are
exact too, each a :class:`~fractions.Fraction` of correct rows, so a
probe on the bar is accepted; only the outcome rounds them to floats.
An evaluator (the run's, in :mod:`mixquant.pipeline`, or a synthetic
oracle in tests) is offered a non-empty chain of configs, each the
previous one with more tensors lowered, and returns the accuracies in
[0, 1] of a non-empty prefix of it; this module knows nothing of the
engine or the quantizer but the width bounds. One function builds the chains by replay for both
searches: after a rejection, or once the offered chain is used up, the
walk reruns with every probe past the answered ones taken as accepted.
It offers that whole path, or only its first config right after a
rejection, and checks the walk's evaluation count against its budget.
The outcome does not depend on how many answers the evaluator gives.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, ClassVar, Mapping, Sequence

from .graph import GraphError
from .quantize import MAX_BITS, MIN_BITS

DEFAULT_BASELINE_BITS = 16


class TargetUnreachableError(RuntimeError):
    """The committed configuration failed its final accuracy verification."""


@dataclass(frozen=True)
class QuantConfig:
    """A per-tensor bit-width assignment over a fixed tensor set.

    ``baseline_bits`` is the precision standing in for "not quantized";
    tensors left at it bypass the quantizer entirely.
    """

    FORMAT: ClassVar[str] = "mixquant-quant-config"

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

    ``target`` is the exact bar of :func:`accuracy_bar` and each accuracy
    an exact answer, each rounded once to a float; rounding is monotone,
    so an accepted ``trace`` entry still reads ``accuracy >= target``.
    ``trace`` holds one entry per probe whose answer the search used.
    """

    FORMAT: ClassVar[str] = "mixquant-search-outcome"

    config: QuantConfig
    evals: int
    target: float
    achieved_accuracy: float
    trace: tuple[dict, ...] = field(default_factory=tuple)


# Offered a non-empty chain of configs, returns the exact accuracies of a
# non-empty prefix of it.
Evaluator = Callable[[Sequence[QuantConfig]], Sequence[Fraction]]
# A search's question for one config, answered with its exact accuracy.
Probe = Callable[[QuantConfig], Fraction]


def search_levels(candidate_bits, baseline_bits: int) -> list[int]:
    """The candidate widths a search walks, highest first: those below
    ``baseline_bits``, since a width at or above it lowers nothing."""
    return sorted({int(b) for b in candidate_bits if int(b) < baseline_bits}, reverse=True)


def _common_checks(ordering, candidate_bits, target_fraction, baseline_accuracy, baseline_bits):
    """The ordering's names, the widths to walk and the accuracy bar."""
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
    levels = search_levels(candidate_bits, baseline_bits)
    return names, levels, accuracy_bar(target_fraction, baseline_accuracy)


def _exact(value) -> Fraction:
    """``value`` as an exact fraction: a float as the decimal it prints (0.9 is
    9/10, not the float nearest it), a ``Fraction`` or an ``int`` as it is."""
    if isinstance(value, numbers.Rational):
        return Fraction(value)
    return Fraction(repr(float(value)))  # numpy 2 reprs a scalar as np.float64(0.9)


def accuracy_bar(target_fraction: float, baseline_accuracy: Fraction | float) -> Fraction:
    """The exact accuracy a config must reach: ``target_fraction`` times
    ``baseline_accuracy``, each read exactly by :func:`_exact`, so a float
    baseline counts as the decimal it prints, as the target does."""
    return _exact(target_fraction) * _exact(baseline_accuracy)


def accepts(accuracy: Fraction, bar: Fraction) -> bool:
    """The one accept test: of both searches, their driver and the run's verification."""
    return accuracy >= bar


def _replay(
    evaluator: Evaluator, walk: Callable[[Probe], SearchOutcome], bar: Fraction, budget: int
) -> SearchOutcome:
    """Run a sequential ``walk(probe)`` on chained evaluator calls.

    A replayed probe gets the answer given at its position; from the first
    unanswered probe on, every probe is taken as accepted and its config
    joins the path. The next offer is the whole path, or only its first
    config right after a rejection. Answers past a rejection were to
    other configs and drop. The rest of the path stays valid while every
    answer accepts, so the walk is replayed only after a rejection or
    once the path is used up. A walk that makes more than ``budget``
    evaluations is an error.
    """
    answers: list[Fraction] = []  # in the walk's probe order
    path: list[QuantConfig] = []
    used = 0

    def probe(config: QuantConfig) -> Fraction:
        nonlocal used
        if used < len(answers):
            used += 1
            return answers[used - 1]
        path.append(config)
        return math.inf

    while True:
        if not path:
            used = 0
            outcome = walk(probe)
            if not path:
                if outcome.evals > budget:
                    raise RuntimeError(
                        f"search used {outcome.evals} evaluations, over its budget {budget}"
                    )
                return outcome
        offer = path[:1] if answers and not accepts(answers[-1], bar) else path[:]
        got = evaluator(offer)
        if not 1 <= len(got) <= len(offer):
            raise RuntimeError(f"evaluator answered {len(got)} of {len(offer)} offered configs")
        for accuracy in got:
            answers.append(accuracy)
            if not accepts(accuracy, bar):
                path.clear()
                break
        else:
            del path[: len(got)]


def greedy_search(
    evaluator: Evaluator,
    ordering,
    candidate_bits,
    target_fraction: float,
    baseline_accuracy: Fraction | float,
    baseline_bits: int = DEFAULT_BASELINE_BITS,
) -> SearchOutcome:
    """Per-tensor greedy descent through the candidate bit widths.

    At each width, walk the surviving tensors least-sensitive first, try
    lowering each one, and keep the change only when accuracy stays at or
    above the target. Tensors that survive a width are the only ones
    considered at the next, lower width. Uses at most ``len(candidate_bits)
    * len(ordering)`` evaluations. ``baseline_accuracy`` is the unquantized
    model's: a ``Fraction`` or an ``int`` is taken as it is, a float as the
    decimal it prints (:func:`accuracy_bar`).
    """
    names, levels, bar = _common_checks(
        ordering, candidate_bits, target_fraction, baseline_accuracy, baseline_bits
    )

    def walk(probe: Probe) -> SearchOutcome:
        config = QuantConfig.uniform(names, baseline_bits, baseline_bits)
        achieved, trace, survivors = baseline_accuracy, [], names
        for bits in levels:
            kept = []
            for name in survivors:
                candidate = config.replace({name: bits})
                accuracy = probe(candidate)
                ok = accepts(accuracy, bar)
                trace.append(
                    {"tensor": name, "bits": bits, "accuracy": float(accuracy), "accepted": ok}
                )
                if ok:
                    config, achieved = candidate, accuracy
                    kept.append(name)
            # a tensor rejected at one width is not tried at the lower ones
            survivors = kept
        return SearchOutcome(config, len(trace), float(bar), float(achieved), tuple(trace))

    return _replay(evaluator, walk, bar, len(levels) * len(names))


def bisection_search(
    evaluator: Evaluator,
    ordering,
    candidate_bits,
    target_fraction: float,
    baseline_accuracy: Fraction | float,
    baseline_bits: int = DEFAULT_BASELINE_BITS,
) -> SearchOutcome:
    """Prefix-threshold bisection through the candidate bit widths.

    At each width, binary-search the largest prefix of the ordering that
    can drop to that width while accuracy holds the target; commit it,
    then restrict the next width to that prefix. A width commits at the
    accuracy of its accepted probe at the threshold; the evaluator is
    deterministic, so that probe is not repeated. Uses at most
    ``len(candidate_bits) * (ceil(log2 N) + 2)`` evaluations. The baseline
    accuracy is read as by :func:`greedy_search`.
    """
    names, levels, bar = _common_checks(
        ordering, candidate_bits, target_fraction, baseline_accuracy, baseline_bits
    )

    def walk(probe: Probe) -> SearchOutcome:
        config = QuantConfig.uniform(names, baseline_bits, baseline_bits)
        achieved, trace, prefix = baseline_accuracy, [], names
        for bits in levels:
            # thresholds <= low pass, with ``passed`` the config and
            # accuracy at low; thresholds >= high fail
            low, high, passed = 0, len(prefix) + 1, (config, achieved)
            while high - low > 1:
                threshold = (low + high) // 2
                candidate = config.replace(dict.fromkeys(prefix[:threshold], bits))
                accuracy = probe(candidate)
                ok = accepts(accuracy, bar)
                trace.append(
                    {"threshold": threshold, "bits": bits, "accuracy": float(accuracy),
                     "accepted": ok}
                )
                if ok:
                    low, passed = threshold, (candidate, accuracy)
                else:
                    high = threshold
            config, achieved = passed
            prefix = prefix[:low]
        return SearchOutcome(config, len(trace), float(bar), float(achieved), tuple(trace))

    budget = len(levels) * (math.ceil(math.log2(max(len(names), 1))) + 2)
    return _replay(evaluator, walk, bar, budget)
