"""Two-step scale calibration: max-value initialization, then descent.

Step one sets each tensor's pre-scale to 1/max|x| and post-scale to
max|x|, so the quantizer input always lands inside the clip interval.
Step two, owned here whole, runs plain gradient descent on the scales
alone, driven by straight-through gradients of the calibration loss
through the quantized forward pass. The banks of scales a run calibrates
(one per candidate width) descend in groups that
:func:`~mixquant.graph.stack_groups` packs within
:data:`~mixquant.graph.STACK_FLOATS`, each group's scales held as
``(banks, tensors)`` arrays. Each epoch quantizes a group's weights onto
a leading bank axis and takes the loss and the weight gradients from one
taped pass (:func:`~mixquant.graph.loss_and_gradients`), reducing each
gradient to scale gradients as the sweep yields it. The groups run on
the engine's workers (:func:`~mixquant.graph.on_workers`), each writing
only its own banks and logs. Model weights are read, never written.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import graph
from .graph import KIND_AFFINE, Dataset, GraphError, ModelGraph, on_workers
from .modelio import json_number, read_json, write_json
from .quantize import QuantSpec, lattice

SPECS_FORMAT = "mixquant-quant-specs"

DEFAULT_LEARNING_RATE = 1e-5
DEFAULT_EPOCHS = 20

# Scales are kept strictly positive; descent steps are clamped here.
_SCALE_FLOOR = 1e-12


class AdjustmentDivergedError(RuntimeError):
    """The calibration loss left the finite range during scale descent."""


@dataclass
class CalibrationOutcome:
    """Calibrated specs per tensor plus the loss trace of any adjustment run."""

    specs: dict[str, QuantSpec]
    adjustment_log: list[float] = field(default_factory=list)


def calibrate(model: ModelGraph, bits: Mapping[str, int]) -> CalibrationOutcome:
    """Max-value scale initialization for the weight tensors named in ``bits``.

    The scales depend on the weights alone, no data is read. A tensor that
    is identically zero gets the neutral scales (1, 1).
    """
    unknown = sorted(set(bits) - set(model.weight_tensor_names()))
    if unknown:
        raise GraphError(f"cannot calibrate unknown tensors: {unknown}")

    specs: dict[str, QuantSpec] = {}
    for name in bits:
        peak = float(np.max(np.abs(model.parameter(name))))
        if peak == 0.0:
            alpha, gamma = 1.0, 1.0
        else:
            alpha, gamma = 1.0 / peak, peak
        specs[name] = QuantSpec(alpha=alpha, gamma=gamma, bits=int(bits[name]))
    return CalibrationOutcome(specs=specs)


def _taped_floats(model: ModelGraph, rows: int) -> int:
    """Floats of the activations one bank's taped pass keeps over ``rows``
    rows: each affine layer's output, which the relus after it overwrite."""
    return rows * sum(l.weight.shape[0] for l in model.layers if l.kind == KIND_AFFINE)


def _stack_groups(
    model: ModelGraph, data: Dataset, banks: list[dict[str, QuantSpec]]
) -> list[list[int]]:
    """Indices of the banks that share one pass: same tensors, tapes within budget.

    The budget comes first: each tensor set's banks are packed by
    :func:`~mixquant.graph.stack_groups`, whatever the number of workers,
    and only then spread over the workers.
    """
    by_names: dict[frozenset, list[int]] = {}
    for i, bank in enumerate(banks):
        by_names.setdefault(frozenset(bank), []).append(i)
    taped = _taped_floats(model, len(data))
    return [
        [members[j] for j in group]
        for members in by_names.values()
        for group in graph.stack_groups([taped] * len(members))
    ]


def _bank_label(bank: Mapping[str, QuantSpec]) -> str:
    widths = sorted({spec.bits for spec in bank.values()})
    if not widths:
        return "empty bank"
    return "/".join(str(b) for b in widths) + "-bit bank"


def adjust_scales(
    model: ModelGraph,
    data: Dataset,
    outcomes: Sequence[CalibrationOutcome],
    learning_rate: float = DEFAULT_LEARNING_RATE,
    epochs: int = DEFAULT_EPOCHS,
) -> list[CalibrationOutcome]:
    """Gradient descent on all pre- and post-scales of every bank simultaneously.

    Runs full-batch descent for ``epochs`` steps on each outcome's bank
    and returns one new outcome per input, in order; the inputs are
    untouched. Each returned log holds that bank's calibration loss
    before the first step and after each one, so it has ``epochs + 1``
    entries and a zero learning rate leaves it constant. Banks naming the
    same tensors are stacked into shared passes, the groups of banks run
    on the engine's workers, and every bank's result is bit-identical to
    descending it alone. When banks diverge, the error raised is that of
    the first group, in group order, that diverged, as in a serial
    descent.
    """
    if epochs < 0:
        raise GraphError(f"epochs must be >= 0, got {epochs}")
    if learning_rate < 0:
        raise GraphError(f"learning rate must be >= 0, got {learning_rate}")
    banks = [dict(outcome.specs) for outcome in outcomes]
    logs: list[list[float]] = [[] for _ in banks]
    groups = _stack_groups(model, data, banks)

    def run(first: int, stop: int) -> None:
        for group in groups[first:stop]:
            group_banks, group_logs = [banks[i] for i in group], [logs[i] for i in group]
            _descend(model, data, group_banks, group_logs, learning_rate, epochs)

    on_workers(len(groups), run)
    return [CalibrationOutcome(specs=b, adjustment_log=log) for b, log in zip(banks, logs)]


def loss_and_scale_gradients(
    model: ModelGraph,
    data: Dataset,
    names: Sequence[str],
    half: np.ndarray,
    scales: np.ndarray,
    gradient: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One epoch of a group: each bank's loss and, if asked, its scale gradients.

    ``half`` is ``(banks, tensors)``, each bank's ``2**(bits-1)`` for
    ``names[t]`` in column ``t``, and ``scales`` holds the pre- and
    post-scales stacked as ``(2, banks, tensors)``. Returns the
    ``(banks,)`` losses and, when ``gradient`` is set, the loss gradients
    in ``scales``, shaped alike. The straight-through estimator takes
    rounding as the identity, and clipping passes gradient only where
    ``|alpha * x| <= 1``.
    """
    alpha, gamma = scales
    banks = len(half)
    taped, weights = {}, {}
    for t, name in enumerate(names):
        pre = alpha[:, t, None, None] * model.parameter(name)
        in_range = np.abs(pre) <= 1.0
        scaled = lattice(pre, half[:, t, None, None])
        taped[name] = t, scaled, in_range
        weights[name] = scaled * gamma[:, t, None, None]
    losses, sweep = graph.loss_and_gradients(
        model, data, weights, names if gradient else (), stack=banks
    )
    if not gradient:
        return losses, None
    grads = np.empty_like(scales)
    for name, grad in sweep:
        t, scaled, in_range = taped.pop(name)
        grads[1, :, t] = (grad * scaled).reshape(banks, -1).sum(axis=1)
        grad *= in_range
        grad *= model.parameter(name)
        grads[0, :, t] = grad.reshape(banks, -1).sum(axis=1) * gamma[:, t]
        del grad, scaled, in_range  # before the sweep computes the next gradient
    return losses, grads


def _descend(
    model: ModelGraph,
    data: Dataset,
    banks: list[dict[str, QuantSpec]],
    logs: list[list[float]],
    learning_rate: float,
    epochs: int,
) -> None:
    """Advance one stacked group of banks through every epoch, in place."""
    names = list(banks[0])
    half = np.array([[float(2 ** (bank[n].bits - 1)) for n in names] for bank in banks])
    scales = np.array(
        [[[getattr(bank[n], f) for n in names] for bank in banks] for f in ("alpha", "gamma")]
    )
    for epoch in range(epochs + 1):
        # Overflow shows up as a non-finite loss, reported below as divergence.
        # The last epoch only logs the loss: no step follows it.
        with np.errstate(over="ignore", invalid="ignore"):
            losses, grads = loss_and_scale_gradients(
                model, data, names, half, scales, epoch < epochs
            )
            if grads is not None:
                scales = np.maximum(scales - learning_rate * grads, _SCALE_FLOOR)
        for bank, loss, log in zip(banks, losses.tolist(), logs):
            if not math.isfinite(loss):
                raise AdjustmentDivergedError(
                    f"calibration loss of the {_bank_label(bank)} became non-finite "
                    f"at epoch {epoch} with learning rate {learning_rate}"
                )
            log.append(loss)
    for bank, bank_alpha, bank_gamma in zip(banks, *scales.tolist()):
        for name, a, g in zip(names, bank_alpha, bank_gamma):
            bank[name] = QuantSpec(alpha=a, gamma=g, bits=bank[name].bits)


def save_specs(outcome: CalibrationOutcome, path: str | Path) -> None:
    """Serialize an outcome as JSON with full round-trip float precision."""
    write_json(path, SPECS_FORMAT, asdict(outcome))


def _parse_specs(payload: dict) -> CalibrationOutcome:
    return CalibrationOutcome(
        specs={
            name: QuantSpec(
                alpha=json_number(s["alpha"]),
                gamma=json_number(s["gamma"]),
                bits=json_number(s["bits"], integer=True),
            )
            for name, s in payload["specs"].items()
        },
        adjustment_log=[json_number(v) for v in payload["adjustment_log"]],
    )


def load_specs(path: str | Path) -> CalibrationOutcome:
    return read_json(path, SPECS_FORMAT, _parse_specs)
