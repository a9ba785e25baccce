"""Two-step scale calibration: max-value initialization, then descent.

Step one sets each tensor's pre-scale to 1/max|x| and post-scale to
max|x|, so the quantizer input always lands inside the clip interval.
Step two runs plain gradient descent on the scales alone, driven by
straight-through gradients of the calibration loss through the quantized
forward pass. It advances every bank of scales a run calibrates (one
bank per candidate width) together: each epoch makes one taped pass and
one reverse sweep over the banks stacked on a leading axis, as many at
a time as :data:`STACK_FLOATS` allows. Model weights are read, never
written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .graph import KIND_AFFINE, Dataset, GraphError, ModelGraph, loss_and_scale_gradients
from .modelio import DataFormatError, read_json, write_json
from .quantize import QuantSpec

SPECS_FORMAT = "mixquant-quant-specs"

DEFAULT_LEARNING_RATE = 1e-5
DEFAULT_EPOCHS = 20

# Scales are kept strictly positive; descent steps are clamped here.
_SCALE_FLOOR = 1e-12

# Taped activations, in floats, that one stacked pass may hold: banks go
# through an epoch together in groups whose tapes fit. A bank of the
# default fixture tapes about 46k floats over 256 rows, so all of its
# banks stack; a bank of a 64-192-160-128-96-64-32-10 model tapes about
# 347k, so its banks run one at a time and peak memory stays that of one.
STACK_FLOATS = 2**19


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
    """Floats of the activations one bank's taped pass keeps over ``rows`` rows."""
    width, total = model.input_dim, 0
    for layer in model.layers:
        if layer.kind == KIND_AFFINE:
            width = layer.weight.shape[0]
        total += width
    return rows * total


def _stack_groups(
    model: ModelGraph, data: Dataset, banks: list[dict[str, QuantSpec]]
) -> list[list[int]]:
    """Indices of the banks that share one pass: same tensors, tapes within budget."""
    size = max(1, STACK_FLOATS // _taped_floats(model, len(data)))
    by_names: dict[frozenset, list[int]] = {}
    for i, bank in enumerate(banks):
        by_names.setdefault(frozenset(bank), []).append(i)
    return [
        members[lo : lo + size]
        for members in by_names.values()
        for lo in range(0, len(members), size)
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
    same tensors are stacked into shared passes, and every bank's result
    is bit-identical to descending it alone.
    """
    if epochs < 0:
        raise GraphError(f"epochs must be >= 0, got {epochs}")
    if learning_rate < 0:
        raise GraphError(f"learning rate must be >= 0, got {learning_rate}")
    banks = [dict(outcome.specs) for outcome in outcomes]
    logs: list[list[float]] = [[] for _ in banks]
    for group in _stack_groups(model, data, banks):
        group_banks, group_logs = [banks[i] for i in group], [logs[i] for i in group]
        _descend(model, data, group_banks, group_logs, learning_rate, epochs)
    return [CalibrationOutcome(specs=b, adjustment_log=log) for b, log in zip(banks, logs)]


def _descend(
    model: ModelGraph,
    data: Dataset,
    banks: list[dict[str, QuantSpec]],
    logs: list[list[float]],
    learning_rate: float,
    epochs: int,
) -> None:
    """Advance one stacked group of banks through every epoch, in place."""
    for epoch in range(epochs + 1):
        # Overflow shows up as a non-finite loss, reported below as divergence.
        # The last epoch only logs the loss: no step follows it.
        with np.errstate(over="ignore", invalid="ignore"):
            losses, grads = loss_and_scale_gradients(model, data, banks, epoch < epochs)
        for bank, loss, log in zip(banks, losses, logs):
            if not math.isfinite(loss):
                raise AdjustmentDivergedError(
                    f"calibration loss of the {_bank_label(bank)} became non-finite "
                    f"at epoch {epoch} with learning rate {learning_rate}"
                )
            log.append(loss)
        if epoch == epochs:
            return
        for bank, bank_grads in zip(banks, grads):
            for name, (g_alpha, g_gamma) in bank_grads.items():
                spec = bank[name]
                bank[name] = QuantSpec(
                    alpha=max(spec.alpha - learning_rate * g_alpha, _SCALE_FLOOR),
                    gamma=max(spec.gamma - learning_rate * g_gamma, _SCALE_FLOOR),
                    bits=spec.bits,
                )


def save_specs(outcome: CalibrationOutcome, path: str | Path) -> None:
    """Serialize an outcome as JSON with full round-trip float precision."""
    write_json(
        path,
        {
            "format": SPECS_FORMAT,
            "version": 1,
            "specs": {
                name: {"alpha": spec.alpha, "gamma": spec.gamma, "bits": spec.bits}
                for name, spec in outcome.specs.items()
            },
            "adjustment_log": list(outcome.adjustment_log),
        },
    )


def load_specs(path: str | Path) -> CalibrationOutcome:
    payload = read_json(path, SPECS_FORMAT)
    try:
        specs = {
            name: QuantSpec(
                alpha=float(entry["alpha"]),
                gamma=float(entry["gamma"]),
                bits=int(entry["bits"]),
            )
            for name, entry in payload.get("specs", {}).items()
        }
        log = [float(v) for v in payload.get("adjustment_log", [])]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed quantizer specs in {path}") from exc
    return CalibrationOutcome(specs=specs, adjustment_log=log)
