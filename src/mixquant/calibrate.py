"""Two-step scale calibration: max-value initialization, then descent.

Step one sets each tensor's pre-scale to 1/max|x| and post-scale to
max|x|, so the quantizer input always lands inside the clip interval.
Step two runs plain gradient descent on the scales alone, driven by
straight-through gradients of the calibration loss through the quantized
forward pass. Model weights are read, never written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .graph import Dataset, GraphError, ModelGraph, loss_and_scale_gradients
from .modelio import DataFormatError, read_json, write_json
from .quantize import QuantSpec

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


def calibrate(model: ModelGraph, data: Dataset, bits: Mapping[str, int]) -> CalibrationOutcome:
    """Max-value scale initialization for the weight tensors named in ``bits``.

    A tensor that is identically zero gets the neutral scales (1, 1).
    """
    if len(data) == 0:
        raise GraphError("calibration requires a non-empty dataset")
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


def adjust_scales(
    model: ModelGraph,
    data: Dataset,
    outcome: CalibrationOutcome,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    epochs: int = DEFAULT_EPOCHS,
) -> CalibrationOutcome:
    """Gradient descent on all pre- and post-scales simultaneously.

    Runs full-batch descent for ``epochs`` steps and returns a new
    outcome; the input outcome is untouched. The returned log holds the
    calibration loss before the first step and after each one, so it has
    ``epochs + 1`` entries and a zero learning rate leaves it constant.
    """
    if epochs < 0:
        raise GraphError(f"epochs must be >= 0, got {epochs}")
    if learning_rate < 0:
        raise GraphError(f"learning rate must be >= 0, got {learning_rate}")
    specs = dict(outcome.specs)
    log: list[float] = []
    for epoch in range(epochs + 1):
        loss, grads = loss_and_scale_gradients(model, data, specs)
        if not math.isfinite(loss):
            raise AdjustmentDivergedError(
                f"calibration loss became non-finite at epoch {epoch}"
            )
        log.append(loss)
        if epoch == epochs:
            break
        for name, (g_alpha, g_gamma) in grads.items():
            spec = specs[name]
            specs[name] = QuantSpec(
                alpha=max(spec.alpha - learning_rate * g_alpha, _SCALE_FLOOR),
                gamma=max(spec.gamma - learning_rate * g_gamma, _SCALE_FLOOR),
                bits=spec.bits,
            )
    return CalibrationOutcome(specs=specs, adjustment_log=log)


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
