"""Max-value scale calibration.

Each weight tensor's quantizer gets the pre-scale ``1/max|w|`` and the
post-scale ``max|w|``, so the quantizer input always lands inside the
clip interval and the tensor's largest magnitude sits on the outermost
grid level. The scales follow from the weights alone: no data is read
and no engine pass runs, so the specs hold no float round-off of any
BLAS kernel. A run calibrates one bank per candidate width, each
holding every weight tensor at that width. Model weights are read,
never written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .graph import ModelGraph
from .quantize import QuantSpec


@dataclass
class CalibrationOutcome:
    """The calibrated specs of one bank, by tensor: a run's ``specs-<b>bit.json``."""

    FORMAT: ClassVar[str] = "mixquant-quant-specs"

    specs: dict[str, QuantSpec]


def calibrate(model: ModelGraph, bits: int) -> dict[str, QuantSpec]:
    """Max-value scales of every weight tensor at ``bits`` bits.

    The scales depend on the weights alone, no data is read. A tensor that
    is identically zero gets the neutral scales (1, 1).
    """
    specs: dict[str, QuantSpec] = {}
    for name in model.weight_tensor_names():
        peak = float(np.max(np.abs(model.parameter(name))))
        alpha, gamma = (1.0 / peak, peak) if peak else (1.0, 1.0)
        specs[name] = QuantSpec(alpha=alpha, gamma=gamma, bits=bits)
    return specs
