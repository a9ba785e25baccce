"""Uniform fake quantization with one scale per tensor, and its calibration.

A tensor is quantized by dividing it by its scale, clipping to the unit
interval, rounding onto a signed integer lattice, and multiplying back
by the scale:

    q(x) = round(clip(x / scale, -1, 1) * 2**(bits-1)) / 2**(bits-1) * scale

The scale is where the grid's outermost level sits. :func:`calibrate`
sets it to the tensor's largest magnitude, so nothing clips and the grid
spans the tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .graph import ModelGraph

MIN_BITS = 2
MAX_BITS = 16


def _half(bits: int) -> float:
    """``2**(bits-1)``, the lattice's largest level, for a width the quantizer takes."""
    if not isinstance(bits, int) or not MIN_BITS <= bits <= MAX_BITS:
        raise ValueError(f"bits must be an integer in [{MIN_BITS}, {MAX_BITS}], got {bits!r}")
    return 2.0 ** (bits - 1)


def _reciprocal(scale: float, where: str = "") -> float:
    """``1.0 / scale``, refusing a scale that is not finite and positive or
    whose reciprocal overflows (a subnormal one); ``where`` leads the error."""
    inverse = 1.0 / scale if scale > 0.0 else 0.0  # also refuses NaN
    if not 0.0 < inverse < math.inf:
        raise ValueError(
            f"{where}scale must be finite and > 0 with a finite reciprocal, got {scale!r}"
        )
    return inverse


def quantize(x: np.ndarray, scale: float, bits: int) -> np.ndarray:
    """Fake-quantize ``x`` onto the ``bits``-bit grid of ``scale``.

    Returns a new float array whose every element lies on the grid
    ``{k / 2**(bits-1) * scale : k integer, |k| <= 2**(bits-1)}``; ties
    round away from zero. The input is never modified. The division is a
    multiplication by ``1.0 / scale``, which rounds differently from
    ``x / scale``.
    """
    half, inverse = _half(bits), _reciprocal(scale)
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("quantize requires a finite tensor")
    y = inverse * x
    np.minimum(np.maximum(y, -1.0, out=y), 1.0, out=y)  # np.clip, less overhead
    y *= half
    out = np.abs(y)
    out += 0.5
    # np.round would round ties to even
    np.copysign(np.floor(out, out=out), y, out=out)
    out /= half
    out *= scale
    return out


def quantization_grid(scale: float, bits: int) -> np.ndarray:
    """All representable values of the ``bits``-bit grid of ``scale``, ascending.

    Computed with the same operation order as :func:`quantize`, so grid
    membership of quantized output is exact, not approximate.
    """
    half = _half(bits)
    _reciprocal(scale)
    levels = np.arange(-half, half + 1.0)
    return levels / half * scale


def quantization_error(x: np.ndarray, scale: float, bits: int) -> float:
    """Root-mean-square quantization error, normalized by max magnitude.

    An all-zero tensor quantizes exactly, so its error is 0.0.
    """
    x = np.asarray(x, dtype=np.float64)
    err = quantize(x, scale, bits) - x
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    return float(np.sqrt(np.mean(np.square(err))) / peak) if peak else 0.0


@dataclass
class CalibrationOutcome:
    """One bank: a width and the scale of each weight tensor at it, by name.
    A run writes one per candidate width as ``specs-<b>bit.json``."""

    FORMAT: ClassVar[str] = "mixquant-quant-specs"

    bits: int
    scales: dict[str, float]

    def __post_init__(self) -> None:
        _half(self.bits)
        for name, scale in self.scales.items():
            _reciprocal(scale, f"scales: {name}: ")


def calibrate(model: ModelGraph, bits: int) -> CalibrationOutcome:
    """Max-value scales of every weight tensor at ``bits`` bits.

    Each scale is the tensor's largest magnitude, so the quantizer input
    lands inside the clip interval and that magnitude sits on the
    outermost grid level. The scales follow from the weights alone: no
    data is read and no engine pass runs, so they hold no float round-off
    of any BLAS kernel. A tensor that is identically zero gets the
    neutral scale 1. Model weights are read, never written.
    """
    names = model.weight_tensor_names()
    peaks = {name: float(np.max(np.abs(model.parameter(name)))) for name in names}
    return CalibrationOutcome(bits, {name: peak or 1.0 for name, peak in peaks.items()})
