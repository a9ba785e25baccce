"""Uniform fake quantization with separate pre- and post-scales.

A tensor is quantized by mapping it through a pre-scale into the unit
interval, clipping, rounding onto a signed integer lattice, and mapping
back through a post-scale:

    q(x) = round(clip(alpha * x, -1, 1) * 2**(bits-1)) / 2**(bits-1) * gamma

Keeping the two scales separate lets the input normalization and the
output magnitude be trained independently after the initial max-value
calibration. :func:`lattice` is the rounding step alone, shared by
:func:`quantize` and the scale descent in :mod:`mixquant.calibrate`,
which quantizes a stack of banks with it and owns the straight-through
gradients of both scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_BITS = 2
MAX_BITS = 16


@dataclass(frozen=True)
class QuantSpec:
    """Quantizer state for one tensor.

    alpha is the pre-scale applied before clipping, gamma the post-scale
    applied after rounding, bits the signed lattice resolution. Both
    scales must be finite and strictly positive.
    """

    alpha: float
    gamma: float
    bits: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma!r}")
        if not isinstance(self.bits, int) or not MIN_BITS <= self.bits <= MAX_BITS:
            raise ValueError(
                f"bits must be an integer in [{MIN_BITS}, {MAX_BITS}], got {self.bits!r}"
            )


def lattice(pre: np.ndarray, bits: int | np.ndarray) -> np.ndarray:
    """``round(clip(pre, -1, 1) * 2**(bits-1)) / 2**(bits-1)``, ties rounded away from zero.

    ``pre`` is the pre-scaled tensor ``alpha * x``, which is overwritten;
    ``bits`` is the width, an int or an integer array that broadcasts
    against ``pre``. The result is exact: an integer numerator over a
    power-of-two denominator.
    """
    half = 2.0 ** (bits - 1)
    y = np.minimum(np.maximum(pre, -1.0, out=pre), 1.0, out=pre)  # np.clip, less overhead
    y *= half
    out = np.abs(y)
    out += 0.5
    # np.round would round ties to even
    np.copysign(np.floor(out, out=out), y, out=out)
    out /= half
    return out


def quantize(x: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Fake-quantize ``x`` onto the ``spec.bits``-bit grid.

    Returns a new float array whose every element lies on the grid
    ``{k / 2**(bits-1) * gamma : k integer, |k| <= 2**(bits-1)}``. The
    input is never modified.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("quantize requires a finite tensor")
    out = lattice(spec.alpha * x, spec.bits)
    out *= spec.gamma
    return out


def quantization_grid(spec: QuantSpec) -> np.ndarray:
    """All representable values of ``spec``, ascending.

    Computed with the same operation order as :func:`quantize`, so grid
    membership of quantized output is exact, not approximate.
    """
    half = float(2 ** (spec.bits - 1))
    levels = np.arange(-half, half + 1.0)
    return levels / half * spec.gamma


def quantization_error(x: np.ndarray, spec: QuantSpec) -> float:
    """Root-mean-square quantization error, normalized by max magnitude.

    Raises ValueError on an all-zero tensor, where the normalization is
    undefined.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("quantization_error requires a finite tensor")
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    if peak == 0.0:
        raise ValueError("quantization_error is undefined for an all-zero tensor")
    err = quantize(x, spec) - x
    return float(np.sqrt(np.mean(np.square(err))) / peak)
