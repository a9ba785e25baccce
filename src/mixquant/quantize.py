"""Uniform fake quantization with separate pre- and post-scales.

A tensor is quantized by mapping it through a pre-scale into the unit
interval, clipping, rounding onto a signed integer lattice, and mapping
back through a post-scale:

    q(x) = round(clip(alpha * x, -1, 1) * 2**(bits-1)) / 2**(bits-1) * gamma

Keeping the two scales separate lets the input normalization and the
output magnitude be trained independently after the initial max-value
calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def _round_half_away(y: np.ndarray) -> np.ndarray:
    # Ties round away from zero; np.round would round them to even.
    return np.copysign(np.floor(np.abs(y) + 0.5), y)


def quantize(x: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Fake-quantize ``x`` onto the ``spec.bits``-bit grid.

    Returns a new float array whose every element lies on the grid
    ``{k / 2**(bits-1) * gamma : k integer, |k| <= 2**(bits-1)}``. The
    input is never modified.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("quantize requires a finite tensor")
    return quantize_with_tape(x, [spec])[0][0]


def quantization_grid(spec: QuantSpec) -> np.ndarray:
    """All representable values of ``spec``, ascending.

    Computed with the same operation order as :func:`quantize`, so grid
    membership of quantized output is exact, not approximate.
    """
    half = float(2 ** (spec.bits - 1))
    levels = np.arange(-half, half + 1.0)
    return levels / half * spec.gamma


@dataclass(frozen=True)
class QuantTape:
    """Forward-pass record needed to backpropagate through a stack of quantizers."""

    x: np.ndarray
    gamma: np.ndarray  # post-scales, one per bank, shaped to broadcast against x
    scaled: np.ndarray  # round(clip(alpha*x)*half)/half per bank, i.e. output before gamma
    in_range: np.ndarray  # where |alpha*x| <= 1, the pass-through region of clip


def quantize_with_tape(
    x: np.ndarray, specs: Sequence[QuantSpec]
) -> tuple[np.ndarray, QuantTape]:
    """Quantize ``x`` under each spec and keep what the straight-through pass needs.

    The results are stacked on a leading bank axis, one slice per spec,
    each bit-identical to :func:`quantize` under that spec alone.
    """
    x = np.asarray(x, dtype=np.float64)
    shape = (len(specs),) + (1,) * x.ndim
    alpha = np.array([spec.alpha for spec in specs]).reshape(shape)
    gamma = np.array([spec.gamma for spec in specs]).reshape(shape)
    half = np.array([float(2 ** (spec.bits - 1)) for spec in specs]).reshape(shape)
    pre = alpha * x
    in_range = np.abs(pre) <= 1.0
    # scaled is exact: integer-valued numerator, power-of-two denominator
    scaled = _round_half_away(np.clip(pre, -1.0, 1.0) * half) / half
    return scaled * gamma, QuantTape(x=x, gamma=gamma, scaled=scaled, in_range=in_range)


def quantize_backward(tape: QuantTape, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale gradients of a stack of quantizer outputs under the straight-through estimator.

    Rounding is treated as identity; clipping passes gradient where
    ``|alpha*x| <= 1`` and blocks it outside. ``grad_out`` is shaped like
    the stacked output. Returns ``(grad_alpha, grad_gamma)``, one entry
    per bank, each summed over all of the bank's elements.
    """
    banks = grad_out.shape[0]
    gated = grad_out * tape.in_range
    gated *= tape.x
    grad_alpha = gated.reshape(banks, -1).sum(axis=1) * tape.gamma.reshape(banks)
    grad_gamma = (grad_out * tape.scaled).reshape(banks, -1).sum(axis=1)
    return grad_alpha, grad_gamma


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
