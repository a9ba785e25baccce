"""Two-step scale calibration: max-value initialization, then descent.

Step one sets each tensor's pre-scale to 1/max|x| and post-scale to
max|x|, so the quantizer input always lands inside the clip interval.
Step two, owned here whole, runs plain gradient descent on the scales
alone, driven by straight-through gradients of the calibration loss
through the quantized forward pass. A run calibrates one bank of scales
per candidate width, each holding every weight tensor at that width, and
the banks descend in groups that :func:`~mixquant.graph.stack_groups`
packs within :data:`~mixquant.graph.STACK_FLOATS`, each group's scales
held as ``(banks, tensors)`` arrays. Each epoch quantizes a group's
weights onto a leading bank axis and takes the loss and the weight
gradients from one taped pass (:func:`~mixquant.graph.loss_and_gradients`),
reducing each gradient to scale gradients as the sweep yields it. The
groups run on the engine's workers (:func:`~mixquant.graph.on_workers`),
each writing only its own banks and logs. Model weights are read, never
written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence

import numpy as np

from . import graph
from .graph import KIND_AFFINE, Dataset, GraphError, ModelGraph, on_workers
from .quantize import QuantSpec, lattice

DEFAULT_LEARNING_RATE = 1e-5
DEFAULT_EPOCHS = 20

# Scales are kept strictly positive; descent steps are clamped here.
_SCALE_FLOOR = 1e-12


class AdjustmentDivergedError(RuntimeError):
    """The calibration loss left the finite range during scale descent."""


@dataclass
class CalibrationOutcome:
    """Calibrated specs per tensor plus the loss trace of any adjustment run."""

    FORMAT: ClassVar[str] = "mixquant-quant-specs"

    specs: dict[str, QuantSpec]
    adjustment_log: list[float] = field(default_factory=list)


def calibrate(model: ModelGraph, bits: int) -> dict[str, QuantSpec]:
    """Max-value scale initialization of every weight tensor at ``bits`` bits.

    The scales depend on the weights alone, no data is read. A tensor that
    is identically zero gets the neutral scales (1, 1).
    """
    specs: dict[str, QuantSpec] = {}
    for name in model.weight_tensor_names():
        peak = float(np.max(np.abs(model.parameter(name))))
        alpha, gamma = (1.0 / peak, peak) if peak else (1.0, 1.0)
        specs[name] = QuantSpec(alpha=alpha, gamma=gamma, bits=bits)
    return specs


def _taped_floats(model: ModelGraph, rows: int) -> int:
    """Floats of the activations one bank's taped pass keeps over ``rows``
    rows: each affine layer's output, which the relus after it overwrite."""
    return rows * sum(l.weight.shape[0] for l in model.layers if l.kind == KIND_AFFINE)


def adjust_scales(
    model: ModelGraph,
    data: Dataset,
    banks: Mapping[int, Mapping[str, QuantSpec]],
    learning_rate: float = DEFAULT_LEARNING_RATE,
    epochs: int = DEFAULT_EPOCHS,
) -> dict[int, CalibrationOutcome]:
    """Gradient descent on all pre- and post-scales of every bank simultaneously.

    ``banks`` maps each width to a bank holding every weight tensor at
    that width. Runs full-batch descent for ``epochs`` steps on each bank
    and returns each width's outcome, in order; the banks are untouched.
    Each log holds that bank's calibration loss before the first step
    and after each one, so it has ``epochs + 1`` entries and a zero
    learning rate leaves it constant. The banks are stacked into shared
    passes, the groups run on the engine's workers, and every bank's
    result is bit-identical to descending it alone. When banks diverge,
    the error raised is that of the first group, in group order, that
    diverged, as in a serial descent.
    """
    if epochs < 0:
        raise GraphError(f"epochs must be >= 0, got {epochs}")
    if learning_rate < 0:
        raise GraphError(f"learning rate must be >= 0, got {learning_rate}")
    names = model.weight_tensor_names()
    for bits, bank in banks.items():
        held = {name: spec.bits for name, spec in bank.items()}
        if held != dict.fromkeys(names, bits):
            raise GraphError(
                f"the {bits}-bit bank must hold every weight tensor at {bits} bits, got {held}"
            )
    widths = list(banks)
    groups = graph.stack_groups([_taped_floats(model, len(data))] * len(widths))
    outcomes = dict.fromkeys(widths)

    def run(first: int, stop: int) -> None:
        for group in groups[first:stop]:
            group_banks = {widths[i]: banks[widths[i]] for i in group}
            outcomes.update(_descend(model, data, names, group_banks, learning_rate, epochs))

    on_workers(len(groups), run)
    return outcomes


def loss_and_scale_gradients(
    model: ModelGraph,
    data: Dataset,
    names: Sequence[str],
    bits: np.ndarray,
    scales: np.ndarray,
    gradient: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One epoch of a group: each bank's loss and, if asked, its scale gradients.

    ``bits`` is ``(banks,)``, each bank's width, and ``scales`` holds the
    pre- and post-scales stacked as ``(2, banks, tensors)``, ``names[t]``
    in column ``t``. Returns the ``(banks,)`` losses and, when
    ``gradient`` is set, the loss gradients in ``scales``, shaped alike.
    The straight-through estimator takes rounding as the identity, and
    clipping passes gradient only where ``|alpha * x| <= 1``.
    """
    alpha, gamma = scales
    banks = len(bits)
    taped, weights = {}, {}
    for t, name in enumerate(names):
        pre = alpha[:, t, None, None] * model.parameter(name)
        in_range = np.abs(pre) <= 1.0
        scaled = lattice(pre, bits[:, None, None])
        taped[name] = t, scaled, in_range
        weights[name] = scaled * gamma[:, t, None, None]
    losses, sweep = graph.loss_and_gradients(model, data, weights, names if gradient else ())
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
    names: list[str],
    banks: Mapping[int, Mapping[str, QuantSpec]],
    learning_rate: float,
    epochs: int,
) -> dict[int, CalibrationOutcome]:
    """One stacked group of banks advanced through every epoch."""
    bits = np.array(list(banks))
    rows = [[bank[n] for n in names] for bank in banks.values()]
    scales = np.array([[[getattr(s, f) for s in row] for row in rows] for f in ("alpha", "gamma")])
    logs: dict[int, list[float]] = {width: [] for width in banks}
    for epoch in range(epochs + 1):
        # Overflow shows up as a non-finite loss, reported below as divergence.
        # The last epoch only logs the loss: no step follows it.
        with np.errstate(over="ignore", invalid="ignore"):
            losses, grads = loss_and_scale_gradients(
                model, data, names, bits, scales, epoch < epochs
            )
            if grads is not None:
                scales = np.maximum(scales - learning_rate * grads, _SCALE_FLOOR)
        for (width, log), loss in zip(logs.items(), losses.tolist()):
            if not math.isfinite(loss):
                raise AdjustmentDivergedError(
                    f"calibration loss of the {width}-bit bank became non-finite "
                    f"at epoch {epoch} with learning rate {learning_rate}"
                )
            log.append(loss)
    return {
        width: CalibrationOutcome(
            {name: QuantSpec(a, g, width) for name, a, g in zip(names, alphas, gammas)}, log
        )
        for (width, log), alphas, gammas in zip(logs.items(), *scales.tolist())
    }
