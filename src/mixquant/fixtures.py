"""Deterministic synthetic fixtures: model, datasets, latency table.

The generated classifier is correct by construction. A seeded random
network labels its own inputs through argmax, and examples whose top-two
logit gap falls in the lowest quantile are discarded, so the float model
scores exactly 1.0 on both splits, which needs no check, while
quantization still has borderline examples to break at aggressive bit
widths. Everything derives from one seed through named substreams; the
same seed always reproduces the same bytes on disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import KIND_MATMUL, LatencyTable
from .graph import Dataset, GraphError, Layer, ModelGraph, _chained_blocks
from .rng import substream

# Share of the example pool kept, widest top-two logit gaps first.
MARGIN_KEEP = 0.85

DEFAULT_DIMS = (16, 24, 24, 16, 16, 8, 2)
DEFAULT_CALIB_EXAMPLES = 512
DEFAULT_EVAL_EXAMPLES = 2048


@dataclass(frozen=True)
class FixtureSpec:
    """Shape of a generated fixture: layer widths and split sizes."""

    dims: tuple[int, ...] = DEFAULT_DIMS
    calib_examples: int = DEFAULT_CALIB_EXAMPLES
    eval_examples: int = DEFAULT_EVAL_EXAMPLES

    def __post_init__(self) -> None:
        if len(self.dims) < 2 or any(d < 1 for d in self.dims):
            raise GraphError(f"dims must be >= 2 positive widths, got {self.dims}")
        if self.dims[-1] < 2:
            raise GraphError("the last width is the class count and must be >= 2")
        if self.calib_examples < 1 or self.eval_examples < 1:
            raise GraphError("example counts must be >= 1")


def _f32(values: np.ndarray) -> np.ndarray:
    # Snap to float32-representable values so save/load round-trips exactly.
    return values.astype(np.float32).astype(np.float64)


def build_fixture_model(seed: int, spec: FixtureSpec = FixtureSpec()) -> ModelGraph:
    """A He-initialized chain of ``len(dims) - 1`` affine layers, each but the last
    followed by a relu, for ``seed`` >= 0."""
    if seed < 0:
        raise GraphError(f"seed must be >= 0, got {seed}")
    layers: list[Layer] = []
    n_affine = len(spec.dims) - 1
    for i in range(n_affine):
        fan_in, fan_out = spec.dims[i], spec.dims[i + 1]
        rng = substream(seed, "fixture", "layer", i)
        weight = _f32(rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_out, fan_in)))
        bias = _f32(rng.normal(0.0, 0.05, size=fan_out))
        layers.append(Layer(f"dense{i + 1}", weight, bias, relu=i < n_affine - 1))
    return ModelGraph(layers)


def build_fixture(
    seed: int, spec: FixtureSpec = FixtureSpec()
) -> tuple[ModelGraph, Dataset, Dataset]:
    """Generate ``(model, calibration split, eval split)`` for ``seed``.

    The splits are disjoint samples of the same labeled pool, labelled by
    the model itself. The pool holds enough rows that the margin filter
    always keeps more than both splits need.
    """
    model = build_fixture_model(seed, spec)
    num_classes = spec.dims[-1]
    wanted = spec.calib_examples + spec.eval_examples
    pool_n = int(math.ceil(wanted / MARGIN_KEEP * 1.1)) + 8
    rng = substream(seed, "fixture", "examples")
    features = _f32(rng.normal(0.0, 1.0, size=(pool_n, spec.dims[0])))

    def margin_and_label(logits, lo, hi):
        top2 = np.sort(logits, axis=1)[:, -2:]
        return top2[:, 1] - top2[:, 0], np.argmax(logits, axis=1)

    [blocks] = _chained_blocks(model, features, [{}], margin_and_label)
    margin, labels = (np.concatenate(parts) for parts in zip(*blocks))
    kept = np.flatnonzero(margin >= np.quantile(margin, 1.0 - MARGIN_KEEP))[:wanted]
    labels = labels[kept]

    calib = Dataset(
        features[kept[: spec.calib_examples]],
        labels[: spec.calib_examples],
        num_classes,
    )
    evalset = Dataset(
        features[kept[spec.calib_examples :]],
        labels[spec.calib_examples :],
        num_classes,
    )
    return model, calib, evalset


def build_fixture_latency_table(model: ModelGraph) -> LatencyTable:
    """A synthetic timing table covering every affine layer at every width, 2 to 16.

    Latencies grow affinely with the multiply count and proportionally
    with bit width, so narrower configs are always faster and the table
    is safe for relative-latency assertions. Layers of the same shape
    share their rows.
    """
    table = LatencyTable()
    for layer in model.layers:
        out_dim, in_dim = layer.weight.shape
        for bits in range(2, 17):
            if (KIND_MATMUL, out_dim, 1, in_dim, bits) in table.entries:
                continue
            latency = (0.05 + 2e-4 * out_dim * in_dim) * bits / 16.0
            table.add(KIND_MATMUL, out_dim, 1, in_dim, bits, round(latency, 6))
    return table
