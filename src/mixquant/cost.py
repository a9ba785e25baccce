"""Model size arithmetic and table-driven latency estimates.

Sizes are exact byte counts from parameter element counts and assigned
bit widths. Latency comes from an ingested table of measured kernel
timings keyed by operation shape and bit width; a missing key is a hard
error, the model never interpolates between measurements.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from .graph import KIND_AFFINE, GraphError, ModelGraph
from .modelio import DataFormatError, new_file
from .search import QuantConfig

KIND_MATMUL = "matmul"
_CSV_HEADER = ["kind", "m", "n", "k", "bits", "latency_us"]


class MissingLatencyEntry(DataFormatError, LookupError):
    """The latency table has no measurement for a required (shape, bits) key."""


class LatencyTable:
    """Measured kernel latencies keyed by (kind, m, n, k, bits)."""

    def __init__(self, entries: dict[tuple[str, int, int, int, int], float] | None = None):
        self.entries: dict[tuple[str, int, int, int, int], float] = {}
        for key, value in (entries or {}).items():
            self.add(*key, value)

    def add(self, kind: str, m: int, n: int, k: int, bits: int, latency_us: float) -> None:
        if kind != KIND_MATMUL:
            raise DataFormatError(f"unknown kernel kind {kind!r}")
        key = (kind, int(m), int(n), int(k), int(bits))
        if any(v < 1 for v in key[1:]):
            raise DataFormatError(f"non-positive dimension or bit width in {key}")
        if not 0 < latency_us < math.inf:
            raise DataFormatError(f"latency for {key} must be finite and > 0, got {latency_us}")
        if key in self.entries:
            raise DataFormatError(f"duplicate latency entry for {key}")
        self.entries[key] = float(latency_us)

    def lookup(self, kind: str, m: int, n: int, k: int, bits: int) -> float:
        key = (kind, m, n, k, bits)
        if key not in self.entries:
            raise MissingLatencyEntry(
                f"no latency entry for kind={kind} m={m} n={n} k={k} bits={bits}"
            )
        return self.entries[key]

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_csv(cls, path: str | Path) -> "LatencyTable":
        path = Path(path)
        table = cls()
        try:
            handle = path.open(newline="")
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise DataFormatError(f"cannot read latency table {path}: {exc}") from exc
        try:
            with handle:
                reader = csv.reader(handle)
                header = next(reader, None)
                if header != _CSV_HEADER:
                    raise DataFormatError(
                        f"{path} must start with header {','.join(_CSV_HEADER)!r}"
                    )
                for row in reader:
                    if not row:
                        continue
                    if len(row) != 6:
                        raise DataFormatError(f"{path}: malformed row {row!r}")
                    kind, m, n, k, bits, latency = row
                    try:
                        table.add(kind, int(m), int(n), int(k), int(bits), float(latency))
                    except ValueError as exc:
                        raise DataFormatError(f"{path}: malformed row {row!r}") from exc
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise DataFormatError(f"cannot read latency table {path}: {exc}") from exc
        return table

    def to_csv(self, path: str | Path) -> None:
        with new_file(path).open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_CSV_HEADER)
            for key in sorted(self.entries):
                writer.writerow([*key, repr(self.entries[key])])


@dataclass(frozen=True)
class CostReport:
    FORMAT: ClassVar[str] = "mixquant-cost-report"

    size_bytes: float
    latency_us: float
    relative_size: float
    relative_latency: float


def _layer_bits(layer, config: QuantConfig) -> int:
    name = f"{layer.name}.weight"
    if name not in config.bits:
        raise GraphError(f"config assigns no bit width to tensor {name!r}")
    return config.bits[name]


def model_size(model: ModelGraph, config: QuantConfig) -> float:
    """Total parameter bytes under ``config``.

    Each affine layer's weight and bias elements are counted at the bit
    width the config assigns to the layer's weight tensor; the bias
    travels at the same precision as its weights. Activation tensors
    occupy no model storage and are excluded.
    """
    total_bits = 0
    for layer in model.layers:
        if layer.kind != KIND_AFFINE:
            continue
        numel = layer.weight.size + layer.bias.size
        total_bits += numel * _layer_bits(layer, config)
    return total_bits / 8


def model_latency(model: ModelGraph, config: QuantConfig, table: LatencyTable) -> float:
    """Summed kernel latency of one single-example inference pass.

    Every affine layer maps to one matmul lookup with m = output width,
    n = 1 (inference batch), k = input width, at the layer's configured
    bit width. Relu layers are treated as free.
    """
    total = 0.0
    for layer in model.layers:
        if layer.kind != KIND_AFFINE:
            continue
        out_dim, in_dim = layer.weight.shape
        total += table.lookup(
            KIND_MATMUL, out_dim, 1, in_dim, _layer_bits(layer, config)
        )
    return total


def cost_report(
    model: ModelGraph,
    config: QuantConfig,
    table: LatencyTable,
) -> CostReport:
    """Absolute and baseline-relative size and latency for ``config``.

    Relatives divide by the model with every tensor at the config's
    baseline width, so an unquantized model reports 1.0 for both.
    """
    baseline_bits = config.baseline_bits
    base = QuantConfig.uniform(config.bits, baseline_bits, baseline_bits=baseline_bits)
    size = model_size(model, config)
    latency = model_latency(model, config, table)
    base_size = model_size(model, base)
    base_latency = model_latency(model, base, table)
    if base_size <= 0 or base_latency <= 0:
        raise GraphError("baseline size and latency must be positive for relatives")
    return CostReport(
        size_bytes=size,
        latency_us=latency,
        relative_size=size / base_size,
        relative_latency=latency / base_latency,
    )
