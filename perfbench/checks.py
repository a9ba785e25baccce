"""Output checks that do not trust the program under test.

Each check reads the run directory as files and recomputes what it can
with its own arithmetic: relative size from the committed bit widths and
the layer shapes in ``model.json``, relative latency from the rows of
the fixture's latency CSV. Nothing here imports mixquant.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

REQUIRED = ("manifest.json", "sensitivity.json", "config.json", "outcome.json", "cost.json")


@dataclass(frozen=True)
class Fixture:
    """What the checks need to know about a workload's inputs."""

    layers: tuple[tuple[str, int, int], ...]  # (name, out_dim, in_dim) per affine layer
    latency_us: dict[tuple[int, int, int], float]  # (out_dim, in_dim, bits) -> latency

    @classmethod
    def read(cls, directory: Path) -> "Fixture":
        model = json.loads((directory / "model.json").read_text())
        layers = tuple(
            (entry["name"], int(entry["out_dim"]), int(entry["in_dim"]))
            for entry in model["layers"]
            if entry["kind"] == "affine"
        )
        latency = {}
        with (directory / "latency.csv").open(newline="") as handle:
            for row in csv.DictReader(handle):
                key = (int(row["m"]), int(row["k"]), int(row["bits"]))
                latency[key] = float(row["latency_us"])
        return cls(layers, latency)


@dataclass(frozen=True)
class Summary:
    """The quality figures of one run, as read from its artifacts."""

    rel_size: float
    rel_latency: float
    achieved_accuracy: float
    bits_used: tuple[int, ...]
    probes: int
    accepted: int


def read_run_dir(directory: Path) -> dict[str, bytes]:
    """Every file of a run directory by name; none if it does not exist."""
    if not directory.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def check_run(
    files: dict[str, bytes], fixture: Fixture, levels: tuple[int, ...], baseline_bits: int
) -> tuple[Summary | None, list[str]]:
    """Validate one run directory's contents; returns its summary and errors."""
    wanted = REQUIRED + tuple(f"specs-{b}bit.json" for b in levels)
    missing = [name for name in wanted if name not in files]
    if missing:
        return None, [f"missing artifacts {missing}"]
    try:
        config = json.loads(files["config.json"])
        outcome = json.loads(files["outcome.json"])
        cost = json.loads(files["cost.json"])
        bits = {name: int(config["bits"][f"{name}.weight"]) for name, _, _ in fixture.layers}
    except (ValueError, KeyError, TypeError) as exc:
        return None, [f"unreadable artifacts: {exc!r}"]

    errors = []
    allowed = set(levels) | {baseline_bits}
    stray = sorted({b for b in bits.values() if b not in allowed})
    if stray:
        errors.append(f"config uses widths {stray} outside {sorted(allowed)}")
    if not outcome["achieved_accuracy"] >= outcome["target"]:
        errors.append(
            f"achieved accuracy {outcome['achieved_accuracy']} below target {outcome['target']}"
        )

    size = base_size = 0
    latency = base_latency = 0.0
    try:
        for name, out_dim, in_dim in fixture.layers:
            numel = out_dim * in_dim + out_dim  # the bias travels at the weight's width
            size += numel * bits[name]
            base_size += numel * baseline_bits
            latency += fixture.latency_us[(out_dim, in_dim, bits[name])]
            base_latency += fixture.latency_us[(out_dim, in_dim, baseline_bits)]
    except KeyError as exc:
        return None, errors + [f"latency table has no entry {exc}"]
    rel_size = size / base_size
    rel_latency = latency / base_latency
    if not math.isclose(cost["relative_size"], rel_size, rel_tol=1e-12):
        errors.append(f"cost.json relative_size {cost['relative_size']} != recomputed {rel_size}")
    if not math.isclose(cost["relative_latency"], rel_latency, rel_tol=1e-12):
        errors.append(
            f"cost.json relative_latency {cost['relative_latency']} != recomputed {rel_latency}"
        )

    trace = outcome.get("trace", [])
    summary = Summary(
        rel_size=float(cost["relative_size"]),
        rel_latency=float(cost["relative_latency"]),
        achieved_accuracy=float(outcome["achieved_accuracy"]),
        bits_used=tuple(sorted(set(bits.values()))),
        probes=len(trace),
        accepted=sum(1 for entry in trace if entry.get("accepted")),
    )
    return summary, errors


def compare_bytes(reference: dict[str, bytes], files: dict[str, bytes]) -> list[str]:
    """Names of the files that differ from, or are missing in, ``reference``."""
    names = sorted(set(reference) | set(files))
    return [n for n in names if reference.get(n) != files.get(n)]
