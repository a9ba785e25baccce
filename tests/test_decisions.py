"""Pinned decisions of full runs on the seed-7 default fixture.

A refactor that keeps every unit test green can still change which
tensor the pipeline scores as least sensitive, which width the search
commits, or how many eval rows a probe gets right. Each case below is
one ``mixquant run`` with default parameters (pipeline seed 42) and pins
its sensitivity ordering, its per-tensor bit assignment (layer by layer
from ``dense1`` to ``dense6``), and its search trace: every probe's
mistakes on the 2048-row eval split and whether it was accepted, plus
the mistakes of the committed configuration. Orderings and widths were
recorded from the engine before fake quantization moved out of it; the
traces from the engine before its forward pass ran in row blocks.
"""

from typing import NamedTuple

import pytest

from mixquant.cli import EXIT_OK, main
from mixquant.pipeline import PipelineConfig, run_pipeline

EVAL_ROWS = 2048


class Pin(NamedTuple):
    ordering: tuple[int, ...]  # layer numbers, least sensitive first
    widths: tuple[int, ...]  # committed bits of dense1..dense6
    mistakes: tuple[int, ...]  # wrong eval rows, one per probe in trace order
    accepted: str  # "1" for an accepted probe, "0" for a rejected one
    achieved_mistakes: int  # wrong eval rows of the committed configuration


NOISE_ORDER = (2, 1, 6, 5, 4, 3)
GREEDY_LAST_FAILS = (0,) * 11 + (24,)

PINNED = {
    ("qe", "greedy", (4, 8)): Pin(
        (6, 1, 4, 5, 2, 3), (4, 4, 8, 4, 4, 4), GREEDY_LAST_FAILS, "111111111110", 0
    ),
    ("qe", "bisection", (4, 8)): Pin(
        (6, 1, 4, 5, 2, 3), (4, 4, 8, 4, 4, 4), (0, 0, 0, 0, 0, 24), "111110", 0
    ),
    ("noise", "greedy", (4, 8)): Pin(
        NOISE_ORDER, (4, 4, 8, 4, 4, 4), GREEDY_LAST_FAILS, "111111111110", 0
    ),
    ("noise", "bisection", (4, 8)): Pin(
        NOISE_ORDER, (4, 4, 8, 4, 4, 4), (0, 0, 0, 0, 0, 24), "111110", 0
    ),
    ("hessian", "greedy", (4, 8)): Pin(
        (1, 2, 3, 4, 5, 6),
        (4, 4, 4, 4, 8, 4),
        (0, 0, 0, 0, 0, 0, 0, 0, 1, 9, 41, 2),
        "111111111101",
        2,
    ),
    ("hessian", "bisection", (4, 8)): Pin(
        (1, 2, 3, 4, 5, 6), (4, 4, 4, 4, 8, 8), (0, 0, 0, 1, 41, 9), "111101", 9
    ),
    ("random", "greedy", (4, 8)): Pin(
        (1, 6, 2, 4, 3, 5),
        (4, 4, 4, 4, 8, 4),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 24),
        "111111111110",
        2,
    ),
    ("random", "bisection", (4, 8)): Pin(
        (1, 6, 2, 4, 3, 5), (4, 4, 4, 4, 8, 4), (0, 0, 0, 0, 2, 24), "111110", 2
    ),
    ("noise", "bisection", (2, 3, 4, 5, 6, 8)): Pin(
        NOISE_ORDER,
        (4, 2, 5, 4, 4, 4),
        (0,) * 11 + (24, 77, 9, 26, 17),
        "1111111111100101",
        17,
    ),
}


@pytest.fixture(scope="module")
def seed7_fixture(tmp_path_factory):
    out = tmp_path_factory.mktemp("seed7")
    assert main(["gen-fixture", "--seed", "7", "--out", str(out)]) == EXIT_OK
    return out


@pytest.mark.parametrize(
    "metric,algo,bits",
    list(PINNED),
    ids=[f"{m}-{a}-{'-'.join(map(str, b))}" for m, a, b in PINNED],
)
def test_seed7_run_decisions_pinned(seed7_fixture, tmp_path, metric, algo, bits):
    result = run_pipeline(
        PipelineConfig(
            model=str(seed7_fixture / "model.json"),
            calib_data=str(seed7_fixture / "calib.json"),
            eval_data=str(seed7_fixture / "eval.json"),
            latency_table=str(seed7_fixture / "latency.csv"),
            out_dir=str(tmp_path / "run"),
            metric=metric,
            algo=algo,
            bits=bits,
        )
    )
    pin = PINNED[(metric, algo, bits)]
    assert result.report.ordering == tuple(f"dense{i}.weight" for i in pin.ordering)
    assert result.outcome.config.bits == {f"dense{i}.weight": b for i, b in enumerate(pin.widths, 1)}
    trace = result.outcome.trace
    # EVAL_ROWS is a power of two, so each accuracy is exactly (rows - mistakes) / rows.
    assert [t["accuracy"] for t in trace] == [(EVAL_ROWS - m) / EVAL_ROWS for m in pin.mistakes]
    assert "".join("1" if t["accepted"] else "0" for t in trace) == pin.accepted
    assert result.outcome.achieved_accuracy == (EVAL_ROWS - pin.achieved_mistakes) / EVAL_ROWS
