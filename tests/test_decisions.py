"""Pinned decisions of full runs on the seed-7 default fixture.

A refactor that keeps every unit test green can still change which
tensor the pipeline scores as least sensitive or which width the search
commits. Each case below is one ``mixquant run`` with default parameters
(pipeline seed 42) and pins its sensitivity ordering and its per-tensor
bit assignment, layer by layer from ``dense1`` to ``dense6``. The values
were recorded from the engine before fake quantization moved out of it.
"""

import pytest

from mixquant.cli import EXIT_OK, main
from mixquant.pipeline import PipelineConfig, run_pipeline

NOISE_ORDER = (2, 1, 6, 5, 4, 3)

# (metric, algo, candidate bits): (ordering by layer number, bits of dense1..dense6)
PINNED = {
    ("qe", "greedy", (4, 8)): ((6, 1, 4, 5, 2, 3), (4, 4, 8, 4, 4, 4)),
    ("qe", "bisection", (4, 8)): ((6, 1, 4, 5, 2, 3), (4, 4, 8, 4, 4, 4)),
    ("noise", "greedy", (4, 8)): (NOISE_ORDER, (4, 4, 8, 4, 4, 4)),
    ("noise", "bisection", (4, 8)): (NOISE_ORDER, (4, 4, 8, 4, 4, 4)),
    ("hessian", "greedy", (4, 8)): ((1, 2, 3, 4, 5, 6), (4, 4, 4, 4, 8, 4)),
    ("hessian", "bisection", (4, 8)): ((1, 2, 3, 4, 5, 6), (4, 4, 4, 4, 8, 8)),
    ("random", "greedy", (4, 8)): ((1, 6, 2, 4, 3, 5), (4, 4, 4, 4, 8, 4)),
    ("random", "bisection", (4, 8)): ((1, 6, 2, 4, 3, 5), (4, 4, 4, 4, 8, 4)),
    ("noise", "bisection", (2, 3, 4, 5, 6, 8)): (NOISE_ORDER, (4, 2, 5, 4, 4, 4)),
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
    ordering, widths = PINNED[(metric, algo, bits)]
    assert result.report.ordering == tuple(f"dense{i}.weight" for i in ordering)
    assert result.config.bits == {f"dense{i}.weight": b for i, b in enumerate(widths, 1)}
