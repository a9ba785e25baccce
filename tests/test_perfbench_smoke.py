"""The benchmark harness runs short workloads end to end and reports them correct.

``perfbench/run.py`` exits 1 when a run raises, when an output check
fails, or when it cannot build a run from its keywords. Seed 9 keeps this
run's scratch directory apart from the benchmark's own seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["hessian-small", "qe-wide", "sweep-wide"])
def test_workload_runs_clean(workload):
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "9", "--seconds", "1", "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
