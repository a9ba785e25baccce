"""One cold start of mixquant: import it, then re-run a stored manifest.

Run in a fresh process by ``run.py``, with ``src/`` on ``PYTHONPATH``:

    python3 perfbench/cold_start.py <run-dir>/manifest.json

It times ``import mixquant`` plus ``mixquant run --manifest <path>``,
called in process, so interpreter start is not in the figure. The run's
own output is discarded; the last line of standard output is the elapsed
time in seconds. Exits non-zero if the run fails.
"""

import contextlib
import importlib
import io
import sys
import time


def main(manifest: str) -> int:
    t0 = time.perf_counter()
    cli = importlib.import_module("mixquant.cli")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--manifest", manifest])
    elapsed = time.perf_counter() - t0
    print(repr(elapsed))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
