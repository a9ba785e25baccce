"""Closed-loop benchmark of the mixquant pipeline on generated fixtures.

Run from the repository root:

    python3 perfbench/run.py --workload hessian-small --seed 7 --seconds 25 --trace 0

One process per workload. It generates the workload's fixture with
``mixquant gen-fixture``, imports mixquant from ``src/``, makes one
untimed warm-up run and re-runs its manifest in fresh processes
(``cold_start.py``; ``setup_s``). It then calls
``mixquant.pipeline.run_pipeline`` in a closed loop (one caller; the next
run starts when the previous one returns) until ``--seconds`` have
passed. Each run starts from an empty run directory, and its artifacts
are checked by ``checks.py``. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` splits the time between an untraced and a traced loop and
prints the per-layer metrics from the traced one. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Any failed check makes the exit code 1.

``--seed`` selects the pipeline seeds (data split, Hessian probes, noise
draws); the fixture seed is pinned. See NOTES.md for why, and for the
workload rationale.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import checks
import metrics
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TARGET = 0.99
BASELINE_BITS = 16
DEFAULT_SEED = 7
FIXTURE_SEED = 7
# Each run cycles through this many pipeline seeds derived from --seed and
# reports the quality metrics as their mean, so that one seed's search
# path does not swing the figure.
PIPELINE_SEEDS = 5
# Cold starts per benchmark run with --trace 0; setup_s is their median.
# A traced run makes one, as the manifest-rerun check.
SETUP_PROBES = 5
TAIL_BEYOND = 10
SUBPROCESS_TIMEOUT_S = 170

WIDE_FIXTURE = (
    "--dims", "64,192,160,128,96,64,32,10",
    "--calib-examples", "2048",
    "--eval-examples", "8192",
)


@dataclass(frozen=True)
class Workload:
    fixture_args: tuple[str, ...]
    metric: str
    algo: str
    bits: tuple[int, ...] = (4, 8)


# Why each workload exists: BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "hessian-small": Workload((), "hessian", "greedy"),
    "qe-wide": Workload(WIDE_FIXTURE, "qe", "greedy"),
    "sweep-wide": Workload(WIDE_FIXTURE, "noise", "bisection", (2, 3, 4, 5, 6, 8)),
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float


@dataclass
class Bench:
    """State of one benchmark process: configs, references, tallies."""

    workload: Workload
    configs: list
    pipeline: object
    fixture: checks.Fixture
    attempted: int = 0
    failed: int = 0
    looped: int = 0  # runs started by loop()
    references: dict[int, dict[str, bytes]] = field(default_factory=dict)
    summaries: dict[int, checks.Summary] = field(default_factory=dict)

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(sorted(b for b in set(self.workload.bits) if b < BASELINE_BITS))

    def verify(self, index: int, label: str, error: str | None = None) -> bool:
        """Check the run directory of config ``index``; count the attempt."""
        self.attempted += 1
        errors = [error] if error else []
        summary = None
        if not errors:
            files = checks.read_run_dir(Path(self.configs[index].out_dir))
            summary, errors = checks.check_run(files, self.fixture, self.levels, BASELINE_BITS)
            reference = self.references.setdefault(index, files)
            differ = checks.compare_bytes(reference, files)
            if differ:
                errors.append(f"artifacts differ from the first run of this config: {differ}")
            if summary is not None and index not in self.summaries:
                self.summaries[index] = summary
                if len(summary.bits_used) == 1:
                    print(
                        f"warning: pipeline seed {self.configs[index].seed} commits a single "
                        f"width {list(summary.bits_used)}; the search is not exercised",
                        file=sys.stderr,
                    )
        if errors:
            self.failed += 1
            print(f"check failed ({label}, pipeline seed {self.configs[index].seed}):", file=sys.stderr)
            for line in errors:
                print(f"  {line}", file=sys.stderr)
        return not errors

    def run_once(self, index: int, label: str) -> Sample | None:
        config = self.configs[index]
        # Start from an empty run directory, so the checks read only what
        # this run wrote.
        shutil.rmtree(config.out_dir, ignore_errors=True)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        error = None
        try:
            self.pipeline.run_pipeline(config)
        except Exception:  # a failing run is counted and the loop carries on
            error = traceback.format_exc()
        sample = Sample(time.perf_counter() - t0, time.process_time() - cpu0)
        return sample if self.verify(index, label, error) else None

    def cold_start(self, manifest: Path, label: str) -> float | None:
        """Re-run config 0 from ``manifest`` in a fresh process, into an
        empty run directory; return its import-plus-run seconds."""
        shutil.rmtree(self.configs[0].out_dir, ignore_errors=True)
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "cold_start.py"), str(manifest)],
                cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
            )
            if done.returncode != 0:
                raise RuntimeError(f"manifest rerun exited {done.returncode}: {done.stderr.strip()}")
            seconds = float(done.stdout.split()[-1])
        except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
            self.verify(0, label, str(exc))
            return None
        return seconds if self.verify(0, label) else None

    def loop(self, seconds: float, label: str, tracer: spans.Tracer | None = None):
        """Closed loop over the configs for ``seconds``, at least one run.
        The round robin carries on where the previous loop stopped."""
        samples: list[Sample] = []
        run_ids: list[tuple[int, int]] = []  # (tracer run id, config index) per sample
        start = time.perf_counter()
        while True:
            i, self.looped = self.looped, self.looped + 1
            index = i % len(self.configs)
            if tracer is not None:
                tracer.run_id = i
            sample = self.run_once(index, label)
            if sample is not None:
                samples.append(sample)
                run_ids.append((i, index))
            if time.perf_counter() - start >= seconds:
                return samples, run_ids, time.perf_counter() - start


def _timed_subprocess(cmd: list[str], what: str) -> float:
    t0 = time.perf_counter()
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S
    )
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{what} exited {done.returncode}: {done.stderr.strip()}")
    return elapsed


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    """Machine and library facts that the timings depend on."""
    import numpy

    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(str(index / "type")) in ("Unified", "Data"):
            caches[f"L{_read(str(index / 'level'))}"] = _read(str(index / "size"))
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "cache_per_core": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def tail(walls: list[float]) -> tuple[float, float, int]:
    """Value, percentile and count beyond, at the highest percentile with
    >= TAIL_BEYOND runs beyond it, never below the median rank."""
    ordered = sorted(walls)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="pipeline seed base")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mixquant" / "__init__.py").is_file():
        print(f"error: no mixquant sources at {SRC}", file=sys.stderr)
        return 2
    # BLAS sizes its thread pool when numpy loads: pin it before the import,
    # here and in every child process.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    fixture_dir = work / "fixture"
    try:
        return _bench(args, workload, work, fixture_dir)
    finally:
        for child in work.iterdir():
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)


def _bench(args, workload: Workload, work: Path, fixture_dir: Path) -> int:
    gen_s = _timed_subprocess(
        [
            sys.executable, "-m", "mixquant", "gen-fixture",
            "--seed", str(FIXTURE_SEED), "--out", str(fixture_dir),
            *workload.fixture_args,
        ],
        "gen-fixture",
    )

    t0 = time.perf_counter()
    pipeline = importlib.import_module("mixquant.pipeline")
    import_s = time.perf_counter() - t0

    base = pipeline.PipelineConfig(
        model=str(fixture_dir / "model.json"),
        calib_data=str(fixture_dir / "calib.json"),
        eval_data=str(fixture_dir / "eval.json"),
        latency_table=str(fixture_dir / "latency.csv"),
        out_dir="",
        metric=workload.metric,
        algo=workload.algo,
        bits=workload.bits,
        target=TARGET,
        baseline_bits=BASELINE_BITS,
    )
    seeds = [args.seed * PIPELINE_SEEDS + k for k in range(PIPELINE_SEEDS)]
    configs = [replace(base, seed=s, out_dir=str(work / f"run-{k}")) for k, s in enumerate(seeds)]
    bench = Bench(workload, configs, pipeline, checks.Fixture.read(fixture_dir))
    env = environment()

    print(
        f"perfbench workload={args.workload} seed={args.seed} fixture-seed={FIXTURE_SEED} "
        f"pipeline-seeds={seeds} seconds={args.seconds} trace={args.trace}"
    )
    print("environment " + json.dumps(env, sort_keys=True))

    bench.run_once(0, "warm-up")
    # Kept outside the run directory, which each rerun starts without. If
    # the warm-up wrote none, the reruns fail and are counted.
    manifest = work / "manifest.json"
    manifest.write_bytes(bench.references.get(0, {}).get("manifest.json", b""))
    setup = []

    def cold_start(probe: int) -> None:
        seconds = bench.cold_start(manifest, f"manifest rerun {probe + 1}")
        if seconds is not None:
            setup.append(seconds)

    if args.trace:
        cold_start(0)
        untraced, _, _ = bench.loop(args.seconds / 2, "untraced")
        with spans.Tracer() as tracer:
            traced, run_ids, elapsed = bench.loop(args.seconds / 2, "traced", tracer)
        tracer.write(
            work / "spans.jsonl.gz",
            {"workload": args.workload, "seed": args.seed, "environment": env, "absent": tracer.absent},
        )
        measured = bool(untraced and traced and setup)
    else:
        # The cold starts are spread over the timed window, between runs,
        # so that setup_s and run_s sample the same state of the machine.
        samples, elapsed = [], 0.0
        for probe in range(SETUP_PROBES):
            cold_start(probe)
            part, _, took = bench.loop(args.seconds * (probe + 1) / SETUP_PROBES - elapsed, "timed")
            samples += part
            elapsed += took
        measured = bool(samples and setup)
    if not measured:
        print(f"error: no run passed ({bench.failed} of {bench.attempted} failed)", file=sys.stderr)
        return 1

    for k, config in enumerate(configs):
        s = bench.summaries.get(k)
        if s is not None:
            print(
                f"pipeline seed {config.seed}: bits_used {list(s.bits_used)} "
                f"rel_size {s.rel_size:.4f} rel_latency {s.rel_latency:.4f} "
                f"accuracy {s.achieved_accuracy:.6f} probes {s.probes} accepted {s.accepted}"
            )
    if args.trace:
        values = _layer_values(bench, tracer, traced, run_ids, untraced, gen_s)
        _print_layers(values, tracer, traced, elapsed)
        table = metrics.PER_LAYER
    else:
        values = _end_to_end_values(bench, samples, setup, import_s, elapsed)
        table = metrics.END_TO_END
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": table[name][0]} for name in table},
    }
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


def _quality(bench: Bench, attr: str) -> float:
    return statistics.fmean(getattr(s, attr) for s in bench.summaries.values())


def _end_to_end_values(bench, samples, setup, import_s, elapsed) -> dict[str, float]:
    walls = [s.wall_s for s in samples]
    tail_s, pct, beyond = tail(walls)
    values = {
        "run_s": statistics.median(walls),
        "run_s_tail": tail_s,
        "run_cpu_s": statistics.median(s.cpu_s for s in samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "rel_size": _quality(bench, "rel_size"),
        "rel_latency": _quality(bench, "rel_latency"),
        "achieved_accuracy": _quality(bench, "achieved_accuracy"),
    }
    notes = {
        "run_s": f"{len(walls)} runs in {elapsed:.1f} s, one caller",
        "run_s_tail": f"p{pct:.0f} of {len(walls)} runs, {beyond} beyond",
        "setup_s": f"median of {len(setup)} fresh processes; import mixquant alone {import_s:.3f} s",
    }
    print(f"{'metric':<28} {'value':>14} {'unit':<8} direction")
    for name, (unit, better, _) in metrics.END_TO_END.items():
        print(f"{name:<28} {values[name]:>14.6g} {unit:<8} {better:<7} {notes.get(name, '')}")
    name, unit, better, _ = metrics.ERROR_RATE
    print(
        f"{name:<28} {bench.failed / bench.attempted:>14.6g} {unit:<8} {better:<7} "
        f"{bench.failed} failed / {bench.attempted} attempted"
    )
    return values


def _layer_values(bench, tracer, traced, run_ids, untraced, gen_s) -> dict[str, float]:
    per_run = spans.layer_metrics(tracer)
    rows = []
    for run_id, index in run_ids:
        row = dict(per_run.get(run_id, {}))
        summary = bench.summaries[index]
        row["search.probes"] = summary.probes
        row["search.accept_ratio"] = summary.accepted / summary.probes if summary.probes else 0.0
        row["pipeline.bytes_written"] = sum(
            len(b) for b in bench.references[index].values()
        )
        rows.append(row)
    # A run whose targets are all absent has no spans: its metrics read 0.
    names = set(metrics.PER_LAYER).union(*rows)
    values = {name: statistics.median(r.get(name, 0.0) for r in rows) for name in names}
    values["fixtures.gen_s"] = gen_s
    values["trace.overhead_s"] = statistics.median(s.wall_s for s in traced) - statistics.median(
        s.wall_s for s in untraced
    )
    return values


def _print_layers(values, tracer, traced, elapsed) -> None:
    if tracer.absent:
        print(f"warning: wrap targets absent: {tracer.absent}", file=sys.stderr)
    print(f"traced: {len(traced)} runs in {elapsed:.1f} s, {len(tracer.spans)} spans")
    run_s = max(values["pipeline.run_s"], 1e-12)
    print("self time by layer (medians per run; they add up to about the traced run time)")
    for layer in spans.LAYERS:
        v = values.get(f"{layer}.self_s", 0.0)
        print(f"  {layer:<12} {v:>10.4f} s {100 * v / run_s:>6.1f}%")
    shares = ", ".join(
        f"{label} {100 * values[key] / run_s:.1f}%"
        for label, key in (
            ("HVP spans", "sensitivity.hvp_s"),
            ("evaluator spans", "search.eval_s"),
            ("STE passes", "calibrate.ste_s"),
        )
    )
    print(f"share of the traced run ({run_s:.4f} s): {shares}")
    print(f"{'metric':<28} {'value':>14} {'unit':<8} direction")
    for name, (unit, better, _) in metrics.PER_LAYER.items():
        print(f"{name:<28} {values[name]:>14.6g} {unit:<8} {better}")


if __name__ == "__main__":
    sys.exit(main())
