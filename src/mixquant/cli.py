"""Command-line entry points: gen-fixture, run, compare.

Exit codes: 0 success, 2 invalid configuration or usage, 3 malformed or
unreadable data files, or a file that could not be written (any
``OSError``, such as a full disk), 4 the committed configuration failed
its re-evaluation against the target; README "Exit codes" lists each
case. Unexpected failures propagate as ordinary tracebacks with exit
code 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .fixtures import (
    DEFAULT_CALIB_EXAMPLES,
    DEFAULT_DIMS,
    DEFAULT_EVAL_EXAMPLES,
    FixtureSpec,
    build_fixture,
    build_fixture_latency_table,
)
from .graph import GraphError
from .modelio import DataFormatError, save_dataset, save_model, write_json
from .pipeline import (
    ALGOS,
    COMPARISON_FORMAT,
    PipelineConfig,
    PipelineConfigError,
    check_out_path,
    compare_runs,
    load_manifest,
    run_pipeline,
)
from .search import TargetUnreachableError
from .sensitivity import DEFAULT_SEED, METRICS
from .calibrate import AdjustmentDivergedError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TARGET = 4


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixquant",
        description="Mixed-precision post-training quantization with sensitivity-guided search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-fixture", help="generate a synthetic model, datasets and latency table")
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--out", dest="out_dir", required=True, help="output directory")
    gen.add_argument(
        "--dims",
        type=_parse_int_list,
        default=DEFAULT_DIMS,
        help="comma-separated layer widths, input first, classes last",
    )
    gen.add_argument("--calib-examples", type=int, default=DEFAULT_CALIB_EXAMPLES)
    gen.add_argument("--eval-examples", type=int, default=DEFAULT_EVAL_EXAMPLES)

    run = sub.add_parser("run", help="execute one calibration + search pipeline")
    run.add_argument(
        "--manifest", help="re-run from a stored run manifest; only --out may go with it"
    )
    # Each other flag sets the PipelineConfig field named by its dest; a flag
    # left out keeps that field's default.
    flags = [
        run.add_argument("--model"),
        run.add_argument("--calib", dest="calib_data", help="calibration dataset manifest"),
        run.add_argument("--eval", dest="eval_data", help="evaluation dataset manifest"),
        run.add_argument("--latency-table"),
        run.add_argument("--metric", choices=METRICS),
        run.add_argument("--algo", choices=ALGOS),
        run.add_argument("--bits", type=_parse_int_list, help="candidate bit widths, e.g. 4,8"),
        run.add_argument(
            "--target", type=float, help="required fraction of baseline accuracy, in (0, 1]"
        ),
        run.add_argument("--seed", type=int),
        run.add_argument(
            "--lambda", dest="noise_scale", type=float, help="noise-metric perturbation scale"
        ),
        run.add_argument("--trials", type=int),
        run.add_argument("--lr", dest="learning_rate", type=float),
        run.add_argument("--epochs", type=int),
        run.add_argument("--out", dest="out_dir", help="run output directory"),
    ]
    run.set_defaults(flags={action.dest: action.option_strings[0] for action in flags})

    cmp_parser = sub.add_parser("compare", help="summarize completed runs side by side")
    cmp_parser.add_argument("runs", nargs="+", help="run output directories")
    cmp_parser.add_argument(
        "--out", dest="out_file", help="optional path for the comparison JSON"
    )

    return parser


def _cmd_gen_fixture(args) -> int:
    check_out_path(args.out_dir)
    out = Path(args.out_dir)
    spec = FixtureSpec(
        dims=tuple(args.dims),
        calib_examples=args.calib_examples,
        eval_examples=args.eval_examples,
    )
    model, calib, evalset = build_fixture(args.seed, spec)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.json")
    save_dataset(calib, out / "calib.json")
    save_dataset(evalset, out / "eval.json")
    build_fixture_latency_table(model).to_csv(out / "latency.csv")
    print(f"fixture written to {out}")
    print(f"  model: {len(model.layers)} layers, {model.parameter_count()} parameters")
    print(f"  calib: {len(calib)} examples, eval: {len(evalset)} examples")
    return EXIT_OK


def _cmd_run(args) -> int:
    given = {dest: getattr(args, dest) for dest in args.flags if getattr(args, dest) is not None}
    if args.manifest:
        others = [args.flags[dest] for dest in given if dest != "out_dir"]
        if others:
            raise PipelineConfigError(
                f"--manifest reruns the stored parameters and takes only --out, "
                f"not {', '.join(others)}"
            )
        config = load_manifest(args.manifest).parameters
        if "out_dir" in given:
            config = dataclasses.replace(config, out_dir=args.out_dir)
    else:
        required = ("model", "calib_data", "eval_data", "latency_table", "out_dir")
        missing = [args.flags[dest] for dest in required if not given.get(dest)]
        if missing:
            raise PipelineConfigError(f"missing required flags: {', '.join(missing)}")
        config = PipelineConfig(**given)
    result = run_pipeline(config)
    bits_used = sorted(set(result.outcome.config.bits.values()))
    print(f"run written to {result.out_dir}")
    baseline, target = result.manifest.baseline_accuracy, result.outcome.target
    print(f"  baseline accuracy {baseline:.4f}, target {target:.4f}")
    print(
        f"  achieved {result.outcome.achieved_accuracy:.4f} with bit widths {bits_used} "
        f"in {result.outcome.evals} evaluations"
    )
    print(
        f"  relative size {result.cost.relative_size:.2%}, "
        f"relative latency {result.cost.relative_latency:.2%}"
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    out = args.out_file
    if out is not None:
        check_out_path(out, file=True)
    comparison = compare_runs(args.runs)
    if out is not None:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        write_json(out, COMPARISON_FORMAT, comparison)
    _print_comparison(comparison)
    return EXIT_OK


def _print_comparison(comparison: dict) -> None:
    print(f"{'run':<24} {'metric':<8} {'algo':<10} {'rel size':>9} {'rel lat':>9} {'accuracy':>9}")
    for row in comparison["rows"]:
        print(
            f"{row['run']:<24} {row['metric']:<8} {row['algo']:<10} "
            f"{row['relative_size']:>9.2%} {row['relative_latency']:>9.2%} "
            f"{row['achieved_accuracy']:>9.4f}"
        )
    for agg in comparison["aggregates"]:
        print(
            f"{agg['metric']}/{agg['algo']} over {agg['runs']} runs: "
            f"rel size {agg['relative_size_mean']:.2%} +/- {agg['relative_size_std']:.2%}, "
            f"rel lat {agg['relative_latency_mean']:.2%} +/- {agg['relative_latency_std']:.2%}"
        )
    if comparison["ordering_distances"]:
        print("ordering edit distances:")
        for entry in comparison["ordering_distances"]:
            print(f"  {entry['a']} vs {entry['b']}: {entry['distance']}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-fixture": _cmd_gen_fixture,
        "run": _cmd_run,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except (PipelineConfigError, GraphError, AdjustmentDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TargetUnreachableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TARGET


if __name__ == "__main__":
    sys.exit(main())
