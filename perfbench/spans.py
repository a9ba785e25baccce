"""Outside-in span tracer for the mixquant pipeline.

The tracer wraps the public callables of each mixquant module *as the
pipeline resolves them*: module attributes such as ``mixquant.pipeline.forward``
(the name ``run_pipeline`` looks up at call time), plus class attributes
such as ``ModelGraph.with_parameter``. Nothing inside ``src/`` changes.
Every wrapped call records a span ``(target, start, end, parent, run_id)``
in memory; self time is the span's duration minus the time its child
spans cover. A target that no longer exists is reported as absent.

Submodules are fetched with ``importlib.import_module``: the package
``__init__`` re-exports functions under the submodule names (for example
``mixquant.calibrate`` is also a function), so ``import mixquant.calibrate
as m`` would bind the function, not the module.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import pathlib
import time
from dataclasses import dataclass
from pathlib import Path

# Roles whose spans push rows through the engine, with the number of
# matmul passes per affine layer: a forward pass is one, a gradient pass
# adds the two backward products (grad W and grad input).
ENGINE_PASSES = {"forward": 1, "capture": 1, "gradients": 3, "ste": 3}


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module`` attribute path ``attr``."""

    module: str
    attr: str
    layer: str  # module-named layer that owns the span's self time
    role: str  # what the metric derivation counts the span as


TARGETS = (
    Target("mixquant.pipeline", "run_pipeline", "pipeline", "run"),
    Target("mixquant.pipeline", "load_model", "modelio", "load"),
    Target("mixquant.pipeline", "load_dataset", "modelio", "load"),
    Target("mixquant.pipeline", "LatencyTable.from_csv", "cost", "table"),
    Target("mixquant.pipeline", "cost_report", "cost", "cost"),
    Target("mixquant.pipeline", "calibrate", "calibrate", "calibrate"),
    Target("mixquant.pipeline", "adjust_scales", "calibrate", "calibrate"),
    Target("mixquant.pipeline", "score_qe", "sensitivity", "score"),
    Target("mixquant.pipeline", "score_noise", "sensitivity", "score"),
    Target("mixquant.pipeline", "score_hessian", "sensitivity", "score"),
    Target("mixquant.pipeline", "score_random", "sensitivity", "score"),
    Target("mixquant.pipeline", "forward", "graph", "forward"),
    Target("mixquant.pipeline", "greedy_search", "search", "search"),
    Target("mixquant.pipeline", "bisection_search", "search", "search"),
    # The search's evaluator closure and the verify-target stage both call
    # this binding; the parent span tells the two apart.
    Target("mixquant.pipeline", "evaluate_config", "evaluator", "evaluate"),
    Target("mixquant.pipeline", "save_report", "write", "write"),
    Target("mixquant.pipeline", "save_config", "write", "write"),
    Target("mixquant.pipeline", "save_outcome", "write", "write"),
    Target("mixquant.pipeline", "save_specs", "write", "write"),
    Target("mixquant.sensitivity", "forward", "graph", "forward"),
    Target("mixquant.sensitivity", "hessian_vector_product", "graph", "hvp"),
    Target("mixquant.sensitivity", "capture_activations", "graph", "capture"),
    Target("mixquant.search", "forward", "graph", "forward"),
    Target("mixquant.calibrate", "loss_and_scale_gradients", "graph", "ste"),
    Target("mixquant.calibrate", "capture_activations", "graph", "capture"),
    Target("mixquant.graph", "gradients", "graph", "gradients"),
    Target("mixquant.graph", "ModelGraph.with_parameter", "graph", "with_parameter"),
    Target("mixquant.graph", "quantize_with_tape", "quantize", "quantize"),
)

# Layers whose self time is reported. "evaluator" holds the bookkeeping
# in evaluate_config and "write" the save_* calls, so that search.self_s
# and pipeline.self_s cover only the search loop and the run_pipeline body.
LAYERS = (
    "modelio", "cost", "calibrate", "sensitivity", "graph", "quantize",
    "search", "evaluator", "write", "pipeline",
)

# Span record fields, kept as plain lists to make recording cheap.
TARGET, START, END, PARENT, RUN, AMOUNT, FLOPS, CHILD = range(8)


def _resolve(module: str, attr: str):
    """``(owner, name)`` holding ``module``'s ``attr`` path, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


def _multiplies(model) -> int:
    """Multiply-adds per example of one forward pass: sum of out*in."""
    return sum(
        layer.weight.size
        for layer in getattr(model, "layers", ())
        if getattr(layer, "weight", None) is not None
    )


class Tracer:
    """Records spans for the wrapped targets while installed.

    Use as a context manager; the originals are restored on exit even
    when a wrapped call raised. ``run_id`` tags spans with the pipeline
    run they belong to.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        for index, target in enumerate(self.targets):
            found = _resolve(target.module, target.attr)
            if found is None:
                self.absent.append(f"{target.module}:{target.attr}")
                continue
            owner, name = found
            original = inspect.getattr_static(owner, name)
            self._restore.append((owner, name, original))
            setattr(owner, name, self._wrap_static(original, index))
        for name in ("read_bytes", "read_text"):
            original = inspect.getattr_static(pathlib.Path, name)
            self._restore.append((pathlib.Path, name, original))
            setattr(pathlib.Path, name, self._count_reads(original))

    def __exit__(self, *exc) -> bool:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        return False

    def _wrap_static(self, original, index: int):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, index))
        return self._wrap(original, index)

    def _wrap(self, fn, index: int):
        role = self.targets[index].role
        passes = ENGINE_PASSES.get(role)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            amount = flops = 0
            if passes is not None and len(args) >= 2:
                amount = len(args[1])
                flops = 2 * passes * amount * _multiplies(args[0])
            elif role == "quantize" and args:
                amount = getattr(args[0], "size", 0)
            parent = stack[-1] if stack else -1
            record = [index, clock(), 0.0, parent, self.run_id, amount, flops, 0.0]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += record[END] - record[START]

        traced.__wrapped__ = fn
        return traced

    def _count_reads(self, fn):
        """Credit bytes read from files to the innermost open modelio span."""

        def counted(path_self, *args, **kwargs):
            data = fn(path_self, *args, **kwargs)
            if self._stack:
                record = self.spans[self._stack[-1]]
                if self.targets[record[TARGET]].layer == "modelio":
                    record[AMOUNT] += len(data)
            return data

        return counted

    def write(self, path: Path, header: dict) -> None:
        """Write the header then one JSON line per span, gzip-compressed."""
        with gzip.open(Path(path), "wt") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                t = self.targets[s[TARGET]]
                out.write(
                    json.dumps(
                        {
                            "name": f"{t.module}:{t.attr}",
                            "layer": t.layer,
                            "start": s[START],
                            "end": s[END],
                            "self": s[END] - s[START] - s[CHILD],
                            "parent": s[PARENT],
                            "run_id": s[RUN],
                            "amount": s[AMOUNT],
                        }
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per-layer metrics of each traced pipeline run, keyed by run id.

    Times named "time in X" are inclusive span durations; ``*.self_s``
    are self times, which over all layers sum to the run's duration.
    """
    spans = tracer.spans
    targets = tracer.targets
    runs: dict[int, tuple[dict, dict, dict]] = {}
    scope: list[str] = []  # per span: nearest "score"/"search" ancestor role
    root = -1
    for i, s in enumerate(spans):
        totals, counts, layer_self = runs.setdefault(s[RUN], ({}, {}, {}))

        def add(key, value=0.0):
            totals[key] = totals.get(key, 0.0) + value
            counts[key] = counts.get(key, 0) + 1

        target = targets[s[TARGET]]
        role = target.role
        dur = s[END] - s[START]
        layer_self[target.layer] = layer_self.get(target.layer, 0.0) + dur - s[CHILD]
        parent = s[PARENT]
        if parent < 0:
            scope.append("")
        else:
            parent_role = targets[spans[parent][TARGET]].role
            scope.append(parent_role if parent_role in ("score", "search") else scope[parent])
        if role == "run":
            root = i
        if role == "forward":
            if scope[i] == "score":
                add("score_forward", dur)
            if parent == root:
                add("baseline", dur)
        if role == "evaluate":
            add("eval" if scope[i] == "search" else "verify", dur)
        else:
            add(role, dur)
        if role == "load":
            add("bytes_read", s[AMOUNT])
        if role in ENGINE_PASSES:
            add("rows", s[AMOUNT])
            add("flops", s[FLOPS])
            add("engine_self", dur - s[CHILD])
        if role == "quantize":
            add("elements", s[AMOUNT])
    return {run_id: _derive(*acc) for run_id, acc in runs.items()}


def _derive(totals: dict, counts: dict, layer_self: dict) -> dict[str, float]:
    def total(key):
        return totals.get(key, 0.0)

    def count(key):
        return counts.get(key, 0)

    def mean_ms(key):
        return 1e3 * total(key) / count(key) if count(key) else 0.0

    engine_self = total("engine_self")
    metrics = {
        "modelio.load_s": total("load"),
        "modelio.bytes_read": total("bytes_read"),
        "cost.table_load_s": total("table"),
        "cost.report_s": total("cost"),
        "calibrate.s": total("calibrate"),
        "calibrate.ste_passes": count("ste"),
        "calibrate.ste_pass_ms": mean_ms("ste"),
        "sensitivity.s": total("score"),
        "sensitivity.hvp_calls": count("hvp"),
        "sensitivity.hvp_ms": mean_ms("hvp"),
        "sensitivity.forward_calls": count("score_forward"),
        "graph.forward_calls": count("forward"),
        "graph.forward_s": total("forward"),
        "graph.gradients_calls": count("gradients"),
        "graph.gradients_s": total("gradients"),
        "graph.with_parameter_calls": count("with_parameter"),
        "graph.with_parameter_s": total("with_parameter"),
        "graph.rows": total("rows"),
        "graph.flops": total("flops"),
        "graph.gflops": total("flops") / engine_self / 1e9 if engine_self > 0 else 0.0,
        "quantize.calls": count("quantize"),
        "quantize.elements": total("elements"),
        "quantize.s": total("quantize"),
        "search.s": total("search"),
        "search.evals": count("eval"),
        "search.eval_ms": mean_ms("eval"),
        "search.verify_s": total("verify"),
        "pipeline.run_s": total("run"),
        "pipeline.baseline_s": total("baseline"),
        "pipeline.write_s": total("write"),
        # inclusive totals behind the printed shares of the run
        "sensitivity.hvp_s": total("hvp"),
        "search.eval_s": total("eval"),
        "calibrate.ste_s": total("ste"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return metrics
