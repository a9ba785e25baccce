"""Every metric the benchmark reports: name, unit, direction, meaning.

``END_TO_END`` metrics come from untraced runs (``--trace 0``);
``PER_LAYER`` metrics come from a traced run (``--trace 1``). Per-layer
times are per pipeline run, taken as the median over the traced runs;
counts repeat exactly for a given pipeline seed.
"""

from __future__ import annotations

END_TO_END = {
    "run_s": ("s", "lower", "median wall time of one run_pipeline call"),
    "run_s_tail": (
        "s",
        "lower",
        "wall time at the highest percentile with >=10 runs beyond it (at least the median)",
    ),
    "run_cpu_s": ("s", "lower", "median process CPU time (user+sys) of one run"),
    "setup_s": (
        "s",
        "lower",
        "median over fresh processes of import mixquant plus a first run (a manifest rerun)",
    ),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the workload process"),
    "rel_size": ("ratio", "lower", "cost.json relative_size, mean over pipeline seeds"),
    "rel_latency": ("ratio", "lower", "cost.json relative_latency, mean over pipeline seeds"),
    "achieved_accuracy": (
        "ratio",
        "higher",
        "outcome.json achieved_accuracy, mean over pipeline seeds",
    ),
}

# Printed with the end-to-end table but carried in the result line as
# "failed" / "attempted": a metric that is zero has no relative bound.
ERROR_RATE = ("error_rate", "ratio", "lower", "runs failing any output check / runs attempted")

PER_LAYER = {
    "modelio.load_s": ("s", "lower", "time in load_model and load_dataset"),
    "modelio.bytes_read": ("bytes", "lower", "bytes of the files those calls read"),
    "modelio.self_s": ("s", "lower", "self time of the modelio layer"),
    "cost.table_load_s": ("s", "lower", "time in LatencyTable.from_csv"),
    "cost.report_s": ("s", "lower", "time in cost_report"),
    "cost.self_s": ("s", "lower", "self time of the cost layer"),
    "calibrate.s": ("s", "lower", "time in calibrate and adjust_scales"),
    "calibrate.ste_passes": ("count", "lower", "loss_and_scale_gradients calls"),
    "calibrate.ste_pass_ms": ("ms", "lower", "mean time per loss_and_scale_gradients call"),
    "calibrate.self_s": ("s", "lower", "self time of the calibrate layer"),
    "sensitivity.s": ("s", "lower", "time in the score_* call"),
    "sensitivity.hvp_calls": ("count", "lower", "hessian_vector_product calls"),
    "sensitivity.hvp_ms": ("ms", "lower", "mean time per hessian_vector_product call (0 if none)"),
    "sensitivity.forward_calls": ("count", "lower", "forward calls made while scoring"),
    "sensitivity.self_s": ("s", "lower", "self time of the sensitivity layer"),
    "graph.forward_calls": ("count", "lower", "forward calls"),
    "graph.forward_s": ("s", "lower", "time in forward"),
    "graph.gradients_calls": ("count", "lower", "gradients calls"),
    "graph.gradients_s": ("s", "lower", "time in gradients"),
    "graph.with_parameter_calls": ("count", "lower", "ModelGraph.with_parameter calls"),
    "graph.with_parameter_s": ("s", "lower", "time in ModelGraph.with_parameter"),
    "graph.rows": ("count", "lower", "example rows pushed through the engine entry points"),
    "graph.flops": (
        "count",
        "lower",
        "computed, not measured: 2*rows*sum(out*in) per matmul pass; 1 pass forward, 3 with backward",
    ),
    "graph.gflops": ("GFLOP/s", "higher", "graph.flops over the engine entry points' self time"),
    "graph.self_s": ("s", "lower", "self time of the graph layer"),
    "quantize.calls": ("count", "lower", "quantize_with_tape calls, as graph imports it"),
    "quantize.elements": ("count", "lower", "elements passed to quantize_with_tape"),
    "quantize.s": ("s", "lower", "time in quantize_with_tape"),
    "search.s": ("s", "lower", "time in the greedy_search or bisection_search call"),
    "search.evals": ("count", "lower", "evaluator calls made by the search"),
    "search.eval_ms": ("ms", "lower", "mean time per evaluator call"),
    "search.probes": ("count", "lower", "outcome trace entries, the base of search.accept_ratio"),
    "search.accept_ratio": ("ratio", "higher", "accepted probes / search.probes, from outcome.json"),
    "search.self_s": ("s", "lower", "search.s minus the evaluator calls"),
    "search.verify_s": ("s", "lower", "time in the verify-target evaluate_config call"),
    "pipeline.baseline_s": ("s", "lower", "time in the measure-baseline forward call"),
    "pipeline.write_s": ("s", "lower", "time in the save_* calls"),
    "pipeline.bytes_written": ("bytes", "lower", "bytes in the run directory"),
    "pipeline.self_s": (
        "s",
        "lower",
        "traced run time minus all child spans: digests, data split, manifest and cost JSON",
    ),
    "fixtures.gen_s": ("s", "lower", "wall time of gen-fixture for the workload, not in run_s"),
    "trace.overhead_s": ("s", "lower", "median traced run_s minus median untraced run_s"),
}
