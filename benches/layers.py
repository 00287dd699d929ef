"""Per-layer metrics: unit, better direction, and the end-to-end metric and
workload each one should move.

The layers are the modules of ``preqscore``.  ``BENCHMARK.json`` lists the
same names, units and directions; ``python3 benches/layers.py`` prints that
list for it.
"""

import json

LOWER, HIGHER = "lower", "higher"
TRACES = "scored_obs_per_s and op_p50_ms on long-trace"
SHORT = "scored_obs_per_s on short-traces"
MC = "scored_obs_per_s on mc-replicates"

PER_LAYER = {
    "scores.score_predictive_ns.log": ("ns", LOWER, SHORT + "; less on long-trace"),
    "scores.score_predictive_ns.hyv": ("ns", LOWER, SHORT + "; less on long-trace"),
    "scores.score_predictive_ns.density_hyv": ("ns", LOWER, SHORT + "; less on long-trace"),
}
for _kind in ("iidnorm", "flatloc", "flatscale", "transformed"):
    for _h in (50, 2000):
        PER_LAYER[f"models.predictive_us.{_kind}.h{_h}"] = ("us", LOWER, TRACES + "; no change on mc-replicates")
for _kind in ("flatloc", "flatscale", "transformed"):
    PER_LAYER[f"models.time_exponent.{_kind}"] = ("exponent", LOWER, TRACES + "; no change on mc-replicates")
for _kind in ("ar", "ma"):
    for _h in (50, 2000):
        PER_LAYER[f"stationary.predictive_us.{_kind}.h{_h}"] = ("us", LOWER, TRACES)
    PER_LAYER[f"stationary.time_exponent.{_kind}"] = ("exponent", LOWER, TRACES)
PER_LAYER.update(
    {
        "stationary.durbin_levinson_s": ("s", LOWER, TRACES),
        "stationary.durbin_levinson_peak_mb": ("MB", LOWER, "peak_rss_mb on long-trace"),
        "stationary.spec_build_us": ("us", LOWER, "op_p50_ms on short-traces"),
        "stationary.sample_path_s": ("s", LOWER, "setup_s on long-trace and short-traces"),
        "densities.pushforward_eval_us": ("us", LOWER, "the transformed pair on long-trace; reparametrisation on mc-replicates"),
        "densities.transform_inverse_us": ("us", LOWER, "the transformed pair on long-trace; reparametrisation on mc-replicates"),
        "prequential.delta_trace_s": ("s", LOWER, "op_p50_ms on short-traces; cli-matrix"),
        "prequential.fixed_overhead_us": ("us", LOWER, "op_p50_ms on short-traces; cli-matrix"),
        "prequential.select_among_s": ("s", LOWER, "op_tail_ms on short-traces"),
        "prequential.compensated_cumsum_ns_per_elem": ("ns", LOWER, "op_p50_ms on short-traces; cli-matrix"),
        "prequential.write_trace_csv_us_per_row": ("us", LOWER, "op_p50_ms on cli-matrix"),
        "prequential.obs_scored": ("count", HIGHER, "scored_obs_per_s on short-traces and long-trace"),
    }
)
for _name in (
    "consistency",
    "multi-model",
    "variance-expectation",
    "mean-linkage",
    "unit-change",
    "reparametrisation",
    "outlier-locality",
):
    PER_LAYER[f"experiments.run_s.{_name}"] = ("s", LOWER, MC)
    PER_LAYER[f"experiments.ns_per_score.{_name}"] = ("ns", LOWER, MC)
PER_LAYER.update(
    {
        "experiments.replicate_trace_s": ("s", LOWER, MC + "; op_p50_ms on cli-matrix"),
        "streams.normal_ns_per_draw": ("ns", LOWER, MC),
        "cli.import_s": ("s", LOWER, "op_p50_ms on cli-matrix"),
        "cli.process_s.trace": ("s", LOWER, "op_p50_ms on cli-matrix"),
        "cli.process_s.experiment": ("s", LOWER, "op_p50_ms on cli-matrix"),
        "cli.read_data_csv_us_per_row": ("us", LOWER, "op_p50_ms on cli-matrix"),
        "cli.bytes_written": ("count", LOWER, "op_p50_ms on cli-matrix"),
        "cli.overhead_ratio": ("ratio", LOWER, "op_p50_ms on cli-matrix (the replicate-0 recompute)"),
        "trace.overhead_pct": ("%", LOWER, "none: the cost of tracing itself"),
    }
)

if __name__ == "__main__":
    rows = [{"name": n, "unit": u, "better": b} for n, (u, b, _) in PER_LAYER.items()]
    print(json.dumps(rows, indent=2))
