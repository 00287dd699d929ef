"""Layer probe: calls to each module's public functions at fixed sizes.

Runs outside the timed runs and gives the per-layer metrics.  Every timing
is a median over blocks of repeated calls, one call inside a span where the
call is long, or for the ladder rungs below the fastest of several calls.  Models are timed through ``predictive_at`` at fixed
history lengths, never wrapped inside a trace.  The time exponent of a
model kind is the least-squares slope of log ``delta_trace`` time against
log n over a doubling ladder; 2 means a quadratic pass, 1 a linear one.
"""

from __future__ import annotations

import io
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import preqscore as pq
from preqscore.cli import parse_model_spec, read_data_csv
from workloads import CUBIC, PAIRS, SELECTION_FIELD, data, experiment_config, run_cli, write_data_csv

HISTORIES = (50, 2000)
# Doubling ladders, sized so the quadratic term dominates at the seed commit
# and the top rung takes one to two seconds there.
LADDER = (1000, 2000, 4000)
FLATSCALE_LADDER = (700, 1400, 2800)
TRANSFORMED_LADDER = (350, 700, 1400)
DURBIN_LEVINSON_N = 4000

# (experiment, n, replicates, models): small enough that all seven take about a second.
PROBE_EXPERIMENTS = (
    ("consistency", 5000, 100, 2),
    ("multi-model", 2000, 100, 5),
    ("variance-expectation", 2000, 100, 2),
    ("mean-linkage", 2000, 100, 2),
    ("unit-change", 2000, 100, 2),
    ("reparametrisation", 1000, 20, 2),
    ("outlier-locality", 200, 5, 2),
)
# The CLI experiment probe uses the consistency config above, so
# cli.overhead_ratio compares the same work in and out of process.
CLI_EXPERIMENT = PROBE_EXPERIMENTS[0]


def per_call(fn, calls: int, blocks: int = 5) -> float:
    """Median over blocks of the mean seconds per call."""
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def once(tracer, name: str, fn):
    """Seconds taken by one call, recorded as a span."""
    with tracer.span(name):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
    return dt, out


def _exponent(tracer, pair, ladder) -> float:
    """Slope of log time against log n over a doubling ladder.

    Each rung is timed several times, spread over the whole ladder walk, and
    its fastest time kept: contention from other work on the machine only
    adds time, and one slow rung would tilt the slope.  Rung n gets
    2 * (top / n) visits, so every rung costs about the same in total.
    """
    build, rule, kind = pair
    visits = {n: 2 * (ladder[-1] // n) for n in ladder}
    rounds = max(visits.values())
    best: dict[int, float] = {}
    for r in range(rounds):
        for n in ladder:
            if r % (rounds // visits[n]):
                continue
            a, b = build()  # fresh models: lazy tables start empty, as in a user's first trace
            x = data(kind, 0, n)
            dt, _ = once(tracer, "prequential.delta_trace", lambda: pq.delta_trace(a, b, x, rule))
            tracer.count("prequential.obs_scored", 2 * n)
            best[n] = min(dt, best.get(n, dt))
    return float(np.polyfit(np.log(ladder), np.log([best[n] for n in ladder]), 1)[0])


def probe_scores(tracer, m):
    g = pq.GaussianPredictive(0.1, 1.3)
    t = pq.student_t_density(0.0, 1.0, 5.0)
    cases = {"log": (g, "log"), "hyv": (g, "hyvarinen"), "density_hyv": (t, "hyvarinen")}
    for tag, (q, rule) in cases.items():
        r = pq.as_rule(rule)
        with tracer.span("scores.score_predictive"):
            m[f"scores.score_predictive_ns.{tag}"] = per_call(lambda: pq.score_predictive(0.3, q, r), 20000) * 1e9


def probe_models(tracer, m):
    iid, cubic = data("iid", 0, max(HISTORIES)), data("cubic", 0, max(HISTORIES))
    models = {
        "iidnorm": (parse_model_spec("iidnorm(0,1)"), iid),
        "flatloc": (parse_model_spec("flatloc(1)"), iid),
        "flatscale": (parse_model_spec("flatscale(0)"), iid),
        "transformed": (pq.TransformedModel(parse_model_spec("flatscale(0)"), CUBIC), cubic),
    }
    for kind, (model, h) in models.items():
        for length in HISTORIES:
            hist = h[:length]
            with tracer.span("models.predictive_at"):
                m[f"models.predictive_us.{kind}.h{length}"] = per_call(
                    lambda: model.predictive_at(hist), 2000 // length * 10
                ) * 1e6
    m["models.time_exponent.flatloc"] = _exponent(tracer, PAIRS["flatloc-iidnorm"], LADDER)
    m["models.time_exponent.flatscale"] = _exponent(tracer, PAIRS["flatscale-iidnorm"], FLATSCALE_LADDER)
    m["models.time_exponent.transformed"] = _exponent(tracer, PAIRS["transformed"], TRANSFORMED_LADDER)


def probe_stationary(tracer, m):
    ar = data("ar", 0, max(HISTORIES))
    for kind, spec in (("ar", "ar(0.5,0.2;1)"), ("ma", "ma(0.4;1)")):
        model = parse_model_spec(spec)
        model.predictive_at(ar)  # extend the lazy recursion table past the longest history
        for length in HISTORIES:
            hist = ar[:length]
            with tracer.span("stationary.predictive_at"):
                m[f"stationary.predictive_us.{kind}.h{length}"] = per_call(
                    lambda: model.predictive_at(hist), 2000 // length * 10
                ) * 1e6
        pair = (lambda spec=spec: (parse_model_spec(spec), parse_model_spec("iidnorm(0,1)")), "log", "iid")
        m[f"stationary.time_exponent.{kind}"] = _exponent(tracer, pair, LADDER)

    m["stationary.durbin_levinson_s"], _ = once(
        tracer,
        "stationary.durbin_levinson",
        lambda: pq.durbin_levinson(pq.ma_process([0.4], 1.0), DURBIN_LEVINSON_N),
    )
    tracemalloc.start()
    try:
        pq.durbin_levinson(pq.ma_process([0.4], 1.0), DURBIN_LEVINSON_N)
        m["stationary.durbin_levinson_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()

    def build():
        # Spec, model and the first predictive, which solves Yule-Walker:
        # the fixed cost every short AR trace pays.
        return pq.process_model(pq.ar_process([0.5, 0.2], 1.0)).predictive_at(())

    with tracer.span("stationary.process_model"):
        m["stationary.spec_build_us"] = per_call(build, 200) * 1e6
    m["stationary.sample_path_s"], _ = once(
        tracer, "stationary.sample_path", lambda: pq.sample_path(pq.ar_process([0.5, 0.2], 1.0), 2000, seed=1)
    )


def probe_densities(tracer, m):
    d = pq.pushforward_density(pq.gaussian_density(0.0, 1.0), CUBIC)
    with tracer.span("densities.pushforward_density"):
        m["densities.pushforward_eval_us"] = per_call(lambda: (d.logpdf(2.7), d.dlogpdf(2.7), d.d2logpdf(2.7)), 5000) * 1e6
    with tracer.span("densities.inverse"):
        m["densities.transform_inverse_us"] = per_call(lambda: CUBIC.inverse(2.7), 20000) * 1e6


def probe_prequential(tracer, m):
    a, b = PAIRS["flatloc-iidnorm"][0]()
    x = data("iid", 0, 1000)
    m["prequential.delta_trace_s"], trace = once(
        tracer, "prequential.delta_trace", lambda: pq.delta_trace(a, b, x, "hyvarinen")
    )
    tracer.count("prequential.obs_scored", 2 * x.size)

    iid_a, iid_b = parse_model_spec("iidnorm(0,1)"), parse_model_spec("iidnorm(0,2)")
    x1 = x[:1]
    with tracer.span("prequential.delta_trace"):
        m["prequential.fixed_overhead_us"] = per_call(lambda: pq.delta_trace(iid_a, iid_b, x1, "log"), 2000) * 1e6
    tracer.count("prequential.obs_scored", 2 * 2000 * 5)

    field = [parse_model_spec(s) for s in SELECTION_FIELD]
    ar = data("ar", 0, 200)
    m["prequential.select_among_s"], _ = once(
        tracer, "prequential.select_among", lambda: pq.select_among(field, ar, "hyvarinen")
    )
    tracer.count("prequential.obs_scored", len(field) * ar.size)

    values = data("iid", 0, 100_000)
    with tracer.span("prequential.compensated_cumsum"):
        m["prequential.compensated_cumsum_ns_per_elem"] = per_call(lambda: pq.compensated_cumsum(values), 1) / values.size * 1e9
    with tracer.span("prequential.write_trace_csv"):
        m["prequential.write_trace_csv_us_per_row"] = (
            per_call(lambda: pq.write_trace_csv(trace, io.StringIO()), 1) / len(trace) * 1e6
        )


def probe_experiments(tracer, m):
    for name, n, reps, models in PROBE_EXPERIMENTS:
        config = experiment_config(name, n, reps, 0)
        dt, _ = once(tracer, "experiments.run_experiment", lambda: pq.run_experiment(config))
        m[f"experiments.run_s.{name}"] = dt
        m[f"experiments.ns_per_score.{name}"] = dt / (n * reps * models * 2) * 1e9
    config = experiment_config("consistency", 1000, 100, 0)
    m["experiments.replicate_trace_s"], _ = once(
        tracer, "experiments.replicate_trace", lambda: pq.replicate_trace(config, 0)
    )


def probe_streams(tracer, m):
    def draws():
        for r in range(20):
            pq.stream(7, r).normal(0.0, 1.0, 10_000)

    with tracer.span("streams.stream"):
        m["streams.normal_ns_per_draw"] = per_call(draws, 1) / 200_000 * 1e9


def probe_cli(tracer, m, workdir: Path):
    code = "import time; t = time.perf_counter(); import preqscore.cli; print(time.perf_counter() - t)"
    imports = []
    for _ in range(3):
        with tracer.span("cli.import"):
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        imports.append(float(out.stdout))
    m["cli.import_s"] = statistics.median(imports)

    csv_path = workdir / "probe-data.csv"
    write_data_csv(csv_path, data("iid", 0, 10_000))
    with tracer.span("cli.read_data_csv"):
        m["cli.read_data_csv_us_per_row"] = per_call(lambda: read_data_csv(csv_path), 1) / 10_000 * 1e6

    write_data_csv(workdir / "probe-trace.csv", data("iid", 0, 500))
    name, n, reps, _ = CLI_EXPERIMENT
    commands = {
        "trace": ["trace", "--model-a", "flatloc(1)", "--model-b", "iidnorm(0,1)", "--rule", "hyvarinen", "--data", "probe-trace.csv"],
        "experiment": ["experiment", name, "--n", str(n), "--reps", str(reps), "--seed", "100"],
    }
    written = 0
    for sub, args in commands.items():
        dt, (rc, _) = once(tracer, f"cli.process.{sub}", lambda: run_cli([*args, "--out", f"probe-{sub}"], workdir))
        if rc != 0:
            raise RuntimeError(f"probe CLI {sub} exited {rc}: {(workdir / 'stderr.txt').read_text()[-500:]}")
        m[f"cli.process_s.{sub}"] = dt
        written += sum(p.stat().st_size for p in (workdir / f"probe-{sub}").iterdir())
    m["cli.bytes_written"] = written
    m["cli.overhead_ratio"] = m["cli.process_s.experiment"] / m[f"experiments.run_s.{name}"]


def run_probe(tracer, workdir: Path) -> dict:
    """Every per-layer probe metric, by name."""
    m: dict = {}
    tracer.op = "probe"
    for step in (probe_scores, probe_models, probe_stationary, probe_densities, probe_prequential, probe_experiments, probe_streams):
        step(tracer, m)
    probe_cli(tracer, m, workdir)
    return m
