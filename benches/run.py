"""Layered benchmark of preqscore: sequential comparison and Monte Carlo experiments.

    python3 benches/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benches/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from ``src/``.
A run builds the workload's inputs from the seed, sets up, then repeats the
workload's plan of operations in whole rounds, one at a time on one thread,
until ``--seconds`` have passed (a closed loop with one client).  Every
answer is checked against ``reference.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Lines before it are for people: the
environment, each metric with its unit, and for traced runs the self time
per layer.  ``--workload all`` runs every workload in a fresh process and
prints one table.

The traced run splits ``--seconds`` between an untraced and a traced pass
of the same plan (the throughput difference is the tracing overhead), then
runs the layer probe (``probe.py``) and writes every span to
``.bench_out/spans-<workload>-seed<seed>.json``.
"""

import os

# Cap BLAS threads before numpy loads, here and in every child process.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import PER_LAYER  # noqa: E402
from tracing import NO_TRACE, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("long-trace", "short-traces", "mc-replicates", "cli-matrix")
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "scored_obs_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def nearest_rank(sorted_values, pct: float):
    """Value at percentile ``pct`` by nearest rank, and how many samples lie beyond it."""
    rank = max(1, math.ceil(pct * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Tally:
    """Samples of one measured pass: (latency, pairs scored, ok)."""

    def __init__(self):
        self.samples: list[tuple[float, int, bool]] = []
        self.problems: list[str] = []
        self.known_failures = 0
        self.unexpected = 0

    @property
    def attempted(self):
        return len(self.samples)

    @property
    def failed(self):
        return sum(1 for s in self.samples if not s[2])

    def throughput(self) -> float:
        busy = sum(s[0] for s in self.samples)
        return sum(s[1] for s in self.samples if s[2]) / busy


def measure(workload, seconds: float, tracer, reference, tally: Tally) -> int:
    """Repeat the plan in whole rounds until the deadline; return the round count."""
    from workloads import Mismatch

    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < workload.min_rounds or time.perf_counter() < deadline:
        for i, op in enumerate(workload.plan):
            tracer.op = f"{rounds}:{i}"
            t0 = time.perf_counter()
            try:
                with tracer.span(f"bench.{op.kind}"):
                    outcome = op.run(tracer)
            except Exception as e:  # an op that raises is a failed op, and the run goes on
                latency = time.perf_counter() - t0
                tally.samples.append((latency, 0, False))
                if reference.get(op.key, {}).get("raises") == type(e).__name__:
                    tally.known_failures += 1
                else:
                    tally.unexpected += 1
                    tally.problems.append(f"{op.key}: {type(e).__name__}: {e}")
                continue
            latency = time.perf_counter() - t0
            try:
                op.check(outcome, reference)
            except Mismatch as e:
                tally.samples.append((latency, 0, False))
                tally.unexpected += 1
                tally.problems.append(str(e))
                continue
            tally.samples.append((latency, op.scored, True))
        rounds += 1
    return rounds


def build(args, workdir: Path):
    """Import the package, build the workload and run its warm-up op once."""
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed, workdir)
    op = w.warmup()
    return w, op, op.run(NO_TRACE)


def setup_once(args, workdir: Path) -> float:
    t0 = time.perf_counter()
    _, op, outcome = build(args, workdir)
    elapsed = time.perf_counter() - t0
    import workloads

    op.check(outcome, workloads.load_reference())
    return elapsed


def measure_setup(args) -> float:
    """Median set-up time over fresh processes: import, build, one warm-up op."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([*cmd, "--seconds", "0", "--setup-only"], capture_output=True, text=True, timeout=170)
        if out.returncode != 0:
            raise RuntimeError(f"set-up process failed: {out.stderr[-2000:]}")
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def report(tally: Tally, workload) -> None:
    lat = sorted(s[0] for s in tally.samples)
    _, beyond = nearest_rank(lat, workload.tail_pct)
    print(
        f"ops: {tally.attempted} attempted, {tally.failed} failed "
        f"({tally.known_failures} known defect, {tally.unexpected} unexpected); "
        f"fail_ratio {tally.failed / tally.attempted:.6f}"
    )
    print(f"op_tail_ms is p{workload.tail_pct * 100:g} over {len(lat)} ops, {beyond} beyond it")
    by_kind = {}
    for op, sample in zip(workload.plan * (len(tally.samples) // len(workload.plan)), tally.samples):
        by_kind.setdefault(op.kind, []).append(sample[0])
    print("median ms per op kind: " + ", ".join(f"{k} {statistics.median(v) * 1e3:.3f}" for k, v in sorted(by_kind.items())))
    for p in tally.problems[:10]:
        print(f"problem: {p}")


def result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    """The result object; each metric is also printed on its own line with its unit."""
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_untraced(args, workdir: Path) -> dict:
    import workloads

    setup_s = measure_setup(args)
    w, op, outcome = build(args, workdir)
    reference = workloads.load_reference()
    op.check(outcome, reference)
    tally = Tally()
    measure(w, args.seconds, NO_TRACE, reference, tally)
    lat = sorted(s[0] for s in tally.samples)
    metrics = {
        "scored_obs_per_s": tally.throughput(),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": nearest_rank(lat, w.tail_pct)[0] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": w.peak_rss_mb(),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    report(tally, w)
    if isinstance(w, workloads.CliMatrix):
        for cli_op in w.plan:
            ref = reference[cli_op.key]["sha256"]
            same = "matches" if cli_op.first_hashes == ref else "differs from"
            print(f"sha256 {cli_op.key} {same} the reference: " + json.dumps(cli_op.first_hashes, sort_keys=True))
    return result(tally.unexpected == 0, tally.attempted, tally.failed, metrics, END_TO_END_UNITS)


def run_traced(args, workdir: Path) -> dict:
    import probe
    import workloads

    w, op, outcome = build(args, workdir)
    reference = workloads.load_reference()
    op.check(outcome, reference)
    plain, traced = Tally(), Tally()
    measure(w, args.seconds / 2, NO_TRACE, reference, plain)
    tracer = Tracer()
    measure(w, args.seconds / 2, tracer, reference, traced)
    workload_spans = list(tracer.spans)
    overhead = (plain.throughput() - traced.throughput()) / plain.throughput() * 100.0

    metrics = probe.run_probe(tracer, workdir)
    metrics["prequential.obs_scored"] = tracer.counts["prequential.obs_scored"]
    metrics["trace.overhead_pct"] = overhead

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    report(traced, w)
    print(f"self time per layer, traced pass of {args.workload} ({len(workload_spans)} spans):")
    busy = sum(s[0] for s in traced.samples)
    for layer, secs in sorted(tracer.self_times(workload_spans).items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<14} {secs:10.4f} s  {secs / busy * 100:6.2f} %")
    print(f"tracing overhead {overhead:.3f} % of untraced throughput; spans in {spans_path.relative_to(ROOT)}")
    return result(
        plain.unexpected + traced.unexpected == 0,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        {name: metrics[name] for name in PER_LAYER},
        {name: spec[0] for name, spec in PER_LAYER.items()},
    )


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<14} {'metric':<44} {'value':>14} unit")
    for name, res in results.items():
        rows = [(k, v["value"], v["unit"]) for k, v in res["metrics"].items()]
        rows.append(("fail_ratio", res["failed"] / res["attempted"], "ratio"))
        for metric, value, unit in rows:
            print(f"{name:<14} {metric:<44} {value:>14.6g} {unit}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "preqscore" / "__init__.py").is_file():
        print(f"error: no preqscore sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    if args.workload == "all":
        return run_all(args)

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_once(args, workdir)}))
            return 0
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        res = run_traced(args, workdir) if args.trace else run_untraced(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
