"""The four workloads: their inputs, their operations and the checks on each answer.

An operation (op) is one call a user makes: one ``delta_trace`` (with the
selection it implies), one ``select_among``, one ``run_experiment``, or one
``preqscore`` CLI invocation.  Each workload turns the benchmark seed into a
plan, a fixed list of ops, and the measured run repeats the plan in whole
rounds, so every run scores the same mix of ops.

Inputs come from ``POOL`` input families per op kind.  The seed picks a
family for every op in the plan, so different seeds give different inputs,
and ``reference.json`` holds the seed-commit answer for every family, so every
answer is checked.  Library answers must match the reference: chosen models
exactly, D_n and experiment aggregates within ``REL_TOL``.  CLI answers must
exit with the reference code and write byte-identical artifacts on every
invocation of the same command; their sha256 is reported against the
reference but not gated.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import preqscore as pq
from preqscore.cli import parse_model_spec

POOL = 8
REL_TOL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")

CUBIC = pq.cubic_plus_linear_transform()

# Model pairs scored by the sequential workloads.  Specs go through
# parse_model_spec, as the CLI does; the AR(1) Markov and transformed models
# have no spec form and are built directly.
PAIRS = {
    "flatloc-iidnorm": (lambda: (parse_model_spec("flatloc(1)"), parse_model_spec("iidnorm(0,1)")), "hyvarinen", "iid"),
    "flatscale-iidnorm": (lambda: (parse_model_spec("flatscale(0)"), parse_model_spec("iidnorm(0,1)")), "hyvarinen", "iid"),
    "ar-ma": (lambda: (parse_model_spec("ar(0.5,0.2;1)"), parse_model_spec("ma(0.4;1)")), "log", "ar"),
    "ar1markov": (lambda: (pq.Ar1MarkovModel(0.5, 1.0), pq.Ar1MarkovModel(0.25, 1.0)), "log", "ar1"),
    "transformed": (
        lambda: (
            pq.TransformedModel(parse_model_spec("iidnorm(0,1)"), CUBIC),
            pq.TransformedModel(parse_model_spec("flatscale(0)"), CUBIC),
        ),
        "hyvarinen",
        "cubic",
    ),
    # Known defect at the seed commit: the flat predictive's NaNs reach
    # gaussian_density, which raises NonPositiveVariance at observation 1.
    # Untransformed flatloc scores fine there; this pair should too.
    "transformed-flatloc": (
        lambda: (
            pq.TransformedModel(parse_model_spec("flatloc(1)"), CUBIC),
            pq.TransformedModel(parse_model_spec("iidnorm(0,1)"), CUBIC),
        ),
        "hyvarinen",
        "cubic",
    ),
}
SELECTION_FIELD = ("iidnorm(0,1)", "flatloc(1)", "flatscale(0)", "ar(0.5,0.2;1)", "ma(0.4;1)")

# (experiment, n, replicates, models) at the sizes the paper's claims are checked at.
MC_EXPERIMENTS = (
    ("consistency", 5000, 500, 2),
    ("multi-model", 2000, 500, 5),
    ("variance-expectation", 2000, 500, 2),
    ("mean-linkage", 2000, 500, 2),
    ("unit-change", 2000, 500, 2),
    ("reparametrisation", 1000, 100, 2),
)

CLI_TRACE_N = 500
CLI_TRACES = {
    "iidnorm": ("iidnorm(0,1)", "iidnorm(0,2)", "log", "iid"),
    "flatloc": ("flatloc(1)", "iidnorm(0,1)", "hyvarinen", "iid"),
    "flatscale": ("flatscale(0)", "iidnorm(0,1)", "hyvarinen", "iid"),
    "ar": ("ar(0.5,0.2;1)", "iidnorm(0,1)", "log", "ar"),
    "ma": ("ma(0.4;1)", "iidnorm(0,1)", "log", "ar"),
}
# Outlier-locality is sized well down from its CLI default (n=1000, 100
# replicates), which takes about 11 s because that runner is sequential.
CLI_EXPERIMENTS = {
    "variance-expectation": (1000, 100, 2, False),
    "mean-linkage": (1000, 100, 2, False),
    "consistency": (1000, 100, 2, False),
    "outlier-locality": (200, 10, 2, False),
    "unit-change": (1000, 100, 2, False),
    "reparametrisation": (500, 20, 2, False),
    "multi-model": (1000, 100, 5, False),
    "consistency-keep-reps": (200, 5, 2, True),
}


class Mismatch(Exception):
    """An answer that differs from the reference."""


def _data_rng(kind: str, pool: int, n: int) -> np.random.Generator:
    return np.random.default_rng([pool, n, sum(map(ord, kind))])


@functools.cache
def data(kind: str, pool: int, n: int) -> np.ndarray:
    """Input series of one family; AR paths come from the program's own sample_path."""
    if kind == "iid":
        return _data_rng(kind, pool, n).standard_normal(n)
    if kind == "cubic":
        x = _data_rng(kind, pool, n).standard_normal(n)
        return x**3 + x
    if kind == "ar":
        return pq.sample_path(pq.ar_process([0.5, 0.2], 1.0), n, seed=1000 + pool)
    if kind == "ar1":
        return pq.sample_path(pq.ar_process([0.5], 1.0), n, seed=2000 + pool)
    raise ValueError(f"unknown data kind {kind!r}")


def _close(a, b) -> bool:
    """Recursive comparison: numbers within REL_TOL, everything else exactly."""
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


# --- operations ------------------------------------------------------------


class Op:
    """One timed call.  ``run`` is timed; ``answer`` and ``check`` are not."""

    scored = 0  # (observation, model) pairs the op scores

    def __init__(self, workload: str, kind: str, pool: int):
        self.kind = kind
        self.pool = pool
        self.key = f"{workload}/{kind}/{pool}"

    def run(self, tracer):
        raise NotImplementedError

    def answer(self, outcome) -> dict:
        return outcome

    def check(self, outcome, reference: dict) -> None:
        ref = reference[self.key]
        got = self.answer(outcome)
        if not _close(got, ref):
            raise Mismatch(f"{self.key}: got {got!r}, reference {ref!r}")


class TraceOp(Op):
    """delta_trace of one pair plus the selection it implies.

    With ``models`` given, the pair is reused across calls (models are built
    at set-up); otherwise it is built inside the timed call.
    """

    def __init__(self, workload, kind, pool, n, models=None):
        super().__init__(workload, kind, pool)
        self.build, self.rule, data_kind = PAIRS[kind]
        self.models = models
        self.x = data(data_kind, pool, n)
        self.scored = 2 * n

    def run(self, tracer):
        models = self.models
        if models is None:
            with tracer.span("cli.parse_model_spec"):
                models = self.build()
        with tracer.span("prequential.delta_trace"):
            trace = pq.delta_trace(models[0], models[1], self.x, self.rule)
        tracer.count("prequential.obs_scored", self.scored)
        with tracer.span("prequential.select"):
            outcome = pq.select(trace)
        return {"d_n": outcome.d_n, "chosen": outcome.chosen}

    def check(self, outcome, reference):
        if "raises" in reference[self.key]:
            # The seed commit raised here, so there is no answer to match;
            # an answer now must at least be finite.
            if not math.isfinite(outcome["d_n"]):
                raise Mismatch(f"{self.key}: non-finite D_n {outcome['d_n']!r}")
            return
        super().check(outcome, reference)


class SelectOp(Op):
    def __init__(self, workload, pool, n):
        super().__init__(workload, "select-among", pool)
        self.x = data("ar", pool, n)
        self.scored = len(SELECTION_FIELD) * n

    def run(self, tracer):
        with tracer.span("cli.parse_model_spec"):
            models = [parse_model_spec(s) for s in SELECTION_FIELD]
        with tracer.span("prequential.select_among"):
            chosen = pq.select_among(models, self.x, "hyvarinen")
        tracer.count("prequential.obs_scored", self.scored)
        return {"chosen": chosen}


def experiment_config(name: str, n: int, reps: int, pool: int) -> pq.ExperimentConfig:
    return pq.ExperimentConfig(experiment=pq.Experiment(name), n=n, replicates=reps, base_seed=100 + pool)


class ExperimentOp(Op):
    def __init__(self, workload, name, n, reps, models, pool):
        super().__init__(workload, name, pool)
        self.config = experiment_config(name, n, reps, pool)
        self.scored = n * reps * models * 2

    def run(self, tracer):
        with tracer.span("experiments.run_experiment"):
            result = pq.run_experiment(self.config)
        return {"aggregates": result.aggregates, "assertions": result.assertions}

    def answer(self, outcome):
        # Round-trip through JSON so tuples and lists compare alike.
        return json.loads(json.dumps(outcome))


def run_cli(args, workdir: Path) -> tuple[int, int]:
    """Run ``python -m preqscore ARGS`` in ``workdir`` to completion; return (exit code, peak RSS in KiB).

    Paths in ARGS are relative to ``workdir``, so the artifacts, which echo
    them, are the same bytes wherever the benchmark runs.  Standard error
    goes to ``workdir/stderr.txt``.
    """
    with open(workdir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "preqscore", *args], cwd=workdir, stdout=subprocess.DEVNULL, stderr=err
        )
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    return proc.returncode, usage.ru_maxrss


def artifact_hashes(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir()) if p.is_file()}


class CliOp(Op):
    """One CLI invocation.  Every invocation of the same command must write
    the same bytes as the first one in the run."""

    def __init__(self, workload, kind, pool, args, scored, workdir: Path):
        super().__init__(workload, kind, pool)
        self.args = args
        self.scored = scored
        self.workdir = workdir
        self.calls = 0
        self.first_hashes = None
        self.peak_rss_kib = 0

    def run(self, tracer):
        self.calls += 1
        out = f"{self.kind}-{self.pool}-{self.calls}"
        with tracer.span(f"cli.process.{self.args[0]}"):
            code, rss = run_cli([*self.args, "--out", out], self.workdir)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        return code, self.workdir / out

    def check(self, outcome, reference):
        code, out = outcome
        try:
            ref = reference[self.key]
            if code != ref["exit"]:
                err = (self.workdir / "stderr.txt").read_text()[-500:]
                raise Mismatch(f"{self.key}: exit {code}, reference {ref['exit']}: {err}")
            hashes = artifact_hashes(out)
            if self.first_hashes is None:
                self.first_hashes = hashes
            elif hashes != self.first_hashes:
                raise Mismatch(f"{self.key}: artifacts differ between invocations of the same command")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def record(self, outcome) -> dict:
        code, out = outcome
        return {"exit": code, "sha256": artifact_hashes(out)}


def write_data_csv(path: Path, x) -> None:
    with open(path, "w") as f:
        f.write("x\n")
        for v in x:
            f.write(f"{float(v)!r}\n")


# --- workloads -------------------------------------------------------------


class Workload:
    """A plan of ops built from the seed.

    ``tail_pct`` is the fixed percentile op_tail_ms reports: the highest that
    leaves at least ten samples beyond it in a run at the seed commit.  It is
    fixed per workload, not chosen per run, so a faster program reports the
    same percentile over more samples.  ``min_rounds`` is the number of
    rounds a run makes even past its deadline.
    """

    name = ""
    tail_pct = 0.5
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.plan = self.make_plan()
        self.rng.shuffle(self.plan)

    def pool(self) -> int:
        return self.rng.randrange(POOL)

    def make_plan(self) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> Op:
        raise NotImplementedError

    def all_ops(self):
        """Every (op kind, family) the reference must cover, for recording it."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class LongTrace(Workload):
    """Two-model traces at long n, one pair per model kind, models built once."""

    name = "long-trace"
    tail_pct = 0.7
    N = {"flatloc-iidnorm": 2000, "flatscale-iidnorm": 2000, "ar-ma": 2000, "ar1markov": 2000, "transformed": 500}

    def make_plan(self):
        self.models = {kind: PAIRS[kind][0]() for kind in self.N}
        return [TraceOp(self.name, kind, self.pool(), n, self.models[kind]) for kind, n in self.N.items()]

    def warmup(self):
        # The AR and MA models extend their recursion tables lazily; one
        # pass fills them to the trace length.
        return next(op for op in self.plan if op.kind == "ar-ma")

    def all_ops(self):
        models = {kind: PAIRS[kind][0]() for kind in self.N}
        return [TraceOp(self.name, kind, p, n, models[kind]) for kind, n in self.N.items() for p in range(POOL)]


class ShortTraces(Workload):
    """Hundreds of short traces, models built from specs per call, plus one selection."""

    name = "short-traces"
    tail_pct = 0.99
    N = 50
    SELECT_N = 200
    PER_ROUND = 10
    KINDS = ("flatloc-iidnorm", "flatscale-iidnorm", "ar-ma", "ar1markov", "transformed")

    def make_plan(self):
        ops = [TraceOp(self.name, kind, self.pool(), self.N) for kind in self.KINDS for _ in range(self.PER_ROUND)]
        ops.append(TraceOp(self.name, "transformed-flatloc", self.pool(), self.N))
        ops.append(SelectOp(self.name, self.pool(), self.SELECT_N))
        return ops

    def warmup(self):
        return next(op for op in self.plan if op.kind == "select-among")

    def all_ops(self):
        ops = [TraceOp(self.name, kind, p, self.N) for kind in (*self.KINDS, "transformed-flatloc") for p in range(POOL)]
        return ops + [SelectOp(self.name, p, self.SELECT_N) for p in range(POOL)]


class McReplicates(Workload):
    """Vectorised Monte Carlo experiments at paper scale; no sequential core."""

    name = "mc-replicates"
    tail_pct = 0.6

    def make_plan(self):
        return [ExperimentOp(self.name, *spec, self.pool()) for spec in MC_EXPERIMENTS]

    def warmup(self):
        return next(op for op in self.plan if op.kind == "variance-expectation")

    def all_ops(self):
        return [ExperimentOp(self.name, *spec, p) for spec in MC_EXPERIMENTS for p in range(POOL)]


class CliMatrix(Workload):
    """The CLI as a subprocess: trace per spec kind, every experiment, one --keep-reps run.

    Interpreter start and import are paid inside every op, as users pay
    them.  Each run makes at least two rounds so every command is invoked
    at least twice and its artifacts compared.
    """

    name = "cli-matrix"
    tail_pct = 0.7
    min_rounds = 2

    def _trace(self, kind, pool):
        model_a, model_b, rule, data_kind = CLI_TRACES[kind]
        path = f"data-{data_kind}-{pool}.csv"
        if not (self.workdir / path).exists():
            write_data_csv(self.workdir / path, data(data_kind, pool, CLI_TRACE_N))
        args = ["trace", "--model-a", model_a, "--model-b", model_b, "--rule", rule, "--data", path]
        return CliOp(self.name, f"trace-{kind}", pool, args, 2 * CLI_TRACE_N, self.workdir)

    def _experiment(self, kind, pool):
        n, reps, models, keep = CLI_EXPERIMENTS[kind]
        name = kind.removesuffix("-keep-reps")
        args = ["experiment", name, "--n", str(n), "--reps", str(reps), "--seed", str(100 + pool)]
        # run_experiment's scores, plus the replicate traces written as CSV.
        scored = n * reps * models * 2 + 2 * n * (1 + (reps if keep else 0))
        if keep:
            args.append("--keep-reps")
        return CliOp(self.name, f"experiment-{kind}", pool, args, scored, self.workdir)

    def make_plan(self):
        return [self._trace(k, self.pool()) for k in CLI_TRACES] + [
            self._experiment(k, self.pool()) for k in CLI_EXPERIMENTS
        ]

    def warmup(self):
        return self._trace("flatloc", 0)

    def all_ops(self):
        return [self._trace(k, p) for k in CLI_TRACES for p in range(POOL)] + [
            self._experiment(k, p) for k in CLI_EXPERIMENTS for p in range(POOL)
        ]

    def peak_rss_mb(self):
        return max(op.peak_rss_kib for op in self.plan) / 1024.0


WORKLOADS = {w.name: w for w in (LongTrace, ShortTraces, McReplicates, CliMatrix)}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)
