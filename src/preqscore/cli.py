"""Command-line front end.

Two subcommands: ``experiment`` runs a named seeded experiment and writes
its artifacts; ``trace`` scores a data file under two models given as
compact spec strings and writes the sequential trace.

Outputs are written to ``--out``: ``trace.csv`` (the replicate-0 trace under
the gradient-based rule for experiments, the requested rule for ``trace``),
``summary.json`` (config echo, aggregates, one boolean per assertion), and
``rep_<r>.csv`` per replicate when ``--keep-reps`` is set.  They are written
beside ``--out`` first and moved in only once all are written, so a failed
run changes nothing there.  Everything is a pure function of the arguments:
rerunning a command reproduces every output file byte for byte.

Exit codes: 0 all assertions pass, 1 at least one assertion fails,
2 usage, configuration or data error, including non-finite data, scores
and D_n that overflow.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import re
import sys
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .errors import NonFiniteValue, PreqscoreError
from .experiments import Experiment, ExperimentConfig, replicate_trace, run_experiment
from .models import (
    PredictiveModel,
    flat_prior_location_model,
    flat_prior_scale_model,
    iid_gaussian_model,
)
from .prequential import delta_trace, select, write_trace_csv
from .stationary import arma_process, process_model

__all__ = ["parse_model_spec", "read_data_csv", "cli_main", "main"]

_SPEC_RE = re.compile(r"^([a-z][a-z0-9]*)\((.*)\)$")


def parse_model_spec(spec: str) -> PredictiveModel:
    """Build a predictive model from a compact spec string.

    Forms: ``iidnorm(mu,var)``, ``flatloc(var)``, ``flatscale(mu)``,
    ``ar(phi1,...;var)``, ``ma(theta1,...;var)`` and
    ``arma(phi1,...;theta1,...;var)``, each coefficient group non-empty.  The
    string itself becomes the model's identifier in all outputs.  A malformed
    spec raises :class:`ValueError` naming it; a non-stationary AR part, a
    non-finite coefficient or a non-positive variance raises the process
    constructor's :class:`PreqscoreError`.
    """
    text = spec.strip()
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse model spec {spec!r}; expected name(arg,...)")
    name, body = m.group(1), m.group(2)
    if name == "iidnorm":
        mu, var = _float_args(body, 2, spec)
        return iid_gaussian_model(mu, var, identifier=text)
    if name == "flatloc":
        (var,) = _float_args(body, 1, spec)
        return flat_prior_location_model(var, identifier=text)
    if name == "flatscale":
        (mu,) = _float_args(body, 1, spec)
        return flat_prior_scale_model(mu, identifier=text)
    if name in ("ar", "ma", "arma"):
        *groups, var_part = body.split(";")
        want = 2 if name == "arma" else 1  # coefficient groups before the variance
        if len(groups) != want:
            raise ValueError(f"{name} spec needs exactly {want} ';' before the variance: {spec!r}")
        coeffs = [[_parse_float(tok, spec) for tok in group.split(",") if tok.strip()] for group in groups]
        if not all(coeffs):
            raise ValueError(f"{name} spec needs at least one coefficient in each group: {spec!r}")
        phis, thetas = coeffs if name == "arma" else (coeffs[0], ()) if name == "ar" else ((), coeffs[0])
        return process_model(arma_process(phis, thetas, _parse_float(var_part, spec)), identifier=text)
    raise ValueError(f"unknown model kind {name!r} in spec {spec!r}")


def _parse_float(token: str, spec: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"bad number {token.strip()!r} in model spec {spec!r}") from None


def _float_args(body: str, count: int, spec: str) -> list[float]:
    tokens = [t for t in body.split(",")] if body.strip() else []
    if len(tokens) != count:
        raise ValueError(f"model spec {spec!r} takes exactly {count} argument(s)")
    return [_parse_float(t, spec) for t in tokens]


def read_data_csv(path) -> np.ndarray:
    """Read a one-column data file; the header must be exactly ``x``."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["x"]:
            raise ValueError(f"{path}: data CSV must have a single column with header 'x'")
        values = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 1:
                raise ValueError(f"{path}:{lineno}: expected a single value per row, got {len(row)}")
            try:
                value = float(row[0])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad number {row[0]!r}") from None
            if not math.isfinite(value):
                index = len(values) + 1
                raise NonFiniteValue(f"{path}:{lineno}: observation {index} is {value!r}; data must be finite", index)
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no observations")
    return np.array(values)


def _write_json(path: Path, payload: dict) -> None:
    # Encode first: a non-finite number fails before the file is touched.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


def _write_trace(path: Path, trace) -> None:
    with open(path, "w", newline="") as f:
        write_trace_csv(trace, f)


@contextlib.contextmanager
def _staged(out: Path):
    """Yield a new directory beside ``out``, then move its files into ``out``: a
    failed run, or a target name that is a directory, leaves ``out`` as it was."""
    real = out.resolve()  # beside the real directory: os.replace cannot cross filesystems
    real.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f".{real.name}.", dir=real.parent) as tmp:
        staging = Path(tmp)
        yield staging
        names = sorted(p.name for p in staging.iterdir())
        clashes = [out / name for name in names if (out / name).is_dir()]
        if clashes:
            raise IsADirectoryError(f"cannot replace directory {clashes[0]} with a file")
        out.mkdir(exist_ok=True)
        for name in names:
            (staging / name).replace(out / name)


def _cmd_experiment(args: argparse.Namespace) -> int:
    options = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig) if f.default is not MISSING}
    config = ExperimentConfig(experiment=Experiment(args.name), **options)
    result = run_experiment(config)
    out = Path(args.out)
    with _staged(out) as staging:
        first = replicate_trace(config, 0)
        _write_trace(staging / "trace.csv", first)
        if args.keep_reps:
            for r in range(config.replicates):
                _write_trace(staging / f"rep_{r}.csv", first if r == 0 else replicate_trace(config, r))
        _write_json(
            staging / "summary.json",
            {
                "command": "experiment",
                "config": config.to_dict(),
                "aggregates": result.aggregates,
                "assertions": result.assertions,
                "passed": result.passed,
            },
        )
    for name in sorted(result.assertions):
        print(f"{name}: {'PASS' if result.assertions[name] else 'FAIL'}")
    print(f"wrote {out / 'summary.json'}")
    return 0 if result.passed else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    model_a = parse_model_spec(args.model_a)
    model_b = parse_model_spec(args.model_b)
    data = read_data_csv(args.data)
    trace = delta_trace(model_a, model_b, data, args.rule)
    outcome = select(trace, args.cutoff)
    out = Path(args.out)
    with _staged(out) as staging:
        _write_trace(staging / "trace.csv", trace)
        _write_json(
            staging / "summary.json",
            {
                "command": "trace",
                "config": {
                    "model_a": model_a.identifier,
                    "model_b": model_b.identifier,
                    "rule": args.rule,
                    "data": str(args.data),
                    "cutoff": args.cutoff,
                },
                "aggregates": {
                    "n": len(trace),
                    "d_n": trace.final,
                    "chosen": outcome.chosen,
                },
                "assertions": {},
                "passed": True,
            },
        )
    print(f"chosen: {outcome.chosen} (D_n = {trace.final!r})")
    print(f"wrote {out / 'summary.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preqscore",
        description="Sequential model comparison by proper scoring rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a named seeded experiment")
    exp.add_argument("name", choices=[e.value for e in Experiment])
    exp.add_argument("--xi", dest="xi", type=float, help="variance ratio tau_P^2 / tau_Q^2")
    exp.add_argument("--tauq2", dest="tau_q2", metavar="TAUQ2", type=float, help="variance of model Q")
    exp.add_argument("--n", dest="n", type=int, help="observations per replicate")
    exp.add_argument("--reps", dest="replicates", metavar="REPS", type=int, help="number of replicates")
    exp.add_argument("--seed", dest="base_seed", metavar="SEED", type=int, help="base seed; replicate r uses stream (seed, r)")
    exp.add_argument("--cutoff", dest="cutoff", type=float, help="selection cutoff on D_n")
    exp.add_argument("--outlier-index", dest="outlier_index", type=int, help="1-based position of the edited observation")
    exp.add_argument("--outlier-mag", dest="outlier_magnitude", metavar="OUTLIER_MAG", type=float, help="edit size; default 5 marginal sd")
    exp.add_argument("--unit-scale", dest="unit_scale", type=float, help="unit conversion factor c")
    exp.add_argument("--truth", dest="truth", choices=["P", "Q"], help="which model generates the data")
    exp.add_argument("--outlier-models", dest="outlier_models", choices=["ar1", "iid"], help="model pair for the outlier experiment")
    exp.add_argument("--keep-reps", action="store_true", help="also write rep_<r>.csv for every replicate")
    exp.add_argument("--out", required=True, help="output directory")
    # Every option's dest is its ExperimentConfig field, and so is its default.
    exp.set_defaults(func=_cmd_experiment, **{f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING})

    tr = sub.add_parser("trace", help="score a data file under two models")
    tr.add_argument("--model-a", required=True, help="model spec, e.g. 'iidnorm(0,1)' or 'ar(0.5;1)'")
    tr.add_argument("--model-b", required=True, help="model spec")
    tr.add_argument("--rule", choices=["log", "hyvarinen"], required=True)
    tr.add_argument("--data", required=True, help="CSV file with a single column 'x'")
    tr.add_argument("--cutoff", type=float, default=0.0)
    tr.add_argument("--out", required=True, help="output directory")
    tr.set_defaults(func=_cmd_trace)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except (PreqscoreError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))
