"""Command-line interface: spec parsing, artifacts, exit codes, reproducibility."""

import csv
import json
import math
import subprocess
import sys
from dataclasses import MISSING, fields

import numpy as np
import pytest

from preqscore import ExperimentConfig, GaussianPredictive, NonFiniteValue, cli, stream
from preqscore.cli import _write_json, cli_main, parse_model_spec, read_data_csv
from preqscore.models import FlatPriorLocationModel, FlatPriorScaleModel, IIDModel
from preqscore.stationary import StationaryProcessModel


def write_data(path, values):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x"])
        for v in values:
            w.writerow([repr(float(v))])
    return path


# ---------------------------------------------------------------------------
# Model spec mini-language
# ---------------------------------------------------------------------------


def test_parse_iidnorm():
    m = parse_model_spec("iidnorm(0.5, 2)")
    assert isinstance(m, IIDModel)
    assert m.law == GaussianPredictive(0.5, 2.0)
    assert m.identifier == "iidnorm(0.5, 2)"


def test_parse_flat_models():
    loc = parse_model_spec("flatloc(1.5)")
    assert isinstance(loc, FlatPriorLocationModel)
    assert loc.variance == 1.5
    scale = parse_model_spec("flatscale(-2)")
    assert isinstance(scale, FlatPriorScaleModel)
    assert scale.mean == -2.0


def test_parse_ar_and_ma():
    ar = parse_model_spec("ar(0.5,-0.2;1.0)")
    assert isinstance(ar, StationaryProcessModel)
    assert ar.identifier == "ar(0.5,-0.2;1.0)"
    assert ar.predictive_at([]).variance > 1.0
    ma = parse_model_spec("ma(0.4;2)")
    assert ma.predictive_at([]).variance == pytest.approx(2.0 * 1.16, rel=1e-14)
    arma = parse_model_spec("arma(0.5;0.4;1)")
    assert arma.identifier == "arma(0.5;0.4;1)"
    # gamma(0) = s^2 (1 + 2 phi theta + theta^2) / (1 - phi^2)
    assert arma.predictive_at([]).variance == pytest.approx(1.56 / 0.75, rel=1e-14)


@pytest.mark.parametrize(
    "bad",
    [
        "iidnorm(1)",
        "iidnorm(1,2,3)",
        "iidnorm(a,b)",
        "flatloc()",
        "ar(0.5,1)",
        "ar(;1)",
        "ar(0.5;1;2)",
        "arma(0.5,0.4;1)",
        "arma(;0.4;1)",
        "arma(0.5;;1)",
        "arma(0.5;0.4;1;2)",
        "mystery(1)",
        "not a spec",
    ],
)
def test_parse_model_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_model_spec(bad)


# ---------------------------------------------------------------------------
# Data files
# ---------------------------------------------------------------------------


def test_read_data_csv_roundtrip(tmp_path):
    values = [0.25, -1.5, 3.0]
    path = write_data(tmp_path / "d.csv", values)
    np.testing.assert_array_equal(read_data_csv(path), values)
    blank_rows = tmp_path / "blank.csv"
    blank_rows.write_text("x\n0.25\n\n-1.5\n\n3.0\n\n")
    assert read_data_csv(blank_rows).tolist() == values


def test_read_data_csv_errors(tmp_path):
    wrong_header = tmp_path / "h.csv"
    wrong_header.write_text("y\n1.0\n")
    with pytest.raises(ValueError, match="header 'x'"):
        read_data_csv(wrong_header)

    two_cols = tmp_path / "t.csv"
    two_cols.write_text("x\n1.0,2.0\n")
    with pytest.raises(ValueError, match="single value"):
        read_data_csv(two_cols)

    bad_number = tmp_path / "b.csv"
    bad_number.write_text("x\noops\n")
    with pytest.raises(ValueError, match="bad number"):
        read_data_csv(bad_number)

    empty = tmp_path / "e.csv"
    empty.write_text("x\n")
    with pytest.raises(ValueError, match="no observations"):
        read_data_csv(empty)

    non_finite = tmp_path / "n.csv"
    non_finite.write_text("x\n0.5\nnan\n")
    with pytest.raises(NonFiniteValue, match="observation 2 is nan") as info:
        read_data_csv(non_finite)
    assert info.value.index == 2


def test_summary_json_refuses_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "s.json", {"d_n": math.nan})
    assert not (tmp_path / "s.json").exists()


# ---------------------------------------------------------------------------
# experiment subcommand
# ---------------------------------------------------------------------------


def run_cli(*argv):
    return cli_main(list(argv))


def test_experiment_writes_artifacts_and_passes(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        "experiment", "mean-linkage", "--n", "200", "--reps", "4", "--seed", "3", "--out", str(out)
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "linkage_identity: PASS" in printed
    assert "selections_agree: PASS" in printed

    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "experiment"
    assert summary["passed"] is True
    assert summary["config"]["experiment"] == "mean-linkage"
    assert summary["config"]["n"] == 200
    assert summary["config"]["base_seed"] == 3
    assert summary["aggregates"]["replicates"] == 4
    assert set(summary["assertions"]) == {"linkage_identity", "selections_agree"}

    with open(out / "trace.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["index", "x", "score_a", "score_b", "delta", "cumulative"]
    assert len(rows) == 201


def test_experiment_rerun_is_byte_identical(tmp_path):
    args = ["experiment", "variance-expectation", "--n", "150", "--reps", "6", "--seed", "11"]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    for name in ("trace.csv", "summary.json"):
        a = (out1 / name).read_bytes()
        assert a == (out2 / name).read_bytes()
        assert a  # not empty


def test_experiment_keep_reps(tmp_path):
    out = tmp_path / "reps"
    code = run_cli(
        "experiment", "variance-expectation",
        "--n", "50", "--reps", "3", "--keep-reps", "--out", str(out),
    )
    assert code == 0
    assert sorted(p.name for p in out.glob("rep_*.csv")) == ["rep_0.csv", "rep_1.csv", "rep_2.csv"]
    assert (out / "rep_0.csv").read_bytes() == (out / "trace.csv").read_bytes()
    assert (out / "rep_1.csv").read_bytes() != (out / "rep_0.csv").read_bytes()


def test_experiment_failure_exits_one(tmp_path, capsys):
    # A single observation cannot hit the theoretical mean with zero
    # standard error, so the expectation assertion must fail.
    out = tmp_path / "fail"
    code = run_cli("experiment", "variance-expectation", "--n", "1", "--reps", "1", "--out", str(out))
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False


def test_experiment_flag_plumbing(tmp_path):
    out = tmp_path / "flags"
    code = run_cli(
        "experiment", "outlier-locality",
        "--n", "60", "--reps", "2", "--outlier-index", "20", "--outlier-mag", "7.5",
        "--outlier-models", "iid", "--xi", "3.0", "--tauq2", "0.5", "--out", str(out),
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["outlier_index"] == 20
    assert summary["config"]["outlier_magnitude"] == 7.5
    assert summary["config"]["outlier_models"] == "iid"
    assert summary["config"]["xi"] == 3.0
    assert summary["aggregates"]["expected_changed"] == [20]


def test_experiment_options_default_to_the_config_fields(tmp_path):
    out = tmp_path / "defaults"
    assert run_cli("experiment", "variance-expectation", "--n", "50", "--reps", "2", "--out", str(out)) in (0, 1)
    config = json.loads((out / "summary.json").read_text())["config"]
    defaults = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}
    assert config == {**defaults, "experiment": "variance-expectation", "n": 50, "replicates": 2}


def test_output_clash_leaves_out_as_it_was(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["experiment", "consistency", "--n", "40", "--reps", "3", "--out", str(out)]
    assert run_cli(*args, "--seed", "4") in (0, 1)  # an earlier run's artifacts
    (out / "rep_1.csv").mkdir()
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert run_cli(*args, "--seed", "5", "--keep-reps") == 2
    assert "rep_1.csv" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == sorted([*before, "rep_1.csv"])
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]  # no staging directory survives


def test_failing_replicate_writes_nothing(tmp_path, monkeypatch, capsys):
    real = cli.replicate_trace

    def failing(config, r):
        if r == 1:
            raise NonFiniteValue("replicate 1 failed")
        return real(config, r)

    monkeypatch.setattr(cli, "replicate_trace", failing)
    out = tmp_path / "out"
    code = run_cli("experiment", "consistency", "--n", "40", "--reps", "3", "--keep-reps", "--out", str(out))
    assert code == 2
    assert "replicate 1 failed" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []  # no staging directory survives


# ---------------------------------------------------------------------------
# trace subcommand
# ---------------------------------------------------------------------------


def test_trace_subcommand(tmp_path, capsys):
    data = write_data(tmp_path / "d.csv", stream(1, 0).standard_normal(40))
    out = tmp_path / "tr"
    code = run_cli(
        "trace", "--model-a", "iidnorm(0,1)", "--model-b", "iidnorm(0,4)",
        "--rule", "log", "--data", str(data), "--out", str(out),
    )
    assert code == 0
    assert "chosen: iidnorm(0,1)" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "trace"
    assert summary["config"]["rule"] == "log"
    assert summary["aggregates"]["n"] == 40
    assert summary["aggregates"]["chosen"] == "iidnorm(0,1)"
    assert (out / "trace.csv").exists()


def test_arma_trace_is_byte_identical_across_runs(tmp_path):
    data = write_data(tmp_path / "d.csv", stream(3, 0).standard_normal(60))
    outputs = []
    for out in (tmp_path / "one", tmp_path / "two"):
        argv = ("trace", "--model-a", "arma(0.5;0.4;1)", "--model-b", "iidnorm(0,1)", "--rule", "log")
        assert run_cli(*argv, "--data", str(data), "--out", str(out)) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0]) == ["summary.json", "trace.csv"]


@pytest.mark.parametrize(
    "spec, message",
    [
        ("arma(0.5,0.4;1)", "arma spec needs exactly 2 ';' before the variance"),
        ("arma(1.2;0.4;1)", "AR polynomial is not stationary: partial autocorrelation kappa_1 = 1.2"),
        ("arma(0.5;inf;1)", "MA coefficients must be finite"),
    ],
)
def test_bad_arma_spec_exits_two_and_names_the_problem(tmp_path, capsys, spec, message):
    data = write_data(tmp_path / "d.csv", [0.1, 0.7, -0.2])
    code = run_cli(
        "trace", "--model-a", spec, "--model-b", "iidnorm(0,2)",
        "--rule", "log", "--data", str(data), "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_trace_flat_prior_under_gradient_rule(tmp_path):
    data = write_data(tmp_path / "d.csv", [0.4, 1.2, -0.3])
    out = tmp_path / "tr"
    code = run_cli(
        "trace", "--model-a", "flatloc(1)", "--model-b", "iidnorm(0,1)",
        "--rule", "hyvarinen", "--data", str(data), "--out", str(out),
    )
    assert code == 0
    with open(out / "trace.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[1][2] == "0.0"  # first flat-prior summand is exactly zero


def test_trace_refuses_a_flatloc_variance_that_overflows(tmp_path, capsys):
    data = write_data(tmp_path / "d.csv", [1.0, 2.0, 3.0])
    code = run_cli(
        "trace", "--model-a", "flatloc(1e308)", "--model-b", "iidnorm(0,1)",
        "--rule", "hyvarinen", "--data", str(data), "--out", str(tmp_path / "tr"),
    )
    assert code == 2
    assert "error: variance 1e+308 overflows the predictive variance 2 * variance" in capsys.readouterr().err
    assert not (tmp_path / "tr").exists()


def test_trace_log_rule_on_flat_prior_is_a_config_error(tmp_path, capsys):
    data = write_data(tmp_path / "d.csv", [0.4, 1.2])
    code = run_cli(
        "trace", "--model-a", "flatloc(1)", "--model-b", "iidnorm(0,1)",
        "--rule", "log", "--data", str(data), "--out", str(tmp_path / "tr"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "observation 1" in err


def test_trace_rerun_is_byte_identical(tmp_path):
    data = write_data(tmp_path / "d.csv", stream(2, 0).standard_normal(25))
    args = [
        "trace", "--model-a", "ar(0.5;1)", "--model-b", "iidnorm(0,1)",
        "--rule", "hyvarinen", "--data", str(data),
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    for name in ("trace.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run_cli() == 2
    assert run_cli("experiment", "no-such-experiment", "--out", str(tmp_path)) == 2
    assert run_cli("experiment", "consistency") == 2  # missing --out
    capsys.readouterr()


def test_bad_model_spec_exits_two(tmp_path, capsys):
    data = write_data(tmp_path / "d.csv", [1.0])
    code = run_cli(
        "trace", "--model-a", "mystery(1)", "--model-b", "iidnorm(0,1)",
        "--rule", "log", "--data", str(data), "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert "unknown model kind" in capsys.readouterr().err


def test_missing_data_file_exits_two(tmp_path, capsys):
    code = run_cli(
        "trace", "--model-a", "iidnorm(0,1)", "--model-b", "iidnorm(1,1)",
        "--rule", "log", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"),
    )
    assert code == 2
    capsys.readouterr()


def test_invalid_config_value_exits_two(tmp_path, capsys):
    code = run_cli(
        "experiment", "variance-expectation", "--xi", "-1", "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert "xi" in capsys.readouterr().err


def test_seed_outside_range_exits_two(tmp_path, capsys):
    code = run_cli("experiment", "variance-expectation", "--seed", "-1", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "base_seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_non_finite_data_exits_two(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x\n0.5\nnan\n")
    code = run_cli(
        "trace", "--model-a", "iidnorm(0,1)", "--model-b", "iidnorm(0,2)",
        "--rule", "log", "--data", str(data), "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert "observation 2 is nan" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "model_a, values",
    [("iidnorm(0,1)", [1e200]), ("flatscale(0)", [0.0, 1.0]), ("iidnorm(0,1e-170)", [0.5])],
)
def test_arithmetic_failure_exits_two_without_traceback(tmp_path, cli_env, model_a, values):
    write_data(tmp_path / "d.csv", values)
    proc = subprocess.run(
        [
            sys.executable, "-m", "preqscore",
            "trace", "--model-a", model_a, "--model-b", "iidnorm(0,2)",
            "--rule", "hyvarinen", "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "o"),
        ],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "observation 1" in proc.stderr


def test_overflowing_autocovariance_exits_two_without_warning(tmp_path, cli_env):
    write_data(tmp_path / "d.csv", [0.1, 0.5])
    proc = subprocess.run(
        [
            sys.executable, "-m", "preqscore",
            "trace", "--model-a", "ma(1e200;1)", "--model-b", "iidnorm(0,1)",
            "--rule", "log", "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "o"),
        ],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert proc.returncode == 2
    assert "gamma(0)" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, field",
    [
        (("variance-expectation", "--xi", "1e300", "--n", "50", "--reps", "2"), "xi"),
        (("unit-change", "--unit-scale", "1e200", "--n", "50", "--reps", "2"), "unit_scale"),
    ],
)
def test_config_overflow_exits_two_without_traceback(tmp_path, cli_env, argv, field):
    proc = subprocess.run(
        [sys.executable, "-m", "preqscore", "experiment", *argv, "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{field}=" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_overflowing_squared_deltas_exit_two_without_warning(tmp_path, cli_env):
    # every per-step delta is finite; the sum of their squares is not
    argv = ("variance-expectation", "--xi", "1e170", "--tauq2", "1e-120", "--n", "20", "--reps", "2")
    proc = subprocess.run(
        [sys.executable, "-m", "preqscore", "experiment", *argv, "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert proc.returncode == 2
    assert "error: se_log is not finite" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment", ["variance-expectation", "consistency", "unit-change", "reparametrisation"])
def test_overflowing_d_n_of_an_experiment_exits_two_without_traceback(tmp_path, cli_env, experiment):
    # every score is finite; the sum of a replicate's score differences is not
    argv = (experiment, "--xi", "1e157", "--tauq2", "1e-150", "--n", "50", "--reps", "2")
    proc = subprocess.run(
        [sys.executable, "-m", "preqscore", "experiment", *argv, "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: replicate 0: a sum of score differences overflows\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "spec, name",
    [("ar(0.5;inf)", "innovation_variance"), ("ma(nan;1)", "MA coefficients"), ("iidnorm(nan,1)", "mean")],
)
def test_non_finite_model_parameter_exits_two(tmp_path, capsys, spec, name):
    data = write_data(tmp_path / "d.csv", [0.1, 0.7, -0.2])
    code = run_cli(
        "trace", "--model-a", spec, "--model-b", "iidnorm(0,2)",
        "--rule", "log", "--data", str(data), "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert f"{name} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_overflowing_d_n_exits_two_without_traceback(tmp_path, cli_env):
    write_data(tmp_path / "d.csv", [1e154] * 10)
    proc = subprocess.run(
        [
            sys.executable, "-m", "preqscore",
            "trace", "--model-a", "iidnorm(0,1)", "--model-b", "iidnorm(0,2)",
            "--rule", "log", "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "o"),
        ],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "running sum is -inf at term 8" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_trace_non_finite_cutoff_exits_two(tmp_path, capsys):
    data = write_data(tmp_path / "d.csv", [0.1, 0.7, -0.2])
    code = run_cli(
        "trace", "--model-a", "iidnorm(0,1)", "--model-b", "iidnorm(0,2)",
        "--rule", "log", "--data", str(data), "--cutoff", "nan", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert "cutoff must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_module_entry_point(tmp_path, cli_env):
    data = write_data(tmp_path / "d.csv", [0.1, 0.7, -0.2])
    proc = subprocess.run(
        [
            sys.executable, "-m", "preqscore",
            "trace", "--model-a", "iidnorm(0,1)", "--model-b", "iidnorm(0,2)",
            "--rule", "hyvarinen", "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "o"),
        ],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "chosen:" in proc.stdout
