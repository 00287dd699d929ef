"""End-to-end acceptance gate.

One test per claim the package stands behind, each printing a PASS/FAIL
line.  Tolerances are pinned inline; oracles (dense linear algebra,
quadrature-free closed forms, subprocess reruns) are independent of the
implementation paths they check.
"""

import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from preqscore import (
    DecisionProblem,
    ExperimentConfig,
    ImproperPredictive,
    ar_process,
    check_propriety,
    delta_trace,
    durbin_levinson,
    flat_prior_location_model,
    iid_gaussian_model,
    ma_process,
    rescale_rule,
    run_experiment,
    score_from_decision_problem,
    select,
    select_among,
    stream,
)
from preqscore.experiments import (
    run_consistency,
    run_mean_linkage,
    run_outlier_locality,
    run_reparametrisation,
    run_unit_change,
    run_variance_expectation,
)

from oracles import conditional_gaussian_oracle, simplex_grid


def test_criterion_1_expectation_anchors(criterion_line):
    with criterion_line("criterion 1: expectation anchors"):
        for cell, (xi, tq) in enumerate(itertools.product((0.25, 0.5, 2.0, 4.0), (0.5, 1.0, 2.0))):
            res = run_variance_expectation(
                ExperimentConfig(
                    "variance-expectation",
                    n=1_000_000,
                    replicates=1,
                    base_seed=100 + cell,
                    xi=xi,
                    tau_q2=tq,
                )
            )
            agg = res.aggregates
            assert agg["theory_log"] == 0.5 * (xi - 1.0 - math.log(xi))
            assert agg["theory_hyvarinen"] == (xi + 1.0 / xi - 2.0) / tq
            for rule in ("log", "hyvarinen"):
                gap = abs(agg[f"mean_delta_{rule}"] - agg[f"theory_{rule}"])
                assert gap <= 3.0 * agg[f"se_{rule}"], (xi, tq, rule, gap, agg[f"se_{rule}"])
            assert res.passed


def test_criterion_2_gradient_log_linkage(criterion_line):
    with criterion_line("criterion 2: gradient/log linkage"):
        for variance in (0.25, 1.0, 4.0):
            res = run_mean_linkage(
                ExperimentConfig(
                    "mean-linkage", n=10_000, replicates=1, base_seed=200, tau_q2=variance
                )
            )
            assert res.aggregates["ratio"] == 2.0 / variance
            assert res.aggregates["max_linkage_gap"] <= 1e-12
            assert res.aggregates["selections_agree_frequency"] == 1.0
            assert res.passed


def test_criterion_3_selection_consistency(criterion_line):
    with criterion_line("criterion 3: selection consistency"):
        for seed, truth in ((31, "P"), (32, "Q")):
            res = run_consistency(
                ExperimentConfig(
                    "consistency", n=5000, replicates=500, base_seed=seed, xi=2.0, truth=truth
                )
            )
            agg = res.aggregates
            assert agg["threshold"] == 0.99
            assert agg["n_grid"] == [50, 500, 5000]
            for rule in ("log", "hyvarinen"):
                assert agg["frequency"][rule]["5000"] >= 0.99, (truth, rule, agg["frequency"])
                assert res.assertions[f"nondecreasing_{rule}"], (truth, rule, agg["frequency"])
            assert res.passed


def test_criterion_4_prediction_recursion_variances(criterion_line):
    with criterion_line("criterion 4: prediction recursion variances"):
        for phis in ((0.5,), (0.5, -0.3), (0.4, -0.2, 0.1)):
            p = len(phis)
            spec = ar_process(phis, 1.0)
            states = durbin_levinson(spec, 200)
            settled = states[p].conditional_variance
            for st in states[p:]:
                assert abs(st.conditional_variance - settled) <= 1e-10 * settled
            for i in range(1, 201):
                coef, var = conditional_gaussian_oracle(spec.gamma, i)
                st = states[i - 1]
                assert abs(st.conditional_variance - var) <= 1e-8 * var
                np.testing.assert_allclose(st.coefficients, coef, rtol=1e-7, atol=1e-9)

        s2 = 1.0
        v = [st.conditional_variance for st in durbin_levinson(ma_process([0.5], s2), 500)]
        assert all(b <= a for a, b in zip(v, v[1:]))
        for i in range(len(v) - 1):
            if v[i] - s2 > 1e-6 * s2:  # strictly decreasing until converged
                assert v[i + 1] < v[i]
        assert abs(v[499] - s2) <= 1e-6 * s2


def test_criterion_5_outlier_locality(criterion_line):
    with criterion_line("criterion 5: outlier locality"):
        markov = run_outlier_locality(
            ExperimentConfig("outlier-locality", n=100, replicates=25, base_seed=50, outlier_index=50)
        )
        assert markov.aggregates["expected_changed"] == [50, 51]
        assert markov.assertions["changed_summands_log"]
        assert markov.assertions["changed_summands_hyvarinen"]

        memoryless = run_outlier_locality(
            ExperimentConfig(
                "outlier-locality",
                n=100,
                replicates=25,
                base_seed=51,
                outlier_index=50,
                outlier_models="iid",
            )
        )
        assert memoryless.aggregates["expected_changed"] == [50]
        assert memoryless.passed


def test_criterion_6_invariances(criterion_line):
    with criterion_line("criterion 6: invariances (rescaling, units, reparametrisation)"):
        # (a) positive rescaling of the rule never moves a cutoff-zero selection
        data = stream(606, 0).standard_normal(400)
        pair = (iid_gaussian_model(0.0, 2.0), iid_gaussian_model(0.0, 1.0))
        trio = [iid_gaussian_model(0.0, v) for v in (0.5, 1.0, 2.0)]
        for rule in ("log", "hyvarinen"):
            base_choice = select(delta_trace(*pair, data, rule)).chosen
            base_among = select_among(trio, data, rule)
            for lam in (1e-6, 2.0, 1e6):
                scaled = rescale_rule(rule, lam)
                assert select(delta_trace(*pair, data, scaled)).chosen == base_choice
                assert select_among(trio, data, scaled) == base_among

        # (b) unit changes scale every gradient score by exactly c^-2
        for c in (10.0, 1e-9, 3.086e16):
            res = run_unit_change(
                ExperimentConfig("unit-change", n=2000, replicates=20, base_seed=60, unit_scale=c)
            )
            assert res.aggregates["max_hyvarinen_scale_gap"] <= 1e-12, c
            assert res.aggregates["max_log_delta_gap"] <= 1e-12, c
            assert res.aggregates["selections_identical_frequency"] == 1.0, c
            assert res.passed

        # (c) smooth non-affine reparametrisation: log deltas invariant,
        # gradient-rule deltas genuinely different
        res = run_reparametrisation(
            ExperimentConfig("reparametrisation", n=500, replicates=20, base_seed=61)
        )
        assert res.aggregates["max_log_delta_gap"] <= 1e-10
        assert res.aggregates["min_hyvarinen_divergence"] > 1e-6
        assert res.passed


def test_criterion_7_decision_induced_propriety(criterion_line):
    with criterion_line("criterion 7: decision-induced propriety"):
        rng = stream(707, 0)
        for trial in range(20):
            n_states = 2 + trial % 2
            n_actions = int(rng.integers(2, 6))
            loss = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
            dp = DecisionProblem(range(n_states), range(n_actions), loss)
            grid = simplex_grid(n_states, 0.1)
            report = check_propriety(
                lambda x, q: score_from_decision_problem(dp, q, x).value,
                grid,
                states=list(range(n_states)),
            )
            assert report.is_proper, (trial, report.violations[:3])
            assert report.n_distributions == len(grid)

        # the linear score is improper: overstating the mode pays
        linear = check_propriety(lambda x, q: -q[int(x)], simplex_grid(3, 0.1))
        assert len(linear.violations) >= 1


def test_criterion_8_improper_prior_viability(criterion_line):
    with criterion_line("criterion 8: improper-prior viability"):
        data = stream(808, 0).standard_normal(60)
        flat = flat_prior_location_model(1.0)
        fixed = iid_gaussian_model(0.0, 1.0)

        trace = delta_trace(flat, fixed, data, "hyvarinen")
        assert trace.scores_a[0] == 0.0  # first summand exactly zero
        assert np.all(np.isfinite(trace.scores_a))
        assert np.all(np.isfinite(trace.per_step))
        assert len(trace) == 60

        with pytest.raises(ImproperPredictive, match="observation 1"):
            delta_trace(flat, fixed, data, "log")


def test_criterion_9_cli_reproducibility(criterion_line, tmp_path, cli_env):
    with criterion_line("criterion 9: CLI reproducibility"):
        def run(out):
            cmd = [
                sys.executable, "-m", "preqscore",
                "experiment", "consistency",
                "--n", "400", "--reps", "5", "--seed", "5", "--keep-reps",
                "--out", str(out),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
            assert proc.returncode == 0, proc.stderr
            return proc

        run(tmp_path / "one")
        run(tmp_path / "two")
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
        assert "trace.csv" in names and "summary.json" in names and "rep_4.csv" in names
        for name in names:
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, name
            assert a

        summary = json.loads((tmp_path / "one" / "summary.json").read_text())
        assert summary["passed"] is True
