"""Experiment harness checks: determinism, order independence, dual-route scoring."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from preqscore import (
    EmptyTrace,
    Experiment,
    ExperimentConfig,
    IndexOutOfRange,
    NonFiniteValue,
    NonPositiveScale,
    affine_transform,
    delta_trace,
    expected_hyvarinen_delta,
    expected_log_delta,
    iid_gaussian_model,
    replicate_data,
    replicate_trace,
    run_experiment,
    trace_csv_text,
)
from preqscore.experiments import (
    aggregates_for,
    run_consistency,
    run_mean_linkage,
    run_multi_model,
    run_outlier_locality,
    run_reparametrisation,
    run_unit_change,
    run_variance_expectation,
)
from preqscore.scores import GaussianPredictive, _gaussian_hyvarinen_score, _gaussian_log_score


def cfg(name, **kw):
    return ExperimentConfig(experiment=name, **kw)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_accepts_experiment_names():
    c = cfg("multi-model")
    assert c.experiment is Experiment.MULTI_MODEL
    assert c.tau_p2 == 2.0  # xi * tau_q2 with the defaults


@pytest.mark.parametrize(
    "kw",
    [
        dict(n=0),
        dict(replicates=0),
        dict(xi=0.0),
        dict(tau_q2=-1.0),
        dict(cutoff=math.inf),
        dict(truth="R"),
        dict(outlier_models="ma"),
        dict(n_grid=(10, 5)),
        dict(n_grid=(0, 5)),
        dict(n_grid=(5, 5000)),
        dict(min_frequency=0.0),
        dict(min_frequency=1.5),
        dict(base_seed=-1),
        dict(base_seed=2**64),
        dict(base_seed=1.5),
        dict(xi=1e300),
        dict(xi=1e-300),
        dict(tau_q2=1e160),
        dict(tau_q2=1e-170),
        dict(unit_scale=1e200),
        dict(unit_scale=1e-200),
        dict(outlier_magnitude=math.nan),
        dict(outlier_magnitude=math.inf),
        dict(outlier_index=20.0),
        dict(outlier_index=True),
        dict(n=True),
        dict(n=60.0),
        dict(replicates=True),
        dict(replicates=2.0),
    ],
)
def test_config_validation(kw):
    (field,) = kw
    with pytest.raises(ValueError, match=field):
        cfg("variance-expectation", **kw)


def test_config_rejects_nonpositive_unit_scale():
    with pytest.raises(NonPositiveScale):
        cfg("unit-change", unit_scale=0.0)


def test_resolved_n_grid():
    assert cfg("consistency", n=1000).resolved_n_grid() == (10, 100, 1000)
    assert cfg("consistency", n=50).resolved_n_grid() == (1, 5, 50)
    assert cfg("consistency", n=1).resolved_n_grid() == (1,)
    assert cfg("consistency", n=100, n_grid=(2, 60)).resolved_n_grid() == (2, 60)


def test_resolved_min_frequency_thresholds():
    assert cfg("consistency", n=5000, replicates=500).resolved_min_frequency() == 0.99
    assert cfg("consistency", n=5000, replicates=100).resolved_min_frequency() == 0.5
    assert cfg("multi-model", n=2000, replicates=500).resolved_min_frequency() == 0.95
    assert cfg("multi-model", n=100, replicates=10).resolved_min_frequency() == 0.5
    assert cfg("consistency", min_frequency=0.7).resolved_min_frequency() == 0.7
    for e in Experiment:
        if e not in (Experiment.CONSISTENCY, Experiment.MULTI_MODEL):
            assert cfg(e.value, n=5000, replicates=500).resolved_min_frequency() == 0.5


def test_config_to_dict_is_json_safe():
    d = cfg("consistency", n_grid=(5, 10), n=10).to_dict()
    assert d["experiment"] == "consistency"
    assert d["n_grid"] == [5, 10]
    assert isinstance(d["xi"], float)


def test_config_stores_a_numpy_seed_as_an_int():
    config = cfg("consistency", base_seed=np.int64(3))
    assert type(config.base_seed) is int
    assert json.loads(json.dumps(config.to_dict()))["base_seed"] == 3


# ---------------------------------------------------------------------------
# Theory values
# ---------------------------------------------------------------------------


def test_expected_deltas_known_values():
    assert expected_log_delta(1.0) == 0.0
    assert expected_hyvarinen_delta(1.0, 3.7) == 0.0
    assert expected_log_delta(2.0) == 0.5 * (1.0 - math.log(2.0))
    assert expected_hyvarinen_delta(2.0, 1.0) == 0.5
    assert expected_hyvarinen_delta(4.0, 2.0) == 1.125


@given(st.floats(min_value=0.01, max_value=100.0))
def test_expected_deltas_positive_off_unity(xi):
    assume(abs(xi - 1.0) > 1e-6)
    assert expected_log_delta(xi) > 0.0
    assert expected_hyvarinen_delta(xi, 1.0) > 0.0


# ---------------------------------------------------------------------------
# Data and dual-route scoring
# ---------------------------------------------------------------------------


def test_replicate_data_is_deterministic_and_keyed_by_replicate():
    c = cfg("variance-expectation", n=64, base_seed=5)
    np.testing.assert_array_equal(replicate_data(c, 3), replicate_data(c, 3))
    assert not np.array_equal(replicate_data(c, 3), replicate_data(c, 4))
    assert not np.array_equal(
        replicate_data(c, 3), replicate_data(cfg("variance-expectation", n=64, base_seed=6), 3)
    )


def test_vectorized_scores_match_scalar_trace():
    # The kernels score whole arrays, as the fold's array scorer does; the
    # scalar scorer takes one observation at a time.  Same operations, same
    # rounding, identical bits.  n=2000 at seed 0 holds steps where a float's
    # ``** 2`` (libm pow) and an array's square round differently.
    for n, seed in ((100, 2), (2000, 0)):
        c = cfg("variance-expectation", n=n, base_seed=seed)
        x = replicate_data(c, 0)
        pair = (iid_gaussian_model(0.0, c.tau_p2), iid_gaussian_model(0.0, c.tau_q2))
        for rule, scorer in (("log", _gaussian_log_score), ("hyvarinen", _gaussian_hyvarinen_score)):
            q, p = GaussianPredictive(0.0, c.tau_q2), GaussianPredictive(0.0, c.tau_p2)
            vec = scorer(x, q) - scorer(x, p)
            scalar = [scorer(v, q) - scorer(v, p) for v in x.tolist()]
            tr = delta_trace(*pair, x, rule)
            np.testing.assert_array_equal(vec, scalar)
            np.testing.assert_array_equal(vec, tr.per_step)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def test_variance_expectation_small_run_passes():
    res = run_variance_expectation(cfg("variance-expectation", n=4000, replicates=8, base_seed=1))
    assert res.passed
    agg = res.aggregates
    assert agg["mean_delta_log"] == pytest.approx(agg["theory_log"], abs=4 * agg["se_log"])
    assert agg["selection_frequency_log"] > 0.5
    assert agg["n_total"] == 4000 * 8
    assert {"replicate", "seed", "n", "d_n_log", "chosen_hyvarinen"} <= set(res.records[0])


def test_variance_expectation_degenerate_ratio_gives_exact_zero():
    res = run_variance_expectation(cfg("variance-expectation", xi=1.0, n=50, replicates=3))
    assert res.aggregates["mean_delta_log"] == 0.0
    assert res.aggregates["se_hyvarinen"] == 0.0
    assert res.aggregates["selection_frequency_log"] == 0.5  # every replicate ties
    assert res.passed


def test_overflowing_squared_deltas_raise_named_errors():
    # the suite turns numpy's overflow warning into an error, so none may be emitted
    with pytest.raises(NonFiniteValue, match=r"^se_log is not finite: "):
        run_variance_expectation(cfg("variance-expectation", xi=1e170, tau_q2=1e-120, n=20, replicates=2))
    # finite per-replicate sums whose pooled reduction overflows
    res = run_variance_expectation(cfg("variance-expectation", n=20, replicates=2))
    for key, value in (("sum_sq_delta_log", 1.5e308), ("d_n_hyvarinen", 1e200)):
        records = [dict(rec, **{key: value}) for rec in res.records]
        rule = key.rsplit("_", 1)[1]
        with pytest.raises(NonFiniteValue, match=f"^se_{rule} is not finite"):
            aggregates_for(res.config, records)


@pytest.mark.parametrize(
    "runner, name",
    [
        (run_variance_expectation, "variance-expectation"),
        (run_consistency, "consistency"),
        (run_unit_change, "unit-change"),
        (run_reparametrisation, "reparametrisation"),
    ],
)
def test_an_overflowing_d_n_names_its_replicate(runner, name):
    config = cfg(name, xi=1e157, tau_q2=1e-150, n=50, replicates=2)
    with pytest.raises(NonFiniteValue, match=r"^replicate 0: a sum of score differences overflows$") as info:
        runner(config)
    assert info.value.index is None


@pytest.mark.parametrize("experiment", list(Experiment))
def test_aggregating_no_records_is_a_named_error(experiment):
    with pytest.raises(EmptyTrace, match=f"^no replicate records to aggregate for '{experiment.value}'$"):
        aggregates_for(cfg(experiment), [])


def test_aggregates_are_order_independent():
    res = run_variance_expectation(cfg("variance-expectation", n=200, replicates=7, base_seed=3))
    shuffled = res.records.copy()
    random.Random(0).shuffle(shuffled)
    assert aggregates_for(res.config, shuffled) == res.aggregates

    res2 = run_consistency(cfg("consistency", n=200, replicates=7, base_seed=3))
    shuffled2 = list(reversed(res2.records))
    assert aggregates_for(res2.config, shuffled2) == res2.aggregates


def test_runs_are_repeatable():
    c = cfg("mean-linkage", n=150, replicates=5, base_seed=9)
    assert run_mean_linkage(c).records == run_mean_linkage(c).records


def test_mean_linkage_small_run():
    res = run_mean_linkage(cfg("mean-linkage", n=500, replicates=6, tau_q2=0.25))
    assert res.passed
    assert res.aggregates["ratio"] == 8.0
    assert res.aggregates["max_linkage_gap"] <= 1e-12
    assert res.aggregates["selections_agree_frequency"] == 1.0


def test_consistency_small_run_both_truths():
    for truth in ("P", "Q"):
        res = run_consistency(cfg("consistency", n=800, replicates=40, truth=truth, base_seed=4))
        assert res.passed, res.assertions
        freq = res.aggregates["frequency"]
        last = str(res.aggregates["n_grid"][-1])
        assert freq["log"][last] >= 0.5
        assert freq["hyvarinen"][last] >= 0.5


def test_consistency_tied_models_count_half():
    res = run_consistency(cfg("consistency", xi=1.0, n=100, replicates=4))
    for rule in ("log", "hyvarinen"):
        for f in res.aggregates["frequency"][rule].values():
            assert f == 0.5
    assert res.passed


def test_outlier_locality_markov_and_iid_footprints():
    res = run_outlier_locality(
        cfg("outlier-locality", n=80, replicates=3, outlier_index=30, base_seed=6)
    )
    assert res.passed
    assert res.aggregates["expected_changed"] == [30, 31]
    assert res.records[0]["changed_log"] == [30, 31]
    assert res.aggregates["mean_abs_shift_hyvarinen"] > 0.0

    res_iid = run_outlier_locality(
        cfg("outlier-locality", n=80, replicates=3, outlier_index=30, outlier_models="iid")
    )
    assert res_iid.passed
    assert res_iid.aggregates["expected_changed"] == [30]


def test_outlier_of_zero_magnitude_changes_nothing():
    res = run_outlier_locality(
        cfg("outlier-locality", n=40, replicates=2, outlier_index=10, outlier_magnitude=0.0)
    )
    assert res.aggregates["expected_changed"] == []
    assert res.passed


def test_outlier_index_bounds():
    with pytest.raises(IndexOutOfRange):
        run_outlier_locality(cfg("outlier-locality", n=40, replicates=1, outlier_index=0))
    with pytest.raises(IndexOutOfRange):
        run_outlier_locality(cfg("outlier-locality", n=40, replicates=1, outlier_index=40))


def test_unit_change_identity_scale_is_exact():
    res = run_unit_change(cfg("unit-change", n=120, replicates=4, unit_scale=1.0))
    assert res.aggregates["max_hyvarinen_scale_gap"] == 0.0
    assert res.aggregates["max_log_delta_gap"] == 0.0
    assert res.aggregates["selections_identical_frequency"] == 1.0


def test_unit_change_small_run():
    res = run_unit_change(cfg("unit-change", n=400, replicates=5, unit_scale=10.0))
    assert res.passed, res.assertions


def test_reparametrisation_default_transform():
    res = run_reparametrisation(cfg("reparametrisation", n=300, replicates=4))
    assert res.passed, res.assertions
    assert res.aggregates["transform"] == "cubic_plus_linear"
    assert res.aggregates["max_log_delta_gap"] <= 1e-10
    assert res.aggregates["min_hyvarinen_divergence"] > 1e-6


def test_reparametrisation_log_invariance_holds_at_a_tiny_scale():
    # At tau_q2 = 1e-100 the data are near 1e-50, far below the 1e-17 absolute error
    # of the cubic's Cardano inverse, which would move the log-score deltas by 5.2.
    res = run_reparametrisation(cfg("reparametrisation", n=200, replicates=5, tau_q2=1e-100))
    assert res.aggregates["max_log_delta_gap"] <= 1e-10
    assert res.assertions["log_deltas_invariant"]


def test_reparametrisation_affine_behaves_like_unit_change():
    res = run_reparametrisation(
        cfg("reparametrisation", n=200, replicates=3), transform=affine_transform(2.0)
    )
    # log-score differences still cancel the Jacobian; the gradient rule
    # rescales by 1/4, which registers as a genuine difference.
    assert res.assertions["log_deltas_invariant"]
    assert res.assertions["hyvarinen_deltas_differ"]


def test_reparametrisation_identity_transform_cannot_differ():
    res = run_reparametrisation(
        cfg("reparametrisation", n=100, replicates=2), transform=affine_transform(1.0)
    )
    assert res.assertions["log_deltas_invariant"]
    assert not res.assertions["hyvarinen_deltas_differ"]
    assert res.aggregates["min_hyvarinen_divergence"] == 0.0


def test_multi_model_small_run():
    res = run_multi_model(cfg("multi-model", n=1500, replicates=12, base_seed=8))
    assert res.passed, res.assertions
    assert res.aggregates["true_model"] == "iidnorm(0.0,1.0)"
    assert res.aggregates["candidates"][0] == "iidnorm(0.0,0.25)"
    assert res.records[0]["chosen_log"] in res.aggregates["candidates"]


def test_multi_model_totals_agree_with_select_among():
    from preqscore import select_among
    from preqscore.experiments import _multi_model_candidates

    c = cfg("multi-model", n=60, replicates=1, base_seed=12)
    res = run_multi_model(c)
    x = replicate_data(c, 0)
    for rule in ("log", "hyvarinen"):
        assert res.records[0][f"chosen_{rule}"] == select_among(_multi_model_candidates(c), x, rule)


def test_run_experiment_dispatches_every_kind():
    small = {
        Experiment.VARIANCE_EXPECTATION: dict(n=40, replicates=2),
        Experiment.MEAN_LINKAGE: dict(n=40, replicates=2),
        Experiment.CONSISTENCY: dict(n=40, replicates=2),
        Experiment.OUTLIER_LOCALITY: dict(n=40, replicates=2, outlier_index=10),
        Experiment.UNIT_CHANGE: dict(n=40, replicates=2),
        Experiment.REPARAMETRISATION: dict(n=40, replicates=2),
        Experiment.MULTI_MODEL: dict(n=40, replicates=2),
    }
    for e, kw in small.items():
        res = run_experiment(cfg(e.value, **kw))
        assert res.config.experiment is e
        assert len(res.records) == 2
        assert set(res.assertions)  # every experiment asserts something


def test_runner_rejects_mismatched_config():
    with pytest.raises(ValueError):
        run_variance_expectation(cfg("mean-linkage"))


def test_replicate_trace_is_deterministic():
    c = cfg("outlier-locality", n=60, replicates=1, outlier_index=20)
    a = trace_csv_text(replicate_trace(c, 0))
    b = trace_csv_text(replicate_trace(c, 0))
    assert a == b
    assert trace_csv_text(replicate_trace(c, 1)) != a


def test_replicate_trace_uses_contaminated_series():
    c = cfg("outlier-locality", n=30, replicates=1, outlier_index=10, outlier_magnitude=100.0)
    tr = replicate_trace(c, 0)
    clean = replicate_data(c, 0)
    assert tr.data[9] == pytest.approx(clean[9] + 100.0)
    np.testing.assert_array_equal(tr.data[:9], clean[:9])
