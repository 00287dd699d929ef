"""Prediction recursion checks against dense Cholesky/Schur oracles."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from preqscore import (
    NonFiniteValue,
    NonPositiveVariance,
    NonStationary,
    NotPositiveDefinite,
    ar_process,
    delta_trace,
    durbin_levinson,
    iid_gaussian_model,
    ma_process,
    process_model,
    sample_path,
    stream,
    white_noise,
)
from preqscore.stationary import Ar1MarkovModel, StationaryProcessSpec

from oracles import conditional_gaussian_oracle

AR_CASES = [(0.5,), (0.5, -0.3), (0.4, -0.2, 0.1)]


def test_ar1_yule_walker_values():
    spec = ar_process([0.5], 1.0)
    assert spec.gamma(0) == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert spec.gamma(1) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert spec.gamma(3) == pytest.approx(4.0 / 3.0 * 0.125, rel=1e-13)


def test_ma1_autocovariances():
    spec = ma_process([0.5], 1.0)
    assert spec.gamma(0) == 1.25
    assert spec.gamma(1) == 0.5
    assert spec.gamma(2) == 0.0
    assert spec.gamma(17) == 0.0


def test_ar1_recursion_closed_form():
    states = durbin_levinson(ar_process([0.5], 1.0), 5)
    assert states[0].conditional_variance == pytest.approx(4.0 / 3.0, rel=1e-14)
    for st in states[1:]:
        assert st.conditional_variance == pytest.approx(1.0, rel=1e-14)
        # only the most recent observation carries weight
        assert st.coefficients[-1] == pytest.approx(0.5, rel=1e-14)
        np.testing.assert_allclose(st.coefficients[:-1], 0.0, atol=1e-15)


def test_ma1_first_step_variance():
    states = durbin_levinson(ma_process([0.5], 1.0), 3)
    assert states[0].conditional_variance == 1.25
    assert states[1].conditional_variance == pytest.approx(1.25 - 0.25 / 1.25, rel=1e-14)


@pytest.mark.parametrize("phis", AR_CASES, ids=["ar1", "ar2", "ar3"])
def test_ar_recursion_matches_dense_oracle(phis):
    spec = ar_process(phis, 1.3)
    states = durbin_levinson(spec, 50)
    for i in [1, 2, 3, 5, 10, 50]:
        coef, var = conditional_gaussian_oracle(spec.gamma, i)
        st = states[i - 1]
        assert st.conditional_variance == pytest.approx(var, rel=1e-10)
        np.testing.assert_allclose(st.coefficients, coef, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize(
    "spec",
    [ma_process([0.5], 1.0), ma_process([0.4, 0.3], 2.0)],
    ids=["ma1", "ma2"],
)
def test_ma_recursion_matches_dense_oracle(spec):
    states = durbin_levinson(spec, 40)
    for i in [1, 2, 7, 40]:
        coef, var = conditional_gaussian_oracle(spec.gamma, i)
        st = states[i - 1]
        assert st.conditional_variance == pytest.approx(var, rel=1e-10)
        np.testing.assert_allclose(st.coefficients, coef, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("phis", AR_CASES, ids=["ar1", "ar2", "ar3"])
def test_ar_conditional_variance_constant_beyond_order(phis):
    p = len(phis)
    states = durbin_levinson(ar_process(phis, 1.0), 60)
    settled = states[p].conditional_variance
    for st in states[p:]:
        assert abs(st.conditional_variance - settled) <= 1e-10 * settled


def test_ma_conditional_variance_decreases_to_innovation_variance():
    states = durbin_levinson(ma_process([0.5], 2.0), 500)
    v = [st.conditional_variance for st in states]
    assert all(b <= a for a, b in zip(v, v[1:]))
    assert v[0] > v[10] > 2.0
    assert abs(v[-1] - 2.0) <= 1e-6 * 2.0


def test_white_noise_recursion_is_trivial():
    states = durbin_levinson(white_noise(3.0), 4)
    for st in states:
        assert st.conditional_variance == 3.0
        np.testing.assert_array_equal(st.coefficients, np.zeros(st.step - 1))


def test_conditional_mean_helper():
    st = durbin_levinson(ar_process([0.5], 1.0), 2)[1]
    assert st.conditional_mean([3.0]) == pytest.approx(1.5, rel=1e-14)
    assert st.conditional_mean([3.0], process_mean=1.0) == pytest.approx(2.0, rel=1e-13)
    with pytest.raises(ValueError):
        st.conditional_mean([1.0, 2.0])


def test_not_positive_definite_reports_failing_dimension():
    bad_corr = StationaryProcessSpec(0.0, lambda k: 1.0 if k == 0 else 2.0, label="bad")
    with pytest.raises(NotPositiveDefinite) as info:
        durbin_levinson(bad_corr, 5)
    assert info.value.dimension == 2

    bad_zero = StationaryProcessSpec(0.0, lambda k: 0.0, label="zero")
    with pytest.raises(NotPositiveDefinite) as info:
        durbin_levinson(bad_zero, 3)
    assert info.value.dimension == 1


def test_durbin_levinson_input_validation():
    with pytest.raises(ValueError):
        durbin_levinson(white_noise(1.0), 0)
    with pytest.raises(ValueError):
        white_noise(1.0).gamma(-1)


def test_process_validation():
    with pytest.raises(NonStationary):
        ar_process([1.0], 1.0)
    with pytest.raises(NonStationary):
        ar_process([0.5, 0.5], 1.0)
    with pytest.raises(NonStationary):
        ar_process([0.5, math.nan], 1.0)
    with pytest.raises(NonPositiveVariance):
        ar_process([0.5], 0.0)
    with pytest.raises(NonPositiveVariance):
        ma_process([0.5], -1.0)
    with pytest.raises(NonPositiveVariance):
        white_noise(0.0)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: ar_process([0.5], math.inf), "innovation_variance"),
        (lambda: ar_process([0.5], math.nan), "innovation_variance"),
        (lambda: ar_process([0.5], 1.0, mean=math.nan), "mean"),
        (lambda: ma_process([0.4], math.inf), "innovation_variance"),
        (lambda: ma_process([math.inf], 1.0), "MA coefficients"),
        (lambda: ma_process([0.4], 1.0, mean=-math.inf), "mean"),
        (lambda: white_noise(math.inf), "variance"),
        (lambda: white_noise(1.0, mean=math.nan), "mean"),
    ],
)
def test_non_finite_process_parameters_are_rejected_when_built(build, name):
    with pytest.raises(NonFiniteValue, match=f"^{name} must be finite") as info:
        build()
    assert info.value.index is None


@pytest.mark.parametrize(
    "phis, k",
    [([1.0], 1), ([0.5, 0.5], 1), ([1.2], 1), ([0.0, 0.0, 1.0], 3), ([0.9999999999999], 1)],
    ids=["unit", "unit-ar2", "explosive", "unit-ar3", "inside-margin"],
)
def test_non_stationary_ar_names_the_partial_autocorrelation(phis, k):
    with pytest.raises(NonStationary, match=rf"kappa_{k} = "):
        ar_process(phis, 1.0)


def test_ar_process_accepts_a_tiny_last_coefficient():
    # A root finder reads this polynomial as one with a root at 0 and rejected it.
    spec = ar_process([0.0, 0.25, 1.975e-235], 0.8)
    assert spec.gamma(0) == pytest.approx(0.8 / (1.0 - 0.25**2), rel=1e-14)


def test_non_finite_autocovariance_is_named_and_located():
    spec = StationaryProcessSpec(0.0, lambda k: 1.0 if k == 0 else math.nan, label="nan-lag")
    with pytest.raises(NonFiniteValue, match=r"^gamma\(1\) of process 'nan-lag' is nan.*observation 2\)$"):
        delta_trace(process_model(spec), iid_gaussian_model(0.0, 1.0), [0.1, 0.2, 0.3], "log")


def test_ar_process_with_no_coefficients_is_white_noise():
    spec = ar_process([], 2.5)
    assert spec.gamma(0) == 2.5
    assert spec.gamma(1) == 0.0


def test_labels():
    assert ar_process([0.5], 1.0).label == "ar(0.5;1.0)"
    assert ma_process([0.4, 0.3], 2.0).label == "ma(0.4,0.3;2.0)"


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sample_path_is_deterministic_and_keyed():
    spec = ar_process([0.5], 1.0)
    a = sample_path(spec, 64, seed=7)
    b = sample_path(spec, 64, seed=7)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, sample_path(spec, 64, seed=8))
    assert not np.array_equal(a, sample_path(spec, 64, seed=7, substream=1))


@pytest.mark.parametrize(
    "draw, name",
    [
        (lambda: stream(-1), "seed"),
        (lambda: stream(2**64), "seed"),
        (lambda: stream(0, -1), "substream"),
        (lambda: stream(0, 2**64), "substream"),
        (lambda: sample_path(ar_process([0.5], 1.0), 8, seed=-1), "seed"),
    ],
    ids=["seed-negative", "seed-2**64", "substream-negative", "substream-2**64", "sample_path-seed-negative"],
)
def test_stream_keys_outside_64_bits_are_rejected(draw, name):
    with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 2\*\*64\)"):
        draw()


@pytest.mark.parametrize(
    "spec, digest",
    [
        (ma_process([0.4, 0.3], 1.0, mean=0.5), "4ba066f7edc3b19ccb4caad349c0374319ac0710c7dc98be71950d0ade7d55d9"),
        (ar_process([0.5, -0.2], 1.0, mean=0.5), "b2ddf86156fa0d69d5217aa790a6d96973c41f66b12c079561c78bf9573cec6e"),
    ],
    ids=["ma2", "ar2"],
)
def test_sample_path_bytes_are_pinned(spec, digest):
    assert hashlib.sha256(sample_path(spec, 300, seed=17).tobytes()).hexdigest() == digest


def test_sample_path_marginal_moments():
    spec = ar_process([0.5], 1.0, mean=2.0)
    x = sample_path(spec, 2000, seed=11)
    assert np.mean(x) == pytest.approx(2.0, abs=0.15)
    assert np.var(x) == pytest.approx(4.0 / 3.0, rel=0.15)


# ---------------------------------------------------------------------------
# Predictive model adapters
# ---------------------------------------------------------------------------


def test_process_model_predictive_values():
    m = process_model(ar_process([0.5], 1.0))
    first = m.predictive_at([])
    assert first.mean == 0.0
    assert first.variance == pytest.approx(4.0 / 3.0, rel=1e-14)
    second = m.predictive_at([3.0])
    assert second.mean == pytest.approx(1.5, rel=1e-14)
    assert second.variance == pytest.approx(1.0, rel=1e-14)


def test_ar1_markov_model_matches_recursion_adapter():
    markov = Ar1MarkovModel(0.5, 1.0, mean=2.0)
    general = process_model(ar_process([0.5], 1.0, mean=2.0))
    history = np.array([2.5, 1.0, 3.2, 2.0])
    for k in range(len(history) + 1):
        assert markov.predictive_at(history[:k]) == general.predictive_at(history[:k])


def test_ar1_markov_model_validation_and_identity():
    with pytest.raises(NonStationary):
        Ar1MarkovModel(1.0, 1.0)
    with pytest.raises(NonPositiveVariance):
        Ar1MarkovModel(0.5, 0.0)
    m = Ar1MarkovModel(0.5, 1.0)
    assert m.identifier == "ar1(0.5;1.0)"
    assert m.predictive_at([]).variance == pytest.approx(4.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("phis", AR_CASES, ids=["ar1", "ar2", "ar3"])
def test_ar_process_model_matches_dense_oracle(phis):
    mean = 2.0
    spec = ar_process(phis, 1.3, mean=mean)
    model = process_model(spec)
    x = sample_path(spec, 500, seed=5)
    gammas = [spec.gamma(k) for k in range(500)]
    for i in [1, 2, 3, 4, 5, 10, 50, 200, 500]:
        coef, var = conditional_gaussian_oracle(gammas.__getitem__, i)
        q = model.predictive_at(x[: i - 1])
        assert q.variance == pytest.approx(var, rel=1e-12)
        assert q.mean == pytest.approx(mean + float(coef @ (x[: i - 1] - mean)), rel=1e-12)


@pytest.mark.parametrize("phis", [(0.5, 0.2), (0.4, -0.2, 0.1)], ids=["ar2", "ar3"])
@pytest.mark.parametrize("rule", ["log", "hyvarinen"])
def test_ar_edit_touches_only_the_next_p_terms(phis, rule):
    p = len(phis)
    model = process_model(ar_process(phis, 1.0, mean=0.5))
    rival = iid_gaussian_model(0.0, 1.0)
    x = sample_path(ar_process(phis, 1.0, mean=0.5), 40, seed=3)
    base = delta_trace(model, rival, x, rule).scores_a
    for k in [p + 1, 17, 40 - p]:
        y = x.copy()
        y[k - 1] += 4.0
        changed = np.flatnonzero(delta_trace(model, rival, y, rule).scores_a != base) + 1
        assert changed.tolist() == list(range(k, k + p + 1))


def test_trace_evaluates_each_lag_once():
    calls = []

    def autocov(k):
        calls.append(k)
        return {0: 1.25, 1: 0.5}.get(k, 0.0)

    model = process_model(StationaryProcessSpec(0.0, autocov, label="counted-ma1"))
    delta_trace(model, iid_gaussian_model(0.0, 1.0), np.linspace(-1.0, 1.0, 30), "log")
    assert calls == list(range(30))


# ---------------------------------------------------------------------------
# The fold over a series
# ---------------------------------------------------------------------------

FOLD_SPECS = {  # spec and the number of steps served by the recursion (None: all)
    "ar2": (ar_process([0.5, -0.2], 1.0, mean=0.4), 2),
    "ma2": (ma_process([0.4, 0.3], 1.0, mean=0.5), None),
    "white": (white_noise(1.5), 0),
}


@pytest.mark.parametrize("name", sorted(FOLD_SPECS))
def test_process_fold_equals_predictive_at_and_the_recursion(name):
    spec, p = FOLD_SPECS[name]
    model = process_model(spec)
    x = sample_path(spec, 40, seed=2)
    fold = list(model.predictives(x))
    assert len(fold) == 41
    states = durbin_levinson(spec, 40)
    for i, q in enumerate(fold):
        assert q == model.predictive_at(x[:i])
        if i < 40 and (p is None or i < p):
            st = states[i]
            assert (q.mean, q.variance) == (st.conditional_mean(x[:i], spec.mean), st.conditional_variance)


def test_ma_trace_keeps_only_the_current_weights():
    model = process_model(ma_process([0.4], 1.0))
    x = stream(4, 0).standard_normal(2000)
    tracemalloc.start()
    try:
        delta_trace(model, iid_gaussian_model(0.0, 1.0), x, "log")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
