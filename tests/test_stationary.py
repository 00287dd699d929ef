"""Prediction recursion checks against dense Cholesky/Schur oracles."""

import collections
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preqscore import (
    NonFiniteValue,
    NonPositiveVariance,
    NonStationary,
    NotPositiveDefinite,
    ar_process,
    arma_process,
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

from oracles import conditional_gaussian_oracle, gaussian_process_log_total, innovations_loop

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


def test_innovations_pass_rejects_an_arma_part_that_contradicts_the_autocovariances():
    # |gamma(1)| > gamma(0): no covariance matrix, so the second innovation variance is negative
    bad = StationaryProcessSpec(
        0.0, lambda k: 1.0 if k == 0 else 5.0 if k == 1 else 0.0, label="bad-ma", arma=((), (0.9,), 1.0)
    )
    with pytest.raises(NotPositiveDefinite) as info:
        sample_path(bad, 5, 1)
    assert info.value.dimension == 2
    with pytest.raises(NotPositiveDefinite, match=r"\(model 'bad-ma', observation 2\)$"):
        delta_trace(process_model(bad), iid_gaussian_model(0.0, 1.0), [0.1, 0.2, 0.3], "log")


def test_durbin_levinson_input_validation():
    with pytest.raises(ValueError):
        durbin_levinson(white_noise(1.0), 0)
    with pytest.raises(ValueError):
        white_noise(1.0).gamma(-1)


def test_sample_path_length_validation():
    with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
        sample_path(ar_process([0.5], 1.0), -1, 0)
    assert sample_path(ar_process([0.5], 1.0), 0, 0).shape == (0,)


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
    with pytest.raises(NonStationary, match="kappa_2"):
        arma_process([0.5, 1.0], [0.4], 1.0)
    overflow = r"^autocovariances gamma\(0\), \.\.\., gamma\(1\) of process .* overflow$"
    for build in (lambda: ma_process([1e200], 1.0), lambda: arma_process([0.5], [1e200], 1.0)):
        with pytest.raises(NonFiniteValue, match=overflow):
            build()


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
    assert arma_process([0.5], [0.4, 0.3], 2.0).label == "arma(0.5;0.4,0.3;2.0)"
    assert arma_process([], [0.4], 2.0).label == "ma(0.4;2.0)"


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
        (ma_process([0.4, 0.3], 1.0, mean=0.5), "49072e9aa1295b083b49f391c8dbf9fc7965177bb57b8989cb5816a091ce40e0"),
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


@pytest.mark.parametrize(
    "spec, lags",
    [
        (ar_process([0.5], 1.0), [0]),
        (ar_process([0.4, -0.2, 0.1], 1.0), [0, 1, 2]),
        (ma_process([0.4, 0.3], 1.0), [0, 1, 2]),
        (arma_process([0.5, -0.3], [0.4], 1.2), [0, 1]),
        (arma_process([0.5], [0.4, 0.2], 1.2), [0, 1, 2]),
        (white_noise(1.5), []),
    ],
    ids=["ar1", "ar3", "ma2", "arma21", "arma12", "white"],
)
def test_innovations_pass_reads_only_the_lags_it_uses(spec, lags):
    # gamma(0..max(p,q)-1) seed the first steps, and gamma(q) too when q >= p;
    # an AR(p) pass reads gamma(0..p-1) and nothing else.
    calls = []

    def autocov(k):
        calls.append(k)
        return spec.gamma(k)

    counted = StationaryProcessSpec(spec.mean, autocov, label="counted", arma=spec.arma)
    x = sample_path(spec, 30, seed=6)
    fold = [(q.mean, q.variance) for q in process_model(counted).predictives(x)]
    assert calls == lags
    assert fold == [(q.mean, q.variance) for q in process_model(spec).predictives(x)]


# ---------------------------------------------------------------------------
# The fold over a series
# ---------------------------------------------------------------------------

# Spec and the number of first steps that equal the Durbin-Levinson recursion bit for bit
# (None: all).  Only a user autocovariance runs that recursion; every ARMA spec, AR
# included, runs the innovations algorithm, whose first p steps of ar2 still equal it.
FOLD_SPECS = {
    "ar2": (ar_process([0.5, -0.2], 1.0, mean=0.4), 2),
    "ar3": (ar_process([0.4, -0.2, 0.1], 1.0, mean=0.4), 0),
    "ma2": (ma_process([0.4, 0.3], 1.0, mean=0.5), 0),
    "arma21": (arma_process([0.5, -0.3], [0.4], 1.2, mean=-0.3), 0),
    "ma2-autocov": (StationaryProcessSpec(0.5, ma_process([0.4, 0.3], 1.0).gamma, label="ma2-autocov"), None),
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


INNOVATIONS_SPECS = {
    "ma1": ma_process([0.4], 1.0, mean=0.5),
    "ma2": ma_process([0.4, 0.3], 2.0),
    "ma3": ma_process([0.5, -0.2, 0.1], 1.3, mean=-1.0),
    "arma11": arma_process([0.5], [0.4], 1.0, mean=2.0),
    "arma21": arma_process([0.5, -0.3], [0.4], 1.5),
    "ar3": ar_process([0.4, -0.2, 0.1], 1.3, mean=0.5),
    "ar4": ar_process([0.5, -0.3, 0.2, -0.1], 0.8),
}


def _weights(model, i):
    """Prediction weights of X_i on x_1..x_{i-1} (history order), read off the
    pass by linearity: the centered mean given the j-th unit history."""
    mean = model.spec.mean
    return np.array([model.predictive_at(mean + np.eye(i - 1)[j]).mean - mean for j in range(i - 1)])


@pytest.mark.parametrize("name", sorted(INNOVATIONS_SPECS))
def test_innovations_match_dense_oracle(name):
    spec = INNOVATIONS_SPECS[name]
    model = process_model(spec)
    x = sample_path(spec, 500, seed=5)
    fold = list(model.predictives(x))
    gammas = [spec.gamma(k) for k in range(500)]
    for i in [1, 2, 3, 4, 5, 10, 40, 200, 500]:
        coef, var = conditional_gaussian_oracle(gammas.__getitem__, i)
        q = fold[i - 1]
        assert abs(q.variance - var) <= 1e-12 * var
        terms = coef * (x[: i - 1] - spec.mean)
        assert abs(q.mean - (spec.mean + terms.sum())) <= 1e-12 * (abs(spec.mean) + np.abs(terms).sum())
        if i <= 40:
            np.testing.assert_allclose(_weights(model, i), coef, rtol=1e-12, atol=1e-12 * np.abs(coef).max(initial=0.0))


@pytest.mark.parametrize("name", sorted(INNOVATIONS_SPECS))
def test_innovations_variance_decreases_to_innovation_variance(name):
    spec = INNOVATIONS_SPECS[name]
    s2 = spec.arma[2]
    v = [q.variance for q in process_model(spec).predictives(np.zeros(400))]
    assert all(b <= a * (1 + 4e-16) for a, b in zip(v, v[1:]))  # non-increasing up to rounding
    assert v[0] > v[1] > s2
    assert abs(v[-1] - s2) <= 1e-14 * s2


def test_innovations_pass_memory_does_not_grow_with_n():
    x = stream(4, 0).standard_normal(10**4)
    model = process_model(ma_process([0.4], 1.0))
    peaks = []
    for n in (10**3, 10**4):
        tracemalloc.start()
        try:
            collections.deque(model.predictives(x[:n]), maxlen=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 512
    assert peaks[1] < 64e3


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


# ---------------------------------------------------------------------------
# The innovations steady state
# ---------------------------------------------------------------------------

# The rows and v do not depend on the data; they are fixed from step 21, 42, 157, 1431,
# never, never, 44 and 0 respectively, so n = 2000 passes every switch.
STEADY_SPECS = {
    "ma(0.4)": ma_process([0.4], 1.0),
    "ma(0.4,0.3,0.2)": ma_process([0.4, 0.3, 0.2], 1.0),
    "ma(0.9)": ma_process([0.9], 1.0),
    "ma(0.99)": ma_process([0.99], 1.0),
    "ma(1.0)": ma_process([1.0], 1.0),
    "ma(-1.0)": ma_process([-1.0], 1.0),
    "arma23": arma_process([0.5, -0.3], [0.4, 0.2, -0.1], 1.2, mean=-0.7),
    "white": white_noise(1.5, mean=0.2),
}


def _moments_bits(moments):
    return np.array([(q.mean, q.variance) for q in moments]).view(np.int64)


@pytest.mark.parametrize("name", sorted(STEADY_SPECS))
def test_steady_state_pass_equals_the_full_innovations_loop_bitwise(name):
    spec = STEADY_SPECS[name]
    x = spec.mean + stream(12, 0).standard_normal(2000)
    want = np.array(list(innovations_loop(spec, x))).view(np.int64)
    np.testing.assert_array_equal(_moments_bits(process_model(spec).predictives(x)), want)


def _stationary_ar(kappas):
    """AR coefficients with the given partial autocorrelations (the step-up recursion)."""
    phis = []
    for k, kappa in enumerate(kappas):
        phis = [phis[j] - kappa * phis[k - 1 - j] for j in range(k)] + [kappa]
    return phis


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-0.9, 0.9), max_size=2),
    st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=3),
    st.floats(0.1, 10.0),
    st.integers(0, 2**32),
)
def test_steady_state_pass_equals_the_full_loop_on_random_arma(kappas, thetas, s2, seed):
    spec = arma_process(_stationary_ar(kappas), thetas, s2, mean=0.3)
    x = sample_path(spec, 600, seed=seed)
    want = np.array(list(innovations_loop(spec, x))).view(np.int64)
    np.testing.assert_array_equal(_moments_bits(process_model(spec).predictives(x)), want)


# ---------------------------------------------------------------------------
# The chain rule: the log total is the dense Gaussian likelihood
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    phis=st.lists(st.floats(-0.49, 0.49), max_size=2),
    thetas=st.lists(st.floats(-0.6, 0.6), max_size=2),
    s2=st.floats(0.5, 2.0),
    mean=st.floats(-3.0, 3.0),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32),
)
def test_process_log_total_is_minus_the_dense_log_likelihood(phis, thetas, s2, mean, n, seed):
    # AR, MA, ARMA and white noise: the prequential log scores, row by row from the
    # fold, add up to minus the log joint density (|phi_1| + |phi_2| <= 0.98 keeps AR stationary;
    # [0.5, 0.5] has a unit root and rightly raises NonStationary).
    spec = arma_process(phis, thetas, s2, mean)
    x = sample_path(spec, n, seed=seed)
    scores = delta_trace(process_model(spec), iid_gaussian_model(0.0, 1.0), x, "log").scores_a
    want = gaussian_process_log_total(spec.gamma, mean, x)
    assert abs(math.fsum(scores) - want) <= 1e-12 * abs(want)
