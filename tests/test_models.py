"""Predictive model checks against quadrature oracles and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from preqscore import (
    GaussianPredictive,
    ImproperPredictive,
    InsufficientHistory,
    NonFiniteValue,
    NonPositiveVariance,
    cubic_plus_linear_transform,
    delta_trace,
    flat_prior_location_model,
    flat_prior_scale_model,
    iid_gaussian_model,
    score_predictive,
)
from preqscore.models import PredictiveModel, StudentTPredictive, TransformedModel

from oracles import fd_first, fd_second, location_predictive_pdf, scale_predictive_pdf


def test_iid_model_ignores_history():
    m = iid_gaussian_model(0.5, 2.0)
    empty = m.predictive_at([])
    later = m.predictive_at([9.0, -4.0, 1.0])
    assert (empty.mean, empty.variance) == (later.mean, later.variance) == (0.5, 2.0)


def test_model_identifiers():
    assert iid_gaussian_model(0.0, 1.0).identifier == "iidnorm(0.0,1.0)"
    assert flat_prior_location_model(2.0).identifier == "flatloc(2.0)"
    assert flat_prior_scale_model(1.0).identifier == "flatscale(1.0)"
    assert iid_gaussian_model(0.0, 1.0, identifier="custom").identifier == "custom"
    assert "iidnorm" in repr(iid_gaussian_model(0.0, 1.0))


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: iid_gaussian_model(math.nan, 1.0), "mean"),
        (lambda: iid_gaussian_model(0.0, math.inf), "variance"),
        (lambda: iid_gaussian_model(-math.inf, 1.0), "mean"),
        (lambda: flat_prior_location_model(math.inf), "variance"),
        (lambda: flat_prior_location_model(math.nan), "variance"),
        (lambda: flat_prior_scale_model(math.nan), "mean"),
        (lambda: flat_prior_scale_model(math.inf), "mean"),
    ],
)
def test_non_finite_parameters_are_rejected_when_built(build, name):
    with pytest.raises(NonFiniteValue, match=f"^{name} must be finite") as info:
        build()
    assert info.value.index is None


def test_history_validation():
    m = iid_gaussian_model(0.0, 1.0)
    with pytest.raises(ValueError):
        m.predictive_at([[1.0, 2.0]])
    with pytest.raises(ValueError):
        m.predictive_at([1.0, math.nan])


# ---------------------------------------------------------------------------
# Flat prior on the mean
# ---------------------------------------------------------------------------


def test_location_model_empty_history_is_flat():
    q = flat_prior_location_model(1.0).predictive_at([])
    assert q.improper_flat
    assert score_predictive(3.7, q, "hyvarinen").value == 0.0
    with pytest.raises(ImproperPredictive):
        score_predictive(3.7, q, "log")


def test_location_model_posterior_predictive_moments():
    q = flat_prior_location_model(2.0).predictive_at([1.0, 3.0])
    assert q.mean == 2.0
    assert q.variance == 2.0 * 1.5


@pytest.mark.parametrize("x", [-1.0, 1.8, 4.2])
def test_location_predictive_matches_quadrature_oracle(x):
    # The closed-form N(xbar, v(1+1/n)) against direct integration over the
    # posterior for the mean.
    history = [0.4, 2.2, -1.1, 0.9]
    variance = 1.7
    q = flat_prior_location_model(variance).predictive_at(history)
    pdf = stats.norm.pdf(x, q.mean, math.sqrt(q.variance))
    assert pdf == pytest.approx(location_predictive_pdf(x, history, variance), rel=1e-8)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30))
def test_location_predictive_is_permutation_invariant(history):
    # Compensated summation of the sufficient statistic makes the predictive
    # bitwise identical under reordering.
    m = flat_prior_location_model(1.0)
    fwd = m.predictive_at(history)
    rev = m.predictive_at(history[::-1])
    assert fwd.mean == rev.mean
    assert fwd.variance == rev.variance


# ---------------------------------------------------------------------------
# Flat prior on the variance
# ---------------------------------------------------------------------------


def test_scale_model_empty_history_density():
    q = flat_prior_scale_model(1.0).predictive_at([])
    assert not q.proper
    assert q.smooth
    assert q.improper_error is InsufficientHistory
    for x in [-0.7, 2.5, 4.0]:
        assert q.dlogpdf(x) == pytest.approx(fd_first(q.logpdf, x), rel=1e-6)
        assert q.d2logpdf(x) == pytest.approx(fd_second(q.logpdf, x), rel=1e-4)
    # 2 d2 + d1^2 collapses to 3/(x - mean)^2
    s = score_predictive(3.0, q, "hyvarinen").value
    assert s == pytest.approx(3.0 / 4.0, rel=1e-14)
    with pytest.raises(InsufficientHistory):
        score_predictive(3.0, q, "log")


def test_scale_model_degenerate_history_raises():
    with pytest.raises(InsufficientHistory):
        flat_prior_scale_model(2.0).predictive_at([2.0, 2.0])


def test_scale_model_predictive_is_student_t():
    history = [1.5, -0.5, 2.0]
    q = flat_prior_scale_model(0.5).predictive_at(history)
    ss = sum((x - 0.5) ** 2 for x in history)
    assert isinstance(q, StudentTPredictive)
    assert q.center == 0.5
    assert q.scale == pytest.approx(math.sqrt(ss / 3.0), rel=1e-15)
    assert q.dof == 3.0


@pytest.mark.parametrize("x", [-2.0, 0.3, 1.4])
def test_scale_predictive_matches_quadrature_oracle(x):
    # Student-t closed form against integration over the variance posterior.
    history = [1.5, -0.5, 2.0, 0.1]
    mean = 0.5
    q = flat_prior_scale_model(mean).predictive_at(history)
    pdf = stats.t.pdf(x, df=q.dof, loc=q.center, scale=q.scale)
    assert pdf == pytest.approx(scale_predictive_pdf(x, history, mean), rel=1e-8)


def test_student_t_predictive_matches_scipy_logpdf():
    q = StudentTPredictive(center=0.5, scale=1.3, dof=4.0)
    d = q.density()
    for x in [-1.0, 0.5, 2.7]:
        assert d.logpdf(x) == pytest.approx(
            stats.t.logpdf(x, df=4.0, loc=0.5, scale=1.3), rel=1e-12
        )


def test_student_t_predictive_validation():
    with pytest.raises(NonPositiveVariance):
        StudentTPredictive(0.0, 0.0, 3.0)
    with pytest.raises(NonPositiveVariance):
        StudentTPredictive(0.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# Transformed models
# ---------------------------------------------------------------------------


def test_transformed_model_matches_pushforward_of_inner_predictive():
    # History enters through the inverse map: feeding g(x)-data to the
    # transformed model must reproduce the pushforward of the predictive the
    # inner model forms from the raw data.
    from preqscore import gaussian_density, pushforward_density

    t = cubic_plus_linear_transform()
    inner = flat_prior_location_model(1.0)
    wrapped = TransformedModel(inner, t)
    raw = np.array([0.3, -0.8, 1.2])
    transformed_history = np.array([t.g(x) for x in raw])
    got = wrapped.predictive_at(transformed_history)
    base = inner.predictive_at(raw)
    want = pushforward_density(gaussian_density(base.mean, base.variance), t)
    y = t.g(0.9)
    assert got.logpdf(y) == pytest.approx(want.logpdf(y), rel=1e-12)
    assert got.dlogpdf(y) == pytest.approx(want.dlogpdf(y), rel=1e-12)
    assert got.d2logpdf(y) == pytest.approx(want.d2logpdf(y), rel=1e-12)


def test_transformed_flat_prior_model_scores_under_gradient_rule_only():
    from preqscore import delta_trace

    t = cubic_plus_linear_transform()
    wrapped = TransformedModel(flat_prior_location_model(1.0), t)
    data = [t.g(v) for v in (0.3, -0.8, 1.2, 0.1)]
    trace = delta_trace(wrapped, TransformedModel(iid_gaussian_model(0.0, 1.0), t), data, "hyvarinen")
    assert np.all(np.isfinite(trace.scores_a))
    assert np.all(np.isfinite(trace.per_step))
    assert not wrapped.predictive_at([]).proper
    with pytest.raises(ImproperPredictive, match=r"observation 1\)"):
        delta_trace(wrapped, iid_gaussian_model(0.0, 1.0), data, "log")


def test_transformed_model_identifier_and_helper():
    t = cubic_plus_linear_transform()
    wrapped = TransformedModel(iid_gaussian_model(0.0, 1.0), t)
    assert wrapped.identifier == "cubic_plus_linear:iidnorm(0.0,1.0)"
    q = wrapped.predictive_at([])
    assert q.proper


def test_flat_scale_predictives_after_a_zero_then_a_nonzero_observation():
    # A fold of these models must keep the prefix [0.0, x] proper: only an all-zero history is improper.
    q = flat_prior_scale_model(0.0).predictive_at([0.0, 1.0])
    assert isinstance(q, StudentTPredictive) and q.dof == 2.0
    assert TransformedModel(flat_prior_scale_model(0.0), cubic_plus_linear_transform()).predictive_at([0.0, 2.0]).proper


# ---------------------------------------------------------------------------
# The base class fold
# ---------------------------------------------------------------------------


def test_default_fold_calls_predictive_at_on_each_prefix():
    class LastValue(PredictiveModel):
        identifier = "last-value"

        def predictive_at(self, history):
            return GaussianPredictive(float(history[-1]) if len(history) else 0.0, 1.0)

    x = np.array([0.3, -1.2, 2.0])
    assert list(LastValue().predictives(x)) == [LastValue().predictive_at(x[:i]) for i in range(4)]


def test_model_without_predictive_at_is_not_implemented():
    class Blank(PredictiveModel):
        identifier = "blank"

    with pytest.raises(NotImplementedError):
        Blank().predictive_at([])
    with pytest.raises(NotImplementedError):
        delta_trace(Blank(), iid_gaussian_model(0.0, 1.0), [0.1], "log")
