"""Predictive model checks against quadrature oracles and closed forms."""

import dataclasses
import itertools
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from preqscore import (
    FLAT_DENSITY,
    DensityWithDerivatives,
    GaussianPredictive,
    ImproperPredictive,
    InsufficientHistory,
    NonFiniteValue,
    NonPositiveVariance,
    PreqscoreError,
    affine_transform,
    cubic_plus_linear_transform,
    delta_trace,
    flat_prior_location_model,
    flat_prior_scale_model,
    iid_gaussian_model,
    pushforward_density,
    score_predictive,
    select_among,
)
from preqscore.models import PredictiveModel, StudentTPredictive, TransformedModel, _prefix_fsums, _prefix_sums

from oracles import (
    ImproperPower,
    fd_first,
    fd_second,
    flat_location_law,
    flat_location_log_total,
    flat_scale_law,
    flat_scale_log_total,
    iid_law,
    location_predictive_pdf,
    normal_log_total,
    scale_predictive_pdf,
    transformed_log_total,
)


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: iid_gaussian_model(0.0, 0.0),
        lambda: iid_gaussian_model(0.0, -1.0),
        lambda: flat_prior_location_model(0.0),
        lambda: flat_prior_location_model(-2.0),
    ],
    ids=["iidnorm-0", "iidnorm-neg", "flatloc-0", "flatloc-neg"],
)
def test_non_positive_variances_are_rejected_when_built(build):
    with pytest.raises(NonPositiveVariance, match="^variance must be positive"):
        build()


_HALF_MAX = sys.float_info.max / 2  # 2 * v overflows for every v above it


@pytest.mark.parametrize("variance", [1e308, math.nextafter(_HALF_MAX, math.inf), sys.float_info.max])
def test_flatloc_rejects_a_variance_whose_predictive_variance_overflows(variance):
    # v (1 + 1/1) at observation 2 would be inf: the pass refuses it, so the model is not built.
    with pytest.raises(NonFiniteValue, match=r"^variance \S+ overflows the predictive variance 2 \* variance$"):
        flat_prior_location_model(variance)


@pytest.mark.parametrize("variance", [8.98e307, _HALF_MAX])
def test_flatloc_with_the_largest_variances_scores_alike_on_every_route(variance):
    model, x = flat_prior_location_model(variance), np.array([1.0, 2.0, 3.0])
    want = [score_predictive(v, model.predictive_at(x[:i]), "hyvarinen").value for i, v in enumerate(x.tolist())]
    assert delta_trace(model, iid_gaussian_model(0.0, 1.0), x, "hyvarinen").scores_a.tolist() == want
    assert select_among([iid_gaussian_model(0.0, 1.0), model], x, "hyvarinen") == model.identifier


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
    m = flat_prior_location_model(1.0)
    q = m.predictive_at([])
    assert q is FLAT_DENSITY
    assert next(m.predictives(np.array([3.7]))) is FLAT_DENSITY
    assert score_predictive(3.7, q, "hyvarinen").value == 0.0
    with pytest.raises(ImproperPredictive):
        score_predictive(3.7, q, "log")
    with pytest.raises(ImproperPredictive, match=r"\(model 'flatloc\(1\.0\)', observation 1\)$"):
        delta_trace(m, iid_gaussian_model(0.0, 1.0), [3.7, 0.2], "log")


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


def _assert_improper_scale_law(mean, history):
    # Squared deviations that sum to 0 leave the posterior v^(-n/2-1) improper; the predictive
    # is then the improper law proportional to 1/|x - mean|^(n+1), by predictive_at and the pass.
    model, n = flat_prior_scale_model(mean), len(history)
    q = model.predictive_at(history)
    assert not q.proper
    assert q.smooth
    assert q.improper_error is InsufficientHistory
    *_, last = model.predictives(np.array(history))
    for x in [mean - 0.7, mean + 2.5, mean + 4.0]:
        assert _bits(last, x) == _bits(q, x)
        assert q.dlogpdf(x) == pytest.approx(fd_first(q.logpdf, x), rel=1e-6)
        assert q.d2logpdf(x) == pytest.approx(fd_second(q.logpdf, x), rel=1e-4)
        want = (n + 1) * (n + 3) / ((x - mean) * (x - mean))
        assert score_predictive(x, q, "hyvarinen").value == pytest.approx(want, rel=1e-14)
        with pytest.raises(InsufficientHistory):
            score_predictive(x, q, "log")


def test_scale_model_degenerate_history_raises():
    # Every observation equals the known mean: a law, improper, whose log score raises.
    _assert_improper_scale_law(2.0, [2.0, 2.0])


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
    for kind in ("flatscale(0.0)", "cubic_plus_linear:flatscale(0.0)", "affine(2.5,-1.0):flatscale(0.0)"):
        _assert_laws_equal_closed_form(kind, [0.0, 1.0])


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


def test_model_with_only_predictives_gets_predictive_at():
    class Running(PredictiveModel):
        identifier = "running"

        def predictives(self, x):
            for i in range(x.size + 1):
                yield GaussianPredictive(float(x[:i].sum()), 1.0)

    m = Running()
    assert m.predictive_at([]) == GaussianPredictive(0.0, 1.0)
    assert m.predictive_at([1.0, 2.5]) == GaussianPredictive(3.5, 1.0)
    with pytest.raises(NonFiniteValue, match="^observation 2 is nan"):
        m.predictive_at([1.0, math.nan])


def test_model_without_predictive_at_is_not_implemented():
    class Blank(PredictiveModel):
        identifier = "blank"

    message = "^Blank defines neither predictive_at nor predictives$"
    with pytest.raises(NotImplementedError, match=message):
        Blank().predictive_at([])
    with pytest.raises(NotImplementedError, match=message):
        delta_trace(Blank(), iid_gaussian_model(0.0, 1.0), [0.1], "log")


# ---------------------------------------------------------------------------
# Built-in folds: O(1) state per observation, bit for bit equal to predictive_at
# ---------------------------------------------------------------------------

CUBIC = cubic_plus_linear_transform()
AFFINE = affine_transform(2.5, -1.0)

# models are immutable, so one instance serves every example
FOLD_MODELS = {
    m.identifier: m
    for inner in (iid_gaussian_model(0.2, 1.5), flat_prior_location_model(0.7), flat_prior_scale_model(0.0))
    for m in (inner, TransformedModel(inner, CUBIC), TransformedModel(inner, AFFINE))
}


def _bits(q, y: float):
    """The parameters of a predictive as hex strings; a density's by its log-derivatives at ``y``."""
    if isinstance(q, GaussianPredictive):
        return (q.mean.hex(), q.variance.hex())
    if isinstance(q, StudentTPredictive):
        return (q.center.hex(), q.scale.hex(), q.dof.hex())
    out = [q.proper, q.smooth, q.improper_error]
    for f in (q.dlogpdf, q.d2logpdf):
        try:
            out.append(float(f(y)).hex())
        except ArithmeticError as e:
            out.append(type(e).__name__)
    return tuple(out)


def _predictive(law):
    """The predictive of an oracle's law: None is the flat start, a pair a normal law, a
    triple a Student-t, and an ImproperPower the law proportional to 1/|x - center|^k."""
    if law is None:
        return FLAT_DENSITY
    if isinstance(law, ImproperPower):
        c, k = law
        return DensityWithDerivatives(
            logpdf=lambda x: -k * math.log(abs(x - c)),
            dlogpdf=lambda x: -k / (x - c),
            d2logpdf=lambda x: k / ((x - c) * (x - c)),
            proper=False,
            improper_error=InsufficientHistory,
        )
    return GaussianPredictive(*law) if len(law) == 2 else StudentTPredictive(*law)


# Every kind's predictive_at is the last law of its own pass, so each is checked against a
# closed form instead: an inner kind's law from tests/oracles.py, and a transformed kind's
# the pushforward of its inner kind's at the pulled-back history.
_INNER_LAWS = {
    "iidnorm(0.2,1.5)": lambda h: iid_law(0.2, 1.5),
    "flatloc(0.7)": lambda h: flat_location_law(h, 0.7) if h else None,
    "flatscale(0.0)": lambda h: flat_scale_law(h, 0.0),
}
CLOSED_FORMS = {
    **{kind: lambda h, law=law: _predictive(law(h)) for kind, law in _INNER_LAWS.items()},
    **{
        f"{t.name}:{kind}": lambda h, law=law, t=t: pushforward_density(
            _predictive(law([t.inverse(v) for v in h])).density(), t
        )
        for kind, law in _INNER_LAWS.items()
        for t in (CUBIC, AFFINE)
    },
}


def _assert_laws_equal_closed_form(kind, x):
    """One pass over ``x`` and ``predictive_at`` of each prefix give the kind's closed form
    bit for bit, or fail as it does: a total that overflows, or a law that cannot be built."""
    model, closed_form = FOLD_MODELS[kind], CLOSED_FORMS[kind]
    fold = model.predictives(np.array(x, dtype=float))
    for i in range(len(x) + 1):
        y = float(x[i]) if i < len(x) else 0.5
        try:
            want = closed_form(x[:i])
        except OverflowError:
            error, message = NonFiniteValue, "^the running sum overflows$"
        except PreqscoreError as e:
            error, message = type(e), f"^{re.escape(str(e))}$"
        else:
            for q in (next(fold), model.predictive_at(x[:i])):
                assert _bits(q, y) == _bits(want, y), f"predictive {i + 1}"
            continue
        for compute in (lambda: next(fold), lambda: model.predictive_at(x[:i])):
            with pytest.raises(error, match=message):
                compute()
        return


_MAGNITUDES = st.floats(min_value=1e-8, max_value=1e8)
_VALUES = st.just(0.0) | _MAGNITUDES | _MAGNITUDES.map(lambda v: -v)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(sorted(FOLD_MODELS)),
    x=st.lists(_VALUES, min_size=1, max_size=6).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=20)),
)
def test_fold_equals_predictive_at_on_every_prefix_bitwise(kind, x):
    # Values repeat and include exact zeros; magnitudes span 1e-8 to 1e8, so
    # the exact totals hold more than one float's precision.
    _assert_laws_equal_closed_form(kind, x)


@pytest.mark.parametrize("kind", ["flatloc(0.7)", "flatscale(0.0)"])
@pytest.mark.parametrize(
    "x",
    [
        [1e8, 1e-8, -1e8, 3.0, 1e-8],  # cancellation, and sums beyond one float's precision
        [0.1] * 10 + [1e8, -1e8],
        [1e-200] * 3 + [1.0],  # squares that underflow to zero
        [1e154, 1e200, 1e154],  # an infinite square makes every later sum inf, so no overflow follows
        [1e154, 1e154, 1e200],  # the sum of squares overflows first
    ],
)
def test_fold_equals_predictive_at_on_extreme_sums(kind, x):
    _assert_laws_equal_closed_form(kind, x)


@pytest.mark.parametrize(
    "model, data, index, message",
    [
        (flat_prior_location_model(1.0), [1e308, 1e308, 1.0], 3, "the running sum overflows"),
        (flat_prior_location_model(1.0), [1e308, -1e308, 1.0, 2.0], 2, "score is inf"),
        (flat_prior_scale_model(0.0), [2.0, 1e200, 2.0, 1.0], 2, "score is nan"),
        (flat_prior_scale_model(0.0), [1.0, 1e160, 2.0, 3.0], 2, "score is nan"),
    ],
)
def test_running_sum_failures_match_the_closed_form(model, data, index, message):
    # The exact running sums fail where a prefix's sum overflows, with one named error.
    with pytest.raises(NonFiniteValue, match=rf"{message}.*\(model '{re.escape(model.identifier)}', observation {index}\)$") as info:
        delta_trace(model, model, data, "hyvarinen")
    assert info.value.index == index


_WIDE = st.floats(min_value=1e-300, max_value=1e150)
_WIDE_VALUES = st.just(0.0) | _WIDE | _WIDE.map(lambda v: -v)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(sorted(kind for kind in FOLD_MODELS if "flat" in kind)),
    x=st.lists(_WIDE_VALUES, min_size=1, max_size=6).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=20)),
)
def test_fold_equals_predictive_at_on_every_prefix_bitwise_over_wide_exponents(kind, x):
    # Magnitudes span 1e-300 to 1e150: the exact totals meet wide exponent gaps
    # and squares that underflow, while every sum stays finite.
    _assert_laws_equal_closed_form(kind, x)


_DBL_MAX = sys.float_info.max
_TERMS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(min_value=-sys.float_info.min, max_value=sys.float_info.min)  # subnormals and zeros
    | st.sampled_from([_DBL_MAX, -_DBL_MAX, 2.0**970, -(2.0**970), math.inf])
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TERMS, max_size=12))
def test_prefix_sums_are_correctly_rounded_and_equal_fsum_wherever_it_returns(terms):
    sums = _prefix_fsums(terms)
    for i in range(1, len(terms) + 1):
        prefix = terms[:i]
        try:
            exact = math.inf if math.inf in prefix else float(sum(map(Fraction, prefix)))
        except OverflowError:
            with pytest.raises(NonFiniteValue, match="^the running sum overflows$"):
                next(sums)
            return
        got = next(sums)
        assert got.hex() == exact.hex(), f"prefix {i}"
        try:
            want = math.fsum(prefix)
        except OverflowError:
            continue  # an intermediate overflow of fsum, here or before, on a sum that fits
        assert got.hex() == want.hex(), f"prefix {i}"


def test_flat_location_pass_ends_in_one_predictive_for_every_order():
    # Every prefix of every order has an exact sum that fits, yet math.fsum
    # overflows on the way for two of the six orders.
    terms = [_DBL_MAX, -(2.0**970), -9e307]
    want = float(sum(map(Fraction, terms))) / 3
    for order in itertools.permutations(terms):
        *_, last = flat_prior_location_model(1.0).predictives(np.array(order))
        assert last.mean == want, order


def test_flat_location_predictive_at_takes_the_exact_total_where_fsum_overflows():
    terms = [_DBL_MAX, -(2.0**970), -9e307]
    want = float(sum(map(Fraction, terms))) / 3
    model = flat_prior_location_model(1.0)
    fsum_overflows = 0
    for order in itertools.permutations(terms):
        try:
            math.fsum(order)
        except OverflowError:
            fsum_overflows += 1
        assert model.predictive_at(order).mean == want, order
    assert fsum_overflows == 2


_PROPERTY_VALUES = st.lists(_VALUES | _WIDE_VALUES, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=20)
)



@settings(max_examples=300, deadline=None)
@given(st.lists(_TERMS | st.sampled_from([1.0, -1.0, 2.0**-53, 2.0**-106, 1e16, -1e16, 0.3, 0.7]), max_size=60))
@example([1e16, 1.0, -1e16, 1.0] * 10)
@example([1e16, 0.3, -1e16, 0.7] * 10)  # no prefix is certified: all take the exact route
@example([1.0, 2.0**-53, 1.0, 2.0**-53])  # exact midpoints
@example([_DBL_MAX, 2.0**969, 2.0**969])
@example([_DBL_MAX, -(2.0**970), -9e307])
def test_array_prefix_sums_equal_the_exact_route_bit_for_bit(terms):
    exact = []
    try:
        for total in _prefix_fsums(terms):
            exact.append(total)
    except NonFiniteValue:
        with pytest.raises(NonFiniteValue, match="^the running sum overflows$") as info:
            _prefix_sums(np.array(terms))
        assert info.value.index == len(exact) + 1  # the term whose running sum overflows
        return
    assert [v.hex() for v in _prefix_sums(np.array(terms))] == [v.hex() for v in exact]


def test_array_prefix_sums_are_exact_on_long_wide_rows():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(3000)
    wide = x * 10.0 ** rng.uniform(-300, 300, x.size)
    for terms in (x, np.square(x), wide, np.round(x * 100.0) * 0.5):
        exact = np.fromiter(_prefix_fsums(terms.tolist()), float, terms.size)
        np.testing.assert_array_equal(_prefix_sums(terms).view(np.int64), exact.view(np.int64))


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["iidnorm(0.2,1.5)", "flatloc(0.7)"]), x=_PROPERTY_VALUES)
@example(kind="flatloc(0.7)", x=[1e308, 1e308, 1.0])
@example(kind="flatloc(0.7)", x=[-(2.0**970), _DBL_MAX, -9e307])
@example(kind="flatloc(0.7)", x=[1e8, 1e-8, -1e8, 3.0, 1e-8])
def test_iid_and_flat_location_laws_equal_their_closed_forms_on_every_prefix_bitwise(kind, x):
    _assert_laws_equal_closed_form(kind, x)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(sorted(set(FOLD_MODELS) - {"iidnorm(0.2,1.5)", "flatloc(0.7)"})), x=_PROPERTY_VALUES)
@example(kind="flatscale(0.0)", x=[0.0, 1.0])
@example(kind="flatscale(0.0)", x=[0.0, 0.0, 1e-200, 2.0])
@example(kind="flatscale(0.0)", x=[1.3e154, 1.3e154])
@example(kind="flatscale(0.0)", x=[1e154, 1e200, 1e154])
@example(kind="cubic_plus_linear:flatscale(0.0)", x=[0.0, 2.0])
@example(kind="affine(2.5,-1.0):flatscale(0.0)", x=[-1.0, -1.0, 4.0])
def test_flat_scale_and_transformed_laws_equal_their_closed_forms_on_every_prefix_bitwise(kind, x):
    _assert_laws_equal_closed_form(kind, x)


def test_flat_location_predictive_at_names_an_overflowing_total():
    with pytest.raises(NonFiniteValue, match=r"^the running sum overflows$"):
        flat_prior_location_model(1.0).predictive_at([1e308, 1e308])


@pytest.mark.parametrize(
    "model, history",
    [(flat_prior_location_model(1.0), [1e308, 1e308]), (flat_prior_scale_model(0.0), [1.3e154, 1.3e154])],
    ids=["flatloc", "flatscale"],
)
def test_an_overflowing_total_is_one_named_error_in_the_pass_and_predictive_at(model, history):
    # Unindexed, so the fold locates it at the observation it scores.
    for compute in (lambda: model.predictive_at(history), lambda: list(model.predictives(np.array(history)))):
        with pytest.raises(NonFiniteValue, match=r"^the running sum overflows$") as info:
            compute()
        assert info.value.index is None


def _total(model, x, rule="log"):
    """The scores of observations 2..n under the predictives of one pass, summed by fsum."""
    steps = itertools.islice(model.predictives(x), 1, x.size)
    return math.fsum(score_predictive(float(v), q, rule).value for v, q in zip(x[1:], steps))


_NORMAL_DATA = st.builds(
    lambda n, seed, loc, scale: np.random.default_rng(seed).normal(loc, scale, n),
    st.integers(2, 2000),
    st.integers(0, 2**32 - 1),
    st.floats(-10.0, 10.0),
    st.floats(0.1, 10.0),
)


@settings(max_examples=20, deadline=None)
@given(x=_NORMAL_DATA, variance=st.floats(0.2, 50.0))
def test_flat_location_log_total_is_the_marginal_likelihood_and_order_free(x, variance):
    # With 2 pi v > 1 every score is positive, so no cancellation blurs the comparison.
    m = flat_prior_location_model(variance)
    total = _total(m, x)
    assert math.isclose(total, flat_location_log_total(x.tolist(), variance), rel_tol=1e-12)
    assert math.isclose(_total(m, np.random.default_rng(1).permutation(x)), total, rel_tol=1e-12)


@settings(max_examples=20, deadline=None)
@given(x=_NORMAL_DATA, mean=st.floats(-10.0, 10.0))
def test_flat_scale_log_total_is_the_marginal_likelihood_and_order_free(x, mean):
    # The unscored improper factor m(x_1) belongs to the first observation, so
    # only observations 2..n are permuted; abs_tol covers totals near zero.
    m = flat_prior_scale_model(mean)
    total = _total(m, x)
    assert math.isclose(total, flat_scale_log_total(x.tolist(), mean), rel_tol=1e-12, abs_tol=1e-12)
    shuffled = np.concatenate([x[:1], np.random.default_rng(1).permutation(x[1:])])
    assert math.isclose(_total(m, shuffled), total, rel_tol=1e-12, abs_tol=1e-12)


# Each inner kind's log total over observations 2..n, in closed form.
INNER_LOG_TOTALS = {
    "iidnorm(0.2,1.5)": lambda x: normal_log_total(x[1:], 0.2, 1.5),
    "flatloc(0.7)": lambda x: flat_location_log_total(x, 0.7),
    "flatscale(0.0)": lambda x: flat_scale_log_total(x, 0.0),
}


@settings(max_examples=20, deadline=None)
@given(x=_NORMAL_DATA, inner=st.sampled_from(sorted(INNER_LOG_TOTALS)), transform=st.sampled_from([CUBIC, AFFINE]))
def test_transformed_log_total_is_the_inner_total_plus_the_jacobian_terms(x, inner, transform):
    # The chain rule under y = g(x): each log score gains log g'(x_i) over the inner model's
    # score of the pulled-back observation.
    y = np.array([transform.g(v) for v in x.tolist()])
    model = FOLD_MODELS[f"{transform.name}:{inner}"]
    want = transformed_log_total(INNER_LOG_TOTALS[inner], transform, y)
    assert math.isclose(_total(model, y), want, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    x=_NORMAL_DATA,
    kind=st.sampled_from([f"{t.name}:{k}" for t in (CUBIC, AFFINE) for k in ("flatloc(0.7)", "flatscale(0.0)")]),
)
def test_transformed_flat_prior_log_totals_are_free_of_the_order_after_the_first_observation(x, kind):
    # x_1's Jacobian term is never scored, so only observations 2..n are permuted.
    model = FOLD_MODELS[kind]
    y = np.array([model.transform.g(v) for v in x.tolist()])
    shuffled = np.concatenate([y[:1], np.random.default_rng(1).permutation(y[1:])])
    assert math.isclose(_total(model, shuffled), _total(model, y), rel_tol=1e-12, abs_tol=1e-12)


def test_flat_location_hyvarinen_total_depends_on_the_order():
    # The log total is minus the log of a joint density, so reversing the data
    # leaves it; the Hyvarinen score has no such identity and moves.
    x = np.random.default_rng(0).normal(0.0, 1.0, 500)
    m = flat_prior_location_model(2.0)
    assert math.isclose(_total(m, x[::-1]), _total(m, x), rel_tol=1e-12)
    assert not math.isclose(_total(m, x[::-1], "hyvarinen"), _total(m, x, "hyvarinen"), rel_tol=1e-6)


def test_underflowing_squared_deviations_leave_the_scale_posterior_improper():
    _assert_improper_scale_law(0.0, [1e-200])


def test_a_subnormal_sum_of_squares_leaves_the_scale_posterior_proper():
    # 2.2e-162 squared rounds to the subnormal 2**-1074, and 2**-1074 / 2 rounds to 0
    q = flat_prior_scale_model(0.0).predictive_at([2.2e-162, 0.0])
    assert isinstance(q, StudentTPredictive) and q.dof == 2.0
    assert math.isclose(q.scale, math.ldexp(1.0, -537) / math.sqrt(2.0), rel_tol=1e-12)  # sqrt(2**-1075)


def test_non_finite_pull_back_is_rejected_like_a_non_finite_observation():
    m = TransformedModel(iid_gaussian_model(0.0, 1.0), affine_transform(1e-300))
    x = np.array([0.0, 1e10, 0.0])
    with pytest.raises(NonFiniteValue, match=r"^observation 2 is inf; observations must be finite$") as want:
        m.predictive_at(x[:2])
    fold = m.predictives(x)
    next(fold), next(fold)
    with pytest.raises(NonFiniteValue, match=f"^{re.escape(str(want.value))}$") as got:
        next(fold)
    assert got.value.index == want.value.index == 2


def test_transformed_pass_pulls_each_observation_back_once():
    # Hyvarinen scoring of a pushed-forward density inverts twice per step,
    # and the pass once per observation: at most 3n calls, not ~n^2/2.
    calls = []

    def inverse(y):
        calls.append(y)
        return CUBIC.inverse(y)

    n = 300
    y = np.array([CUBIC.g(v) for v in np.linspace(-2.0, 2.0, n)])
    counted = TransformedModel(flat_prior_scale_model(0.0), dataclasses.replace(CUBIC, inverse=inverse))
    delta_trace(counted, iid_gaussian_model(0.0, 1.0), y, "hyvarinen")
    assert len(calls) <= 3 * n


def _raise(history):
    raise AssertionError("predictive_at called inside a pass")


@pytest.mark.parametrize(
    "build",
    [
        lambda: flat_prior_location_model(1.0),
        lambda: flat_prior_scale_model(0.0),
        lambda: iid_gaussian_model(0.3, 1.2),
        lambda: TransformedModel(iid_gaussian_model(0.3, 1.2), CUBIC),
        lambda: TransformedModel(flat_prior_location_model(1.0), CUBIC),
        lambda: TransformedModel(flat_prior_scale_model(0.0), AFFINE),
    ],
    ids=["flatloc", "flatscale", "iidnorm", "cubic-iidnorm", "cubic-flatloc", "affine-flatscale"],
)
def test_built_in_passes_never_call_predictive_at(build):
    x = np.linspace(-1.5, 2.5, 40)
    want = delta_trace(build(), flat_prior_location_model(2.0), x, "hyvarinen")
    model = build()
    model.predictive_at = _raise
    if isinstance(model, TransformedModel):
        model.inner.predictive_at = _raise
    got = delta_trace(model, flat_prior_location_model(2.0), x, "hyvarinen")
    for field in ("per_step", "cumulative", "scores_a", "scores_b"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    assert len(list(model.predictives(x))) == x.size + 1
