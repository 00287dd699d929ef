"""Scoring rule checks: closed forms vs derivative oracles, dispatch, propriety."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from preqscore import (
    FLAT_DENSITY,
    DecisionProblem,
    DimensionMismatch,
    GaussianPredictive,
    HyvarinenInapplicable,
    ImproperPredictive,
    InsufficientHistory,
    InvalidDistribution,
    NonFiniteValue,
    NonPositiveScale,
    NonPositiveVariance,
    ScaledRule,
    ScoreRule,
    ScoreValue,
    as_rule,
    check_propriety,
    gaussian_density,
    laplace_density,
    rescale_rule,
    score_from_decision_problem,
    score_predictive,
    shift_density,
    student_t_density,
)
from preqscore.models import PredictiveModel, StudentTPredictive, flat_prior_scale_model, iid_gaussian_model
from preqscore.prequential import delta_trace
from preqscore.scores import _gaussian_hyvarinen_score, _math_log, _score, _student_t_hyvarinen_score

from oracles import fd_first, fd_second, simplex_grid


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_log_score_at_mean_is_entropy_term():
    for v in [0.25, 1.0, 4.0]:
        s = score_predictive(0.0, GaussianPredictive(0.0, v), "log")
        assert s.value == pytest.approx(0.5 * math.log(2.0 * math.pi * v), rel=1e-15)
        assert s.rule_id is ScoreRule.LOG


def test_hyvarinen_gaussian_at_mean():
    assert score_predictive(3.0, GaussianPredictive(3.0, 2.0), "hyvarinen").value == -1.0


@pytest.mark.parametrize("x", [-1.7, 0.0, 2.4])
@pytest.mark.parametrize("mean,variance", [(0.0, 1.0), (1.5, 0.3), (-2.0, 5.0)])
def test_hyvarinen_gaussian_matches_generic_route(x, mean, variance):
    # Dual route: the closed normal formula against the derivative-based one.
    closed = score_predictive(x, GaussianPredictive(mean, variance), "hyvarinen").value
    generic = score_predictive(x, gaussian_density(mean, variance), "hyvarinen").value
    assert closed == pytest.approx(generic, rel=1e-14)


@pytest.mark.parametrize(
    "q",
    [gaussian_density(0.5, 2.0), student_t_density(0.0, 1.0, 3.0)],
    ids=["gaussian", "t3"],
)
@pytest.mark.parametrize("x", [-1.2, 0.4, 2.1])
def test_hyvarinen_generic_matches_finite_difference_oracle(q, x):
    fd = 2.0 * fd_second(q.logpdf, x) + fd_first(q.logpdf, x) ** 2
    assert score_predictive(x, q, "hyvarinen").value == pytest.approx(fd, rel=1e-4, abs=1e-5)


def test_hyvarinen_t3_at_center_closed_value():
    # For a t with dof 3, unit scale, the score at the center is 2*(-4/3) + 0.
    s = score_predictive(0.0, student_t_density(0.0, 1.0, 3.0), "hyvarinen")
    assert s.value == pytest.approx(-8.0 / 3.0, rel=1e-14)


def test_flat_predictive_scores():
    flat = FLAT_DENSITY
    assert score_predictive(12.3, flat, "hyvarinen").value == 0.0
    assert score_predictive(12.3, flat, rescale_rule("hyvarinen", 7.0)).value == 0.0
    with pytest.raises(ImproperPredictive, match="predictive density is not normalizable"):
        score_predictive(12.3, flat, "log")


def test_gaussian_predictive_validation():
    with pytest.raises(NonPositiveVariance):
        GaussianPredictive(0.0, 0.0)
    with pytest.raises(ValueError):
        GaussianPredictive(math.nan, 1.0)
    # no field lets NaN through: the flat law is FLAT_DENSITY, not a normal
    with pytest.raises(NonFiniteValue):
        GaussianPredictive(math.nan, math.nan)
    assert [f.name for f in dataclasses.fields(GaussianPredictive)] == ["mean", "variance"]


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_hyvarinen_ignores_normalization(c):
    # Multiplying the density by exp(c) changes nothing the rule looks at.
    base = student_t_density(0.3, 1.2, 4.0)
    assert (
        score_predictive(0.9, shift_density(base, c), "hyvarinen").value
        == score_predictive(0.9, base, "hyvarinen").value
    )


class _LaplaceModel(PredictiveModel):
    identifier = "laplace"

    def predictive_at(self, history):
        return laplace_density(0.0, 1.0)


def test_hyvarinen_rejects_non_smooth_density():
    with pytest.raises(HyvarinenInapplicable):
        score_predictive(0.5, laplace_density(0.0, 1.0), "hyvarinen")
    with pytest.raises(HyvarinenInapplicable, match=r"\(model 'laplace', observation 1\)$"):
        delta_trace(_LaplaceModel(), iid_gaussian_model(0.0, 1.0), [0.5], "hyvarinen")


# ---------------------------------------------------------------------------
# Rules, scaling, dispatch
# ---------------------------------------------------------------------------


def test_as_rule_coercions():
    assert as_rule("log") == ScaledRule(ScoreRule.LOG, 1.0)
    assert as_rule(ScoreRule.HYVARINEN).scale == 1.0
    r = ScaledRule(ScoreRule.LOG, 2.0)
    assert as_rule(r) is r
    with pytest.raises(TypeError):
        as_rule(42)


def test_rescale_rule_composes_multiplicatively():
    r = rescale_rule(rescale_rule(ScoreRule.HYVARINEN, 2.0), 3.0)
    assert r == ScaledRule(ScoreRule.HYVARINEN, 6.0)
    with pytest.raises(NonPositiveScale):
        rescale_rule(ScoreRule.LOG, 0.0)
    with pytest.raises(NonPositiveScale):
        ScaledRule(ScoreRule.LOG, -1.0)
    # an infinite factor would turn the flat predictive's exact zero into NaN
    with pytest.raises(NonPositiveScale, match="finite"):
        rescale_rule(ScoreRule.HYVARINEN, math.inf)
    with pytest.raises(NonPositiveScale):
        ScoreValue(0.0, ScoreRule.HYVARINEN, math.inf)


def test_scaled_rule_scales_values_exactly():
    q = GaussianPredictive(0.0, 1.0)
    base = score_predictive(1.5, q, ScoreRule.HYVARINEN).value
    scaled = score_predictive(1.5, q, rescale_rule(ScoreRule.HYVARINEN, 2.0))
    assert scaled.value == 2.0 * base
    assert scaled.scale == 2.0


def test_score_predictive_dispatch():
    q = GaussianPredictive(0.0, 1.0)
    d = gaussian_density(0.0, 1.0)
    t = StudentTPredictive(0.0, 1.0, 3.0)
    x = 0.7
    assert score_predictive(x, q, "log").value == pytest.approx(0.5 * math.log(2.0 * math.pi) + 0.5 * x * x, rel=1e-15)
    assert score_predictive(x, d, "log").value == pytest.approx(-d.logpdf(x))
    # .density() objects are unwrapped before scoring
    assert score_predictive(x, t, "hyvarinen").value == pytest.approx(
        score_predictive(x, t.density(), "hyvarinen").value
    )
    with pytest.raises(TypeError):
        score_predictive(x, object(), "log")
    with pytest.raises(ValueError, match="decision-induced"):
        score_predictive(x, q, ScoreRule.DECISION_INDUCED)


@pytest.mark.parametrize("rule", [ScoreRule.LOG, ScoreRule.HYVARINEN])
def test_student_t_kernels_equal_the_density_route_bitwise(rule):
    # One law per (scale, dof), scored at 300 points: the closed kernel keeps
    # student_t_density's expression order, and its rows score like floats.
    x = np.linspace(-40.0, 40.0, 300)
    for scale, dof in [(0.05, 1.0), (1.0, 3.0), (2.7, 17.0), (1e3, 2000.0)]:
        t = StudentTPredictive(0.3, scale, dof)
        closed = [_score(v, t, as_rule(rule)) for v in x.tolist()]
        assert closed == [_score(v, t.density(), as_rule(rule)) for v in x.tolist()]
        if rule is ScoreRule.HYVARINEN:
            row = _student_t_hyvarinen_score(x, SimpleNamespace(center=0.3, scale=np.full(x.size, scale), dof=np.full(x.size, dof)))
            assert row.tolist() == closed


@pytest.mark.parametrize(
    "column",
    [
        [0.7, 0.7, 0.9833347065534214, 0.9833347065534214, 0.9833347065534214, 1e-300, 0.7, 5.1812502545660335, 1.1222536932195177],
        np.random.default_rng(0).uniform(0.5, 2.0, 2000).tolist(),  # every entry distinct
        [],
    ],
    ids=["runs", "distinct", "empty"],
)
def test_log_of_a_variance_column_is_math_log_entry_by_entry(column):
    # A run recurs after another; np.log rounds the three long constants, and
    # about 0.5 % of the distinct column, differently from math.log (numpy 2 on x86-64).
    got = _math_log(np.array(column, dtype=float))
    assert got.dtype == np.float64 and got.shape == (len(column),)
    np.testing.assert_array_equal(got.view(np.int64), np.array([math.log(v) for v in column], dtype=float).view(np.int64))
    if column:
        assert _math_log(column[0]) == math.log(column[0])


def test_gaussian_hyvarinen_scales_exactly_under_a_power_of_two_unit_change():
    # libm pow gives 2.759 ** 2 == 7.612080999999999, one ulp off the product 7.612081,
    # so a kernel that squared the variance by ``**`` missed the exact factor 1/4 here.
    x, mean, variance = -4.257, -0.45, 2.759
    base = score_predictive(x, GaussianPredictive(mean, variance), "hyvarinen").value
    scaled = score_predictive(2.0 * x, GaussianPredictive(2.0 * mean, 4.0 * variance), "hyvarinen").value
    assert scaled == base / 4.0

    def row(x, mean, variance):
        law = SimpleNamespace(mean=np.array([mean]), variance=np.array([variance]))
        return _gaussian_hyvarinen_score(np.array([x]), law).tolist()

    assert row(x, mean, variance) == [base]
    assert row(2.0 * x, 2.0 * mean, 4.0 * variance) == [base / 4.0]


@pytest.mark.parametrize(
    "x, predictive, rule, message",
    [
        (1e200, GaussianPredictive(0.0, 1.0), "hyvarinen", "score is inf"),
        (0.5, StudentTPredictive(0.0, 1.0, 1e200), "hyvarinen", "score is nan"),
        (0.5, StudentTPredictive(0.0, 1.0, 1e306), "log", "score is not finite: OverflowError"),
    ],
)
def test_score_predictive_raises_where_the_score_is_not_finite(x, predictive, rule, message):
    with pytest.raises(NonFiniteValue, match=f"^{message}"):
        score_predictive(x, predictive, rule)


@pytest.mark.parametrize(
    "predictive, rule, error",
    [
        (FLAT_DENSITY, ScoreRule.LOG, ImproperPredictive),
        (flat_prior_scale_model(0.0).predictive_at([]), ScoreRule.LOG, InsufficientHistory),
        (laplace_density(0.0, 1.0), ScoreRule.HYVARINEN, HyvarinenInapplicable),
        (GaussianPredictive(0.0, 1.0), ScoreRule.DECISION_INDUCED, ValueError),
        (object(), ScoreRule.LOG, TypeError),
    ],
)
def test_one_scorer_decides_every_error(predictive, rule, error):
    with pytest.raises(error):
        _score(0.4, predictive, as_rule(rule))
    with pytest.raises(error):
        score_predictive(0.4, predictive, rule)


def test_score_predictive_improper_density_raises_declared_error():
    from preqscore import InsufficientHistory
    from preqscore.models import flat_prior_scale_model

    improper = flat_prior_scale_model(0.0).predictive_at([])
    with pytest.raises(InsufficientHistory):
        score_predictive(1.0, improper, "log")
    # same object is fine under the gradient-based rule: 3/(x - mean)^2
    assert score_predictive(2.0, improper, "hyvarinen").value == pytest.approx(0.75, rel=1e-14)


# ---------------------------------------------------------------------------
# Decision problems and propriety
# ---------------------------------------------------------------------------


def brier_problem(n_states, step=0.1):
    """Quadratic loss against every grid distribution as the action set."""
    grid = simplex_grid(n_states, step)
    loss = np.array([[float(np.sum((a - _onehot(i, n_states)) ** 2)) for a in grid] for i in range(n_states)])
    return DecisionProblem(range(n_states), [tuple(a) for a in grid], loss), grid


def _onehot(i, n):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def test_decision_problem_validation():
    with pytest.raises(DimensionMismatch):
        DecisionProblem([0, 1], ["a"], np.zeros((2, 2)))
    with pytest.raises(ValueError):
        DecisionProblem([0, 1], ["a", "b"], [[0.0, math.inf], [1.0, 0.0]])


def test_best_action_breaks_ties_by_lowest_index():
    dp = DecisionProblem([0, 1], ["a", "b"], [[1.0, 1.0], [1.0, 1.0]])
    assert dp.best_action_index([0.5, 0.5]) == 0


def test_distribution_validation():
    dp = DecisionProblem([0, 1], ["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InvalidDistribution):
        dp.best_action_index([0.7, 0.7])
    with pytest.raises(InvalidDistribution):
        dp.best_action_index([-0.1, 1.1])
    with pytest.raises(InvalidDistribution):
        dp.best_action_index([1.0])
    with pytest.raises(InvalidDistribution):
        score_from_decision_problem(dp, [0.5, 0.5], "unknown-state")


def test_decision_induced_score_is_proper_on_grid():
    dp, grid = brier_problem(3)
    score = lambda x, q: score_from_decision_problem(dp, q, x).value
    report = check_propriety(score, grid, states=list(range(3)))
    assert report.is_proper
    assert report.n_distributions == len(grid)


def test_linear_score_is_improper_on_grid():
    # S(x, Q) = -Q(x) rewards overstating the mode, a textbook improper rule.
    grid = simplex_grid(2, 0.1)
    report = check_propriety(lambda x, q: -q[int(x)], grid)
    assert not report.is_proper
    v = report.violations[0]
    assert v.gap > 0
    assert v.expected_self > v.expected_other


def test_check_propriety_skips_zero_mass_states():
    # The log score is +inf where the quoted q has no mass; pairs are still
    # comparable because terms with P(x) = 0 are dropped.
    grid = simplex_grid(2, 0.5)  # includes the two degenerate corners

    def log_loss(x, q):
        p = q[int(x)]
        return -math.log(p) if p > 0 else math.inf

    report = check_propriety(log_loss, grid)
    assert report.is_proper


def test_check_propriety_of_an_empty_grid_finds_nothing():
    report = check_propriety(lambda x, q: 0.0, [])
    assert report.is_proper
    assert report.n_distributions == 0


def test_check_propriety_dimension_guard():
    with pytest.raises(DimensionMismatch):
        check_propriety(lambda x, q: 0.0, simplex_grid(2, 0.5), states=[0, 1, 2])
