"""Trace construction, selection semantics, serialization, summation accuracy."""

import dataclasses
import io
import itertools
import math
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preqscore import (
    TIE,
    DensityWithDerivatives,
    GaussianPredictive,
    HyvarinenInapplicable,
    MonotoneTransform,
    PredictiveModel,
    TRACE_CSV_COLUMNS,
    DeltaTrace,
    EmptyTrace,
    ImproperPredictive,
    InsufficientHistory,
    NonFiniteValue,
    NotPositiveDefinite,
    ScoreRule,
    StationaryProcessModel,
    StationaryProcessSpec,
    StudentTPredictive,
    TransformedModel,
    ar_process,
    arma_process,
    as_rule,
    compensated_cumsum,
    cubic_plus_linear_transform,
    delta_trace,
    flat_prior_location_model,
    flat_prior_scale_model,
    gaussian_density,
    iid_gaussian_model,
    laplace_density,
    ma_process,
    process_model,
    pushforward_density,
    rescale_rule,
    score_predictive,
    select,
    select_among,
    stream,
    student_t_density,
    trace_csv_text,
    white_noise,
    write_trace_csv,
)
from preqscore import prequential
from preqscore.experiments import _d_n, _decide
from preqscore.models import IIDModel
from preqscore.prequential import _score_matrix

from oracles import compensated_cumsum_loop, correctly_rounded_prefix_sums

A = iid_gaussian_model(0.0, 1.0)
B = iid_gaussian_model(1.0, 1.0)


def tiny_trace(per_step, rule=ScoreRule.HYVARINEN):
    per_step = np.asarray(per_step, dtype=float)
    return DeltaTrace(
        per_step=per_step,
        rule_id=rule,
        scale=1.0,
        model_a="A",
        model_b="B",
        data=np.zeros(len(per_step)),
        scores_a=np.zeros(len(per_step)),
        scores_b=per_step.copy(),
    )


def test_single_observation_deltas_are_exact():
    t_hyv = delta_trace(A, B, [0.0], "hyvarinen")
    t_log = delta_trace(A, B, [0.0], "log")
    assert t_hyv.per_step[0] == 1.0  # (-2 + 1) - (-2 + 0)
    assert t_log.per_step[0] == 0.5  # quadratic terms differ by 1/2
    assert t_hyv.final == 1.0
    assert len(t_hyv) == 1
    assert t_hyv.model_a == "iidnorm(0.0,1.0)"


def test_identical_models_give_exactly_zero_deltas():
    data = stream(3, 0).standard_normal(40)
    t = delta_trace(A, iid_gaussian_model(0.0, 1.0, identifier="clone"), data, "log")
    assert np.all(t.per_step == 0.0)
    assert np.all(t.cumulative == 0.0)
    assert select(t).chosen == TIE


def test_cumulative_matches_fsum_prefixes():
    data = stream(4, 0).standard_normal(300)
    t = delta_trace(A, B, data, "hyvarinen")
    for i in [0, 17, 299]:
        exact = math.fsum(t.per_step[: i + 1])
        assert t.cumulative[i] == pytest.approx(exact, abs=1e-12, rel=1e-13)


def test_scores_arrays_are_recorded():
    t = delta_trace(A, B, [0.5, -0.2], "log")
    np.testing.assert_allclose(t.per_step, t.scores_b - t.scores_a, atol=1e-15)
    np.testing.assert_array_equal(t.data, [0.5, -0.2])


def test_empty_trace_raises_on_final_and_select():
    t = delta_trace(A, B, [], "log")
    assert len(t) == 0
    with pytest.raises(EmptyTrace):
        t.final
    with pytest.raises(EmptyTrace):
        select(t)


def test_select_among_raises_on_an_empty_series():
    # An empty series selects nothing, as select does on an empty trace; the data are validated first.
    with pytest.raises(EmptyTrace, match="^no observations to select on$"):
        select_among([A, B], [], "log")
    with pytest.raises(ValueError, match="one-dimensional"):
        select_among([A, B], [[]], "log")


def test_data_must_be_one_dimensional():
    with pytest.raises(ValueError):
        delta_trace(A, B, [[1.0], [2.0]], "log")
    with pytest.raises(ValueError, match="one-dimensional"):
        select_among([A, B], [[0.1, 0.2]], "log")


@pytest.mark.parametrize("data, index", [([0.5, math.nan], 2), ([math.nan, 0.5, 1.0], 1), ([0.1, 0.2, math.inf], 3)])
def test_non_finite_data_is_rejected_with_its_index(data, index):
    for call in (lambda: delta_trace(A, B, data, "log"), lambda: select_among([A, B], data, "hyvarinen")):
        with pytest.raises(NonFiniteValue, match=f"observation {index} ") as info:
            call()
        assert info.value.index == index


def test_arithmetic_failures_become_named_errors():
    with pytest.raises(NonFiniteValue, match=r"score is inf.*'iidnorm\(0\.0,1\.0\)', observation 2") as info:
        delta_trace(A, B, [0.0, 1e200], "hyvarinen")
    assert info.value.index == 2
    with pytest.raises(NonFiniteValue, match=r"ZeroDivisionError.*flatscale\(0\.0\)', observation 1"):
        delta_trace(flat_prior_scale_model(0.0), A, [0.0, 1.0], "hyvarinen")


def test_variance_whose_square_overflows_scores_finitely():
    # 1e160 squared is inf, so the data term of the gradient score vanishes
    trace = delta_trace(iid_gaussian_model(0.0, 1e160), iid_gaussian_model(0.0, 2.0), [0.5, -1.0, 3.0], "hyvarinen")
    assert trace.scores_a.tolist() == [-2e-160] * 3
    assert math.isfinite(trace.final)


@pytest.mark.parametrize(
    "data, model, index",
    [([0.0, 1e200], "flatscale(0.0)", 1), ([1e200], "iidnorm(0.0,1.0)", 1), ([0.5, 1e200], "iidnorm(0.0,1.0)", 2)],
)
def test_fold_errors_follow_the_scalar_visiting_order(data, model, index):
    # iidnorm is scored as an array; its non-finite score at 1e200 must not
    # preempt an earlier failure of a model that the scalar loop visits first.
    with pytest.raises(NonFiniteValue, match=rf"model '{re.escape(model)}', observation {index}\)") as info:
        select_among([A, flat_prior_scale_model(0.0)], data, "hyvarinen")
    assert info.value.index == index


def _scalar_rows(models, x, rule):
    """Each model's scores from one ``predictives`` pass, each predictive scored alone."""
    return [[score_predictive(v, q, rule).value for v, q in zip(x.tolist(), m.predictives(x))] for m in models]


@settings(max_examples=150, deadline=None)
@given(
    phis=st.lists(st.floats(min_value=-0.3, max_value=0.3), min_size=1, max_size=3),
    mean=st.floats(min_value=0.1, max_value=5) | st.floats(min_value=-5, max_value=-0.1),
    n=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32),
    rule=st.sampled_from(["log", "hyvarinen", rescale_rule("log", 0.3), rescale_rule("hyvarinen", 7.0)]),
)
def test_fold_rows_equal_scalar_scores_bitwise(phis, mean, n, seed, rule):
    # |phi_1| + ... + |phi_p| < 1 keeps every AR(p) here stationary.
    x = mean + 1.5 * stream(seed, 0).standard_normal(n)
    models = [iid_gaussian_model(mean, 0.7), process_model(ar_process(phis, 0.8, mean))]
    _, rows, _ = _score_matrix(models, x, rule)
    np.testing.assert_array_equal(rows, np.reshape(_scalar_rows(models, x, rule), (2, n)))
    tail = models[1].predictive_rows(x, as_rule(rule).base)
    if n > len(phis):
        k, _, laws = tail
        assert k == len(phis)
        assert laws.mean.tolist() == [models[1].predictive_at(x[:i]).mean for i in range(k, n)]
    else:
        assert tail is None


SCALAR_MODELS = {
    "flatloc": lambda: flat_prior_location_model(0.8),
    "flatscale": lambda: flat_prior_scale_model(0.2),
    "ma": lambda: process_model(ma_process([0.4, -0.3], 1.1, 0.2)),
    "arma": lambda: process_model(arma_process([0.5, -0.2], [0.4], 0.9, 0.1)),
    "transformed": lambda: TransformedModel(iid_gaussian_model(0.1, 0.9), cubic_plus_linear_transform()),
}


def _first_error_or_rows(score_row):
    try:
        return score_row()
    except Exception as e:
        return type(e)


def _tiny_examples(kinds):
    """Explicit examples at n = 0, 1 and 2 for each kind under both rules, which the
    search can miss: an empty series once failed in the row route alone."""

    def decorate(test):
        for kind, n, rule in itertools.product(kinds, (0, 1, 2), ("log", "hyvarinen")):
            test = example(kind=kind, n=n, seed=0, rule=rule)(test)
        return test

    return decorate


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(sorted(SCALAR_MODELS)),
    n=st.integers(min_value=0, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32),
    rule=st.sampled_from(["log", "hyvarinen", rescale_rule("hyvarinen", 0.3), rescale_rule("log", 7.0)]),
)
@_tiny_examples(["ma", "arma"])
def test_fold_rows_equal_scalar_scores_for_every_predictive_kind(kind, n, seed, rule):
    # Models beyond iid normal and AR: improper starts under the log rule
    # must raise the same class the scalar score raises.
    model = SCALAR_MODELS[kind]()
    x = 0.2 + 1.3 * stream(seed, 0).standard_normal(n)
    fold = _first_error_or_rows(lambda: _score_matrix([model], x, rule)[1])
    scalar = _first_error_or_rows(lambda: np.reshape(_scalar_rows([model], x, rule), (1, n)))
    if isinstance(scalar, type):
        assert fold is scalar
    else:  # strict: an error class would pass against an empty row by broadcasting
        np.testing.assert_array_equal(fold, scalar, strict=True)


# Process models whose every observation the fold scores as rows: MA and ARMA from
# their innovations pass, white noise as AR(0), a user autocovariance from its
# forward Durbin-Levinson pass, whose variances all differ.
PROCESS_MODELS = {
    "ma": lambda: process_model(ma_process([0.4, -0.3], 1.1, 0.2)),
    "arma": lambda: process_model(arma_process([0.5, -0.2], [0.4], 0.9, 0.1)),
    "white": lambda: process_model(white_noise(0.8, 0.2)),
    "autocov": lambda: process_model(StationaryProcessSpec(0.2, lambda k: 1.2 * 0.5**k + 0.3 * (k == 0), label="autocov")),
}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(PROCESS_MODELS)),
    n=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32),
    rule=st.sampled_from(["log", "hyvarinen", rescale_rule("log", 0.3), rescale_rule("hyvarinen", 7.0)]),
)
@_tiny_examples(sorted(PROCESS_MODELS))
def test_process_rows_equal_the_scalar_route_bitwise(kind, n, seed, rule):
    model = PROCESS_MODELS[kind]()
    x = 0.2 + 1.3 * stream(seed, 0).standard_normal(n)
    rows = _score_matrix([model, A], x, rule)[1]
    want = np.reshape(_scalar_rows([model, A], x, rule), (2, n))
    np.testing.assert_array_equal(rows.view(np.int64), want.view(np.int64))


def _no_items(self, x):
    raise AssertionError("the scalar loop scored an observation")
    yield


@pytest.mark.parametrize("kind", sorted(PROCESS_MODELS))
@pytest.mark.parametrize("rule", ["log", "hyvarinen"])
def test_process_models_score_every_observation_as_rows(monkeypatch, kind, rule):
    # A silent fallback to the scalar loop would reach the patched pass.
    model = PROCESS_MODELS[kind]()
    x = 0.2 + 1.3 * stream(5, 0).standard_normal(300)
    want = _scalar_rows([model], x, rule)[0]
    monkeypatch.setattr(StationaryProcessModel, "predictives", _no_items)
    assert delta_trace(model, A, x, rule).scores_a.tolist() == want
    assert delta_trace(model, A, x[:0], rule).scores_a.tolist() == []


def test_a_process_pass_failure_is_located_in_the_scalar_visiting_order():
    # gamma(1) > gamma(0) fails at observation 2; the failed row goes back to the
    # loop, which meets flatscale's failure at observation 1 first.
    bad = process_model(StationaryProcessSpec(0.0, lambda k: 1.0 if k == 0 else 2.0), identifier="bad")
    with pytest.raises(NonFiniteValue, match=r"\(model 'flatscale\(0.0\)', observation 1\)$"):
        select_among([bad, flat_prior_scale_model(0.0)], [0.0, 1.0, 2.0], "hyvarinen")
    with pytest.raises(NotPositiveDefinite, match=r"\(model 'bad', observation 2\)$"):
        select_among([bad, A], [0.5, 1.0, 2.0], "log")
    # A user autocovariance may raise anything; the loop still meets flatscale first.
    raising = process_model(StationaryProcessSpec(0.0, lambda k: {0: 1.0, 1: 0.3}[k]), identifier="raising")
    with pytest.raises(NonFiniteValue, match=r"\(model 'flatscale\(0.0\)', observation 1\)$"):
        select_among([raising, flat_prior_scale_model(0.0)], [0.0, 1.0, 2.0], "hyvarinen")
    with pytest.raises(KeyError):
        select_among([raising, A], [0.5, 1.0, 2.0], "log")


class _LastValue(PredictiveModel):
    """N(previous observation, 1), scored by the loop: its rows raise, or score NaN."""

    def __init__(self, rows):
        self.rows, self.identifier = rows, f"last-value-{rows}"

    def predictives(self, x):
        return (GaussianPredictive(float(x[i - 1]) if i else 0.0, 1.0) for i in range(x.size + 1))

    def predictive_rows(self, x, rule):
        if self.rows == "raise":
            raise RuntimeError("no rows for this model")
        return 0, GaussianPredictive, SimpleNamespace(mean=np.full(x.size, math.nan), variance=1.0)


@pytest.mark.parametrize("rows", ["raise", "nan"])
@pytest.mark.parametrize("rule", ["log", "hyvarinen"])
def test_a_failed_row_sends_only_its_own_model_to_the_loop(monkeypatch, rows, rule):
    # The iid model beside a model whose row fails keeps its row: its patched pass is never read.
    user, iid = _LastValue(rows), iid_gaussian_model(0.3, 2.0)
    x = 0.2 + 1.3 * stream(7, 0).standard_normal(40)
    want = _scalar_rows([user, iid], x, rule)
    monkeypatch.setattr(IIDModel, "predictives", _no_items)
    trace = delta_trace(user, iid, x, rule)
    assert [trace.scores_a.tolist(), trace.scores_b.tolist()] == want
    chosen = user if math.fsum(want[0]) <= math.fsum(want[1]) else iid
    assert select_among([user, iid], x, rule) == chosen.identifier


def _first_item_only(pass_):
    """A ``predictives`` that yields its pass's first item and then fails."""

    def predictives(self, x):
        yield next(pass_(self, x))
        raise AssertionError("the scalar loop scored an observation after the first")

    return predictives


@pytest.mark.parametrize("build", [lambda: flat_prior_location_model(0.8), lambda: flat_prior_scale_model(0.2)])
def test_flat_priors_score_observations_after_the_first_as_rows(monkeypatch, build):
    # Under hyvarinen only the improper start goes through the scalar loop;
    # a silent fallback for observations 2..n would reach the patched pass.
    model = build()
    x = 0.2 + 1.3 * stream(5, 0).standard_normal(300)
    want = _scalar_rows([model], x, "hyvarinen")[0]
    monkeypatch.setattr(type(model), "predictives", _first_item_only(type(model).predictives))
    assert delta_trace(model, A, x, "hyvarinen").scores_a.tolist() == want
    assert model.predictive_rows(x, ScoreRule.LOG) is None
    with pytest.raises(ImproperPredictive, match=r"observation 1\)$"):
        delta_trace(model, A, x, "log")


@pytest.mark.parametrize("v", [1e-3, 0.3, 0.7, 1.0, 2.5, 1e3])
def test_flat_prior_rows_equal_scalar_scores_bitwise(v):
    # 2000 variances v(1 + 1/n) each: a row squared by a product instead of
    # libm pow, as the scalar route squares it, would differ on a few.
    x = 0.2 + math.sqrt(v) * stream(11, 0).standard_normal(2000)
    models = [flat_prior_location_model(v), flat_prior_scale_model(0.2)]
    rows = _score_matrix(models, x, "hyvarinen")[1]
    np.testing.assert_array_equal(rows.view(np.int64), np.array(_scalar_rows(models, x, "hyvarinen")).view(np.int64))


class _ArrayFieldRows(PredictiveModel):
    """A user model of one law whose rows give every field as an array, as they may."""

    identifier = "array-fields"

    def __init__(self, law):
        self.law = law

    def predictive_at(self, history):
        return self.law

    def predictive_rows(self, x, rule):
        fields = {name: np.full(x.size, value) for name, value in dataclasses.asdict(self.law).items()}
        return 0, type(self.law), SimpleNamespace(**fields)


@pytest.mark.parametrize("law", [GaussianPredictive(0.3, 1.7), StudentTPredictive(0.3, 1.2, 4.0)], ids=["normal", "student-t"])
@pytest.mark.parametrize("rule", ["log", "hyvarinen", rescale_rule("log", 0.3)])
def test_rows_with_array_fields_equal_scalar_scores_bitwise(law, rule):
    # Under log a normal row takes math.log once per run of equal variances; a Student-t
    # row's density takes no array, so it fails, and every row goes back to the loop.
    model = _ArrayFieldRows(law)
    x = 0.2 + 1.3 * stream(9, 0).standard_normal(40)
    rows = _score_matrix([model, A], x, rule)[1]
    np.testing.assert_array_equal(rows.view(np.int64), np.array(_scalar_rows([model, A], x, rule)).view(np.int64))


class _CountedLaw:
    """A law known only by its density; counts the calls of ``density()``."""

    def __init__(self, q):
        self.q, self.calls = q, 0

    def density(self):
        self.calls += 1
        return self.q


@pytest.mark.parametrize("rule", ["log", "hyvarinen", rescale_rule("hyvarinen", 0.3)])
def test_an_iid_law_with_no_array_kernel_is_one_row_whose_density_is_taken_once(rule):
    law = _CountedLaw(pushforward_density(gaussian_density(0.1, 0.9), cubic_plus_linear_transform()))
    model = IIDModel(law, "pushed")
    x = 0.2 + 1.3 * stream(4, 0).standard_normal(50)
    want = np.array(_scalar_rows([model], x, rule))
    law.calls = 0
    rows = _score_matrix([model], x, rule)[1]
    np.testing.assert_array_equal(rows.view(np.int64), want.view(np.int64))
    assert law.calls == 1


def test_a_non_smooth_iid_law_raises_located_out_of_the_row_route():
    model = IIDModel(laplace_density(0.0, 1.0), "laplace")
    with pytest.raises(HyvarinenInapplicable, match=r"\(model 'laplace', observation 1\)$"):
        delta_trace(A, model, [0.5, 1.0], "hyvarinen")
    assert delta_trace(A, model, [0.5, 1.0], "log").scores_b.tolist() == [math.log(2.0) + 0.5, math.log(2.0) + 1.0]


@pytest.mark.parametrize("data", [[], [0.5, 1.0]], ids=["n=0", "n=2"])
def test_a_rule_that_scores_no_density_is_rejected_before_scoring(data):
    message = r"^rule decision-induced is not defined for predictive densities$"
    with pytest.raises(ValueError, match=message):
        delta_trace(A, B, data, "decision-induced")
    with pytest.raises(ValueError, match=message):
        select_among([A, B], data, ScoreRule.DECISION_INDUCED)


class _DriftModel(PredictiveModel):
    identifier = "drift"

    def predictive_at(self, history):
        return GaussianPredictive(math.fsum(history) * 1e308, 1.0)


def test_non_finite_predictive_mean_is_located():
    with pytest.raises(NonFiniteValue, match=r"mean must be finite, got inf \(model 'drift', observation 2\)$") as info:
        delta_trace(_DriftModel(), A, [2.0, 1.0, 2.0], "log")
    assert info.value.index == 2


def test_overflowing_d_n_raises_instead_of_a_nan_tie():
    pair, data = (A, iid_gaussian_model(0.0, 2.0)), [1e154] * 10
    # every per-step delta is finite (-2.5e307); their running sum is not
    with pytest.raises(NonFiniteValue, match="running sum is -inf at term 8") as info:
        delta_trace(*pair, data, "log")
    assert info.value.index == 8
    located = r"running sum is inf at term 4 \(model 'iidnorm\(0.0,1.0\)', observation 4\)$"
    with pytest.raises(NonFiniteValue, match=located) as info:
        select_among(pair, data, "log")
    assert info.value.index == 4
    with pytest.raises(NonFiniteValue, match=r"\(model 'iidnorm\(0.0,2.0\)', observation 8\)$") as info:
        select_among([pair[1], iid_gaussian_model(0.0, 4.0)], data, "log")
    assert info.value.index == 8
    with pytest.raises(NonFiniteValue) as info:
        compensated_cumsum([1.0, math.nan])
    assert info.value.index == 2


PREFIX_MODELS = {
    "iidnorm": lambda: iid_gaussian_model(0.3, 1.2),
    "flatloc": lambda: flat_prior_location_model(1.0),
    "flatscale": lambda: flat_prior_scale_model(0.0),
    "ar": lambda: process_model(ar_process([0.5, -0.2], 1.0, 0.4)),
    "ma": lambda: process_model(ma_process([0.4], 1.0)),
    "arma": lambda: process_model(arma_process([0.5], [0.4], 1.0, 0.3)),
    "transformed": lambda: TransformedModel(flat_prior_location_model(1.0), cubic_plus_linear_transform()),
}


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(PREFIX_MODELS)),
    k=st.integers(min_value=0, max_value=25),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_trace_of_a_prefix_is_the_prefix_of_the_trace(kind, k, seed):
    x = stream(seed, 0).standard_normal(25)
    pair = (PREFIX_MODELS[kind](), A)
    full = delta_trace(*pair, x, "hyvarinen")
    prefix = delta_trace(*pair, x[:k], "hyvarinen")
    for field in ("per_step", "cumulative", "scores_a", "scores_b"):
        np.testing.assert_array_equal(getattr(prefix, field), getattr(full, field)[:k])


def test_select_semantics():
    assert select(tiny_trace([5.0])).chosen == "A"
    assert select(tiny_trace([-5.0])).chosen == "B"
    assert select(tiny_trace([0.0])).chosen == TIE
    out = select(tiny_trace([5.0]), cutoff=10.0)
    assert out.chosen == "B"
    assert out.cutoff == 10.0
    assert out.d_n == 5.0
    assert select(tiny_trace([5.0]), cutoff=5.0).chosen == TIE


def test_rescaled_rule_scales_trace_and_keeps_selection():
    data = stream(5, 0).standard_normal(50)
    base = delta_trace(A, B, data, ScoreRule.HYVARINEN)
    scaled = delta_trace(A, B, data, rescale_rule(ScoreRule.HYVARINEN, 2.0))
    np.testing.assert_array_equal(scaled.per_step, 2.0 * base.per_step)
    assert scaled.scale == 2.0
    assert select(scaled).chosen == select(base).chosen
    # nonzero cutoff: selecting on the scaled trace at c equals cutoff c/lambda
    for c in [-3.0, 0.25, 7.0]:
        assert select(scaled, cutoff=c).chosen == select(base, cutoff=c / 2.0).chosen


@settings(max_examples=60)
@given(
    lam=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_rescaling_never_flips_zero_cutoff_selection(lam, seed):
    data = stream(seed, 0).standard_normal(12)
    base = delta_trace(A, B, data, "log")
    scaled = delta_trace(A, B, data, rescale_rule("log", lam))
    assert select(scaled).chosen == select(base).chosen


UNIT_PAIRS = {  # model pairs for data in units scaled by a: means scale by a, variances by a^2
    "iidnorm": lambda a: (iid_gaussian_model(0.3 * a, 1.2 * a * a), iid_gaussian_model(-0.1 * a, 0.8 * a * a)),
    "flatloc": lambda a: (flat_prior_location_model(0.9 * a * a), iid_gaussian_model(0.2 * a, 1.1 * a * a)),
    "flatscale": lambda a: (flat_prior_scale_model(0.1 * a), flat_prior_location_model(1.3 * a * a)),
    "ar": lambda a: (
        process_model(ar_process([0.5, -0.2], 0.9 * a * a, 0.4 * a)),
        iid_gaussian_model(0.4 * a, a * a),
    ),
    "ma": lambda a: (
        process_model(ma_process([0.4], 1.1 * a * a, 0.1 * a)),
        process_model(ar_process([0.3], a * a, 0.1 * a)),
    ),
    "arma": lambda a: (
        process_model(arma_process([0.5], [0.4], a * a, -0.2 * a)),
        process_model(ma_process([0.6], 1.2 * a * a, -0.2 * a)),
    ),
}


def _side(trace):
    return {trace.model_a: "A", trace.model_b: "B"}.get(select(trace).chosen, TIE)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(UNIT_PAIRS)),
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32),
    a=st.floats(min_value=1e-30, max_value=1e30),
    power=st.integers(min_value=-60, max_value=60),
)
def test_unit_change_scales_hyvarinen_d_n_and_keeps_the_selection(kind, n, seed, a, power):
    # The gradient-based score has dimension x^-2, so D_n scales by 1/a^2 and
    # the zero-cutoff selection stays, unless D_n lies within rounding of 0.
    x = 0.3 + 1.7 * stream(seed, 0).standard_normal(n)
    base = delta_trace(*UNIT_PAIRS[kind](1.0), x, "hyvarinen")
    size = float(np.abs(base.scores_a).sum() + np.abs(base.scores_b).sum())
    scaled = delta_trace(*UNIT_PAIRS[kind](a), a * x, "hyvarinen")
    assert abs(scaled.final * a * a - base.final) <= 1e-10 * size
    if abs(base.final) > 1e-10 * size:
        assert _side(scaled) == _side(base)
    # a power of two changes no significand: every bit scales exactly
    two = 2.0**power
    exact = delta_trace(*UNIT_PAIRS[kind](two), two * x, "hyvarinen")
    np.testing.assert_array_equal(exact.cumulative * two * two, base.cumulative)
    assert _side(exact) == _side(base)


def test_select_among_agrees_with_pairwise_select():
    data = stream(6, 0).standard_normal(200)
    chosen = select_among([A, B], data, "log")
    assert chosen == select(delta_trace(A, B, data, "log")).chosen


def test_select_among_needs_two_models():
    with pytest.raises(ValueError):
        select_among([A], [1.0], "log")


def test_select_among_breaks_exact_ties_by_list_order():
    twin_one = iid_gaussian_model(0.0, 1.0, identifier="first")
    twin_two = iid_gaussian_model(0.0, 1.0, identifier="second")
    data = stream(7, 0).standard_normal(25)
    assert select_among([twin_one, twin_two], data, "hyvarinen") == "first"
    assert select_among([twin_two, twin_one], data, "hyvarinen") == "second"


def test_select_among_finds_true_variance():
    truth = 1.0
    data = stream(8, 0).standard_normal(2000) * math.sqrt(truth)
    models = [iid_gaussian_model(0.0, v) for v in (0.25, 0.5, 1.0, 2.0, 4.0)]
    for rule in ("log", "hyvarinen"):
        assert select_among(models, data, rule) == "iidnorm(0.0,1.0)"


# ---------------------------------------------------------------------------
# Error context
# ---------------------------------------------------------------------------


def test_log_rule_failure_reports_model_and_observation():
    with pytest.raises(ImproperPredictive, match=r"flatloc\(1\.0\).*observation 1"):
        delta_trace(flat_prior_location_model(1.0), A, [0.3, 1.0], "log")


def test_mid_sequence_failure_reports_observation_index():
    from preqscore import GaussianPredictive
    from preqscore.models import PredictiveModel

    class Stumbler(PredictiveModel):
        identifier = "stumbler"

        def predictive_at(self, history):
            if len(history) == 2:
                raise InsufficientHistory("needs more data")
            return GaussianPredictive(0.0, 1.0)

    with pytest.raises(InsufficientHistory, match=r"'stumbler', observation 3"):
        delta_trace(Stumbler(), A, [0.1, 0.2, 0.3], "log")


def test_error_context_keeps_the_error_attributes():
    from preqscore import NotPositiveDefinite
    from preqscore.stationary import StationaryProcessSpec, process_model

    # gamma(1) > gamma(0): the 2x2 leading block is not positive definite.
    bad = process_model(StationaryProcessSpec(0.0, lambda k: 1.0 if k == 0 else 2.0), identifier="bad")
    with pytest.raises(NotPositiveDefinite) as info:
        delta_trace(bad, A, [0.1, 0.2, 0.3], "log")
    assert info.value.dimension == 2
    assert str(info.value) == "leading 2x2 covariance block is not positive definite (model 'bad', observation 2)"


class _DensityModel(PredictiveModel):
    """A user model whose predictives are densities, optionally wrapped in an
    object that defines nothing but ``.density()``."""

    def __init__(self, identifier, density_at, wrap=False):
        self.identifier, self.density_at, self.wrap = identifier, density_at, wrap

    def predictive_at(self, history):
        q = self.density_at(len(history))
        if not self.wrap:
            return q

        class Wrapped:
            def density(self):
                return q

        return Wrapped()


@pytest.mark.parametrize("rule", ["log", "hyvarinen", rescale_rule("hyvarinen", 0.3)])
def test_predictive_with_only_a_density_method_scores_like_its_density(rule):
    def density_at(n):
        return student_t_density(0.1 * n, 1.0 + n, 3.0 + n)

    x = 0.4 + stream(3, 0).standard_normal(12)
    wrapped = delta_trace(_DensityModel("user", density_at, wrap=True), A, x, rule)
    direct = delta_trace(_DensityModel("user", density_at), A, x, rule)
    assert wrapped.scores_a.tobytes() == direct.scores_a.tobytes()


def _log_of_x(n):
    return DensityWithDerivatives(logpdf=math.log, dlogpdf=lambda x: 1.0 / x, d2logpdf=lambda x: -1.0 / (x * x))


# g = x with a declared derivative dg(x) = x that is not positive at -2
_BAD_DERIVATIVE = MonotoneTransform(
    g=lambda x: x, dg=lambda x: x, d2g=lambda x: 1.0, d3g=lambda x: 0.0, inverse=lambda y: y, name="bad"
)


@pytest.mark.parametrize(
    "model, identifier",
    [
        (_DensityModel("user", _log_of_x), "user"),
        (TransformedModel(iid_gaussian_model(0.0, 1.0), _BAD_DERIVATIVE), "bad:iidnorm(0.0,1.0)"),
    ],
)
def test_value_error_inside_a_density_is_located(model, identifier):
    with pytest.raises(ValueError, match=rf"^math domain error \(model '{re.escape(identifier)}', observation 2\)$") as info:
        delta_trace(model, A, [1.0, -2.0, 3.0], "log")
    assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "model, identifier",
    [
        (_DensityModel("bare", lambda n: object()), "bare"),
        (TransformedModel(_DensityModel("bare", lambda n: object()), cubic_plus_linear_transform()), "cubic_plus_linear:bare"),
    ],
)
def test_predictive_without_a_density_is_a_located_type_error(model, identifier):
    message = rf"^cannot score object of type object \(model '{re.escape(identifier)}', observation 1\)$"
    for rule in ("log", "hyvarinen"):
        with pytest.raises(TypeError, match=message) as info:
            delta_trace(A, model, [0.5, 1.0], rule)
        assert type(info.value) is TypeError
    if isinstance(model, TransformedModel):  # its pass and predictive_at raise the scorer's error
        with pytest.raises(TypeError, match="^cannot score object of type object$"):
            model.predictive_at([0.5])


def test_hyvarinen_rule_tolerates_improper_starts():
    t = delta_trace(flat_prior_location_model(1.0), A, [0.3, 1.0, -0.4], "hyvarinen")
    assert t.scores_a[0] == 0.0
    assert np.all(np.isfinite(t.per_step))


# ---------------------------------------------------------------------------
# Per-observation linkage between the two rules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variance", [0.25, 1.0, 4.0])
def test_equal_variance_location_pair_links_rules(variance, n=100):
    data = 0.3 + math.sqrt(variance) * stream(9, 0).standard_normal(n)
    pair = (
        iid_gaussian_model(0.0, variance),
        iid_gaussian_model(1.0, variance),
    )
    d_log = delta_trace(*pair, data, "log").per_step
    d_hyv = delta_trace(*pair, data, "hyvarinen").per_step
    assert np.max(np.abs(d_hyv - (2.0 / variance) * d_log)) <= 1e-12


# ---------------------------------------------------------------------------
# Summation and serialization
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False), max_size=60))
def test_compensated_cumsum_tracks_fsum(values):
    out = compensated_cumsum(values)
    assert out.shape == (len(values),)
    budget = 1e-12 * max(1.0, math.fsum(abs(v) for v in values))
    for i in range(len(values)):
        assert abs(out[i] - math.fsum(values[: i + 1])) <= budget


def test_compensated_cumsum_beats_naive_on_cancellation():
    values = [1e16, 1.0, -1e16, 1.0] * 10
    out = compensated_cumsum(values)
    assert out[-1] == math.fsum(values)


DBL_MAX = sys.float_info.max
_SUMMANDS = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e12, -1e12, 1e16, -1e16, 1e308, -1e308]),
    st.floats(min_value=-sys.float_info.min, max_value=sys.float_info.min),  # subnormals and zeros
    st.sampled_from([DBL_MAX, -DBL_MAX, 2.0**970, -(2.0**970), 2.0**-53, -(2.0**-53), 2.0**-106]),
)


@settings(max_examples=300)
@given(st.lists(_SUMMANDS, max_size=80))
@example([])
@example([1.0, 2.5, 1e12, -3.0, 0.1])
@example([1e16, 1.0, -1e16, 1.0] * 10)
@example([1e308, -1.0, 1e308, 2.0])
@example([1.0, 2.0**-53])  # an exact midpoint, rounded to even: 1.0
@example([1.0, 2.0**-53, 2.0**-106])  # just past it: 1 + 2**-52
@example([8.903294146569623e-155, 1.0, 1e16])
@example([DBL_MAX, 2.0**969, 2.0**969])
def test_compensated_cumsum_is_the_correctly_rounded_prefix_sum(values):
    try:
        expected = correctly_rounded_prefix_sums(values)
    except NonFiniteValue as e:
        with pytest.raises(NonFiniteValue, match=f"^{re.escape(str(e))}$") as info:
            compensated_cumsum(values)
        assert info.value.index == e.index
        return
    np.testing.assert_array_equal(compensated_cumsum(values).view(np.int64), expected.view(np.int64))


def test_the_neumaier_loop_misrounds_a_broken_tie():
    values = [8.903294146569623e-155, 1.0, 1e16]  # 1e16 + 1 is a midpoint; the tiny term breaks the tie
    assert compensated_cumsum_loop(values)[-1] == 1e16
    assert compensated_cumsum(values)[-1] == math.fsum(values) == 1.0000000000000002e16


# Two iid models whose log scores are -0.0 and x, so the per-step deltas of a trace are its data.
ZERO = IIDModel(DensityWithDerivatives(lambda x: 0.0, lambda x: 0.0, lambda x: 0.0), "zero")
ECHO = IIDModel(DensityWithDerivatives(lambda x: -x, lambda x: -1.0, lambda x: 0.0), "echo")


def _d_n_four_ways(row, monkeypatch) -> list[float]:
    """D_n of ``row`` as a trace's final and last cumulative, select_among's total and an experiment's."""
    trace = delta_trace(ZERO, ECHO, row, "log")
    np.testing.assert_array_equal(trace.per_step, row)
    totals = []
    monkeypatch.setattr(prequential, "_argmin", lambda values: totals.extend(values) or 0)
    select_among([ECHO, ZERO], row, "log")
    rec = {"replicate": 0}
    _decide(rec, "log", np.array(row), SimpleNamespace(cutoff=0.0), (ZERO, ECHO))
    return [trace.final, float(trace.cumulative[-1]), totals[0], rec["d_n_log"]]


@pytest.mark.parametrize(
    "row, total",
    [
        ([2.000190699443628e16, 1.0601882232353402e16, 3.0041048132851084e-21], 3.0603789226789684e16),
        ([8.903294146569623e-155, 1.0, 1e16], 1.0000000000000002e16),
    ],
)
def test_a_trace_a_selection_and_an_experiment_total_d_n_alike(row, total, monkeypatch):
    assert [v.hex() for v in _d_n_four_ways(row, monkeypatch)] == [total.hex()] * 4


def test_every_order_of_a_sum_that_fits_totals_exactly_where_fsum_overflows(monkeypatch):
    terms = [DBL_MAX, -(2.0**970), -9e307]
    exact = float(sum(map(Fraction, terms)))
    overflowed = 0
    for order in itertools.permutations(terms):
        try:
            math.fsum(order)
        except OverflowError:
            overflowed += 1
        assert [v.hex() for v in _d_n_four_ways(list(order), monkeypatch)] == [exact.hex()] * 4, order
    assert overflowed == 2


def test_a_running_sum_that_rounds_past_dbl_max_raises():
    values = [DBL_MAX, 2.0**969, 2.0**969]  # every float running sum is DBL_MAX; the exact third is not
    with pytest.raises(NonFiniteValue, match=r"^running sum is inf at term 3$") as info:
        compensated_cumsum(values)
    assert info.value.index == 3
    with pytest.raises(NonFiniteValue, match=r"^running sum is inf at term 3$") as info:
        delta_trace(ZERO, ECHO, values, "log")
    assert info.value.index == 3
    with pytest.raises(NonFiniteValue, match=r"at term 3 \(model 'echo', observation 3\)$") as info:
        select_among([ECHO, ZERO], values, "log")
    assert info.value.index == 3
    with pytest.raises(NonFiniteValue, match=r"^replicate 0: a sum of score differences overflows$"):
        _d_n({"replicate": 0}, np.array(values))


def test_trace_csv_exact_format():
    t = delta_trace(A, B, [0.0, 2.0], "hyvarinen")
    text = trace_csv_text(t)
    lines = text.splitlines()
    assert lines[0] == ",".join(TRACE_CSV_COLUMNS)
    assert lines[1] == "1,0.0,-2.0,-1.0,1.0,1.0"
    assert lines[2] == "2,2.0,2.0,-1.0,-3.0,-2.0"
    assert text.endswith("\n")


def test_write_trace_csv_roundtrips_floats():
    data = stream(10, 0).standard_normal(20)
    t = delta_trace(A, B, data, "log")
    buf = io.StringIO()
    write_trace_csv(t, buf)
    rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
    for i, row in enumerate(rows):
        assert int(row[0]) == i + 1
        assert float(row[1]) == t.data[i]
        assert float(row[4]) == t.per_step[i]
        assert float(row[5]) == t.cumulative[i]
