"""Trace construction, selection semantics, serialization, summation accuracy."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preqscore import (
    TIE,
    TRACE_CSV_COLUMNS,
    DeltaTrace,
    EmptyTrace,
    ImproperPredictive,
    InsufficientHistory,
    NonFiniteValue,
    ScoreRule,
    TransformedModel,
    ar_process,
    compensated_cumsum,
    cubic_plus_linear_transform,
    delta_trace,
    flat_prior_location_model,
    flat_prior_scale_model,
    iid_gaussian_model,
    ma_process,
    process_model,
    rescale_rule,
    score_predictive,
    select,
    select_among,
    stream,
    trace_csv_text,
    write_trace_csv,
)
from preqscore.prequential import _score_matrix

A = iid_gaussian_model(0.0, 1.0)
B = iid_gaussian_model(1.0, 1.0)


def tiny_trace(per_step, rule=ScoreRule.HYVARINEN):
    per_step = np.asarray(per_step, dtype=float)
    return DeltaTrace(
        per_step=per_step,
        cumulative=compensated_cumsum(per_step),
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
    return [[score_predictive(float(x[i]), m.predictive_at(x[:i]), rule).value for i in range(x.size)] for m in models]


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
    tail = models[1].gaussian_predictives(x)
    if n > len(phis):
        k, means, _ = tail
        assert k == len(phis)
        assert means.tolist() == [models[1].predictive_at(x[:i]).mean for i in range(k, n)]
    else:
        assert tail is None


PREFIX_MODELS = {
    "iidnorm": lambda: iid_gaussian_model(0.3, 1.2),
    "flatloc": lambda: flat_prior_location_model(1.0),
    "flatscale": lambda: flat_prior_scale_model(0.0),
    "ar": lambda: process_model(ar_process([0.5, -0.2], 1.0, 0.4)),
    "ma": lambda: process_model(ma_process([0.4], 1.0)),
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
