"""Sequential model comparison by cumulative score differences.

Each observation is scored under the one-step predictive each model forms
from all earlier observations; the per-step differences (model B minus
model A, scores being losses) accumulate into D_n.  The model whose
predictions have performed best so far is selected by comparing D_n to a
cutoff, zero by default: D_n > cutoff favours A, D_n < cutoff favours B.

Nothing here requires the predictives to be proper.  Under the
gradient-based rule a model may emit improper predictives (flat-prior
models do, early on) and still be compared; under the log rule the same
model raises at the offending observation.

Every score row, for traces, selections and the experiment runners, comes
from one fold: a loop over each model's predictives pass, scoring each with
the one checked scorer that decides how any predictive meets a rule, and ahead
of it the same kernels on whole rows of one family, bit for bit equal: an iid
model's one law from step 1 (an observation at a time for a law with no array
kernel, such as a pushforward density), MA, ARMA and user-autocovariance
processes from step 1 (the moments of one pass), AR(p) after step p, and under
hyvarinen flatloc and flatscale after step 1.  A non-finite score or any failure
in a model's row sends that model alone back to the loop, which raises its usual,
located error; the other models keep their rows.

D_n drives decisions, and a plain running sum can drift enough to flip its sign
near the cutoff, so every total and running sum is correctly rounded.
"""

from __future__ import annotations

import copy
import csv
import functools
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyTrace, NonFiniteValue, PreqscoreError
from .models import PredictiveModel, _check_history, _prefix_sums
from .scores import ScaledRule, ScoreRule, _row_kernel, _score, as_rule

__all__ = [
    "TIE",
    "DeltaTrace",
    "SelectionOutcome",
    "delta_trace",
    "select",
    "select_among",
    "compensated_cumsum",
    "write_trace_csv",
    "trace_csv_text",
    "TRACE_CSV_COLUMNS",
]

TIE = "tie"

TRACE_CSV_COLUMNS = ("index", "x", "score_a", "score_b", "delta", "cumulative")


def compensated_cumsum(values) -> np.ndarray:
    """The correctly rounded sum of each prefix of ``values``, D_1..D_n: the exact sum of
    its terms, rounded once.  A running sum that is not finite raises
    :class:`NonFiniteValue` indexed by its term, never a NaN."""
    v = np.asarray(values, dtype=float)
    try:
        sums = _prefix_sums(v)
    except NonFiniteValue as e:  # the first exact sum that overflows has the sign of its last term
        sums = np.append(np.zeros(e.index - 1), math.copysign(math.inf, v[e.index - 1]))
    bad = np.flatnonzero(~np.isfinite(sums))
    if bad.size:
        raise NonFiniteValue(f"running sum is {float(sums[bad[0]])!r} at term {bad[0] + 1}", index=int(bad[0]) + 1)
    return sums


def _total(values: np.ndarray) -> float:
    """The last of :func:`compensated_cumsum`, by ``math.fsum`` unless its partials overflow."""
    try:
        total = math.fsum(values.tolist())
    except (OverflowError, ValueError):  # ValueError: inf - inf among the terms
        total = math.nan
    return total if math.isfinite(total) else float(compensated_cumsum(values)[-1])


@dataclass(frozen=True)
class DeltaTrace:
    """Per-step and cumulative score differences between two models.

    ``per_step[i] = S(x_i, B's predictive) - S(x_i, A's predictive)``, so
    positive entries mean A predicted better at that step.  ``cumulative``
    holds the correctly rounded running sums D_1..D_n, computed on first read.
    """

    per_step: np.ndarray
    rule_id: ScoreRule
    scale: float
    model_a: str
    model_b: str
    data: np.ndarray
    scores_a: np.ndarray
    scores_b: np.ndarray

    def __len__(self):
        return len(self.per_step)

    cumulative = functools.cached_property(lambda self: compensated_cumsum(self.per_step))

    @functools.cached_property
    def final(self) -> float:
        """D_n at the last observation, ``cumulative[-1]`` bit for bit."""
        if len(self.per_step) == 0:
            raise EmptyTrace("trace has no observations")
        return _total(self.per_step)


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of thresholding D_n: the chosen model id, or TIE at equality."""

    chosen: str
    cutoff: float
    d_n: float


def _score_matrix(models: Sequence[PredictiveModel], data, rule) -> tuple[np.ndarray, np.ndarray, ScaledRule]:
    """Score every observation prequentially under every model.

    Returns the validated data, the (models, observations) score matrix and
    the coerced rule; a rule that scores no density raises ``ValueError``, whatever
    the data.  Row tails filled by :func:`_array_rows` are skipped; the scalar loop
    scores the rest from one ``predictives`` pass per model, visiting observations
    in order and, at each one, the models in list order, with the checked scorer ``_score``.
    A ``PreqscoreError`` (:class:`NonFiniteValue` included), ``ValueError`` or ``TypeError``
    keeps its class and is re-raised with the model and the 1-based observation index.
    """
    r = as_rule(rule)
    if r.base is not ScoreRule.LOG and r.base is not ScoreRule.HYVARINEN:
        raise ValueError(f"rule {r.base.value} is not defined for predictive densities")
    x = _check_history(data)
    scores = np.zeros((len(models), x.size))
    ends = _array_rows(models, x, r, scores)
    folds = [model.predictives(x) for model in models]
    for i in range(max(ends, default=0)):
        xi = float(x[i])
        for m, model in enumerate(models):
            if i >= ends[m]:
                continue
            try:
                scores[m, i] = _score(xi, next(folds[m]), r)
            except (PreqscoreError, ValueError, TypeError) as e:
                raise _located(e, model, i) from e
    return x, scores, r


def _array_rows(models: Sequence[PredictiveModel], x: np.ndarray, r: ScaledRule, scores: np.ndarray) -> list[int]:
    """Fill each row tail of the zero matrix ``scores`` that a model's
    :meth:`~PredictiveModel.predictive_rows` covers (an iid model, every process model,
    and flatloc and flatscale under hyvarinen) with the kernel
    :func:`~preqscore.scores._row_kernel` picks: the family's array kernel, or for one
    with none, such as a pushforward density, the row's one law scored an observation
    at a time.

    Returns, per model, the number of leading observations left to the scalar
    loop; all of them for a model whose row raises or scores a non-finite value.
    """
    ends = [x.size] * len(models)
    with np.errstate(all="ignore"):
        for m, model in enumerate(models):
            try:
                rows = model.predictive_rows(x, r.base)
                if rows is not None:
                    k, family, laws = rows
                    row = np.multiply(r.scale, _row_kernel(family, r.base)(x[k:], laws), out=scores[m, k:])
                    if np.isfinite(row).all():
                        ends[m] = k
            except Exception:  # a row may run user code (an autocovariance, a density); the loop re-raises in order
                pass
    return ends


def _located(e: Exception, model: PredictiveModel, i: int) -> Exception:
    """Copy of ``e``, attributes kept, whose message names the model and observation
    i + 1, which also becomes the index of an unindexed :class:`NonFiniteValue`."""
    err = copy.copy(e)
    err.args = (f"{e} (model {model.identifier!r}, observation {i + 1})",)
    if isinstance(err, NonFiniteValue) and err.index is None:
        err.index = i + 1
    return err


def delta_trace(
    model_a: PredictiveModel,
    model_b: PredictiveModel,
    data,
    rule,
) -> DeltaTrace:
    """Score every observation prequentially under both models.

    Non-finite or non-1-D data is rejected up front.  Scoring errors (e.g. a
    log score on an improper early predictive) are re-raised with the 1-based
    index of the offending observation attached, and a running sum D_i that
    overflows raises :class:`NonFiniteValue` indexed by i.
    """
    x, (sa, sb), r = _score_matrix((model_a, model_b), data, rule)
    trace = DeltaTrace(
        per_step=sb - sa,
        rule_id=r.base,
        scale=r.scale,
        model_a=model_a.identifier,
        model_b=model_b.identifier,
        data=x,
        scores_a=sa,
        scores_b=sb,
    )
    if x.size:
        trace.final  # cached: a running sum that does not fit raises here, at its term
    return trace


def _choose(d_n: float, cutoff: float, id_a: str, id_b: str) -> str:
    """D_n > cutoff favours A, D_n < cutoff favours B, equality is a tie."""
    if d_n > cutoff:
        return id_a
    if d_n < cutoff:
        return id_b
    return TIE


def _argmin(values: Sequence[float]) -> int:
    """Index of the smallest value; exact ties go to the lowest index."""
    return min(range(len(values)), key=values.__getitem__)


def select(trace: DeltaTrace, cutoff: float = 0.0) -> SelectionOutcome:
    """Choose between the trace's two models by comparing D_n to the cutoff."""
    if not math.isfinite(cutoff):
        raise ValueError(f"cutoff must be finite, got {cutoff}")
    d_n = trace.final  # raises EmptyTrace on an empty trace
    return SelectionOutcome(chosen=_choose(d_n, cutoff, trace.model_a, trace.model_b), cutoff=cutoff, d_n=d_n)


def select_among(models: Sequence[PredictiveModel], data, rule) -> str:
    """Identifier of the model with the smallest cumulative score.

    Works for any finite number of models, not just two.  Exact ties go to
    the lowest list index, so duplicated models resolve deterministically.
    """
    if len(models) < 2:
        raise ValueError(f"need at least 2 models, got {len(models)}")
    x, scores, _ = _score_matrix(models, data, rule)
    if not x.size:
        raise EmptyTrace("no observations to select on")
    totals = []
    for model, row in zip(models, scores):
        try:
            totals.append(_total(row))
        except NonFiniteValue as e:
            raise _located(e, model, e.index - 1) from e
    return models[_argmin(totals)].identifier


def write_trace_csv(trace: DeltaTrace, fileobj) -> None:
    """Serialize a trace with the fixed column set, full float precision."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(TRACE_CSV_COLUMNS)
    columns = (trace.data, trace.scores_a, trace.scores_b, trace.per_step, trace.cumulative)
    writer.writerows([i, *row] for i, row in enumerate(np.column_stack(columns).tolist(), start=1))


def trace_csv_text(trace: DeltaTrace) -> str:
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()
