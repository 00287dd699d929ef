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
from one fold with two scorers: a scalar loop over each model's predictives
pass, and an array scorer for models whose predictives from some step on are
normal laws known in advance as arrays (iid normal; AR(p) after step p).
Both apply the same kernels to the same floats, so they agree bit for bit.
A non-finite score in the array scorer sends every row back to the loop,
which raises its usual, located error.

Cumulative sums use compensated (Kahan) summation: D_n drives decisions,
and plain running sums can drift enough to flip a sign near the cutoff.
"""

from __future__ import annotations

import copy
import csv
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyTrace, NonFiniteValue, PreqscoreError
from .models import PredictiveModel, _check_history
from .scores import _GAUSSIAN_KERNELS, ScaledRule, ScoreRule, as_rule, score_predictive

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
    """Running sums with Neumaier compensation (matches fsum prefixes to ~1 ulp).

    Unlike plain Kahan summation this stays accurate when a term dwarfs the
    running total, the case a large score spike produces.
    """
    out = np.empty(len(values))
    total = 0.0
    c = 0.0
    for i, raw in enumerate(values):
        v = float(raw)
        t = total + v
        if abs(total) >= abs(v):
            c += (total - t) + v
        else:
            c += (v - t) + total
        total = t
        out[i] = total + c
    return out


@dataclass(frozen=True)
class DeltaTrace:
    """Per-step and cumulative score differences between two models.

    ``per_step[i] = S(x_i, B's predictive) - S(x_i, A's predictive)``, so
    positive entries mean A predicted better at that step.  ``cumulative``
    holds the compensated running sums D_1..D_n.
    """

    per_step: np.ndarray
    cumulative: np.ndarray
    rule_id: ScoreRule
    scale: float
    model_a: str
    model_b: str
    data: np.ndarray
    scores_a: np.ndarray
    scores_b: np.ndarray

    def __len__(self):
        return len(self.per_step)

    @property
    def final(self) -> float:
        """D_n at the last observation."""
        if len(self.per_step) == 0:
            raise EmptyTrace("trace has no observations")
        return float(self.cumulative[-1])


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of thresholding D_n: the chosen model id, or TIE at equality."""

    chosen: str
    cutoff: float
    d_n: float


def _score_matrix(models: Sequence[PredictiveModel], data, rule) -> tuple[np.ndarray, np.ndarray, ScaledRule]:
    """Score every observation prequentially under every model.

    Returns the validated data, the (models, observations) score matrix and
    the coerced rule.  Row tails filled by :func:`_array_rows` are skipped;
    the scalar loop scores the rest from one ``predictives`` pass per model,
    visiting observations in order and, at each one, the models in list
    order.  A failure is re-raised with the model and the 1-based index of
    the offending observation attached; arithmetic failures and non-finite
    scores become :class:`NonFiniteValue`.
    """
    r = as_rule(rule)
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
                value = score_predictive(xi, next(folds[m]), r).value
                if not math.isfinite(value):
                    raise NonFiniteValue(f"score is {value!r}", index=i + 1)
            except ArithmeticError as e:
                raise _located(NonFiniteValue(f"score is not finite: {e!r}", index=i + 1), model, i) from e
            except PreqscoreError as e:
                raise _located(e, model, i) from e
            scores[m, i] = value
    return x, scores, r


def _array_rows(models: Sequence[PredictiveModel], x: np.ndarray, r: ScaledRule, scores: np.ndarray) -> list[int]:
    """Fill each row tail of the zero matrix ``scores`` that a model's
    :meth:`~PredictiveModel.gaussian_predictives` covers.

    Returns, per model, the number of leading observations left to the
    scalar loop; all of them for every model after a non-finite score or an
    arithmetic failure.
    """
    scalar = [x.size] * len(models)
    kernel = _GAUSSIAN_KERNELS.get(r.base)
    if kernel is None:
        return scalar
    ends = scalar.copy()
    try:
        with np.errstate(all="ignore"):
            for m, model in enumerate(models):
                tail = model.gaussian_predictives(x)
                if tail is not None:
                    k, means, variance = tail
                    np.multiply(r.scale, kernel(x[k:], means, variance), out=scores[m, k:])
                    ends[m] = k
    except ArithmeticError:
        return scalar
    return ends if np.isfinite(scores).all() else scalar


def _located(e: PreqscoreError, model: PredictiveModel, i: int) -> PreqscoreError:
    """Copy of ``e``, attributes kept, whose message names the model and observation i + 1."""
    err = copy.copy(e)
    err.args = (f"{e} (model {model.identifier!r}, observation {i + 1})",)
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
    index of the offending observation attached.
    """
    x, (sa, sb), r = _score_matrix((model_a, model_b), data, rule)
    per_step = sb - sa
    return DeltaTrace(
        per_step=per_step,
        cumulative=compensated_cumsum(per_step),
        rule_id=r.base,
        scale=r.scale,
        model_a=model_a.identifier,
        model_b=model_b.identifier,
        data=x,
        scores_a=sa,
        scores_b=sb,
    )


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
    totals = [float(compensated_cumsum(row)[-1]) if x.size else 0.0 for row in scores]
    return models[_argmin(totals)].identifier


def _format(v: float) -> str:
    return repr(float(v))


def write_trace_csv(trace: DeltaTrace, fileobj) -> None:
    """Serialize a trace with the fixed column set, full float precision."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(TRACE_CSV_COLUMNS)
    for i in range(len(trace)):
        writer.writerow(
            [
                i + 1,
                _format(trace.data[i]),
                _format(trace.scores_a[i]),
                _format(trace.scores_b[i]),
                _format(trace.per_step[i]),
                _format(trace.cumulative[i]),
            ]
        )


def trace_csv_text(trace: DeltaTrace) -> str:
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()
