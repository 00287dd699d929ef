"""One-step-ahead predictive models.

A model maps a history ``(x_1, ..., x_{i-1})`` to the conditional law of the
next observation.  Two kinds are provided: fully specified models, whose every
predictive is one law, and parametric normal models under flat, possibly improper,
priors.  The latter are the interesting case: their early predictives are
improper, which breaks the log score but not gradient-based scoring.

Predictives are full Bayesian (parameters integrated out), not plug-in.
Models hold no mutable state: a pass over a series is the iterator
``predictives``, O(n) for every built-in kind.  It carries O(1) state (the
flat-prior models one exact integer total), except that a transformed
model keeps the pulled-back series, an O(n) array.  A pass adds the history
exactly and rounds each sufficient statistic once, so every permutation of
an exchangeable history yields bit-identical predictives; a total that
overflows raises :class:`NonFiniteValue`.  ``predictive_at`` is the last law
of a pass over the history, for every kind.
``predictive_rows`` gives the same laws as rows of one family: an iid model's law,
and under hyvarinen arrays of normal laws for flatloc and Student-t for flatscale
from the same sums by :func:`_prefix_sums` (under log their improper start raises).
"""

from __future__ import annotations

import collections
import itertools
import math
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .densities import (
    FLAT_DENSITY,
    DensityWithDerivatives,
    MonotoneTransform,
    pushforward_density,
)
from .errors import InsufficientHistory, NonFiniteValue, NonPositiveVariance
from .scores import GaussianPredictive, ScoreRule, StudentTPredictive, _density

__all__ = [
    "PredictiveModel",
    "TransformedModel",
    "iid_gaussian_model",
    "flat_prior_location_model",
    "flat_prior_scale_model",
]


class PredictiveModel:
    """Base class: immutable after construction.  A subclass defines ``predictive_at``,
    ``predictives`` or both; the base class derives the one left out from the other."""

    identifier: str

    def predictive_at(self, history: Sequence[float]):
        """Conditional law of observation ``len(history) + 1`` given the history: by
        default the last law of ``predictives`` over it."""
        if type(self).predictives is PredictiveModel.predictives:
            raise NotImplementedError(f"{type(self).__name__} defines neither predictive_at nor predictives")
        return collections.deque(self.predictives(_check_history(history)), maxlen=1).pop()

    def predictives(self, x: np.ndarray):
        """Predictives of observations 1..n+1 of the validated series ``x``, in
        order; ``x[i]`` is read only after the (i+1)-th is yielded.  Each call is a
        fresh pass.  By default, ``predictive_at`` of each prefix."""
        for i in range(x.size + 1):
            yield self.predictive_at(x[:i])

    def predictive_rows(self, x: np.ndarray, rule: ScoreRule):
        """``(k, family, laws)``: for observations k+1..n of the validated series ``x``
        the predictive is the ``family`` law whose fields ``laws`` holds, each a float or
        n - k entries, or ``laws`` itself for a family with no array kernel, bit for bit
        ``predictive_at(x[:i])``; the fold scores them under ``rule``.  The default, None,
        leaves every step to ``predictives``."""
        return None

    def __repr__(self):
        return f"<{type(self).__name__} {self.identifier}>"


def _check_history(history) -> np.ndarray:
    """A series of observations as a 1-D float array; every entry must be finite."""
    h = np.asarray(history, dtype=float)
    if h.ndim != 1:
        raise ValueError(f"observations must be one-dimensional, got shape {h.shape}")
    if not np.isfinite(h).all():
        i = int(np.flatnonzero(~np.isfinite(h))[0]) + 1
        raise _non_finite(i, h[i - 1])
    return h


def _non_finite(i: int, v: float) -> NonFiniteValue:
    """The error for observation ``i`` (1-based), whose value ``v`` is not finite."""
    return NonFiniteValue(f"observation {i} is {float(v)!r}; observations must be finite", index=i)


def _prefix_fsums(terms):
    """The correctly rounded sum of each prefix of ``terms``, so ``math.fsum`` of it
    wherever fsum returns.  A finite float is a whole number of units 2**-1074, so the
    total is one exact integer, rounded once by the division; a term is read only after
    the sum before it is yielded.  From a non-finite term on, a sum is the float sum of
    those terms, and a sum that overflows raises an unindexed :class:`NonFiniteValue`."""
    total, special = 0, 0.0
    for v in terms:
        if math.isfinite(v):
            n, d = v.as_integer_ratio()
            total += n << (1075 - d.bit_length())
        else:
            special += v
        try:
            s = special or total / (1 << 1074)
        except OverflowError:
            raise NonFiniteValue("the running sum overflows") from None
        yield s


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """:func:`_prefix_fsums` of the float array ``x`` bit for bit, vectorised (Ogita, Rump & Oishi
    2005): the cumsum ``s`` plus the cumsum ``E`` of its TwoSum errors rounds once to ``r``, certified
    where the exact rest ``d + sum(e2)`` (``d`` the residual of ``r``, ``e2`` the errors of ``E``'s
    steps), bounded as in Higham ch. 4, lies strictly within half a spacing of ``r``, or where ``E`` is
    exact; prefixes up to the last one not certified, or all where ``s`` is not finite, are summed
    exactly, and an overflow there is indexed by its term."""
    n = last = x.size
    r = np.empty(n)
    with np.errstate(all="ignore"):
        s = np.cumsum(x)
        if n and math.isfinite(s[-1]):  # five arrays of n: s, e, t, big_e and r
            e, t = np.zeros(n), np.empty(n)
            _two_sum_error(s[:-1], x[1:], s[1:], e[1:], t[1:])  # e[0] = 0: s[0] is x[0]
            big_e = np.cumsum(e)
            _two_sum_error(big_e[:-1], e[1:], big_e[1:], e[1:], t[1:])  # e becomes e2
            d = _two_sum_error(s, big_e, np.add(s, big_e, out=r), big_e, t)
            c = np.abs(np.add(d, np.cumsum(e, out=s), out=d), out=d)  # |d + sum(e2)|, rounded
            abs_e2 = np.cumsum(np.abs(e, out=e), out=s)
            # 2(n + 2)u covers gamma_n on sum(e2) and the rounding of c and of the bound itself
            bound = np.add(c, np.multiply(np.add(abs_e2, c, out=t), (n + 2) * math.ulp(1.0), out=t), out=t)
            half = np.multiply(np.spacing(np.nextafter(np.abs(r, out=e), 0.0, out=e), out=e), 0.5, out=e)
            uncertified = np.flatnonzero(~((bound < half) | ((abs_e2 == 0.0) & (c < math.inf))))
            last = uncertified[-1] + 1 if uncertified.size else 0
    exact = _prefix_fsums(x[:last].tolist())
    for k in range(last):
        try:
            r[k] = next(exact)
        except NonFiniteValue:
            raise NonFiniteValue("the running sum overflows", index=k + 1) from None
    return r


def _two_sum_error(a, b, s, out, tmp):
    """Knuth's TwoSum: the exact error (a + b) - s of ``s = a + b`` into ``out``, which may be ``b``."""
    bb = np.subtract(s, a, out=tmp)
    np.subtract(b, bb, out=out)
    return np.add(np.subtract(a, np.subtract(s, bb, out=tmp), out=tmp), out, out=out)


def _require_finite(**params: float) -> None:
    """Reject a NaN or infinite model parameter when the model is built, naming it."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise NonFiniteValue(f"{name} must be finite, got {float(value)!r}")


class IIDModel(PredictiveModel):
    """Fully specified model: every predictive is the one law ``law``."""

    def __init__(self, law, identifier: str):
        self.law = law
        self.identifier = identifier

    def predictives(self, x):
        return itertools.repeat(self.law, x.size + 1)

    def predictive_rows(self, x, rule):
        return 0, type(self.law), self.law  # one law, every row's


class FlatPriorLocationModel(PredictiveModel):
    """Normal model with known variance and a flat prior on the mean.

    With no data the predictive is the improper :data:`FLAT_DENSITY`.  After n
    observations the posterior for the mean is N(sample mean, v/n), giving
    the proper predictive N(sample mean, v (1 + 1/n)).
    """

    def __init__(self, variance: float, identifier: str | None = None):
        _require_finite(variance=variance)
        if not variance > 0:
            raise NonPositiveVariance(f"variance must be positive, got {variance}")
        if not 2.0 * variance < math.inf:  # v (1 + 1/n) at n = 1, the largest predictive variance
            raise NonFiniteValue(f"variance {float(variance)!r} overflows the predictive variance 2 * variance")
        self.variance = float(variance)
        self.identifier = identifier or f"flatloc({self.variance})"

    def predictives(self, x):
        yield FLAT_DENSITY
        for n, total in enumerate(_prefix_fsums(map(float, x)), start=1):
            yield GaussianPredictive(total / n, self.variance * (1.0 + 1.0 / n))

    def predictive_rows(self, x, rule):
        if rule is not ScoreRule.HYVARINEN or x.size < 2:
            return None  # under log the improper start raises at observation 1
        n = np.arange(1.0, x.size)
        return 1, GaussianPredictive, SimpleNamespace(mean=_prefix_sums(x[:-1]) / n, variance=self.variance * (1.0 + 1.0 / n))


class FlatPriorScaleModel(PredictiveModel):
    """Normal model with known mean and prior density 1/v on the variance.

    After n observations whose squared deviations from the known mean are not
    all zero, the posterior for the variance is proper and the predictive is
    Student-t with ``dof = n`` centered at the known mean with scale
    sqrt(mean squared deviation).

    Otherwise, with no data in particular, the predictive is the improper
    density proportional to 1/|x - mean|^(n+1).  Its log density is C2 away
    from the known mean, a set the data hits with probability zero, so it is
    declared smooth and can be scored by the gradient-based rule (score
    (n+1)(n+3)/(x - mean)^2); a log score request raises :class:`InsufficientHistory`.
    """

    def __init__(self, mean: float, identifier: str | None = None):
        _require_finite(mean=mean)
        self.mean = float(mean)
        self.identifier = identifier or f"flatscale({self.mean})"

    def predictives(self, x):
        squares = (d * d for d in (float(v) - self.mean for v in x))  # each a product, as np.square in the rows
        return itertools.starmap(self._law, enumerate(itertools.chain([0.0], _prefix_fsums(squares))))

    def predictive_rows(self, x, rule):
        if rule is not ScoreRule.HYVARINEN or x.size < 2:
            return None  # under log the improper start raises at observation 1
        ss = _prefix_sums(np.square(x[:-1] - self.mean))
        n = np.arange(1.0, x.size)  # a zero ss scores NaN, so the loop scores and raises as before
        return 1, StudentTPredictive, SimpleNamespace(center=self.mean, scale=np.sqrt(ss / n), dof=n)

    def _law(self, n: int, ss: float):
        """Predictive after ``n`` observations whose squared deviations sum to ``ss``: where ``ss`` is 0
        the posterior, proportional to v^(-n/2-1), is improper, and so is this law, 1/|x - mean|^(n+1)."""
        if ss != 0.0:
            # a subnormal ss whose ss / n rounds to 0 still has a positive scale
            return StudentTPredictive(center=self.mean, scale=math.sqrt(ss / n) or math.sqrt(ss) / math.sqrt(n), dof=float(n))
        mean, k = self.mean, n + 1.0
        return DensityWithDerivatives(
            logpdf=lambda x: -k * math.log(abs(x - mean)),
            dlogpdf=lambda x: -k / (x - mean),
            d2logpdf=lambda x: k / ((x - mean) * (x - mean)),
            proper=False,
            smooth=True,
            improper_error=InsufficientHistory,
        )


def iid_gaussian_model(mean: float, variance: float, identifier: str | None = None) -> PredictiveModel:
    """Fully specified iid normal model N(mean, variance)."""
    _require_finite(mean=mean, variance=variance)
    law = GaussianPredictive(float(mean), float(variance))
    return IIDModel(law, identifier or f"iidnorm({law.mean},{law.variance})")


def flat_prior_location_model(variance: float, identifier: str | None = None) -> PredictiveModel:
    """Unknown-mean normal model under a flat (improper) prior on the mean."""
    return FlatPriorLocationModel(variance, identifier)


def flat_prior_scale_model(mean: float, identifier: str | None = None) -> PredictiveModel:
    """Unknown-variance normal model under the improper prior 1/v."""
    return FlatPriorScaleModel(mean, identifier)


class TransformedModel(PredictiveModel):
    """Model for data observed on the ``y = g(x)`` scale of an inner model.

    The history is pulled back through the inverse transform before the
    inner model forms its predictive; that predictive is then pushed forward
    with the Jacobian correction.  A pass pulls each observation back once
    and runs the inner model's pass over the pulled-back series, so it costs
    what the inner pass costs plus one pushforward per step; ``predictive_at``
    is its last law, proper or not as the inner law is.
    """

    def __init__(self, inner: PredictiveModel, transform: MonotoneTransform, identifier: str | None = None):
        self.inner = inner
        self.transform = transform
        self.identifier = identifier or f"{transform.name}:{inner.identifier}"

    def predictives(self, x):
        pulled = np.empty(x.size)
        for i, q in enumerate(self.inner.predictives(pulled)):
            yield pushforward_density(_density(q), self.transform)
            if i < x.size:  # filled in place after the inner pass yields predictive i + 1
                v = self.transform.inverse(float(x[i]))
                if not math.isfinite(v):
                    raise _non_finite(i + 1, v)
                pulled[i] = v
