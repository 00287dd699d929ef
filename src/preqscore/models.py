"""One-step-ahead predictive models.

A model maps a history ``(x_1, ..., x_{i-1})`` to the conditional law of the
next observation.  Two kinds are provided: fully specified models (no unknown
parameters) and parametric normal models under flat, possibly improper,
priors.  The latter are the interesting case: their early predictives are
improper, which breaks the log score but not gradient-based scoring.

Predictives are full Bayesian (parameters integrated out), not plug-in.
Models hold no mutable state: a pass over a series is the generator
``predictives``, O(n) for every built-in kind.  It carries O(1) state (the
flat-prior models a list of Shewchuk partials), except that a transformed
model keeps the pulled-back series, an O(n) array.  Sufficient statistics are
reduced with ``math.fsum`` so that any permutation of an exchangeable
history yields bit-identical predictives; the partials are the ones
``math.fsum`` keeps, so a pass and ``predictive_at`` agree bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .densities import (
    FLAT_DENSITY,
    DensityWithDerivatives,
    MonotoneTransform,
    pushforward_density,
    student_t_density,
)
from .errors import InsufficientHistory, NonFiniteValue, NonPositiveVariance
from .scores import GaussianPredictive

__all__ = [
    "PredictiveModel",
    "StudentTPredictive",
    "TransformedModel",
    "iid_gaussian_model",
    "flat_prior_location_model",
    "flat_prior_scale_model",
]


@dataclass(frozen=True)
class StudentTPredictive:
    """Location-scale Student-t one-step predictive (always proper, C2)."""

    center: float
    scale: float
    dof: float

    def __post_init__(self):
        if not self.scale > 0:
            raise NonPositiveVariance(f"scale must be positive, got {self.scale}")
        if not self.dof > 0:
            raise NonPositiveVariance(f"dof must be positive, got {self.dof}")

    def density(self) -> DensityWithDerivatives:
        return student_t_density(self.center, self.scale, self.dof)


class PredictiveModel:
    """Base class: immutable after construction.  A subclass defines ``predictive_at``,
    and ``predictives`` too when it carries state through a series."""

    identifier: str

    def predictive_at(self, history: Sequence[float]):
        """Conditional law of observation ``len(history) + 1`` given the history."""
        raise NotImplementedError

    def predictives(self, x: np.ndarray):
        """Predictives of observations 1..n+1 of the validated series ``x``, each
        equal to ``predictive_at`` of the observations before it; ``x[i]`` is read
        only after the (i+1)-th is yielded.  Each call is a fresh pass."""
        for i in range(x.size + 1):
            yield self.predictive_at(x[:i])

    def gaussian_predictives(self, x: np.ndarray):
        """``(k, means, variance)``: for observations k+1..n of the validated
        series ``x`` the predictive is N(means, variance), bit for bit equal to
        ``predictive_at(x[:i])``; ``means`` is a float or holds n - k entries.
        The prequential fold scores those observations as arrays.  The default,
        None, leaves every step to ``predictives``."""
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


def _fsum_add(partials: list, v: float) -> None:
    """Add ``v`` to the Shewchuk partials in place, as one step of ``math.fsum``
    (CPython's msum), so ``math.fsum(partials)`` is the fsum of the items added."""
    i = 0
    for y in partials:
        if abs(v) < abs(y):
            v, y = y, v
        hi = v + y
        lo = y - (hi - v)
        if lo:
            partials[i] = lo
            i += 1
        v = hi
    if not math.isfinite(v):
        raise OverflowError("intermediate overflow in fsum")
    partials[i:] = [v] if v else []


def _require_finite(**params: float) -> None:
    """Reject a NaN or infinite model parameter when the model is built, naming it."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise NonFiniteValue(f"{name} must be finite, got {float(value)!r}")


class IIDGaussianModel(PredictiveModel):
    """Fully specified model: every predictive is the same normal law."""

    def __init__(self, mean: float, variance: float, identifier: str | None = None):
        _require_finite(mean=mean, variance=variance)
        if not variance > 0:
            raise NonPositiveVariance(f"variance must be positive, got {variance}")
        self.mean = float(mean)
        self.variance = float(variance)
        self.identifier = identifier or f"iidnorm({self.mean},{self.variance})"

    def predictive_at(self, history) -> GaussianPredictive:
        _check_history(history)
        return GaussianPredictive(self.mean, self.variance)

    def predictives(self, x):
        return itertools.repeat(GaussianPredictive(self.mean, self.variance), x.size + 1)

    def gaussian_predictives(self, x):
        return 0, self.mean, self.variance


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
        self.variance = float(variance)
        self.identifier = identifier or f"flatloc({self.variance})"

    def predictive_at(self, history):
        h = _check_history(history)
        n = h.size
        if n == 0:
            return FLAT_DENSITY
        center = math.fsum(h) / n
        return GaussianPredictive(center, self.variance * (1.0 + 1.0 / n))

    def predictives(self, x):
        yield FLAT_DENSITY
        partials = []
        for n in range(1, x.size + 1):
            _fsum_add(partials, float(x[n - 1]))
            yield GaussianPredictive(math.fsum(partials) / n, self.variance * (1.0 + 1.0 / n))


class FlatPriorScaleModel(PredictiveModel):
    """Normal model with known mean and prior density 1/v on the variance.

    After n >= 1 observations the posterior for the variance is proper
    (provided the squared deviations are not all zero) and the predictive is
    Student-t with ``dof = n`` centered at the known mean with scale
    sqrt(mean squared deviation).

    With no data the predictive is the improper density proportional to
    1/|x - mean|.  Its log density is C2 away from the known mean, a set the
    data hits with probability zero, so it is declared smooth and can be
    scored by the gradient-based rule (score 3/(x - mean)^2); a log score
    request raises :class:`InsufficientHistory`.
    """

    def __init__(self, mean: float, identifier: str | None = None):
        _require_finite(mean=mean)
        self.mean = float(mean)
        self.identifier = identifier or f"flatscale({self.mean})"

    def predictive_at(self, history):
        h = _check_history(history)
        if h.size == 0:
            return self._improper_start()
        return self._posterior(math.fsum(d * d for d in (h - self.mean).tolist()), h.size)

    def predictives(self, x):
        yield self._improper_start()
        partials, overflowed = [], False
        for n in range(1, x.size + 1):
            d = float(x[n - 1]) - self.mean
            term = d * d  # as in predictive_at: ``**`` on a float calls libm pow
            if math.isfinite(term):
                _fsum_add(partials, term)
            else:  # fsum's sum is then inf, and it drops its partials
                partials.clear()
                overflowed = True
            yield self._posterior(math.inf if overflowed else math.fsum(partials), n)

    def _improper_start(self) -> DensityWithDerivatives:
        mean = self.mean
        return DensityWithDerivatives(
            logpdf=lambda x: -math.log(abs(x - mean)),
            dlogpdf=lambda x: -1.0 / (x - mean),
            d2logpdf=lambda x: 1.0 / ((x - mean) * (x - mean)),
            proper=False,
            smooth=True,
            improper_error=InsufficientHistory,
        )

    def _posterior(self, ss: float, n: int) -> StudentTPredictive:
        """Predictive after ``n`` observations whose squared deviations sum to ``ss``."""
        if ss == 0.0:
            raise InsufficientHistory(
                "all observations equal the known mean; the posterior for the variance is improper"
            )
        return StudentTPredictive(center=self.mean, scale=math.sqrt(ss / n), dof=float(n))


def iid_gaussian_model(mean: float, variance: float, identifier: str | None = None) -> PredictiveModel:
    """Fully specified iid normal model N(mean, variance)."""
    return IIDGaussianModel(mean, variance, identifier)


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
    what the inner pass costs plus one pushforward per step.
    """

    def __init__(self, inner: PredictiveModel, transform: MonotoneTransform, identifier: str | None = None):
        self.inner = inner
        self.transform = transform
        self.identifier = identifier or f"{transform.name}:{inner.identifier}"

    def predictive_at(self, history) -> DensityWithDerivatives:
        h = _check_history(history)
        pulled = np.array([self.transform.inverse(float(v)) for v in h])
        return pushforward_density(self.inner.predictive_at(pulled).density(), self.transform)

    def predictives(self, x):
        pulled = np.empty(x.size)
        for i, q in enumerate(self.inner.predictives(pulled)):
            yield pushforward_density(q.density(), self.transform)
            if i < x.size:  # filled in place after the inner pass yields predictive i + 1
                v = self.transform.inverse(float(x[i]))
                if not math.isfinite(v):
                    raise _non_finite(i + 1, v)
                pulled[i] = v
