"""One-step-ahead predictive models.

A model maps a history ``(x_1, ..., x_{i-1})`` to the conditional law of the
next observation.  Two kinds are provided: fully specified models (no unknown
parameters) and parametric normal models under flat, possibly improper,
priors.  The latter are the interesting case: their early predictives are
improper, which breaks the log score but not gradient-based scoring.

Predictives are full Bayesian (parameters integrated out), not plug-in.
Models hold no mutable state (a pass over a series is the generator
``predictives``); sufficient statistics are reduced with ``math.fsum`` so that
any permutation of an exchangeable history yields bit-identical predictives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .densities import (
    DensityWithDerivatives,
    MonotoneTransform,
    pushforward_density,
    student_t_density,
)
from .errors import InsufficientHistory, NonFiniteValue, NonPositiveVariance
from .scores import GaussianPredictive, _density_of

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
        raise NonFiniteValue(f"observation {i} is {float(h[i - 1])!r}; observations must be finite", index=i)
    return h


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

    def gaussian_predictives(self, x):
        return 0, self.mean, self.variance


class FlatPriorLocationModel(PredictiveModel):
    """Normal model with known variance and a flat prior on the mean.

    With no data the predictive is the improper flat density.  After n
    observations the posterior for the mean is N(sample mean, v/n), giving
    the proper predictive N(sample mean, v (1 + 1/n)).
    """

    def __init__(self, variance: float, identifier: str | None = None):
        _require_finite(variance=variance)
        if not variance > 0:
            raise NonPositiveVariance(f"variance must be positive, got {variance}")
        self.variance = float(variance)
        self.identifier = identifier or f"flatloc({self.variance})"

    def predictive_at(self, history) -> GaussianPredictive:
        h = _check_history(history)
        n = h.size
        if n == 0:
            return GaussianPredictive.flat()
        center = math.fsum(h) / n
        return GaussianPredictive(center, self.variance * (1.0 + 1.0 / n))


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
        n = h.size
        if n == 0:
            mean = self.mean
            return DensityWithDerivatives(
                logpdf=lambda x: -math.log(abs(x - mean)),
                dlogpdf=lambda x: -1.0 / (x - mean),
                d2logpdf=lambda x: 1.0 / (x - mean) ** 2,
                proper=False,
                smooth=True,
                improper_error=InsufficientHistory,
            )
        ss = math.fsum((x - self.mean) ** 2 for x in h)
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
    with the Jacobian correction.  Pulling back costs one inverse per history
    element per step, so a full sequential pass is quadratic in n.
    """

    def __init__(self, inner: PredictiveModel, transform: MonotoneTransform, identifier: str | None = None):
        self.inner = inner
        self.transform = transform
        self.identifier = identifier or f"{transform.name}:{inner.identifier}"

    def predictive_at(self, history) -> DensityWithDerivatives:
        h = _check_history(history)
        pulled = np.array([self.transform.inverse(float(v)) for v in h])
        return pushforward_density(_density_of(self.inner.predictive_at(pulled)), self.transform)
