"""Proper scoring rules evaluated on explicit predictive distributions.

Scores are losses: smaller is better.  Two families are provided for
densities on the real line, plus scores induced by finite decision problems:

* the log score, ``-log q(x)``, defined only for normalized densities;
* the gradient-based homogeneous score ``2 (log q)''(x) + ((log q)'(x))^2``,
  which never sees the normalizing constant and therefore accepts
  unnormalized and even improper predictives.

The homogeneous score is fixed in the convention above (no 1/2 factor).
Under that convention, comparing two zero-mean normals with variance ratio
``xi`` gives per-observation score differences with expectation
``(xi + 1/xi - 2) / tau_q^2`` under the wider model, which is the numeric
anchor used throughout the test-suite.  Note the score carries physical
dimension x^-2, so its absolute value depends on the measurement unit; only
comparisons are unit-free.

Every rule may be rescaled by an arbitrary positive factor via
:func:`rescale_rule`; selections at cutoff zero are invariant to the factor.

There is a very wide family of homogeneous proper scoring rules with the
same normalization-free property; no criterion for preferring one is known
to us, and this module deliberately ships only the log score, the
second-order gradient-based score above, and decision-induced scores.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .densities import DensityWithDerivatives, gaussian_density
from .errors import (
    DimensionMismatch,
    HyvarinenInapplicable,
    ImproperPredictive,
    InvalidDistribution,
    NonPositiveScale,
    NonPositiveVariance,
    NonSPDCovariance,
)

__all__ = [
    "ScoreRule",
    "ScaledRule",
    "as_rule",
    "rescale_rule",
    "ScoreValue",
    "GaussianPredictive",
    "log_score",
    "hyvarinen_score_gaussian",
    "hyvarinen_score_mvn",
    "hyvarinen_score_generic",
    "score_predictive",
    "DecisionProblem",
    "score_from_decision_problem",
    "check_propriety",
    "ProprietyViolation",
    "ProprietyReport",
]


class ScoreRule(enum.Enum):
    """Identifier of a scoring rule family."""

    LOG = "log"
    HYVARINEN = "hyvarinen"
    DECISION_INDUCED = "decision-induced"


@dataclass(frozen=True)
class ScaledRule:
    """A rule together with a positive scale factor lambda."""

    base: ScoreRule
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise NonPositiveScale(f"scale must be positive, got {self.scale}")


def as_rule(rule) -> ScaledRule:
    """Coerce a rule name, enum member or scaled rule to a ScaledRule."""
    if isinstance(rule, ScaledRule):
        return rule
    if isinstance(rule, str):
        rule = ScoreRule(rule)
    if isinstance(rule, ScoreRule):
        return ScaledRule(rule, 1.0)
    raise TypeError(f"not a scoring rule: {rule!r}")


def rescale_rule(rule, lam: float) -> ScaledRule:
    """Multiply a rule's scores by lambda > 0.

    Positive rescaling changes every score value but no argmin, hence no
    selection made at cutoff zero.  With a nonzero cutoff c, selecting on the
    rescaled rule equals selecting on the original rule with cutoff c/lambda.
    Rescalings compose multiplicatively.
    """
    base = as_rule(rule)
    return ScaledRule(base.base, base.scale * lam)


@dataclass(frozen=True)
class ScoreValue:
    """A realized score with its convention metadata.

    ``value`` already includes the positive factor recorded in ``scale``.
    The log score is dimensionless up to additive constants; the
    gradient-based score has dimension x^-2.
    """

    value: float
    rule_id: ScoreRule
    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise NonPositiveScale(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class GaussianPredictive:
    """One-step normal predictive law, or the improper flat predictive.

    When ``improper_flat`` is True the mean and variance are ignored (kept
    as NaN poison values) and the object stands for the non-normalizable
    uniform density on the line, whose log density is constant.
    """

    mean: float
    variance: float
    improper_flat: bool = False

    def __post_init__(self):
        if self.improper_flat:
            return
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not (math.isfinite(self.variance) and self.variance > 0):
            raise NonPositiveVariance(f"variance must be positive, got {self.variance}")

    @classmethod
    def flat(cls) -> "GaussianPredictive":
        return cls(mean=math.nan, variance=math.nan, improper_flat=True)


def _gaussian_log_score(x, mean: float, variance: float):
    """Raw log score of N(mean, variance) at ``x``, a float or an ndarray."""
    d = x - mean  # squared as d * d: ``**`` rounds differently on floats and arrays
    return 0.5 * math.log(2.0 * math.pi * variance) + d * d / (2.0 * variance)


def _gaussian_hyvarinen_score(x, mean: float, variance: float):
    """Raw gradient-based score of N(mean, variance) at ``x``, a float or an ndarray."""
    d = x - mean
    return -2.0 / variance + d * d / variance**2


def _density_log_score(q: DensityWithDerivatives, x: float) -> float:
    """Raw log score of a density at ``x``; the caller checks ``q.proper``."""
    return -q.logpdf(x)


def _density_hyvarinen_score(q: DensityWithDerivatives, x: float) -> float:
    """Raw gradient-based score of a density at ``x``; the caller checks ``q.smooth``."""
    return 2.0 * q.d2logpdf(x) + q.dlogpdf(x) ** 2


# The raw kernels by rule.  The prequential fold's array scorer applies them
# to whole rows and the scalar scorers below to one observation; squaring as
# d * d keeps both routes bitwise equal.
_GAUSSIAN_KERNELS = {ScoreRule.LOG: _gaussian_log_score, ScoreRule.HYVARINEN: _gaussian_hyvarinen_score}
_DENSITY_KERNELS = {ScoreRule.LOG: _density_log_score, ScoreRule.HYVARINEN: _density_hyvarinen_score}


def log_score(x: float, q: GaussianPredictive, scale: float = 1.0) -> ScoreValue:
    """Negative log predictive density of a normal law.

    Raises :class:`ImproperPredictive` for the flat predictive, whose density
    cannot be normalized.
    """
    if q.improper_flat:
        raise ImproperPredictive("log score undefined: flat predictive has no normalizable density")
    return ScoreValue(scale * _gaussian_log_score(x, q.mean, q.variance), ScoreRule.LOG, scale)


def hyvarinen_score_gaussian(x: float, q: GaussianPredictive, scale: float = 1.0) -> ScoreValue:
    """Gradient-based score of a normal predictive: -2/v + (x-m)^2/v^2.

    The flat predictive scores exactly zero (its log density has zero
    gradient and zero curvature), which is what makes improper predictives
    usable under this rule.
    """
    if q.improper_flat:
        return ScoreValue(0.0, ScoreRule.HYVARINEN, scale)
    return ScoreValue(scale * _gaussian_hyvarinen_score(x, q.mean, q.variance), ScoreRule.HYVARINEN, scale)


def hyvarinen_score_mvn(x, mean, covariance, scale: float = 1.0) -> ScoreValue:
    """Gradient-based score of a multivariate normal: -2 tr(S^-1) + |S^-1 (x-m)|^2."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    covariance = np.atleast_2d(np.asarray(covariance, dtype=float))
    d = x.shape[0]
    if mean.shape != (d,) or covariance.shape != (d, d):
        raise DimensionMismatch(
            f"x has dimension {d}, mean {mean.shape}, covariance {covariance.shape}"
        )
    if not np.allclose(covariance, covariance.T, rtol=1e-12, atol=1e-12):
        raise NonSPDCovariance("covariance is not symmetric")
    try:
        np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError:
        raise NonSPDCovariance("covariance is not positive definite") from None
    inv = np.linalg.inv(covariance)
    grad = inv @ (x - mean)
    raw = -2.0 * float(np.trace(inv)) + float(grad @ grad)
    return ScoreValue(scale * raw, ScoreRule.HYVARINEN, scale)


def hyvarinen_score_generic(x: float, q: DensityWithDerivatives, scale: float = 1.0) -> ScoreValue:
    """Gradient-based score from declared log-derivatives: 2 d2 + d1^2.

    Only the derivatives of the log density enter, so the value is invariant
    to shifting ``logpdf`` by any constant: unnormalized and improper
    densities are scored without ever touching a normalizing constant.
    Requires a C2 log density (``q.smooth``); densities with kinks, such as
    the double exponential, are rejected.
    """
    if not q.smooth:
        raise HyvarinenInapplicable("log density is not C2; gradient-based score undefined")
    return ScoreValue(scale * _density_hyvarinen_score(q, x), ScoreRule.HYVARINEN, scale)


# The flat predictive as a density: constant log density, so zero derivatives.
_FLAT_DENSITY = DensityWithDerivatives(
    logpdf=lambda x: 0.0,
    dlogpdf=lambda x: 0.0,
    d2logpdf=lambda x: 0.0,
    proper=False,
)


def _density_of(predictive) -> DensityWithDerivatives:
    """View any predictive this package produces as a density with derivatives.

    The flat :class:`GaussianPredictive` maps to the improper constant
    density, and objects exposing ``.density()`` are unwrapped.
    """
    if isinstance(predictive, DensityWithDerivatives):
        return predictive
    if isinstance(predictive, GaussianPredictive):
        if predictive.improper_flat:
            return _FLAT_DENSITY
        return gaussian_density(predictive.mean, predictive.variance)
    if hasattr(predictive, "density"):
        return _density_of(predictive.density())
    raise TypeError(f"cannot score object of type {type(predictive).__name__}")


def score_predictive(x: float, predictive, rule) -> ScoreValue:
    """Score one observation under any predictive this package produces.

    :class:`GaussianPredictive` is scored with the closed normal formulas;
    every other predictive is viewed as a density first (see
    :func:`_density_of`) and scored from its declared log-derivatives.
    """
    r = as_rule(rule)
    if r.base is ScoreRule.LOG:
        if isinstance(predictive, GaussianPredictive):
            return log_score(x, predictive, r.scale)
        q = _density_of(predictive)
        if not q.proper:
            raise q.improper_error("log score undefined: predictive density is not normalizable")
        return ScoreValue(r.scale * _density_log_score(q, x), ScoreRule.LOG, r.scale)
    if r.base is ScoreRule.HYVARINEN:
        if isinstance(predictive, GaussianPredictive):
            return hyvarinen_score_gaussian(x, predictive, r.scale)
        return hyvarinen_score_generic(x, _density_of(predictive), r.scale)
    raise ValueError(f"rule {r.base.value} is not defined for predictive densities")


# ---------------------------------------------------------------------------
# Scores induced by finite decision problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecisionProblem:
    """A finite decision problem: states, actions and a loss matrix.

    ``loss[i, j]`` is the loss of action j when state i realizes.  Quoting a
    distribution Q and acting optimally against it induces the scoring rule
    S(x, Q) = loss[x, act(Q)], which is proper by construction.
    """

    states: tuple
    actions: tuple
    loss: np.ndarray

    def __init__(self, states: Sequence, actions: Sequence, loss):
        loss = np.asarray(loss, dtype=float)
        if loss.shape != (len(states), len(actions)):
            raise DimensionMismatch(
                f"loss shape {loss.shape} does not match {len(states)} states x {len(actions)} actions"
            )
        if not np.all(np.isfinite(loss)):
            raise ValueError("loss matrix must be finite")
        object.__setattr__(self, "states", tuple(states))
        object.__setattr__(self, "actions", tuple(actions))
        object.__setattr__(self, "loss", loss)

    def best_action_index(self, q) -> int:
        """Index of an action minimizing expected loss under q (lowest index on ties)."""
        q = _validate_distribution(q, len(self.states))
        return int(np.argmin(q @ self.loss))


def _validate_distribution(q, n_states: int, tol: float = 1e-12) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != (n_states,):
        raise InvalidDistribution(f"expected a vector of length {n_states}, got shape {q.shape}")
    if np.any(q < 0):
        raise InvalidDistribution("probabilities must be nonnegative")
    if abs(float(q.sum()) - 1.0) > tol:
        raise InvalidDistribution(f"probabilities sum to {float(q.sum())}, not 1")
    return q


def score_from_decision_problem(dp: DecisionProblem, q, x, scale: float = 1.0) -> ScoreValue:
    """Loss of acting optimally against Q when x realizes: S(x, Q) = L(x, a_Q).

    a_Q is an expected-loss minimizer under Q (ties broken by lowest action
    index).  This construction turns essentially any decision problem into a
    proper scoring rule.
    """
    a = dp.best_action_index(q)
    try:
        i = dp.states.index(x)
    except ValueError:
        raise InvalidDistribution(f"{x!r} is not one of the problem's states") from None
    return ScoreValue(scale * float(dp.loss[i, a]), ScoreRule.DECISION_INDUCED, scale)


@dataclass(frozen=True)
class ProprietyViolation:
    """One ordered pair (P, Q) where quoting Q beats quoting P under P."""

    p_index: int
    q_index: int
    expected_self: float
    expected_other: float

    @property
    def gap(self) -> float:
        return self.expected_self - self.expected_other


@dataclass(frozen=True)
class ProprietyReport:
    violations: tuple
    n_distributions: int
    tolerance: float

    @property
    def is_proper(self) -> bool:
        """True iff no grid pair prefers dishonesty beyond the tolerance."""
        return not self.violations


def check_propriety(
    score: Callable[[object, np.ndarray], float],
    distributions: Sequence,
    states: Sequence | None = None,
    tolerance: float = 1e-12,
) -> ProprietyReport:
    """Brute-force propriety check of ``score`` on a grid of distributions.

    ``score(x, q)`` must return the loss of quoting q when state x realizes.
    For every ordered pair (P, Q) on the grid the expectations E_P S(X, P)
    and E_P S(X, Q) are compared; a violation is recorded whenever honesty
    loses by more than ``tolerance``.  Terms with P(x) = 0 are skipped, so
    scores may return +inf off the support.
    """
    grid = [np.asarray(q, dtype=float) for q in distributions]
    if not grid:
        return ProprietyReport((), 0, tolerance)
    n_states = grid[0].shape[0]
    if states is None:
        states = list(range(n_states))
    if len(states) != n_states:
        raise DimensionMismatch(f"{len(states)} states but distributions of length {n_states}")
    for q in grid:
        _validate_distribution(q, n_states)

    # score table: rows = states, columns = quoted grid entries
    table = np.empty((n_states, len(grid)))
    for i, x in enumerate(states):
        for j, q in enumerate(grid):
            table[i, j] = score(x, q)

    violations = []
    for p_idx, p in enumerate(grid):
        support = p > 0
        expectations = p[support] @ table[support, :]
        honest = expectations[p_idx]
        for q_idx in range(len(grid)):
            if honest > expectations[q_idx] + tolerance:
                violations.append(
                    ProprietyViolation(p_idx, q_idx, float(honest), float(expectations[q_idx]))
                )
    return ProprietyReport(tuple(violations), len(grid), tolerance)
