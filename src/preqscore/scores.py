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
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .densities import DensityWithDerivatives, gaussian_density, student_t_density
from .errors import (
    DimensionMismatch,
    HyvarinenInapplicable,
    InvalidDistribution,
    NonFiniteValue,
    NonPositiveScale,
    NonPositiveVariance,
)

__all__ = [
    "ScoreRule",
    "ScaledRule",
    "as_rule",
    "rescale_rule",
    "ScoreValue",
    "GaussianPredictive",
    "StudentTPredictive",
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
        if not 0 < self.scale < math.inf:
            raise NonPositiveScale(f"scale must be positive and finite, got {self.scale}")


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
        if not 0 < self.scale < math.inf:
            raise NonPositiveScale(f"scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class GaussianPredictive:
    """One-step normal predictive law N(mean, variance), always proper.

    Scored with the closed normal formulas; :meth:`density` gives the same
    law as a density.  An improper predictive is a density, such as
    :data:`~preqscore.densities.FLAT_DENSITY`.
    """

    mean: float
    variance: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise NonFiniteValue(f"mean must be finite, got {self.mean}")
        if not (math.isfinite(self.variance) and self.variance > 0):
            raise NonPositiveVariance(f"variance must be positive, got {self.variance}")

    def density(self) -> DensityWithDerivatives:
        return gaussian_density(self.mean, self.variance)


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


def _math_log(v):
    """``math.log`` of a float, or of each entry of an array: ``np.log`` rounds some
    inputs differently.  It is taken once per run of equal consecutive entries, since a
    pass's variances settle to one value, and no sort is paid."""
    if not isinstance(v, np.ndarray):
        return math.log(v)
    starts = np.flatnonzero(np.concatenate(([v.size > 0], v[1:] != v[:-1])))
    return np.repeat([math.log(u) for u in v[starts].tolist()], np.diff(starts, append=v.size))


def _gaussian_log_score(x, q):
    """Raw log score at ``x`` of the normal law ``q``, floats or ndarrays."""
    d = x - q.mean
    return 0.5 * _math_log(2.0 * math.pi * q.variance) + d * d / (2.0 * q.variance)


def _gaussian_hyvarinen_score(x, q):
    """Raw gradient-based score at ``x`` of the normal law ``q``, floats or ndarrays."""
    d = x - q.mean
    return -2.0 / q.variance + d * d / (q.variance * q.variance)


def _student_t_hyvarinen_score(x, q):
    """Raw gradient-based score at ``x`` of the Student-t law ``q``, floats or ndarrays, in its density's order."""
    center, scale, dof = q.center, q.scale, q.dof
    z = (x - center) / scale
    w = dof + z * z
    g = -(dof + 1.0) * z / (scale * w)
    return 2.0 * (-(dof + 1.0) * (dof - z * z) / (scale * scale * (w * w))) + g * g


def _density_log_score(x: float, q: DensityWithDerivatives) -> float:
    """Raw log score of a density at ``x``; an improper ``q`` raises its declared error."""
    if not q.proper:
        raise q.improper_error("log score undefined: predictive density is not normalizable")
    return -q.logpdf(x)


def _density_hyvarinen_score(x: float, q: DensityWithDerivatives) -> float:
    """Raw gradient-based score of a density at ``x``, defined only for a C2 log density."""
    if not q.smooth:
        raise HyvarinenInapplicable("log density is not C2; gradient-based score undefined")
    g = q.dlogpdf(x)
    return 2.0 * q.d2logpdf(x) + g * g


def _density(predictive) -> DensityWithDerivatives:
    """``predictive.density()``, or the TypeError for an object this package cannot score."""
    density = getattr(predictive, "density", None)
    if density is None:
        raise TypeError(f"cannot score object of type {type(predictive).__name__}")
    return density()


# The log and the gradient-based kernel of each predictive, by family.  :func:`_score` applies
# them to one predictive, the prequential fold (:func:`_row_kernel`) to whole rows of a family,
# an object whose fields are then arrays; one table, with every square a product (libm ``pow``
# misrounds some), so both routes agree bit for bit.  Any other predictive, the improper ones included, and a Student-t
# law under log, which needs its normalizing constant, are scored from its density's log-derivatives.
_BY_DENSITY = (lambda x, p: _density_log_score(x, _density(p)), lambda x, p: _density_hyvarinen_score(x, _density(p)))
_KERNELS = {
    GaussianPredictive: (_gaussian_log_score, _gaussian_hyvarinen_score),
    StudentTPredictive: (_BY_DENSITY[0], _student_t_hyvarinen_score),
}
_LOG, _HYVARINEN = ScoreRule.LOG, ScoreRule.HYVARINEN


def _row_kernel(family: type, base: ScoreRule):
    """The kernel the fold applies to a row of ``family`` laws under ``base``: its array kernel,
    or for a family with none, such as a pushforward density, the row's one law, whose density
    is taken once and scores each observation."""
    hyvarinen = base is _HYVARINEN
    kernel = _KERNELS.get(family, _BY_DENSITY)[hyvarinen]
    if kernel is not _BY_DENSITY[hyvarinen]:
        return kernel
    by_density = _density_hyvarinen_score if hyvarinen else _density_log_score
    return lambda x, law: np.fromiter(map(by_density, x.tolist(), itertools.repeat(_density(law))), float, x.size)


def _score(x: float, predictive, r: ScaledRule) -> float:
    """Score of ``x`` under the scaled rule ``r``: the one place that decides how a predictive meets
    a rule, and that raises :class:`~preqscore.errors.NonFiniteValue` for a non-finite score or an
    arithmetic failure.  A family in ``_KERNELS``, picked by type, takes its kernels; any other
    predictive, the improper ones included, the log-derivatives of its ``.density()``.  The rule
    is picked by identity, so no enum is hashed."""
    if r.base is not _LOG and r.base is not _HYVARINEN:
        raise ValueError(f"rule {r.base.value} is not defined for predictive densities")
    log_kernel, hyvarinen_kernel = _KERNELS.get(type(predictive), _BY_DENSITY)
    try:
        value = r.scale * (hyvarinen_kernel if r.base is _HYVARINEN else log_kernel)(x, predictive)
    except ArithmeticError as e:
        raise NonFiniteValue(f"score is not finite: {e!r}") from e
    if not math.isfinite(value):
        raise NonFiniteValue(f"score is {value!r}")
    return value


def score_predictive(x: float, predictive, rule) -> ScoreValue:
    """Score one observation under any predictive this package produces.

    A :class:`GaussianPredictive` or :class:`StudentTPredictive` is scored with
    its closed formulas; every other predictive is scored from the declared log-derivatives of its
    ``.density()`` (see :func:`_score`, which the prequential fold also calls).
    """
    r = as_rule(rule)
    return ScoreValue(_score(x, predictive, r), r.base, r.scale)


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
