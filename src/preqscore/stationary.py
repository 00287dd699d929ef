"""One-step prediction for covariance-stationary Gaussian processes.

A process is specified by its constant mean and autocovariance sequence
``gamma(k)``.  The Durbin-Levinson recursion turns the autocovariances into
the exact conditional law of each observation given all earlier ones:
projection coefficients plus the conditional variance ``v_i`` of X_i given
(X_1, ..., X_{i-1}).

The conditional variance is the point of this module: it is constant in i
only for special processes.  For an AR(p) process it is constant exactly for
i > p (the first p steps see truncated histories); for a general process it
is non-constant but non-increasing with a limit, the innovation variance.

Positive-definiteness failures raise with the first failing leading
dimension instead of being regularized away: silent jitter would corrupt
score comparisons downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonPositiveVariance, NonStationary, NotPositiveDefinite
from .models import PredictiveModel, _check_history
from .scores import GaussianPredictive
from .streams import stream

__all__ = [
    "StationaryProcessSpec",
    "PredictionRecursionState",
    "durbin_levinson",
    "ar_process",
    "ma_process",
    "white_noise",
    "sample_path",
    "process_model",
    "StationaryProcessModel",
    "Ar1MarkovModel",
]


class StationaryProcessSpec:
    """Zero/constant-mean stationary Gaussian process given by gamma(k).

    ``autocov`` is evaluated lazily and cached per lag (AR specs solve their
    Yule-Walker system once, on first use).  The cache is append-only and
    safe for concurrent reads once fully built single-threaded.
    """

    def __init__(
        self,
        mean: float,
        autocov: Callable[[int], float],
        max_lag_hint: int = 0,
        label: str = "process",
    ):
        self.mean = float(mean)
        self._autocov = autocov
        self.max_lag_hint = int(max_lag_hint)
        self.label = label
        self._cache: list[float] = []

    def gamma(self, k: int) -> float:
        """Autocovariance at lag k >= 0."""
        if k < 0:
            raise ValueError(f"lag must be nonnegative, got {k}")
        while len(self._cache) <= k:
            self._cache.append(float(self._autocov(len(self._cache))))
        return self._cache[k]

    def __repr__(self):
        return f"<StationaryProcessSpec {self.label}>"


@dataclass(frozen=True)
class PredictionRecursionState:
    """Conditional law of X_i given (X_1, ..., X_{i-1}) for the centered process.

    ``coefficients[j]`` is the projection weight on the centered observation
    x_{j+1}, in history order; ``conditional_variance`` is v_i > 0.
    """

    step: int
    coefficients: np.ndarray
    conditional_variance: float

    def conditional_mean(self, history, process_mean: float = 0.0) -> float:
        h = np.asarray(history, dtype=float)
        if h.size != self.step - 1:
            raise ValueError(f"step {self.step} needs a history of length {self.step - 1}, got {h.size}")
        return process_mean + float(np.dot(self.coefficients, h - process_mean))


class _DurbinLevinson:
    """Incremental Durbin-Levinson recursion with append-only state."""

    def __init__(self, spec: StationaryProcessSpec):
        self.spec = spec
        self._phi: np.ndarray = np.empty(0)  # recency order: weight on most recent first
        self._states: list[PredictionRecursionState] = []
        self._gam: np.ndarray = np.empty(0)  # gamma(0..m-1) as an array for fast dots

    def extend_to(self, n: int) -> None:
        spec = self.spec
        if n >= 1 and not self._states:
            g0 = spec.gamma(0)
            if not g0 > 0:
                raise NotPositiveDefinite(1, f"gamma(0) = {g0} is not positive")
            self._states.append(PredictionRecursionState(1, np.empty(0), g0))
        if n > self._gam.size:
            self._gam = np.array([spec.gamma(k) for k in range(n)])
        while len(self._states) < n:
            k = len(self._states)  # have states 1..k; compute state k+1
            phi, v = self._phi, self._states[-1].conditional_variance
            # numerator of the reflection coefficient: gamma(k) - sum_j phi_j gamma(k-1-j)
            a = spec.gamma(k) - float(np.dot(phi, self._gam[k - 1 : 0 : -1]))
            refl = a / v
            new_phi = np.empty(k)
            new_phi[: k - 1] = phi - refl * phi[::-1]
            new_phi[k - 1] = refl
            new_v = v * (1.0 - refl * refl)
            if not new_v > 0:
                raise NotPositiveDefinite(k + 1)
            self._phi = new_phi
            self._states.append(PredictionRecursionState(k + 1, new_phi[::-1].copy(), new_v))

    def state(self, i: int) -> PredictionRecursionState:
        self.extend_to(i)
        return self._states[i - 1]


def durbin_levinson(spec: StationaryProcessSpec, n: int) -> list[PredictionRecursionState]:
    """One-step prediction states for observations 1..n.

    State i carries the projection weights of X_i on (X_1, ..., X_{i-1}) in
    history order and the conditional variance v_i.  Raises
    :class:`NotPositiveDefinite` with the failing leading dimension when the
    autocovariances are not a valid covariance sequence up to n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rec = _DurbinLevinson(spec)
    rec.extend_to(n)
    return [rec.state(i) for i in range(1, n + 1)]


def ar_process(
    coefficients: Sequence[float],
    innovation_variance: float,
    mean: float = 0.0,
) -> StationaryProcessSpec:
    """Autoregressive process; autocovariances solve the Yule-Walker equations.

    Raises :class:`NonStationary` unless all roots of the AR polynomial lie
    strictly outside the unit circle.  ``coefficients`` may be empty, giving
    white noise.
    """
    phis = np.asarray(coefficients, dtype=float)
    if not innovation_variance > 0:
        raise NonPositiveVariance(f"innovation variance must be positive, got {innovation_variance}")
    p = phis.size
    label = f"ar({','.join(repr(float(c)) for c in phis)};{float(innovation_variance)})"
    if p == 0:
        return white_noise(innovation_variance, mean)
    # roots of 1 - phi_1 z - ... - phi_p z^p
    roots = np.roots(np.concatenate(([1.0], -phis))[::-1])
    if np.any(np.abs(roots) <= 1.0 + 1e-12):
        raise NonStationary(f"AR polynomial has a root of modulus {np.min(np.abs(roots))} <= 1")

    # Solve for gamma(0..p): gamma(k) - sum_j phi_j gamma(|k-j|) = s^2 * [k == 0]
    a = np.zeros((p + 1, p + 1))
    for k in range(p + 1):
        a[k, k] += 1.0
        for j in range(1, p + 1):
            a[k, abs(k - j)] -= phis[j - 1]
    b = np.zeros(p + 1)
    b[0] = innovation_variance
    head = list(np.linalg.solve(a, b))

    def autocov(k: int) -> float:
        while len(head) <= k:
            m = len(head)
            head.append(float(np.dot(phis, [head[m - j] for j in range(1, p + 1)])))
        return head[k]

    # lag beyond which gamma has decayed below ~1e-16 relative
    decay = 1.0 / float(np.min(np.abs(roots)))
    hint = int(math.ceil(math.log(1e-16) / math.log(decay))) if decay < 1 else p
    return StationaryProcessSpec(mean, autocov, max_lag_hint=max(hint, p), label=label)


def ma_process(
    coefficients: Sequence[float],
    innovation_variance: float,
    mean: float = 0.0,
) -> StationaryProcessSpec:
    """Moving-average process: gamma(k) = s^2 sum_j theta_j theta_{j+k}, theta_0 = 1."""
    thetas = np.asarray(coefficients, dtype=float)
    if not innovation_variance > 0:
        raise NonPositiveVariance(f"innovation variance must be positive, got {innovation_variance}")
    full = np.concatenate(([1.0], thetas))
    q = thetas.size
    label = f"ma({','.join(repr(float(c)) for c in thetas)};{float(innovation_variance)})"

    def autocov(k: int) -> float:
        if k > q:
            return 0.0
        return innovation_variance * float(np.dot(full[: q + 1 - k], full[k:]))

    return StationaryProcessSpec(mean, autocov, max_lag_hint=q, label=label)


def white_noise(variance: float, mean: float = 0.0) -> StationaryProcessSpec:
    if not variance > 0:
        raise NonPositiveVariance(f"variance must be positive, got {variance}")
    return StationaryProcessSpec(
        mean,
        lambda k: variance if k == 0 else 0.0,
        max_lag_hint=0,
        label=f"whitenoise({float(variance)})",
    )


def sample_path(spec: StationaryProcessSpec, n: int, seed: int, substream: int = 0) -> np.ndarray:
    """Exact Gaussian path of length n, deterministic given (spec, n, seed, substream).

    Generated sequentially: x_i = conditional mean + sqrt(v_i) * z_i with the
    z_i read from the counter-based stream keyed by ``(seed, substream)``.
    """
    states = durbin_levinson(spec, n)
    z = stream(seed, substream).standard_normal(n)
    x = np.empty(n)
    for i, st in enumerate(states):
        x[i] = st.conditional_mean(x[:i], spec.mean) + math.sqrt(st.conditional_variance) * z[i]
    return x


class StationaryProcessModel(PredictiveModel):
    """Adapter exposing a stationary process as a predictive model.

    The recursion table is extended lazily up to the longest history seen and
    cached; extension is sequential, so build it single-threaded before any
    concurrent reads.
    """

    def __init__(self, spec: StationaryProcessSpec, identifier: str | None = None):
        self.spec = spec
        self.identifier = identifier or spec.label
        self._recursion = _DurbinLevinson(spec)

    def predictive_at(self, history) -> GaussianPredictive:
        h = _check_history(history)
        st = self._recursion.state(h.size + 1)
        return GaussianPredictive(st.conditional_mean(h, self.spec.mean), st.conditional_variance)


def process_model(spec: StationaryProcessSpec, identifier: str | None = None) -> PredictiveModel:
    """Predictive model whose one-step laws come from the prediction recursion."""
    return StationaryProcessModel(spec, identifier)


class Ar1MarkovModel(PredictiveModel):
    """AR(1) predictives in closed form: exactly Markov in the last value.

    Equivalent in exact arithmetic to ``process_model(ar_process([phi], s2))``
    but built so the predictive mean depends on nothing beyond the most
    recent observation, with no recursion round-off on higher lags.  Tests
    that count which per-step scores an edited observation can touch need
    that exactness.
    """

    def __init__(
        self,
        phi: float,
        innovation_variance: float,
        mean: float = 0.0,
        identifier: str | None = None,
    ):
        if not abs(phi) < 1.0:
            raise NonStationary(f"|phi| must be < 1 for a stationary AR(1), got {phi}")
        if not innovation_variance > 0.0:
            raise NonPositiveVariance(f"innovation variance must be > 0, got {innovation_variance}")
        self.phi = float(phi)
        self.innovation_variance = float(innovation_variance)
        self.mean = float(mean)
        self.marginal_variance = self.innovation_variance / (1.0 - self.phi * self.phi)
        self.identifier = identifier or f"ar1({self.phi};{self.innovation_variance})"

    def predictive_at(self, history) -> GaussianPredictive:
        h = _check_history(history)
        if h.size == 0:
            return GaussianPredictive(self.mean, self.marginal_variance)
        center = self.mean + self.phi * (float(h[-1]) - self.mean)
        return GaussianPredictive(center, self.innovation_variance)
