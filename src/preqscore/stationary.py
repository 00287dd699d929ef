"""One-step prediction for covariance-stationary Gaussian processes.

A process is specified by its constant mean and autocovariance sequence
``gamma(k)``.  One forward Durbin-Levinson pass per series turns the
autocovariances into the exact conditional law of each observation given all
earlier ones: projection coefficients plus the conditional variance ``v_i``
of X_i given (X_1, ..., X_{i-1}).

The conditional variance is the point of this module: it is constant in i
only for special processes.  For an AR(p) process it is the innovation
variance exactly for i > p, where process models predict with the fixed lag
filter ``mean + sum_j phi_j (x_{i-j} - mean)`` (Brockwell & Davis 1991,
ch. 5) and the recursion serves only the first p steps; for a general
process it is non-constant but non-increasing with that limit.

Positive-definiteness failures raise with the first failing leading
dimension instead of being regularized away: silent jitter would corrupt
score comparisons downstream.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteValue, NonPositiveVariance, NonStationary, NotPositiveDefinite
from .models import PredictiveModel, _check_history, _require_finite
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
    """Constant-mean stationary Gaussian process given by gamma(k).

    Each :meth:`gamma` call evaluates ``autocov``; the prediction recursion
    keeps the values it reads.  ``ar`` is ``(coefficients, innovation
    variance)`` when the process is AR(p), coefficients ordered phi_1..phi_p;
    process models then predict beyond step p with that lag filter.
    """

    def __init__(
        self,
        mean: float,
        autocov: Callable[[int], float],
        label: str = "process",
        ar: tuple[Sequence[float], float] | None = None,
    ):
        _require_finite(mean=mean)
        self.mean = float(mean)
        self._autocov = autocov
        self.label = label
        self.ar = None if ar is None else (tuple(float(c) for c in ar[0]), float(ar[1]))

    def gamma(self, k: int) -> float:
        """Autocovariance at lag k >= 0; :class:`NonFiniteValue` unless it is finite."""
        if k < 0:
            raise ValueError(f"lag must be nonnegative, got {k}")
        value = float(self._autocov(k))
        if not math.isfinite(value):
            raise NonFiniteValue(f"gamma({k}) of process {self.label!r} is {value!r}; it must be finite")
        return value

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


def _durbin_levinson(spec: StationaryProcessSpec):
    """For i = 1, 2, ...: the weights of X_i on (X_1, ..., X_{i-1}), in history
    order, and v_i.  Keeps only the current weights; step i reads gamma(i - 1)."""
    gam = np.empty(16)  # gamma(0..k), one lag evaluated per step; capacity doubles
    for k in itertools.count():
        if k == gam.size:
            gam = np.concatenate((gam, np.empty(k)))
        gam[k] = spec.gamma(k)
        if k == 0:
            v = float(gam[0])
            if not v > 0:
                raise NotPositiveDefinite(1, f"gamma(0) = {v} is not positive")
            coefficients = np.empty(0)
        else:
            phi = coefficients[::-1]  # recency order: weight on most recent first
            # numerator of the reflection coefficient: gamma(k) - sum_j phi_j gamma(k-1-j)
            a = float(gam[k]) - float(np.dot(phi, gam[k - 1 : 0 : -1]))
            refl = a / v
            new_phi = np.empty(k)
            new_phi[: k - 1] = phi - refl * phi[::-1]
            new_phi[k - 1] = refl
            v = v * (1.0 - refl * refl)
            if not v > 0:
                raise NotPositiveDefinite(k + 1)
            coefficients = new_phi[::-1].copy()
        yield coefficients, v


def durbin_levinson(spec: StationaryProcessSpec, n: int) -> list[PredictionRecursionState]:
    """One-step prediction states for observations 1..n.

    State i carries the projection weights of X_i on (X_1, ..., X_{i-1}) in
    history order and the conditional variance v_i.  Raises
    :class:`NotPositiveDefinite` with the failing leading dimension when the
    autocovariances are not a valid covariance sequence up to n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [PredictionRecursionState(i, c, v) for i, (c, v) in zip(range(1, n + 1), _durbin_levinson(spec))]


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
    _require_finite(innovation_variance=innovation_variance)
    if not innovation_variance > 0:
        raise NonPositiveVariance(f"innovation variance must be positive, got {innovation_variance}")
    if not np.all(np.isfinite(phis)):
        raise NonStationary(f"AR coefficients must be finite, got {phis.tolist()}")
    p = phis.size
    label = f"ar({','.join(repr(float(c)) for c in phis)};{float(innovation_variance)})"
    if p == 0:
        return white_noise(innovation_variance, mean)
    phi = phis.tolist()  # step-down (Schur-Cohn): stationary iff every |kappa_k| < 1
    for k in range(p, 0, -1):
        kappa = phi[k - 1]
        if not abs(kappa) < 1.0 - 1e-12:
            raise NonStationary(f"AR polynomial is not stationary: partial autocorrelation kappa_{k} = {kappa!r}")
        phi = [(phi[j] + kappa * phi[k - 2 - j]) / (1.0 - kappa * kappa) for j in range(k - 1)]

    # Solve for gamma(0..p): gamma(k) - sum_j phi_j gamma(|k-j|) = s^2 * [k == 0]
    a = np.eye(p + 1)
    for k in range(p + 1):
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

    return StationaryProcessSpec(mean, autocov, label=label, ar=(phis, innovation_variance))


def ma_process(
    coefficients: Sequence[float],
    innovation_variance: float,
    mean: float = 0.0,
) -> StationaryProcessSpec:
    """Moving-average process: gamma(k) = s^2 sum_j theta_j theta_{j+k}, theta_0 = 1."""
    thetas = np.asarray(coefficients, dtype=float)
    _require_finite(innovation_variance=innovation_variance)
    if not innovation_variance > 0:
        raise NonPositiveVariance(f"innovation variance must be positive, got {innovation_variance}")
    if not np.all(np.isfinite(thetas)):
        raise NonFiniteValue(f"MA coefficients must be finite, got {thetas.tolist()}")
    full = np.concatenate(([1.0], thetas))
    q = thetas.size
    label = f"ma({','.join(repr(float(c)) for c in thetas)};{float(innovation_variance)})"

    def autocov(k: int) -> float:
        if k > q:
            return 0.0
        with np.errstate(over="ignore"):  # an overflow is reported by gamma, naming the lag
            return innovation_variance * float(np.dot(full[: q + 1 - k], full[k:]))

    return StationaryProcessSpec(mean, autocov, label=label)


def white_noise(variance: float, mean: float = 0.0) -> StationaryProcessSpec:
    _require_finite(variance=variance)
    if not variance > 0:
        raise NonPositiveVariance(f"variance must be positive, got {variance}")
    return StationaryProcessSpec(
        mean,
        lambda k: variance if k == 0 else 0.0,
        label=f"whitenoise({float(variance)})",
        ar=((), variance),
    )


def sample_path(spec: StationaryProcessSpec, n: int, seed: int, substream: int = 0) -> np.ndarray:
    """Exact Gaussian path of length n, deterministic given (spec, n, seed, substream).

    Generated sequentially from the process model's own predictives:
    x_i = predictive mean + sqrt(predictive variance) * z_i, with the z_i
    read from the counter-based stream keyed by ``(seed, substream)``.
    """
    z = stream(seed, substream).standard_normal(n)
    x = np.empty(n)
    for i, q in zip(range(n), StationaryProcessModel(spec).predictives(x)):
        x[i] = q.mean + math.sqrt(q.variance) * z[i]
    return x


class StationaryProcessModel(PredictiveModel):
    """Adapter exposing a stationary process as a predictive model.

    :meth:`predictives` is one forward Durbin-Levinson pass over the series,
    holding only the current weight vector, so each pass repeats the
    recursion.  AR(p) specs switch to their lag filter once the history holds
    p values, and hand those predictives to the prequential fold as arrays
    (:meth:`gaussian_predictives`), which scores them in one kernel call.
    """

    def __init__(self, spec: StationaryProcessSpec, identifier: str | None = None):
        self.spec = spec
        self.identifier = identifier or spec.label

    def predictives(self, x):
        mean, ar = self.spec.mean, self.spec.ar
        # the recursion serves every step of a general process, the first p of an AR(p)
        p = x.size + 1 if ar is None else min(len(ar[0]), x.size + 1)
        for i, (coefficients, v) in zip(range(p), _durbin_levinson(self.spec)):
            yield GaussianPredictive(mean + float(np.dot(coefficients, x[:i] - mean)), v)
        for i in range(p, x.size + 1):
            deviation = 0.0  # sum_j phi_j (x_{i-j} - mean), in Python floats: p is small
            for phi, xj in zip(ar[0], reversed(x[i - p : i].tolist())):
                deviation += phi * (xj - mean)
            yield GaussianPredictive(mean + deviation, ar[1])

    def predictive_at(self, history) -> GaussianPredictive:
        h = _check_history(history)
        if self.spec.ar is not None:  # an AR(p) predictive depends on the last p values alone
            h = h[max(h.size - len(self.spec.ar[0]), 0) :]
        return collections.deque(self.predictives(h), maxlen=1).pop()

    def gaussian_predictives(self, x):
        ar = self.spec.ar
        if ar is None or x.size <= len(ar[0]):
            return None
        phis, variance = ar
        p, n, mean = len(phis), x.size, self.spec.mean
        deviation = np.zeros(n - p)  # the lag filter of predictives, same order of additions
        for j, phi in enumerate(phis, start=1):
            deviation += phi * (x[p - j : n - j] - mean)
        return p, mean + deviation, variance


def process_model(spec: StationaryProcessSpec, identifier: str | None = None) -> PredictiveModel:
    """Predictive model whose one-step laws come from the process spec."""
    return StationaryProcessModel(spec, identifier)


def Ar1MarkovModel(
    phi: float,
    innovation_variance: float,
    mean: float = 0.0,
    identifier: str | None = None,
) -> PredictiveModel:
    """AR(1) process model, identified as ``ar1(phi;s2)`` unless named.

    Beyond the first step its predictive depends on the most recent value
    alone, so an edited observation k touches only per-step terms k and k+1.
    """
    return process_model(
        ar_process([phi], innovation_variance, mean),
        identifier or f"ar1({float(phi)};{float(innovation_variance)})",
    )
