"""One-step prediction for covariance-stationary Gaussian processes.

A process is specified by its constant mean and autocovariance sequence
``gamma(k)``.  One pass per series turns it into the exact conditional law of
each observation given all earlier ones: a linear prediction plus the
conditional variance ``v_i`` of X_i given (X_1, ..., X_{i-1}).  The pass is
the innovations algorithm for every ARMA(p,q) spec, AR, MA and white noise
included: O(p + q^2) per step until its state stops changing, O(p+q) per
step after (from step p for AR(p)); and the forward Durbin-Levinson pass for
a user autocovariance, O(i) at step i (Brockwell & Davis 1991, ch. 5).

The conditional variance is the point of this module: it is constant in i
only for special processes.  For an AR(p) process it is the innovation
variance exactly for i > p; for a general process it is non-constant but
non-increasing with that limit.

Positive-definiteness failures raise with the first failing leading
dimension instead of being regularized away: silent jitter would corrupt
score comparisons downstream.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteValue, NonPositiveVariance, NonStationary, NotPositiveDefinite
from .models import PredictiveModel, _require_finite
from .scores import GaussianPredictive
from .streams import stream

__all__ = [
    "StationaryProcessSpec",
    "PredictionRecursionState",
    "durbin_levinson",
    "arma_process",
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
    keeps the values it reads.  ``arma`` is ``(phi_1..phi_p, theta_1..theta_q,
    innovation variance)`` when the process is ARMA(p,q), AR, MA and white
    noise included; process models then predict with the innovations
    algorithm, not the forward Durbin-Levinson pass.
    """

    def __init__(
        self,
        mean: float,
        autocov: Callable[[int], float],
        label: str = "process",
        arma: tuple[Sequence[float], Sequence[float], float] | None = None,
    ):
        _require_finite(mean=mean)
        self.mean = float(mean)
        self._autocov = autocov
        self.label = label
        self.arma = None if arma is None else (*(tuple(float(c) for c in cs) for cs in arma[:2]), float(arma[2]))

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


def arma_process(
    ar_coefficients: Sequence[float],
    ma_coefficients: Sequence[float],
    innovation_variance: float,
    mean: float = 0.0,
) -> StationaryProcessSpec:
    """ARMA(p,q) process phi(B)(X_t - mean) = theta(B) Z_t, Var Z_t = s^2.

    gamma(0..max(p,q)) solve gamma(k) - sum_j phi_j gamma(|k-j|) =
    s^2 sum_{j>=k} theta_j psi_{j-k}, and gamma(k) = sum_j phi_j gamma(k-j)
    beyond (Brockwell & Davis 1991, §3.3).  Raises :class:`NonStationary`
    unless all roots of the AR polynomial lie strictly outside the unit
    circle; the MA coefficients may be any finite numbers.
    """
    phis = np.asarray(ar_coefficients, dtype=float)
    thetas = np.asarray(ma_coefficients, dtype=float)
    _require_finite(innovation_variance=innovation_variance)
    if not innovation_variance > 0:
        raise NonPositiveVariance(f"innovation variance must be positive, got {innovation_variance}")
    if not np.all(np.isfinite(phis)):
        raise NonStationary(f"AR coefficients must be finite, got {phis.tolist()}")
    if not np.all(np.isfinite(thetas)):
        raise NonFiniteValue(f"MA coefficients must be finite, got {thetas.tolist()}")
    p, q = phis.size, thetas.size
    s2 = float(innovation_variance)
    kind = "arma" if p and q else "ar" if p else "ma" if q else "whitenoise"
    groups = [",".join(repr(float(c)) for c in cs) for cs in (phis, thetas) if cs.size]
    label = f"{kind}({';'.join([*groups, repr(s2)])})"
    phi = phis.tolist()  # step-down (Schur-Cohn): stationary iff every |kappa_k| < 1
    for k in range(p, 0, -1):
        kappa = phi[k - 1]
        if not abs(kappa) < 1.0 - 1e-12:
            raise NonStationary(f"AR polynomial is not stationary: partial autocorrelation kappa_{k} = {kappa!r}")
        phi = [(phi[j] + kappa * phi[k - 2 - j]) / (1.0 - kappa * kappa) for j in range(k - 1)]

    m = max(p, q)
    th = [1.0, *thetas.tolist()]
    psi = []  # psi_j = theta_j + sum_i phi_i psi_{j-i}, the weights of Z_{t-j} in X_t
    for j in range(q + 1):
        psi.append(th[j] + sum(c * psi[j - i] for i, c in enumerate(phis.tolist()[:j], 1)))
    b = [s2 * sum(th[j] * psi[j - k] for j in range(k, q + 1)) for k in range(q + 1)] + [0.0] * (m - q)
    if not all(map(math.isfinite, b)):
        raise NonFiniteValue(f"autocovariances gamma(0), ..., gamma({m}) of process {label!r} overflow")
    a = np.eye(m + 1)
    for k in range(m + 1):
        for j in range(1, p + 1):
            a[k, abs(k - j)] -= phis[j - 1]
    head = list(np.linalg.solve(a, b)) if p else b  # a pure MA's system is the identity

    def autocov(k: int) -> float:
        while len(head) <= k:
            n = len(head)
            head.append(float(np.dot(phis, [head[n - j] for j in range(1, p + 1)])) if p else 0.0)
        return head[k]

    return StationaryProcessSpec(mean, autocov, label=label, arma=(phis, thetas, s2))


def ar_process(
    coefficients: Sequence[float],
    innovation_variance: float,
    mean: float = 0.0,
) -> StationaryProcessSpec:
    """Autoregressive process, :func:`arma_process` with no MA part;
    autocovariances solve the Yule-Walker equations.  ``coefficients`` may be
    empty, giving white noise."""
    return arma_process(coefficients, (), innovation_variance, mean)


def ma_process(
    coefficients: Sequence[float],
    innovation_variance: float,
    mean: float = 0.0,
) -> StationaryProcessSpec:
    """Moving-average process, :func:`arma_process` with no AR part:
    gamma(k) = s^2 sum_j theta_j theta_{j+k}, theta_0 = 1."""
    return arma_process((), coefficients, innovation_variance, mean)


def white_noise(variance: float, mean: float = 0.0) -> StationaryProcessSpec:
    _require_finite(variance=variance)
    if not variance > 0:
        raise NonPositiveVariance(f"variance must be positive, got {variance}")
    return arma_process((), (), variance, mean)


def sample_path(spec: StationaryProcessSpec, n: int, seed: int, substream: int = 0) -> np.ndarray:
    """Exact Gaussian path of length n, deterministic given (spec, n, seed, substream).

    Generated sequentially from the process model's own predictive moments:
    x_i = predictive mean + sqrt(predictive variance) * z_i, with the z_i
    read from the counter-based stream keyed by ``(seed, substream)``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    z = stream(seed, substream).standard_normal(n).tolist()
    x = np.empty(n)
    for i, (mean, variance) in zip(range(n), _moments(spec, x)):
        x[i] = mean + math.sqrt(variance) * z[i]
    return x


def _moments(spec: StationaryProcessSpec, x: np.ndarray):
    """(mean, variance) of X_i given X_1..X_{i-1} = x[:i - 1], as floats, for
    i = 1..n+1; ``x[i]`` is read only after the (i+1)-th pair is yielded."""
    return _innovations(spec, x) if spec.arma else _forward_pass(spec, x)


def _forward_pass(spec: StationaryProcessSpec, x: np.ndarray):
    """The forward Durbin-Levinson pass for a user autocovariance."""
    mean = spec.mean
    for i, (coefficients, v) in zip(range(x.size + 1), _durbin_levinson(spec)):
        yield mean + float(np.dot(coefficients, x[:i] - mean)), v


def _innovations(spec: StationaryProcessSpec, x: np.ndarray):
    """ARMA(p,q), q >= 0: the innovations algorithm on Ansley's W_t, X_t for
    t <= m = max(p,q) and phi(B)X_t beyond, whose coefficients theta_{n,j}
    vanish for j > q once n >= m (Ansley 1979; Brockwell & Davis 1991, §5.3).
    The state is the last m rows of theta, values of v and innovations.  From
    n >= m + q a row and its v depend only on the q before, so once q
    consecutive rows and v repeat bit for bit the state is fixed and only the
    O(p+q) filter runs: from n = m for AR(p), never for a unit-root MA part."""
    mean, (phis, thetas, s2) = spec.mean, spec.arma
    q = len(thetas)
    m = max(len(phis), q)
    # kappa(i, i-h), the covariance of W_i and W_{i-h}: gamma(h) while i <= m, that of
    # phi(B)X_i and X_{i-h} for i-h <= m < i, and that of theta(B)Z_i and theta(B)Z_{i-h} beyond
    gam = [spec.gamma(k) for k in range(max(m, q + 1) if q else m)]  # the lags read below
    cross = [gam[h] - sum(phi * gam[abs(h - r)] for r, phi in enumerate(phis, 1)) for h in range(1, q + 1)]
    th = (1.0, *thetas)
    tail = [s2 * sum(th[j] * th[j + h] for j in range(q + 1 - h)) for h in range(q + 1)]
    rows = collections.deque(maxlen=m)  # theta_{n-j,1..} for j = m..1
    vs = collections.deque(maxlen=m)  # v_{n-j}
    innovations = collections.deque(maxlen=m)  # x_{n+1-j} - xhat_{n+1-j}, kept while rows are not empty
    recent = collections.deque(maxlen=len(phis))  # x_{n+1-j} - mean
    xhat = mean
    steady, repeats = False, 0  # repeats: consecutive steps whose row and v equal the step before's
    push_lag, item = recent.appendleft, x.item
    for n in range(x.size + 1):
        if n:
            xn = item(n - 1)
            push_lag(xn - mean)
        if not steady:
            width = n if n < m else q
            row = [0.0] * width  # theta_{n,1..width}
            for j in range(width, 0, -1):
                # theta_{n,j} v_{n-j} = kappa(n+1, n+1-j) - sum_{t>j} theta_{n-j,t-j} theta_{n,t} v_{n-t}
                row_j = rows[-j]
                acc = gam[j] if n < m else cross[j - 1] if n - j < m else tail[j]
                if j < width:
                    for t in range(j + 1, min(width, j + len(row_j)) + 1):
                        acc -= row_j[t - j - 1] * row[t - 1] * vs[-t]
                row[j - 1] = acc / vs[-j]
            v = gam[0] if n < m else tail[0]
            for theta, w in zip(row, reversed(vs)):
                v -= theta * theta * w
            if not v > 0:
                raise NotPositiveDefinite(n + 1)
            repeats = repeats + 1 if vs and v == vs[-1] and row == rows[-1] else 0
            steady = n >= m + q and repeats >= q
            lags = phis if n >= m else ()
            rows.append(row)
            vs.append(v)
        deviation = 0.0
        if row:
            innovations.appendleft(xn - xhat)
            for theta, u in zip(row, innovations):
                deviation += theta * u
        for phi, d in zip(lags, recent):
            deviation += phi * d
        xhat = mean + deviation
        yield xhat, v


class StationaryProcessModel(PredictiveModel):
    """Adapter exposing a stationary process as a predictive model.

    :meth:`predictives` is one pass over the series that reads each value
    once.  An ARMA(p,q) spec keeps O(max(p,q)^2) state and costs O(p + q^2)
    per step until it is fixed, then O(p+q).  A user autocovariance costs
    O(i) at step i, O(n^2) per pass by nature, keeping only the current weights.
    The fold scores rows (:meth:`predictive_rows`): AR(p), white noise included,
    beyond step p from the lag filter over the series; every other spec from
    observation 1, the means and variances of one pass read into arrays.
    """

    def __init__(self, spec: StationaryProcessSpec, identifier: str | None = None):
        self.spec = spec
        self.identifier = identifier or spec.label

    def predictives(self, x):
        return itertools.starmap(GaussianPredictive, _moments(self.spec, x))

    def predictive_rows(self, x, rule):
        arma, n = self.spec.arma, x.size
        if arma is None or arma[1]:  # the pass's moments, read as floats
            moments = np.fromiter(itertools.chain.from_iterable(itertools.islice(_moments(self.spec, x), n)), float, 2 * n)
            return 0, GaussianPredictive, SimpleNamespace(mean=moments[0::2], variance=moments[1::2])
        if n <= len(arma[0]):
            return None
        phis, _, variance = arma
        p, mean = len(phis), self.spec.mean
        deviation = np.zeros(n - p)  # the lag filter of predictives, same order of additions
        for j, phi in enumerate(phis, start=1):
            deviation += phi * (x[p - j : n - j] - mean)
        return p, GaussianPredictive, SimpleNamespace(mean=mean + deviation, variance=variance)


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
