"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the closed forms implemented in the
package: derivatives come from finite differences, normalizing constants
from adaptive quadrature, conditional Gaussian moments from a dense
Cholesky/Schur-complement computation, running sums from exact rational
sums, ARMA moments from the innovations algorithm without
its steady-state shortcut, the flat-prior models' log totals from their
marginal likelihoods, the flat-prior predictives from exact rational sums,
a transformed model's log total from its inner model's by the change of
variables, and a process model's log total from the dense Gaussian
likelihood.  A shared algebra mistake between library and test would have
to survive two unrelated derivations.
"""

import collections
import math
from fractions import Fraction

import numpy as np
from scipy import integrate, linalg, stats

from preqscore.errors import NonFiniteValue, NotPositiveDefinite


def fd_first(f, x, h=1e-5):
    """Central first difference."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def fd_second(f, x, h=1e-4):
    """Central second difference."""
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


_QUAD = dict(limit=300, epsabs=1e-12, epsrel=1e-10)


def normalization(logpdf, lo=-np.inf, hi=np.inf):
    """Integral of exp(logpdf) over (lo, hi) by adaptive quadrature."""
    value, _ = integrate.quad(lambda t: math.exp(logpdf(t)), lo, hi, **_QUAD)
    return value


def conditional_gaussian_oracle(gamma, i):
    """Coefficients and variance of X_i | X_1..X_{i-1} for a stationary series.

    Builds the dense i-by-i Toeplitz covariance from the autocovariance
    function ``gamma``, checks positive definiteness with a Cholesky
    factorization, then solves the normal equations directly.  Returns
    ``(coefficients, variance)`` with coefficients in history order (entry 0
    multiplies the oldest observation), matching the package convention.
    """
    cov = np.array([[gamma(abs(r - c)) for c in range(i)] for r in range(i)], dtype=float)
    np.linalg.cholesky(cov)
    if i == 1:
        return np.empty(0), float(cov[0, 0])
    coef = np.linalg.solve(cov[:-1, :-1], cov[:-1, -1])
    variance = float(cov[-1, -1] - cov[:-1, -1] @ coef)
    return coef, variance


def location_predictive_pdf(x, history, variance):
    """Flat-prior location predictive density by quadrature over the mean."""
    h = np.asarray(history, dtype=float)
    n = h.size
    center = h.mean()
    post_sd = math.sqrt(variance / n)

    def integrand(mu):
        return stats.norm.pdf(x, mu, math.sqrt(variance)) * stats.norm.pdf(mu, center, post_sd)

    value, _ = integrate.quad(integrand, center - 12 * post_sd, center + 12 * post_sd, **_QUAD)
    return value


def scale_predictive_pdf(x, history, mean):
    """Known-mean unknown-variance predictive density by quadrature.

    Uses the reference prior 1/v on the variance, which gives an
    inverse-gamma(n/2, ss/2) posterior.
    """
    h = np.asarray(history, dtype=float)
    n = h.size
    ss = float(np.sum((h - mean) ** 2))
    posterior = stats.invgamma(a=n / 2.0, scale=ss / 2.0)

    def integrand(v):
        return stats.norm.pdf(x, mean, math.sqrt(v)) * posterior.pdf(v)

    value, _ = integrate.quad(integrand, 0.0, np.inf, **_QUAD)
    return value


def iid_law(mean, variance):
    """(mean, variance) of every predictive of the iid normal model N(mean, variance)."""
    return float(mean), float(variance)


def flat_location_law(history, variance):
    """(mean, variance) of the flat-prior location predictive after n >= 1 observations:
    N(S / n, v (1 + 1/n)), S their sum in rational arithmetic rounded once to a float.
    Raises ``OverflowError`` where that rounded sum overflows."""
    n = len(history)
    return float(sum(map(Fraction, history))) / n, variance * (1.0 + 1.0 / n)


# The improper law proportional to 1/|x - center|^exponent.
ImproperPower = collections.namedtuple("ImproperPower", "center exponent")


def flat_scale_law(history, mean):
    """(center, scale, dof) of the known-mean predictive under the prior 1/v after n
    observations: Student-t(mean, sqrt(SS / n), n), SS the sum of the squared deviations,
    each rounded to a float as a product of float differences, summed in rational
    arithmetic and rounded once.  Where SS is 0, with no history in particular, the
    posterior v^(-n/2-1) is improper and so is the predictive, ImproperPower(mean, n + 1).
    An infinite square makes SS inf; a finite SS that overflows raises ``OverflowError``.
    A subnormal SS whose SS / n rounds to 0 has the scale sqrt(SS) / sqrt(n)."""
    squares = [(v - mean) * (v - mean) for v in map(float, history)]
    ss = math.inf if math.inf in squares else float(sum(map(Fraction, squares)))
    n = len(squares)
    return ImproperPower(float(mean), n + 1.0) if ss == 0 else (float(mean), math.sqrt(ss / n) or math.sqrt(ss) / math.sqrt(n), float(n))


def normal_log_total(x, mean, variance):
    """Log score of the normal law N(mean, variance) summed over the observations x."""
    return math.fsum(0.5 * math.log(2.0 * math.pi * variance) + (v - mean) ** 2 / (2.0 * variance) for v in x)


def transformed_log_total(inner_log_total, transform, y):
    """Log score of a model for y = g(x) summed over observations 2..n: the inner model's
    total ``inner_log_total`` on the pulled-back series x plus sum_{i >= 2} log g'(x_i),
    since the density of y_i is the density of x_i divided by g'(x_i)."""
    x = [transform.inverse(float(v)) for v in y]
    return inner_log_total(x) + math.fsum(math.log(transform.dg(v)) for v in x[1:])


def flat_location_log_total(x, variance):
    """Log score of the flat-prior location model summed over observations 2..n:
    minus the log of the density of x_2..x_n given x_1, the Gaussian integral over
    the mean, 1/2 (n-1) log(2 pi v) + 1/2 log n + S / (2 v), with S the sum of
    squared deviations from the sample mean (the chain rule, Dawid 1984)."""
    n = len(x)
    center = math.fsum(x) / n
    s = math.fsum((v - center) ** 2 for v in x)
    return 0.5 * (n - 1) * math.log(2.0 * math.pi * variance) + 0.5 * math.log(n) + s / (2.0 * variance)


def flat_scale_log_total(x, mean):
    """Log score of the known-mean model under the prior 1/v summed over observations
    2..n: -log(m(x) / m(x_1)), where the marginal likelihood of k observations is
    m = (2 pi)^(-k/2) Gamma(k/2) (SS/2)^(-k/2), SS their squared deviations from the mean."""

    def log_marginal(d):
        k = len(d)
        ss = math.fsum(v**2 for v in d)
        return -0.5 * k * math.log(2.0 * math.pi) + math.lgamma(0.5 * k) - 0.5 * k * math.log(0.5 * ss)

    d = [v - mean for v in x]
    return log_marginal(d[:1]) - log_marginal(d)


def gaussian_process_log_total(gamma, mean, x):
    """Minus the log density of the series x under the stationary Gaussian law with
    autocovariance ``gamma``: 1/2 n log 2 pi + sum_i log L_ii + 1/2 |L^-1 (x - mean)|^2,
    L the Cholesky factor of the dense n-by-n Toeplitz covariance.  By the chain rule
    (Dawid 1984) it is the log score summed over every one-step predictive."""
    x = np.asarray(x, dtype=float)
    n = x.size
    factor = linalg.cholesky(linalg.toeplitz([gamma(k) for k in range(n)]), lower=True)
    z = linalg.solve_triangular(factor, x - mean, lower=True)
    return 0.5 * n * math.log(2.0 * math.pi) + math.fsum(np.log(np.diag(factor))) + 0.5 * math.fsum(z * z)


def simplex_grid(n_states, step=0.1):
    """All probability vectors whose entries are multiples of ``step``."""
    k = round(1.0 / step)
    rows = []

    def fill(prefix, remaining, slots):
        if slots == 1:
            rows.append(prefix + [remaining])
            return
        for j in range(remaining + 1):
            fill(prefix + [j], remaining - j, slots - 1)

    fill([], k, n_states)
    return np.asarray(rows, dtype=float) / k


def correctly_rounded_prefix_sums(values):
    """Each prefix of ``values`` summed exactly as a ``Fraction`` and rounded once: the
    reference for ``compensated_cumsum``.  The first running sum that is not finite
    raises :class:`NonFiniteValue` indexed by its term."""
    out = np.empty(len(values))
    total = Fraction(0)
    for i, raw in enumerate(values):
        v = float(raw)
        if not math.isfinite(v):
            raise NonFiniteValue(f"running sum is {v!r} at term {i + 1}", index=i + 1)
        total += Fraction(v)
        try:
            out[i] = float(total)
        except OverflowError:
            t = math.inf if total > 0 else -math.inf
            raise NonFiniteValue(f"running sum is {t!r} at term {i + 1}", index=i + 1) from None
    return out


def compensated_cumsum_loop(values):
    """Neumaier running sums, one term at a time: the package's sum until it was made
    correctly rounded, kept to show where compensation alone misrounds.

    An overflowing total raises :class:`NonFiniteValue` indexed by its term.
    """
    out = np.empty(len(values))
    total = 0.0
    c = 0.0
    for i, raw in enumerate(values):
        v = float(raw)
        t = total + v
        if not math.isfinite(t):
            raise NonFiniteValue(f"running sum is {t!r} at term {i + 1}", index=i + 1)
        if abs(total) >= abs(v):
            c += (total - t) + v
        else:
            c += (v - t) + total
        total = t
        out[i] = total + c
    return out


def innovations_loop(spec, x):
    """(mean, variance) of X_i given x[:i - 1] for i = 1..n+1 from the innovations
    algorithm on Ansley's transformed process, recomputing every row of theta and
    v_n at every step: the reference for the pass that stops once they are fixed.
    """
    mean, (phis, thetas, s2) = spec.mean, spec.arma
    q = len(thetas)
    m = max(len(phis), q)
    gam = [spec.gamma(k) for k in range(m + 1)]
    cross = [gam[h] - sum(phi * gam[abs(h - r)] for r, phi in enumerate(phis, 1)) for h in range(q + 1)]
    th = (1.0, *thetas)
    tail = [s2 * sum(th[j] * th[j + h] for j in range(q + 1 - h)) for h in range(q + 1)]
    rows = collections.deque(maxlen=m)
    vs = collections.deque(maxlen=m)
    innovations = collections.deque(maxlen=m)
    recent = collections.deque(maxlen=len(phis))
    xhat = mean
    for n in range(x.size + 1):
        if n:
            xn = float(x[n - 1])
            innovations.appendleft(xn - xhat)
            recent.appendleft(xn - mean)
        width = n if n < m else q
        row = [0.0] * width
        for j in range(width, 0, -1):
            row_j = rows[-j]
            acc = gam[j] if n < m else cross[j] if n - j < m else tail[j]
            if j < width:
                for t in range(j + 1, min(width, j + len(row_j)) + 1):
                    acc -= row_j[t - j - 1] * row[t - 1] * vs[-t]
            row[j - 1] = acc / vs[-j]
        v = gam[0] if n < m else tail[0]
        deviation = 0.0
        for theta, u, w in zip(row, innovations, reversed(vs)):
            v -= theta * theta * w
            deviation += theta * u
        if not v > 0:
            raise NotPositiveDefinite(n + 1)
        if n >= m:
            for phi, d in zip(phis, recent):
                deviation += phi * d
        xhat = mean + deviation
        rows.append(row)
        vs.append(v)
        yield xhat, v
