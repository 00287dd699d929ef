"""Scalar densities carrying their own log-derivative information.

A :class:`DensityWithDerivatives` is the most general predictive object the
scoring functions accept: a log density together with its first and second
derivatives, plus two declared flags.  ``proper`` says whether ``exp(logpdf)``
integrates to one over the real line; ``smooth`` says whether the log density
is twice continuously differentiable.  Both flags are declared by the
constructor rather than detected numerically: C2-ness in particular is not
reliably machine-detectable.

All densities are understood with respect to Lebesgue measure on the real
line.  Unnormalized densities are representable (shift the log density by any
constant); gradient-based scores do not see the shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

from .errors import ImproperPredictive, NonMonotoneTransform, NonPositiveVariance

__all__ = [
    "DensityWithDerivatives",
    "FLAT_DENSITY",
    "gaussian_density",
    "student_t_density",
    "laplace_density",
    "shift_density",
    "MonotoneTransform",
    "affine_transform",
    "cubic_plus_linear_transform",
    "pushforward_density",
]


@dataclass(frozen=True)
class DensityWithDerivatives:
    """A univariate (possibly unnormalized) density with log-derivatives.

    Parameters
    ----------
    logpdf, dlogpdf, d2logpdf : callable
        Log density and its first two derivatives, each mapping a real to a
        real.  For improper densities ``logpdf`` is defined only up to an
        additive constant.
    proper : bool
        True when ``exp(logpdf)`` is normalized w.r.t. Lebesgue measure.
    smooth : bool
        True when the log density is C2 on the real line; gradient-based
        scoring requires it.
    improper_error : type
        Exception raised when a log score is requested while ``proper`` is
        False.  Models whose predictive becomes proper after more data set
        this to :class:`~preqscore.errors.InsufficientHistory`.
    """

    logpdf: Callable[[float], float]
    dlogpdf: Callable[[float], float]
    d2logpdf: Callable[[float], float]
    proper: bool = True
    smooth: bool = True
    improper_error: type = field(default=ImproperPredictive, repr=False)

    def density(self) -> "DensityWithDerivatives":
        return self


# The flat predictive on the line: constant log density, so zero derivatives.
FLAT_DENSITY = DensityWithDerivatives(
    logpdf=lambda x: 0.0,
    dlogpdf=lambda x: 0.0,
    d2logpdf=lambda x: 0.0,
    proper=False,
)


def gaussian_density(mean: float, variance: float) -> DensityWithDerivatives:
    """Normal density with explicit log-derivatives."""
    if not variance > 0:
        raise NonPositiveVariance(f"variance must be positive, got {variance}")
    const = -0.5 * math.log(2.0 * math.pi * variance)
    return DensityWithDerivatives(
        logpdf=lambda x: const - (x - mean) * (x - mean) / (2.0 * variance),
        dlogpdf=lambda x: -(x - mean) / variance,
        d2logpdf=lambda x: -1.0 / variance,
    )


def student_t_density(center: float, scale: float, dof: float) -> DensityWithDerivatives:
    """Location-scale Student-t density; smooth everywhere for any dof > 0."""
    if not scale > 0:
        raise NonPositiveVariance(f"scale must be positive, got {scale}")
    if not dof > 0:
        raise NonPositiveVariance(f"dof must be positive, got {dof}")
    const = (
        math.lgamma((dof + 1.0) / 2.0)
        - math.lgamma(dof / 2.0)
        - 0.5 * math.log(dof * math.pi)
        - math.log(scale)
    )

    def logpdf(x: float) -> float:
        z = (x - center) / scale
        return const - (dof + 1.0) / 2.0 * math.log1p(z * z / dof)

    def dlogpdf(x: float) -> float:
        z = (x - center) / scale
        return -(dof + 1.0) * z / (scale * (dof + z * z))

    def d2logpdf(x: float) -> float:
        z = (x - center) / scale
        w = dof + z * z
        return -(dof + 1.0) * (dof - z * z) / (scale * scale * (w * w))

    return DensityWithDerivatives(logpdf, dlogpdf, d2logpdf)


def laplace_density(center: float, scale: float) -> DensityWithDerivatives:
    """Double-exponential density.

    The log density has a kink at ``center``, so ``smooth`` is False and
    gradient-based scores reject it.  The derivative callables return the
    one-sided values away from the kink.
    """
    if not scale > 0:
        raise NonPositiveVariance(f"scale must be positive, got {scale}")
    const = -math.log(2.0 * scale)
    return DensityWithDerivatives(
        logpdf=lambda x: const - abs(x - center) / scale,
        dlogpdf=lambda x: -math.copysign(1.0 / scale, x - center),
        d2logpdf=lambda x: 0.0,
        smooth=False,
    )


def shift_density(q: DensityWithDerivatives, c: float) -> DensityWithDerivatives:
    """Shift the log density by a constant, i.e. rescale the density by exp(c).

    The result is no longer normalized for c != 0, so ``proper`` is dropped.
    Derivatives are untouched.
    """
    base = q.logpdf
    return replace(q, logpdf=lambda x: base(x) + c, proper=q.proper and c == 0.0)


@dataclass(frozen=True)
class MonotoneTransform:
    """A strictly increasing C3 map of the observation axis.

    ``g`` maps the original axis to the new one; ``inverse`` maps back.
    ``dg``, ``d2g``, ``d3g`` are the first three derivatives of ``g`` (the
    third is needed for the second log-derivative of a transformed density).
    """

    g: Callable[[float], float]
    dg: Callable[[float], float]
    d2g: Callable[[float], float]
    d3g: Callable[[float], float]
    inverse: Callable[[float], float]
    name: str = "transform"

    def require_increasing_on(self, points) -> None:
        """Raise :class:`NonMonotoneTransform` unless dg > 0 at every point."""
        for x in points:
            if not self.dg(float(x)) > 0.0:
                raise NonMonotoneTransform(f"{self.name}: derivative is {self.dg(float(x))} at x={float(x)}")


def affine_transform(scale: float, offset: float = 0.0) -> MonotoneTransform:
    if not scale > 0:
        raise NonMonotoneTransform(f"affine scale must be positive, got {scale}")
    return MonotoneTransform(
        g=lambda x: scale * x + offset,
        dg=lambda x: scale,
        d2g=lambda x: 0.0,
        d3g=lambda x: 0.0,
        inverse=lambda y: (y - offset) / scale,
        name=f"affine({scale},{offset})",
    )


def cubic_plus_linear_transform() -> MonotoneTransform:
    """y = x^3 + x: strictly increasing, non-affine, with a stable closed-form inverse."""

    def inverse(y: float) -> float:
        # Single real root of x^3 + x = y.  Writing t = cbrt(y/2 + sqrt(y^2/4 + 1/27))
        # gives x = t - 1/(3t); the product of the two Cardano cube roots is -1/3,
        # so this form avoids cancellation.  Use oddness for y < 0.
        y = float(y)  # whose y*y overflows to inf without the warning a numpy float gives
        if y < 0:
            return -inverse(-y)
        if y < 2.0**-27:  # y*y*y is below half an ulp of y, so the rounded root is y (0 included)
            return y
        if y > 1.0:
            # Factor y/2 out of the discriminant so y*y cannot overflow.
            t = (y / 2.0) ** (1.0 / 3.0) * (1.0 + math.sqrt(1.0 + 4.0 / (27.0 * y * y))) ** (1.0 / 3.0)
        else:
            t = ((y / 2.0) + math.sqrt(y * y / 4.0 + 1.0 / 27.0)) ** (1.0 / 3.0)
        x = t - 1.0 / (3.0 * t)
        # One Newton step polishes to full precision; it also rescues the
        # cancellation in t - 1/(3t) when y is small.
        fx = (x * x * x + x) - y
        if math.isfinite(fx):
            x -= fx / (3.0 * x * x + 1.0)
        return x

    return MonotoneTransform(
        g=lambda x: x * x * x + x,
        dg=lambda x: 3.0 * x * x + 1.0,
        d2g=lambda x: 6.0 * x,
        d3g=lambda x: 6.0,
        inverse=inverse,
        name="cubic_plus_linear",
    )


def pushforward_density(q: DensityWithDerivatives, transform: MonotoneTransform) -> DensityWithDerivatives:
    """Density of Y = g(X) when X has density ``q``, with log-derivatives in y.

    Uses the change-of-variables formula log q_Y(y) = log q_X(x) - log g'(x)
    at x = g^{-1}(y), and the chain rule for the two derivatives.  Propriety
    and smoothness are preserved by a strictly increasing C3 bijection.
    """

    def logpdf(y: float) -> float:
        x = transform.inverse(y)
        return q.logpdf(x) - math.log(transform.dg(x))

    def dlogpdf(y: float) -> float:
        x = transform.inverse(y)
        g1 = transform.dg(x)
        return (q.dlogpdf(x) - transform.d2g(x) / g1) / g1

    def d2logpdf(y: float) -> float:
        x = transform.inverse(y)
        g1, g2, g3 = transform.dg(x), transform.d2g(x), transform.d3g(x)
        u1 = q.dlogpdf(x) - g2 / g1
        u2 = q.d2logpdf(x) - (g3 * g1 - g2 * g2) / (g1 * g1)
        return (u2 * g1 - u1 * g2) / (g1 * g1 * g1)

    return DensityWithDerivatives(
        logpdf,
        dlogpdf,
        d2logpdf,
        proper=q.proper,
        smooth=q.smooth,
        improper_error=q.improper_error,
    )
