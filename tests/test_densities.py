"""Density derivative and transform checks against finite differences and quadrature."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preqscore import (
    NonMonotoneTransform,
    NonPositiveVariance,
    affine_transform,
    cubic_plus_linear_transform,
    gaussian_density,
    laplace_density,
    pushforward_density,
    shift_density,
    student_t_density,
)
from preqscore.densities import MonotoneTransform

from oracles import fd_first, fd_second, normalization

DENSITIES = [
    gaussian_density(0.0, 1.0),
    gaussian_density(-1.5, 0.3),
    student_t_density(0.0, 1.0, 3.0),
    student_t_density(2.0, 0.7, 1.0),
    laplace_density(0.5, 2.0),
]

POINTS = [-2.3, -0.4, 0.9, 3.1]


@pytest.mark.parametrize("q", DENSITIES, ids=lambda q: f"{q.logpdf(0.0):.3f}")
@pytest.mark.parametrize("x", POINTS)
def test_derivatives_match_finite_differences(q, x):
    assert q.dlogpdf(x) == pytest.approx(fd_first(q.logpdf, x), rel=1e-5, abs=1e-7)
    assert q.d2logpdf(x) == pytest.approx(fd_second(q.logpdf, x), rel=1e-5, abs=1e-5)


@pytest.mark.parametrize("q", DENSITIES, ids=["norm01", "norm", "t3", "cauchy", "laplace"])
def test_densities_are_normalized(q):
    assert normalization(q.logpdf) == pytest.approx(1.0, abs=1e-6)


def test_gaussian_rejects_bad_variance():
    from preqscore import NonPositiveVariance

    with pytest.raises(NonPositiveVariance):
        gaussian_density(0.0, 0.0)
    with pytest.raises(NonPositiveVariance):
        gaussian_density(0.0, -2.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: student_t_density(0.0, 0.0, 3.0),
        lambda: student_t_density(0.0, -1.0, 3.0),
        lambda: student_t_density(0.0, 1.0, 0.0),
        lambda: student_t_density(0.0, 1.0, -2.0),
        lambda: laplace_density(0.0, 0.0),
        lambda: laplace_density(0.0, -1.0),
    ],
    ids=["t-scale-0", "t-scale-neg", "t-dof-0", "t-dof-neg", "laplace-scale-0", "laplace-scale-neg"],
)
def test_densities_reject_non_positive_scale_and_dof(build):
    with pytest.raises(NonPositiveVariance, match="must be positive"):
        build()


def test_shift_density_keeps_derivatives_and_drops_propriety():
    base = gaussian_density(1.0, 2.0)
    shifted = shift_density(base, 7.25)
    for x in POINTS:
        assert shifted.logpdf(x) == base.logpdf(x) + 7.25
        assert shifted.dlogpdf(x) == base.dlogpdf(x)
        assert shifted.d2logpdf(x) == base.d2logpdf(x)
    assert not shifted.proper
    assert shift_density(base, 0.0).proper


def test_laplace_is_flagged_non_smooth():
    assert not laplace_density(0.0, 1.0).smooth
    assert gaussian_density(0.0, 1.0).smooth


@given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
def test_cubic_inverse_roundtrip(y):
    t = cubic_plus_linear_transform()
    x = t.inverse(y)
    assert t.g(x) == pytest.approx(y, rel=1e-12, abs=1e-12)


def test_cubic_inverse_extremes():
    t = cubic_plus_linear_transform()
    for y in [0.0, 1e-300, -1e-300, 1e300, -1e300, 2.0]:
        x = t.inverse(y)
        assert math.isfinite(x)
        assert t.g(x) == pytest.approx(y, rel=1e-12, abs=1e-300)
    assert t.inverse(2.0) == pytest.approx(1.0, rel=1e-14)


@example(1e-30, 1.0)
@example(1e-40, -1.0)
@example(1e-300, 1.0)
@given(st.floats(min_value=1e-300, max_value=1e100), st.sampled_from([1.0, -1.0]))
def test_cubic_inverse_recovers_x_within_four_ulp(magnitude, sign):
    # The Cardano form's absolute error is near 1e-17, so a tiny |y| needs its own
    # route, or inverse(g(1e-30)) is 1 % off and inverse(g(1e-40)) is 0.0.
    t = cubic_plus_linear_transform()
    x = sign * magnitude
    assert abs(t.inverse(t.g(x)) - x) <= 4 * math.ulp(x)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("exponent", [155, 160, 200, 250, 300])
def test_cubic_inverse_takes_numpy_floats(exponent, sign):
    # 27 y y overflows for |y| > 1e154: on a numpy float that warned, and warnings are errors here.
    t = cubic_plus_linear_transform()
    y = sign * float(f"1e{exponent}")
    assert t.inverse(np.float64(y)) == t.inverse(y)


def test_cubic_derivatives_match_finite_differences():
    t = cubic_plus_linear_transform()
    for x in POINTS:
        assert t.dg(x) == pytest.approx(fd_first(t.g, x), rel=1e-6)
        assert t.d2g(x) == pytest.approx(fd_second(t.g, x), rel=1e-4, abs=1e-5)
        assert t.d3g(x) == pytest.approx(fd_second(t.dg, x), rel=1e-4, abs=1e-4)


def test_affine_transform_validates_scale():
    with pytest.raises(NonMonotoneTransform):
        affine_transform(0.0)
    with pytest.raises(NonMonotoneTransform):
        affine_transform(-3.0)


def test_require_increasing_on_rejects_decreasing_map():
    falling = MonotoneTransform(
        g=lambda x: -x,
        dg=lambda x: -1.0,
        d2g=lambda x: 0.0,
        d3g=lambda x: 0.0,
        inverse=lambda y: -y,
        name="negate",
    )
    with pytest.raises(NonMonotoneTransform):
        falling.require_increasing_on([0.0])
    cubic_plus_linear_transform().require_increasing_on(POINTS)


@pytest.mark.parametrize(
    "transform",
    [affine_transform(2.5, offset=-1.0), cubic_plus_linear_transform()],
    ids=["affine", "cubic"],
)
@pytest.mark.parametrize("y", POINTS)
def test_pushforward_derivatives_match_finite_differences(transform, y):
    base = gaussian_density(0.3, 1.7)
    push = pushforward_density(base, transform)
    assert push.dlogpdf(y) == pytest.approx(fd_first(push.logpdf, y), rel=1e-5, abs=1e-6)
    assert push.d2logpdf(y) == pytest.approx(fd_second(push.logpdf, y), rel=1e-4, abs=1e-4)


def test_pushforward_is_normalized():
    push = pushforward_density(gaussian_density(0.0, 1.0), cubic_plus_linear_transform())
    assert normalization(push.logpdf) == pytest.approx(1.0, abs=1e-6)


def test_pushforward_under_affine_matches_scaled_gaussian():
    # Y = cX + b with X ~ N(m, v) is N(cm + b, c^2 v); the pushforward must
    # reproduce that closed form including both log-derivatives.
    c, b, m, v = 2.5, -1.0, 0.3, 1.7
    push = pushforward_density(gaussian_density(m, v), affine_transform(c, offset=b))
    direct = gaussian_density(c * m + b, c * c * v)
    for y in POINTS:
        assert push.logpdf(y) == pytest.approx(direct.logpdf(y), rel=1e-13)
        assert push.dlogpdf(y) == pytest.approx(direct.dlogpdf(y), rel=1e-13)
        assert push.d2logpdf(y) == pytest.approx(direct.d2logpdf(y), rel=1e-13)


def test_pushforward_preserves_flags():
    base = gaussian_density(0.0, 1.0)
    assert pushforward_density(base, cubic_plus_linear_transform()).proper
    assert pushforward_density(base, cubic_plus_linear_transform()).smooth
    rough = laplace_density(0.0, 1.0)
    assert not pushforward_density(rough, affine_transform(2.0)).smooth


@settings(max_examples=50)
@given(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
)
def test_pushforward_density_integrates_change_of_variables(mean, y):
    # log q_Y(y) = log q_X(g^{-1}(y)) - log g'(g^{-1}(y)) checked point by point.
    t = cubic_plus_linear_transform()
    base = gaussian_density(mean, 1.0)
    push = pushforward_density(base, t)
    x = t.inverse(y)
    assert push.logpdf(y) == pytest.approx(base.logpdf(x) - math.log(t.dg(x)), rel=1e-12, abs=1e-12)
