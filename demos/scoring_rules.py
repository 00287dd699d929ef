"""Score one observation under the two rules and see what each one needs.

The log score is the negative log predictive density, so it needs a
normalizable density.  The gradient-based score only reads the first two
derivatives of the log density, so normalizing constants (even infinite
ones) never enter.
"""

from preqscore import (
    FLAT_DENSITY,
    GaussianPredictive,
    score_predictive,
    shift_density,
    student_t_density,
)


def main():
    x = 1.3
    q = GaussianPredictive(mean=0.0, variance=2.0)
    print(f"observation x = {x}, predictive N({q.mean}, {q.variance})")
    print(f"  log score       : {score_predictive(x, q, 'log').value:.6f}")
    print(f"  gradient score  : {score_predictive(x, q, 'hyvarinen').value:.6f}")

    # The gradient score never sees the normalizing constant: multiply the
    # density by any positive constant and the score is bit-for-bit the same.
    t = student_t_density(0.0, 1.0, 3.0)
    bumped = shift_density(t, 5.0)  # density * exp(5), no longer normalized
    s_base = score_predictive(x, t, "hyvarinen").value
    s_bump = score_predictive(x, bumped, "hyvarinen").value
    print(f"\nt3 density vs the same density times e^5:")
    print(f"  gradient scores {s_base:.6f} and {s_bump:.6f}, equal: {s_base == s_bump}")

    # Closed Gaussian formula and the generic derivative route, through the
    # same law's .density(), agree.
    closed = score_predictive(x, q, "hyvarinen").value
    generic = score_predictive(x, q.density(), "hyvarinen").value
    print(f"\nclosed form {closed:.12f} vs derivative route {generic:.12f}")

    # The flat predictive is an improper density: no log score at all, but its
    # log density is constant, so the gradient score is exactly zero.
    flat = FLAT_DENSITY
    print(f"\nflat predictive: gradient score = {score_predictive(x, flat, 'hyvarinen').value}")
    try:
        score_predictive(x, flat, "log")
    except Exception as e:
        print(f"flat predictive under the log rule: {type(e).__name__}: {e}")

    # With equal variances the two rules are tied by an exact constant:
    # each per-step gradient difference is (2 / variance) times the log one.
    a, b = GaussianPredictive(0.0, 2.0), GaussianPredictive(1.0, 2.0)
    d_log = score_predictive(x, b, "log").value - score_predictive(x, a, "log").value
    d_hyv = score_predictive(x, b, "hyvarinen").value - score_predictive(x, a, "hyvarinen").value
    print(f"\nequal-variance pair: hyv delta {d_hyv:.10f} = (2/v) * log delta {d_log:.10f}")
    print(f"  residual {abs(d_hyv - (2.0 / 2.0) * d_log):.2e}")


if __name__ == "__main__":
    main()
