"""Compare models that start from flat priors, where the log score cannot.

A flat prior over a location gives an improper (non-normalizable) first
predictive, so the log score is undefined at observation one and prequential
log comparison never gets started.  The gradient-based score is finite from
the very first observation and the comparison proceeds as usual.
"""

import numpy as np

from preqscore import (
    FLAT_DENSITY,
    ImproperPredictive,
    ScoreRule,
    delta_trace,
    flat_prior_location_model,
    iid_gaussian_model,
    select,
    stream,
)


def main():
    rng = stream(seed=7)
    data = rng.normal(loc=0.0, scale=1.0, size=80)

    flat = flat_prior_location_model(variance=1.0)
    fixed = iid_gaussian_model(mean=0.0, variance=1.0)

    # The log rule dies immediately: the first predictive of the flat-prior
    # model has no normalizing constant.
    try:
        delta_trace(flat, fixed, data, ScoreRule.LOG)
    except ImproperPredictive as e:
        print(f"log rule: {type(e).__name__}: {e}")

    # The gradient rule scores the flat predictive as exactly zero and is
    # finite everywhere after that.
    trace = delta_trace(flat, fixed, data, ScoreRule.HYVARINEN)
    print(f"\ngradient rule: first score for the flat-prior model = {trace.scores_a[0]}")
    print(f"all {len(trace)} per-step deltas finite: {np.isfinite(trace.per_step).all()}")

    outcome = select(trace)
    print(f"chosen after {len(data)} observations: {outcome.chosen} (D_n = {outcome.d_n:.4f})")

    # The flat-prior model learns the location from history.  Print how its
    # one-step predictive tightens as observations accumulate.
    print("\npredictive after n observations (flat prior on the mean):")
    for n in (0, 1, 2, 5, 20, 80):
        p = flat.predictive_at(data[:n])
        if p is FLAT_DENSITY:
            print(f"  n = {n:>2}: improper flat predictive")
        else:
            print(f"  n = {n:>2}: N({p.mean:+.4f}, {p.variance:.4f})")


if __name__ == "__main__":
    main()
