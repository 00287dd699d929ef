"""One-step prediction for stationary Gaussian processes.

The recursion turns an autocovariance function into exact finite-history
prediction coefficients and conditional variances.  For an AR(p) process the
variance reaches the innovation variance after p steps and the coefficients
freeze; for an MA(q) or ARMA(p,q) process the variance keeps shrinking toward
it without ever arriving.
"""

import numpy as np

from preqscore import (
    ScoreRule,
    ar_process,
    arma_process,
    delta_trace,
    durbin_levinson,
    ma_process,
    process_model,
    sample_path,
    select,
    white_noise,
)


def main():
    ar1 = ar_process([0.5], innovation_variance=1.0)
    states = durbin_levinson(ar1, 8)
    print(f"{ar1.label}: marginal variance {ar1.gamma(0):.6f}")
    print("  step  conditional variance   newest-lag coefficient")
    for st in states:
        newest = f"{st.coefficients[-1]:.12f}" if len(st.coefficients) else "(no history)"
        print(f"  {st.step:>4}  {st.conditional_variance:>20.12f}   {newest}")
    # After one step the AR(1) predictor is exact: variance 1, coefficient 1/2.

    ma1 = ma_process([0.5], innovation_variance=1.0)
    vs = [st.conditional_variance for st in durbin_levinson(ma1, 60)]
    print(f"\n{ma1.label}: conditional variance approaches 1 from above")
    for i in (0, 1, 2, 5, 10, 30, 59):
        print(f"  step {i + 1:>2}: {vs[i]:.12f}")

    # ARMA models run the innovations algorithm; their conditional variances
    # do not depend on the data, so a pass over zeros reads them off.
    arma11 = arma_process([0.5], [0.4], innovation_variance=1.0)
    vs = [q.variance for q in process_model(arma11).predictives(np.zeros(29))]
    print(f"\n{arma11.label}: conditional variance {vs[0]:.6f} (= gamma(0)), "
          f"{vs[1]:.12f} at step 2, {vs[29]:.12f} at step 30")

    # Prediction in action: simulate an AR(1) path, then let the matching
    # process model race white noise with the same marginal variance.
    data = sample_path(ar1, n=400, seed=11)
    rival = white_noise(variance=ar1.gamma(0))
    model_a = process_model(ar1)
    model_b = process_model(rival)

    trace = delta_trace(model_a, model_b, data, ScoreRule.HYVARINEN)
    outcome = select(trace)
    print(f"\n{model_a.identifier} vs {model_b.identifier} on an AR(1) path:")
    print(f"  cumulative D_n after 50/200/400 obs: "
          f"{trace.cumulative[49]:.3f} / {trace.cumulative[199]:.3f} / {trace.cumulative[399]:.3f}")
    print(f"  chosen: {outcome.chosen}")

    # The same comparison under the log rule points the same way.
    log_choice = select(delta_trace(model_a, model_b, data, ScoreRule.LOG)).chosen
    print(f"  log-rule choice: {log_choice}")

    # Conditional means come from the stored coefficients (history-ordered,
    # so the state predicting observation 3 weights the 2 values before it).
    st = durbin_levinson(ar1, 3)[-1]
    history = np.array([-1.0, 2.0])
    print(f"\nAR(1) conditional mean given {history.tolist()}: "
          f"{st.conditional_mean(history):.6f} (equals 0.5 * last value)")


if __name__ == "__main__":
    main()
