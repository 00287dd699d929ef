"""Complexity of a two-model trace, measured deterministically.

Wall time on a shared host swings too much to fit an exponent in a unit test,
but two measures of a ``delta_trace`` do not: the number of Python-level calls
counted by cProfile, C functions called from Python included, and the peak of
memory traced by tracemalloc.  Each kind's pair is traced at n and 4n;
an O(n) pass grows each measure by at most 4.4x.

The calls per observation are recorded for every kind.  A kind whose every
observation the fold scores as rows makes the same number of calls at both
sizes, so a row kernel that silently falls back to the scalar loop shows up
here as about 4 calls per observation, not only as slowness.

A user autocovariance is exempt: its forward Durbin-Levinson pass makes O(n)
Python calls but does O(i) float operations at step i, O(n^2) per pass by
nature, inside one generator step, which neither measure sees.
"""

import cProfile
import tracemalloc

import numpy as np
import pytest

from preqscore import TransformedModel, cubic_plus_linear_transform, delta_trace
from preqscore.cli import parse_model_spec

N = 500
GROWTH = 4.4  # the bound on calls(4n) / calls(n) and peak(4n) / peak(n)

CUBIC = cubic_plus_linear_transform()

# kind: (the pair's model specs, the rules it scores under, calls per observation)
KINDS = {
    "iidnorm": (("iidnorm(0,1)", "iidnorm(0,2)"), ("log", "hyvarinen"), 0),
    "flatloc": (("flatloc(1)", "iidnorm(0,1)"), ("hyvarinen",), 0),
    "flatscale": (("flatscale(0)", "iidnorm(0,1)"), ("hyvarinen",), 0),
    "ar": (("ar(0.5,0.2;1)", "iidnorm(0,1)"), ("log", "hyvarinen"), 0),
    "ma": (("ma(0.4;1)", "iidnorm(0,1)"), ("log", "hyvarinen"), 4),
    "arma": (("arma(0.5;0.4;1)", "iidnorm(0,1)"), ("log", "hyvarinen"), 4),
    # the improper start of flatscale rules out the log rule
    "cubic-transformed": (("iidnorm(0,1)", "flatscale(0)"), ("hyvarinen",), 92),
}


def _pair(kind):
    models = [parse_model_spec(spec) for spec in KINDS[kind][0]]
    return [TransformedModel(m, CUBIC) for m in models] if kind == "cubic-transformed" else models


def _measure(kind, n, rule):
    """(total calls, traced peak in bytes) of one trace of the kind's pair over n normal draws."""
    x = np.random.default_rng(0).standard_normal(n)
    pair = _pair(kind)
    profile = cProfile.Profile()
    profile.runcall(delta_trace, *pair, x, rule)
    tracemalloc.start()
    try:
        delta_trace(*pair, x, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # pstats merges functions that share (file, line, name), such as every dataclass's
    # generated __init__, so its total_calls depends on what ran before; the raw entries do not.
    return sum(entry.callcount for entry in profile.getstats()), peak


@pytest.mark.parametrize("kind, rule", [(kind, rule) for kind, (_, rules, _) in KINDS.items() for rule in rules])
def test_a_trace_grows_linearly_in_calls_and_memory(kind, rule):
    (calls, peak), (calls_4n, peak_4n) = _measure(kind, N, rule), _measure(kind, 4 * N, rule)
    per_observation = KINDS[kind][2]
    assert calls_4n <= GROWTH * calls, f"{kind}: {calls} calls at n={N}, {calls_4n} at n={4 * N}"
    assert peak_4n <= GROWTH * peak, f"{kind}: peak {peak} B at n={N}, {peak_4n} B at n={4 * N}"
    measured = (calls_4n - calls) / (3 * N)
    assert round(measured) == per_observation, f"{kind}: {measured:.3f} calls per observation, recorded {per_observation}"
    if per_observation == 0:  # scored as rows: calls are constant in n
        assert calls_4n == calls, f"{kind}: {calls} calls at n={N}, {calls_4n} at n={4 * N}"
