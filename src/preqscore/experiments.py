"""Seeded Monte Carlo experiments over the scoring and selection machinery.

Each experiment draws replicated datasets, runs the sequential comparison
under both the log rule and the gradient-based rule, and checks one
behavioural claim: sampling means of per-step score differences against
their closed forms, the constant-multiple linkage between the two rules for
equal-variance normal models, selection consistency as the sample grows,
locality of a single edited observation in the per-step sums, exact scale
behaviour under a change of measurement units, and (non-)invariance under a
smooth monotone reparametrisation of the data.

Reproducibility contract: every output is a pure function of the config.
Replicate r draws from the counter-based stream keyed by ``(base_seed, r)``,
so replicates may run in any order, or in parallel, without changing a bit
of output.  Aggregates are reduced with ``math.fsum`` over records sorted by
replicate index, making them independent of record order as well.

Every runner reads its score rows from the prequential fold
(:func:`preqscore.prequential._score_matrix`), so experiments and traces
share one path from data to D_n and its non-finite guard.  The one
exception is reparametrisation's y-scale pushforward scores (see there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .densities import (
    MonotoneTransform,
    cubic_plus_linear_transform,
    gaussian_density,
    pushforward_density,
)
from .errors import IndexOutOfRange, NonPositiveScale
from .models import PredictiveModel, iid_gaussian_model
from .prequential import TIE, DeltaTrace, _argmin, _choose, _score_matrix, delta_trace
from .scores import _DENSITY_KERNELS, ScoreRule
from .stationary import Ar1MarkovModel, StationaryProcessModel, sample_path
from .streams import stream

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "ReplicationResult",
    "expected_log_delta",
    "expected_hyvarinen_delta",
    "run_variance_expectation",
    "run_mean_linkage",
    "run_consistency",
    "run_outlier_locality",
    "run_unit_change",
    "run_reparametrisation",
    "run_multi_model",
    "run_experiment",
    "replicate_data",
    "replicate_trace",
    "aggregates_for",
    "assertions_for",
]

# Fixed scenario constants (documented knobs would multiply the config
# surface without exercising anything new).
LINKAGE_MEANS = (0.0, 1.0)
OUTLIER_AR_COEFFICIENTS = (0.5, 0.25)
MULTI_MODEL_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)
_MULTI_TRUE_INDEX = MULTI_MODEL_FACTORS.index(1.0)

_RULE_KEYS = (ScoreRule.LOG.value, ScoreRule.HYVARINEN.value)


class Experiment(Enum):
    VARIANCE_EXPECTATION = "variance-expectation"
    MEAN_LINKAGE = "mean-linkage"
    CONSISTENCY = "consistency"
    OUTLIER_LOCALITY = "outlier-locality"
    UNIT_CHANGE = "unit-change"
    REPARAMETRISATION = "reparametrisation"
    MULTI_MODEL = "multi-model"


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run; equal configs give equal output.

    ``xi`` is the variance ratio between the data-generating model P and the
    alternative Q (``tau_p2 = xi * tau_q2``).  ``truth`` picks which of the
    two generates the data where that is a free choice.  ``outlier_magnitude``
    of None resolves to five marginal standard deviations of the data
    process.  ``n_grid`` of None resolves to (n//100, n//10, n).
    ``min_frequency`` of None resolves to the calibrated threshold for the
    experiment when the run is at least as large as the calibrated scale and
    to a bare-majority 0.5 otherwise.
    """

    experiment: Experiment
    n: int = 1000
    replicates: int = 100
    base_seed: int = 0
    xi: float = 2.0
    tau_q2: float = 1.0
    outlier_index: int = 50
    outlier_magnitude: float | None = None
    unit_scale: float = 10.0
    cutoff: float = 0.0
    truth: str = "P"
    outlier_models: str = "ar1"
    n_grid: tuple[int, ...] | None = None
    min_frequency: float | None = None

    def __post_init__(self):
        if not isinstance(self.experiment, Experiment):
            object.__setattr__(self, "experiment", Experiment(self.experiment))
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not (isinstance(self.replicates, int) and self.replicates >= 1):
            raise ValueError(f"replicates must be an integer >= 1, got {self.replicates!r}")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed must lie in [0, 2**64), got {self.base_seed!r}")
        if not self.xi > 0:
            raise ValueError(f"xi must be > 0, got {self.xi}")
        if not self.tau_q2 > 0:
            raise ValueError(f"tau_q2 must be > 0, got {self.tau_q2}")
        if not self.unit_scale > 0:
            raise NonPositiveScale(f"unit scale must be > 0, got {self.unit_scale}")
        # Scores divide by squared variances: tau_q2 times a multi-model factor
        # (the AR(1) marginal 4/3 tau_q2 lies within), tau_p2, or either times c^2.
        c2 = self.unit_scale * self.unit_scale
        scored = [("tau_q2", self.tau_q2 * f) for f in MULTI_MODEL_FACTORS] + [("xi", self.tau_p2)]
        for name, v in scored + [("unit_scale", self.tau_q2 * c2), ("unit_scale", self.tau_p2 * c2)]:
            if not 0.0 < v * v < math.inf:
                raise ValueError(f"{name}={getattr(self, name)!r} makes a scored variance {v!r} with square {v * v!r}")
        if not math.isfinite(self.cutoff):
            raise ValueError(f"cutoff must be finite, got {self.cutoff}")
        if self.truth not in ("P", "Q"):
            raise ValueError(f"truth must be 'P' or 'Q', got {self.truth!r}")
        if self.outlier_models not in ("ar1", "iid"):
            raise ValueError(f"outlier_models must be 'ar1' or 'iid', got {self.outlier_models!r}")
        if self.n_grid is not None:
            grid = tuple(int(g) for g in self.n_grid)
            if not grid or any(g < 1 or g > self.n for g in grid) or list(grid) != sorted(set(grid)):
                raise ValueError(f"n_grid must be strictly increasing integers in [1, n], got {self.n_grid!r}")
            object.__setattr__(self, "n_grid", grid)
        if self.outlier_magnitude is not None and not math.isfinite(self.outlier_magnitude):
            raise ValueError(f"outlier_magnitude must be finite, got {self.outlier_magnitude}")
        if self.min_frequency is not None and not 0.0 < self.min_frequency <= 1.0:
            raise ValueError(f"min_frequency must lie in (0, 1], got {self.min_frequency}")

    @property
    def tau_p2(self) -> float:
        return self.xi * self.tau_q2

    def resolved_n_grid(self) -> tuple[int, ...]:
        if self.n_grid is not None:
            return self.n_grid
        grid = sorted({max(1, self.n // 100), max(1, self.n // 10), self.n})
        return tuple(grid)

    def resolved_min_frequency(self) -> float:
        if self.min_frequency is not None:
            return self.min_frequency
        if self.experiment is Experiment.CONSISTENCY:
            return 0.99 if (self.n >= 5000 and self.replicates >= 500) else 0.5
        if self.experiment is Experiment.MULTI_MODEL:
            return 0.95 if (self.n >= 2000 and self.replicates >= 500) else 0.5
        return 0.5

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, Experiment):
                v = v.value
            elif isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out


@dataclass(frozen=True)
class ReplicationResult:
    """Per-replicate records plus order-independent aggregates and verdicts.

    ``records`` is one JSON-safe dict per replicate; ``aggregates`` is always
    recomputable from (config, records) via :func:`aggregates_for`, and every
    assertion is a pure function of (config, aggregates, records).
    """

    config: ExperimentConfig
    records: list[dict]
    aggregates: dict
    assertions: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.assertions.values())


def expected_log_delta(xi: float) -> float:
    """Mean per-step log-score difference (Q minus P) under P, equal means."""
    return 0.5 * (xi - 1.0 - math.log(xi))


def expected_hyvarinen_delta(xi: float, tau_q2: float) -> float:
    """Mean per-step gradient-score difference (Q minus P) under P, equal means."""
    return (xi + 1.0 / xi - 2.0) / tau_q2


def _sorted_records(records: Sequence[dict]) -> list[dict]:
    return sorted(records, key=lambda rec: rec["replicate"])


def _fsum_key(records: Sequence[dict], key: str) -> float:
    return math.fsum(rec[key] for rec in _sorted_records(records))


def _max_key(records: Sequence[dict], key: str) -> float:
    return max(rec[key] for rec in records)


def _min_key(records: Sequence[dict], key: str) -> float:
    return min(rec[key] for rec in records)


def _selection_frequency(records: Sequence[dict], key: str, target: str) -> float:
    """Fraction of replicates choosing ``target``; an exact tie counts half."""
    hits = math.fsum(
        1.0 if rec[key] == target else (0.5 if rec[key] == TIE else 0.0)
        for rec in _sorted_records(records)
    )
    return hits / len(records)


def _pooled_mean_se(records: Sequence[dict], sum_key: str, sumsq_key: str) -> tuple[float, float, int]:
    """Pooled per-step mean and its standard error from per-replicate sums."""
    n_total = sum(rec["n"] for rec in records)
    mean = _fsum_key(records, sum_key) / n_total
    sumsq = _fsum_key(records, sumsq_key)
    var = (sumsq - n_total * mean * mean) / max(1, n_total - 1)
    return mean, math.sqrt(max(0.0, var) / n_total), n_total


# --- scenario construction (shared by runners and trace export) ------------


def _variance_pair(config: ExperimentConfig, scale: float = 1.0) -> tuple[PredictiveModel, PredictiveModel]:
    c2 = scale * scale
    return (
        iid_gaussian_model(0.0, config.tau_p2 * c2),
        iid_gaussian_model(0.0, config.tau_q2 * c2),
    )


def _multi_model_candidates(config: ExperimentConfig) -> list[PredictiveModel]:
    return [iid_gaussian_model(0.0, config.tau_q2 * f) for f in MULTI_MODEL_FACTORS]


def _pair(config: ExperimentConfig) -> tuple[PredictiveModel, PredictiveModel]:
    """The experiment's model pair; for the multi-candidate experiment, the
    true model against the widest alternative."""
    e = config.experiment
    if e is Experiment.OUTLIER_LOCALITY and config.outlier_models == "ar1":
        phi_a, phi_b = OUTLIER_AR_COEFFICIENTS
        return Ar1MarkovModel(phi_a, config.tau_q2), Ar1MarkovModel(phi_b, config.tau_q2)
    if e is Experiment.MEAN_LINKAGE:
        mean_a, mean_b = LINKAGE_MEANS
        return iid_gaussian_model(mean_a, config.tau_q2), iid_gaussian_model(mean_b, config.tau_q2)
    if e is Experiment.MULTI_MODEL:
        candidates = _multi_model_candidates(config)
        return candidates[_MULTI_TRUE_INDEX], candidates[-1]
    return _variance_pair(config)


def _resolved_outlier_magnitude(config: ExperimentConfig) -> float:
    if config.outlier_magnitude is not None:
        return float(config.outlier_magnitude)
    return 5.0 * math.sqrt(_true_model(config).predictive_at([]).variance)


def _true_model(config: ExperimentConfig) -> PredictiveModel:
    """The model that generates the data: model A of the pair, or B when a
    consistency run names Q as the truth."""
    model_a, model_b = _pair(config)
    return model_b if config.experiment is Experiment.CONSISTENCY and config.truth == "Q" else model_a


def replicate_data(config: ExperimentConfig, r: int) -> np.ndarray:
    """Replicate r's dataset, before any outlier injection or unit change.

    Drawn from the true model with the normals of ``stream(base_seed, r)``:
    x_i = mean + sd * z_i, along the model's own predictives for a process.
    """
    model = _true_model(config)
    if isinstance(model, StationaryProcessModel):
        return sample_path(model.spec, config.n, config.base_seed, r)
    q = model.predictive_at([])
    return stream(config.base_seed, r).normal(q.mean, math.sqrt(q.variance), config.n)


def _inject_outlier(config: ExperimentConfig, x: np.ndarray) -> tuple[np.ndarray, float]:
    k = config.outlier_index
    if not (isinstance(k, int) and 1 <= k < x.size):
        raise IndexOutOfRange(f"outlier index must satisfy 1 <= k < n={x.size}, got {k!r}")
    mag = _resolved_outlier_magnitude(config)
    y = x.copy()
    y[k - 1] += mag
    return y, mag


# --- runners ----------------------------------------------------------------


def _run(config: ExperimentConfig, experiment: Experiment, fill: Callable[[dict, np.ndarray], None]) -> ReplicationResult:
    """Fill one record per replicate from its data, then aggregate and check."""
    if config.experiment is not experiment:
        raise ValueError(f"config is for {config.experiment.value!r}, runner expects {experiment.value!r}")
    records = []
    for r in range(config.replicates):
        rec = {"replicate": r, "seed": config.base_seed, "n": config.n}
        fill(rec, replicate_data(config, r))
        records.append(rec)
    aggregates = aggregates_for(config, records)
    return ReplicationResult(config, records, aggregates, assertions_for(config, aggregates, records))


def _per_step(pair: Sequence[PredictiveModel], x: np.ndarray, rule: str) -> np.ndarray:
    """Per-step score differences, model B minus model A, from the prequential fold."""
    _, (score_a, score_b), _ = _score_matrix(pair, x, rule)
    return score_b - score_a


def _decide(rec: dict, key: str, delta: np.ndarray, config: ExperimentConfig, pair: Sequence[PredictiveModel]) -> str:
    """Record D_n, the fsum of ``delta``, and the model it selects, under ``key``."""
    d_n = rec[f"d_n_{key}"] = math.fsum(delta.tolist())
    chosen = rec[f"chosen_{key}"] = _choose(d_n, config.cutoff, pair[0].identifier, pair[1].identifier)
    return chosen


def run_variance_expectation(config: ExperimentConfig) -> ReplicationResult:
    """Check per-step mean score differences against their closed forms."""
    pair = _variance_pair(config)

    def fill(rec, x):
        for rule in _RULE_KEYS:
            delta = _per_step(pair, x, rule)
            _decide(rec, rule, delta, config, pair)
            rec[f"sum_sq_delta_{rule}"] = float(np.dot(delta, delta))

    return _run(config, Experiment.VARIANCE_EXPECTATION, fill)


def run_mean_linkage(config: ExperimentConfig) -> ReplicationResult:
    """Check the exact constant-multiple tie between the two rules.

    With equal variances and different means, each per-step gradient-score
    difference equals (2 / variance) times the log-score difference; the two
    rules therefore order the models identically at cutoff 0.
    """
    pair = _pair(config)
    ratio = 2.0 / config.tau_q2

    def fill(rec, x):
        d_log, d_hyv = (_per_step(pair, x, rule) for rule in _RULE_KEYS)
        rec["max_linkage_gap"] = float(np.max(np.abs(d_hyv - ratio * d_log)))
        for rule, delta in zip(_RULE_KEYS, (d_log, d_hyv)):
            _decide(rec, rule, delta, config, pair)
        rec["selections_agree"] = rec["chosen_log"] == rec["chosen_hyvarinen"]

    return _run(config, Experiment.MEAN_LINKAGE, fill)


def run_consistency(config: ExperimentConfig) -> ReplicationResult:
    """Track how often the true model wins as the sample size grows."""
    pair = _variance_pair(config)
    grid = config.resolved_n_grid()

    def fill(rec, x):
        for rule in _RULE_KEYS:
            delta = _per_step(pair, x, rule)
            for g in grid:
                _decide(rec, f"{rule}_{g}", delta[:g], config, pair)
            rec[f"d_n_{rule}"] = rec[f"d_n_{rule}_{grid[-1]}"]
            rec[f"chosen_{rule}"] = rec[f"chosen_{rule}_{grid[-1]}"]

    return _run(config, Experiment.CONSISTENCY, fill)


def run_outlier_locality(config: ExperimentConfig) -> ReplicationResult:
    """Locate which per-step terms a single edited observation can touch.

    One-step predictives that depend on the past only through the previous
    value confine the edit at position k to per-step terms k and k+1; models
    that ignore history confine it to term k alone.
    """
    model_a, model_b = _pair(config)

    def fill(rec, x):
        y, rec["outlier_magnitude"] = _inject_outlier(config, x)
        for rule in _RULE_KEYS:
            base = delta_trace(model_a, model_b, x, rule)
            bumped = delta_trace(model_a, model_b, y, rule)
            changed = np.flatnonzero(bumped.per_step != base.per_step) + 1
            rec[f"changed_{rule}"] = [int(i) for i in changed]
            rec[f"abs_shift_{rule}"] = abs(bumped.final - base.final)
            rec[f"d_n_{rule}"] = bumped.final
            rec[f"chosen_{rule}"] = _choose(bumped.final, config.cutoff, model_a.identifier, model_b.identifier)

    return _run(config, Experiment.OUTLIER_LOCALITY, fill)


def run_unit_change(config: ExperimentConfig) -> ReplicationResult:
    """Re-express the data in different units and compare scores and choices.

    Multiplying observations by c (means by c, variances by c^2) divides
    every gradient-rule score by c^2 and leaves log-score differences alone,
    so selections cannot move.
    """
    c = config.unit_scale
    c2 = c * c
    pair = _variance_pair(config)
    scaled_pair = _variance_pair(config, scale=c)

    def fill(rec, x):
        xc = x * c
        rows = {rule: (_score_matrix(pair, x, rule)[1], _score_matrix(scaled_pair, xc, rule)[1]) for rule in _RULE_KEYS}
        base, scaled = rows[ScoreRule.HYVARINEN.value]
        rec["hyvarinen_scale_gap"] = float(np.max(np.abs(scaled * c2 - base) / (1.0 + np.abs(base))))
        agree = True
        for rule, (rows_x, rows_xc) in rows.items():
            delta = rows_x[1] - rows_x[0]
            delta_c = rows_xc[1] - rows_xc[0]
            if rule == ScoreRule.LOG.value:
                rec["log_delta_gap"] = float(np.max(np.abs(delta_c - delta) / (1.0 + np.abs(delta))))
            chosen = _decide(rec, rule, delta, config, pair)
            d_n_c = rec[f"d_n_scaled_{rule}"] = math.fsum(delta_c.tolist())
            # same slot of the pair: select on the scaled D_n with the base identifiers
            agree = agree and chosen == _choose(d_n_c, config.cutoff, pair[0].identifier, pair[1].identifier)
        rec["selections_identical"] = agree

    return _run(config, Experiment.UNIT_CHANGE, fill)


def run_reparametrisation(config: ExperimentConfig, transform: MonotoneTransform | None = None) -> ReplicationResult:
    """Score the same comparison on the raw and on a transformed data scale.

    Log-score per-step differences are unchanged (the Jacobian term cancels
    between models); gradient-rule differences are not, except for affine
    transforms, which reduce to a unit change.
    """
    t = transform if transform is not None else cubic_plus_linear_transform()
    pair = _variance_pair(config)
    # The y-scale scores apply the density kernels to the pushed-forward laws
    # directly: a TransformedModel pair would pull the whole history back
    # through the inverse at every step, which is quadratic in n.
    dens_x = (gaussian_density(0.0, config.tau_p2), gaussian_density(0.0, config.tau_q2))
    dens_y = tuple(pushforward_density(d, t) for d in dens_x)

    def fill(rec, x):
        rec["transform"] = t.name
        t.require_increasing_on(x)
        y = np.array([t.g(float(v)) for v in x])
        for rule in _RULE_KEYS:
            delta_x = _per_step(pair, x, rule)
            kernel = _DENSITY_KERNELS[ScoreRule(rule)]
            delta_y = np.array([kernel(dens_y[1], v) - kernel(dens_y[0], v) for v in y.tolist()])
            gap = np.abs(delta_y - delta_x)
            if rule == ScoreRule.LOG.value:
                rec["log_delta_gap"] = float(np.max(gap))
            else:
                rec["hyvarinen_divergence"] = float(np.max(gap / (1.0 + np.abs(delta_x))))
            for scale_tag, delta in (("x", delta_x), ("y", delta_y)):
                _decide(rec, f"{rule}_{scale_tag}", delta, config, pair)
            rec[f"d_n_{rule}"] = rec[f"d_n_{rule}_x"]
            rec[f"chosen_{rule}"] = rec[f"chosen_{rule}_x"]

    return _run(config, Experiment.REPARAMETRISATION, fill)


def run_multi_model(config: ExperimentConfig) -> ReplicationResult:
    """Pick among several candidate variances by total sequential score."""
    candidates = _multi_model_candidates(config)
    ids = [m.identifier for m in candidates]

    def fill(rec, x):
        for rule in _RULE_KEYS:
            totals = [math.fsum(row) for row in _score_matrix(candidates, x, rule)[1].tolist()]
            rec[f"totals_{rule}"] = totals
            rec[f"chosen_{rule}"] = ids[_argmin(totals)]

    return _run(config, Experiment.MULTI_MODEL, fill)


# --- aggregation and assertions ---------------------------------------------


def aggregates_for(config: ExperimentConfig, records: Sequence[dict]) -> dict:
    """Order-independent summary; records may be passed in any order."""
    e = config.experiment
    agg: dict = {"replicates": len(records)}
    if e is Experiment.VARIANCE_EXPECTATION:
        agg["theory_log"] = expected_log_delta(config.xi)
        agg["theory_hyvarinen"] = expected_hyvarinen_delta(config.xi, config.tau_q2)
        for rule in _RULE_KEYS:
            mean, se, n_total = _pooled_mean_se(records, f"d_n_{rule}", f"sum_sq_delta_{rule}")
            agg[f"mean_delta_{rule}"] = mean
            agg[f"se_{rule}"] = se
            agg[f"selection_frequency_{rule}"] = _selection_frequency(records, f"chosen_{rule}", _true_model(config).identifier)
        agg["n_total"] = sum(rec["n"] for rec in records)
    elif e is Experiment.MEAN_LINKAGE:
        agg["ratio"] = 2.0 / config.tau_q2
        agg["max_linkage_gap"] = _max_key(records, "max_linkage_gap")
        agg["selections_agree_frequency"] = _selection_frequency(records, "selections_agree", True)
    elif e is Experiment.CONSISTENCY:
        true_id = _true_model(config).identifier
        grid = config.resolved_n_grid()
        agg["n_grid"] = list(grid)
        agg["true_model"] = true_id
        agg["threshold"] = config.resolved_min_frequency()
        freq: dict = {}
        for rule in _RULE_KEYS:
            freq[rule] = {str(g): _selection_frequency(records, f"chosen_{rule}_{g}", true_id) for g in grid}
        agg["frequency"] = freq
    elif e is Experiment.OUTLIER_LOCALITY:
        mag = _resolved_outlier_magnitude(config)
        k = config.outlier_index
        if mag == 0.0:
            expected: list[int] = []
        elif config.outlier_models == "ar1":
            expected = [k, k + 1]
        else:
            expected = [k]
        agg["outlier_magnitude"] = mag
        agg["expected_changed"] = expected
        for rule in _RULE_KEYS:
            agg[f"all_match_{rule}"] = all(rec[f"changed_{rule}"] == expected for rec in records)
            agg[f"mean_abs_shift_{rule}"] = _fsum_key(records, f"abs_shift_{rule}") / len(records)
    elif e is Experiment.UNIT_CHANGE:
        agg["unit_scale"] = config.unit_scale
        agg["max_hyvarinen_scale_gap"] = _max_key(records, "hyvarinen_scale_gap")
        agg["max_log_delta_gap"] = _max_key(records, "log_delta_gap")
        agg["selections_identical_frequency"] = _selection_frequency(records, "selections_identical", True)
    elif e is Experiment.REPARAMETRISATION:
        agg["transform"] = records[0]["transform"] if records else "cubic-plus-linear"
        agg["max_log_delta_gap"] = _max_key(records, "log_delta_gap")
        agg["min_hyvarinen_divergence"] = _min_key(records, "hyvarinen_divergence")
    elif e is Experiment.MULTI_MODEL:
        ids = [m.identifier for m in _multi_model_candidates(config)]
        agg["candidates"] = ids
        agg["true_model"] = ids[_MULTI_TRUE_INDEX]
        agg["threshold"] = config.resolved_min_frequency()
        for rule in _RULE_KEYS:
            agg[f"true_model_frequency_{rule}"] = _selection_frequency(records, f"chosen_{rule}", ids[_MULTI_TRUE_INDEX])
    else:
        raise ValueError(f"no aggregator for {e}")
    return agg


def assertions_for(config: ExperimentConfig, aggregates: dict, records: Sequence[dict]) -> dict:
    """One named boolean per claim the experiment is responsible for."""
    e = config.experiment
    if e is Experiment.VARIANCE_EXPECTATION:
        return {
            f"{rule}_mean_within_3se": abs(aggregates[f"mean_delta_{rule}"] - aggregates[f"theory_{rule}"])
            <= 3.0 * aggregates[f"se_{rule}"]
            for rule in _RULE_KEYS
        }
    if e is Experiment.MEAN_LINKAGE:
        return {
            "linkage_identity": aggregates["max_linkage_gap"] <= 1e-12,
            "selections_agree": aggregates["selections_agree_frequency"] == 1.0,
        }
    if e is Experiment.CONSISTENCY:
        out = {}
        grid = aggregates["n_grid"]
        thr = aggregates["threshold"]
        n_rec = max(1, len(records))
        for rule in _RULE_KEYS:
            freq = [aggregates["frequency"][rule][str(g)] for g in grid]
            out[f"min_frequency_{rule}"] = freq[-1] >= thr
            ok = True
            for f0, f1 in zip(freq, freq[1:]):
                slack = 2.0 * math.sqrt((f0 * (1.0 - f0) + f1 * (1.0 - f1)) / n_rec)
                ok = ok and (f1 >= f0 - slack)
            out[f"nondecreasing_{rule}"] = ok
        return out
    if e is Experiment.OUTLIER_LOCALITY:
        return {f"changed_summands_{rule}": bool(aggregates[f"all_match_{rule}"]) for rule in _RULE_KEYS}
    if e is Experiment.UNIT_CHANGE:
        return {
            "hyvarinen_scaling": aggregates["max_hyvarinen_scale_gap"] <= 1e-12,
            "log_deltas_unchanged": aggregates["max_log_delta_gap"] <= 1e-12,
            "selections_identical": aggregates["selections_identical_frequency"] == 1.0,
        }
    if e is Experiment.REPARAMETRISATION:
        return {
            "log_deltas_invariant": aggregates["max_log_delta_gap"] <= 1e-10,
            "hyvarinen_deltas_differ": aggregates["min_hyvarinen_divergence"] > 1e-6,
        }
    if e is Experiment.MULTI_MODEL:
        thr = aggregates["threshold"]
        return {
            f"true_model_frequency_{rule}": aggregates[f"true_model_frequency_{rule}"] >= thr
            for rule in _RULE_KEYS
        }
    raise ValueError(f"no assertions for {e}")


_RUNNERS: dict[Experiment, Callable[[ExperimentConfig], ReplicationResult]] = {
    Experiment.VARIANCE_EXPECTATION: run_variance_expectation,
    Experiment.MEAN_LINKAGE: run_mean_linkage,
    Experiment.CONSISTENCY: run_consistency,
    Experiment.OUTLIER_LOCALITY: run_outlier_locality,
    Experiment.UNIT_CHANGE: run_unit_change,
    Experiment.REPARAMETRISATION: run_reparametrisation,
    Experiment.MULTI_MODEL: run_multi_model,
}


def run_experiment(config: ExperimentConfig) -> ReplicationResult:
    """Dispatch to the runner named by the config."""
    return _RUNNERS[config.experiment](config)


def replicate_trace(config: ExperimentConfig, r: int = 0, rule=ScoreRule.HYVARINEN) -> DeltaTrace:
    """Full sequential trace of one replicate, for export and inspection.

    The model pair and dataset are the canonical ones for the experiment:
    the contaminated series for the outlier experiment, the raw (x-scale,
    base-unit) series elsewhere, and for the multi-candidate experiment the
    true model against the widest alternative.
    """
    x = replicate_data(config, r)
    if config.experiment is Experiment.OUTLIER_LOCALITY:
        x, _ = _inject_outlier(config, x)
    return delta_trace(*_pair(config), x, rule)
