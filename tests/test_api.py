"""The public surface of ``preqscore``, pinned name by name.

``preqscore.__all__`` is the concatenation of its submodules' lists.  A name
removed or renamed here must also get an entry under "API changes" in the
README; a name moved between modules must not appear twice.
"""

import preqscore

PUBLIC_NAMES = [
    "Ar1MarkovModel",
    "DecisionProblem",
    "DeltaTrace",
    "DensityWithDerivatives",
    "DimensionMismatch",
    "EmptyTrace",
    "Experiment",
    "ExperimentConfig",
    "FLAT_DENSITY",
    "GaussianPredictive",
    "HyvarinenInapplicable",
    "ImproperPredictive",
    "IndexOutOfRange",
    "InsufficientHistory",
    "InvalidDistribution",
    "MonotoneTransform",
    "NonFiniteValue",
    "NonMonotoneTransform",
    "NonPositiveScale",
    "NonPositiveVariance",
    "NonStationary",
    "NotPositiveDefinite",
    "PredictionRecursionState",
    "PredictiveModel",
    "PreqscoreError",
    "ProprietyReport",
    "ProprietyViolation",
    "ReplicationResult",
    "ScaledRule",
    "ScoreRule",
    "ScoreValue",
    "SelectionOutcome",
    "StationaryProcessModel",
    "StationaryProcessSpec",
    "StudentTPredictive",
    "TIE",
    "TRACE_CSV_COLUMNS",
    "TransformedModel",
    "__version__",
    "affine_transform",
    "aggregates_for",
    "ar_process",
    "arma_process",
    "as_rule",
    "assertions_for",
    "check_propriety",
    "compensated_cumsum",
    "cubic_plus_linear_transform",
    "delta_trace",
    "durbin_levinson",
    "expected_hyvarinen_delta",
    "expected_log_delta",
    "flat_prior_location_model",
    "flat_prior_scale_model",
    "gaussian_density",
    "iid_gaussian_model",
    "laplace_density",
    "ma_process",
    "process_model",
    "pushforward_density",
    "replicate_data",
    "replicate_trace",
    "rescale_rule",
    "run_consistency",
    "run_experiment",
    "run_mean_linkage",
    "run_multi_model",
    "run_outlier_locality",
    "run_reparametrisation",
    "run_unit_change",
    "run_variance_expectation",
    "sample_path",
    "score_from_decision_problem",
    "score_predictive",
    "select",
    "select_among",
    "shift_density",
    "stream",
    "student_t_density",
    "trace_csv_text",
    "white_noise",
    "write_trace_csv",
]


def test_public_names_are_the_recorded_list():
    assert sorted(preqscore.__all__) == PUBLIC_NAMES


def test_public_names_are_unique_and_importable():
    assert len(preqscore.__all__) == len(set(preqscore.__all__))
    assert [name for name in preqscore.__all__ if not hasattr(preqscore, name)] == []
