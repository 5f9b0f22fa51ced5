"""Binary classification in an unseen environment via invariant matching pairs.

The pipeline searches for (target feature, conditioning set) pairs whose
class-conditional regression function is stable across training environments,
then converts each stable pair into a posterior-probability estimate for the
test environment by contrasting the pair's pooled class-conditional fits with
a marginal fit on the unlabeled test features.
"""

__version__ = "0.1.0"

from .errors import (
    CsvParseError,
    DegeneratePairError,
    DegenerateResponseError,
    InsufficientDataError,
    InvarbinError,
    SchemaError,
    SupportSizeError,
    UnknownEnvironmentError,
    ValidationError,
)
from .data import (
    EncodingSpec,
    Environment,
    MultiEnvDataset,
    ROLE_DROP,
    ROLE_TEST,
    ROLE_TRAIN,
    encode_table,
    feature_groups,
    sniff_table,
    test_subset,
    training_subset,
)
from .stats import (
    TTestResult,
    bonferroni_combine,
    student_t_two_sided_p,
    welch_t_test,
)
from .regression import (
    AdditiveSplineModel,
    LinearModel,
    LogisticModel,
    fit_logistic,
    fit_ols,
    fit_spline_additive,
    model_to_dict,
    predict,
)
from .invariance import (
    InvarianceReport,
    Pair,
    SCOPE_ENV,
    SCOPE_ENV_AND_CLASS,
    batched_residual_tests,
    report_to_dict,
    residual_distribution_test,
)
from .bimp import (
    BimpModel,
    BimpPrediction,
    PairModel,
    ScoreFilterResult,
    VARIANT_GAM,
    VARIANT_LINEAR,
    bimp_to_dict,
    enumerate_pairs,
    fit_bimp,
    fit_pair_model,
    predict_bimp,
    predict_pair,
    score_filter,
)
from .baselines import (
    IcpResult,
    deviance_residuals,
    fit_icp,
    fit_lr_baseline,
    predict_baseline,
)
from .simgen import (
    BenchmarkConfig,
    DiscreteNoise,
    CptVariable,
    AdditiveMechanism,
    DiscreteOracle,
    ScmSpec,
    draw_benchmark_config,
    gen_anchor,
    gen_benchmark,
    h_invariance_gap,
    philox_generator,
    q_is_non_descendant,
    random_matching_spec,
    random_violating_spec,
    ratio_identity_gap,
    sample_scm,
    scm_dataset,
)
from .evaluation import (
    MethodAggregate,
    RunSummary,
    accuracy,
    aggregate_replicates,
    mse,
)

__all__ = [
    "__version__",
    # errors
    "InvarbinError",
    "ValidationError",
    "CsvParseError",
    "SchemaError",
    "UnknownEnvironmentError",
    "InsufficientDataError",
    "DegenerateResponseError",
    "DegeneratePairError",
    "SupportSizeError",
    # data
    "Environment",
    "MultiEnvDataset",
    "EncodingSpec",
    "ROLE_TRAIN",
    "ROLE_TEST",
    "ROLE_DROP",
    "training_subset",
    "test_subset",
    "feature_groups",
    "encode_table",
    "sniff_table",
    # stats
    "student_t_two_sided_p",
    "TTestResult",
    "welch_t_test",
    "bonferroni_combine",
    # regression
    "LinearModel",
    "AdditiveSplineModel",
    "LogisticModel",
    "fit_ols",
    "fit_spline_additive",
    "fit_logistic",
    "predict",
    "model_to_dict",
    # invariance
    "Pair",
    "InvarianceReport",
    "SCOPE_ENV",
    "SCOPE_ENV_AND_CLASS",
    "residual_distribution_test",
    "batched_residual_tests",
    "report_to_dict",
    # bimp
    "VARIANT_LINEAR",
    "VARIANT_GAM",
    "enumerate_pairs",
    "PairModel",
    "fit_pair_model",
    "predict_pair",
    "ScoreFilterResult",
    "score_filter",
    "BimpModel",
    "BimpPrediction",
    "fit_bimp",
    "predict_bimp",
    "bimp_to_dict",
    # baselines
    "fit_lr_baseline",
    "deviance_residuals",
    "IcpResult",
    "fit_icp",
    "predict_baseline",
    # simgen
    "philox_generator",
    "gen_anchor",
    "BenchmarkConfig",
    "draw_benchmark_config",
    "gen_benchmark",
    "DiscreteNoise",
    "CptVariable",
    "AdditiveMechanism",
    "ScmSpec",
    "DiscreteOracle",
    "q_is_non_descendant",
    "ratio_identity_gap",
    "h_invariance_gap",
    "sample_scm",
    "scm_dataset",
    "random_matching_spec",
    "random_violating_spec",
    # evaluation
    "accuracy",
    "mse",
    "RunSummary",
    "MethodAggregate",
    "aggregate_replicates",
]
