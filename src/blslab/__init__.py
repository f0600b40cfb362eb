"""Bivariate log-symmetric distributions.

Densities, sampling, conditional laws, maximum likelihood estimation with
analytic scores, Monte Carlo bias/MSE studies, and applied model comparison
for the eight-family bivariate log-symmetric class.

The usual entry points:

>>> from blslab import BLSParams, GeneratorId, make_generator, sample, fit_mle
>>> spec = make_generator(GeneratorId.STUDENT_T, nu=4.0)
>>> x = sample(BLSParams(1.0, 1.0, 0.5, 0.5, 0.3), spec, 200, seed=7)
>>> fit = fit_mle(x, spec)
"""

from blslab.errors import (
    BlsError,
    DomainError,
    IntegrationError,
    ParseError,
    PositivityError,
    RootFindingError,
    SingularInformationError,
    ZeroProbabilityError,
)
from blslab.generators import (
    FAMILY_NAMES,
    GeneratorId,
    GeneratorParams,
    GeneratorSpec,
    make_generator,
    partition_closed,
    partition_numeric,
)
from blslab.distribution import (
    BLSParams,
    conditional_pdf_t1_given_t2_in_interval,
    conditional_pdf_t2_given_t1,
    correlation,
    joint_cdf,
    joint_log_pdf,
    joint_pdf,
    mahalanobis_cdf,
    mahalanobis_pdf,
    mahalanobis_quantile,
    mahalanobis_sq,
    marginal_cdf_z,
    marginal_pdf_z,
    marginal_quantile,
    moment,
    reciprocal_standardized,
    sample,
    standardize,
    transform_power,
    transform_scale,
)
from blslab.estimation import (
    FitResult,
    fit_mle,
    log_likelihood,
    profile_fit,
    score,
    standard_errors,
)
from blslab.montecarlo import (
    MCCell,
    MCConfig,
    MCReport,
    bias_mse,
    replication_seed,
    run_study,
)
from blslab.datakit import (
    COMPARISON_COLUMNS,
    ColumnStats,
    Dataset,
    ModelComparison,
    ModelRow,
    QQData,
    SummaryStats,
    compare_models,
    default_grid,
    load_csv,
    qq_mahalanobis,
    save_csv,
    summarize,
    synthetic_fixture,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "BlsError",
    "DomainError",
    "IntegrationError",
    "ParseError",
    "PositivityError",
    "RootFindingError",
    "SingularInformationError",
    "ZeroProbabilityError",
    # generators
    "FAMILY_NAMES",
    "GeneratorId",
    "GeneratorParams",
    "GeneratorSpec",
    "make_generator",
    "partition_closed",
    "partition_numeric",
    # distribution
    "BLSParams",
    "conditional_pdf_t1_given_t2_in_interval",
    "conditional_pdf_t2_given_t1",
    "correlation",
    "joint_cdf",
    "joint_log_pdf",
    "joint_pdf",
    "mahalanobis_cdf",
    "mahalanobis_pdf",
    "mahalanobis_quantile",
    "mahalanobis_sq",
    "marginal_cdf_z",
    "marginal_pdf_z",
    "marginal_quantile",
    "moment",
    "reciprocal_standardized",
    "sample",
    "standardize",
    "transform_power",
    "transform_scale",
    # estimation
    "FitResult",
    "fit_mle",
    "log_likelihood",
    "profile_fit",
    "score",
    "standard_errors",
    # montecarlo
    "MCCell",
    "MCConfig",
    "MCReport",
    "bias_mse",
    "replication_seed",
    "run_study",
    # datakit
    "COMPARISON_COLUMNS",
    "ColumnStats",
    "Dataset",
    "ModelComparison",
    "ModelRow",
    "QQData",
    "SummaryStats",
    "compare_models",
    "default_grid",
    "load_csv",
    "qq_mahalanobis",
    "save_csv",
    "summarize",
    "synthetic_fixture",
]
