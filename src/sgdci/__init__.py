"""Confidence regions for averaged SGD estimates via batch-means cancellation.

The package runs Polyak-Ruppert averaged SGD, splits the trajectory into
batches under a chosen size allocation, and turns the batch means into a
joint confidence region (or per-coordinate intervals) whose critical value
is calibrated once per (dimension, batch count, weights, level) by Monte
Carlo simulation of the limiting law. Sectioning and a fixed-width batch
interval construction are included as baselines, along with a desk-scale
experiment harness.
"""

from .batching import (
    Allocation,
    BatchAccumulator,
    BatchMeansSummary,
    BatchPlan,
    accumulate,
    gamma_statistic,
    ideal_weights,
    make_plan,
    sample_cov,
    summary_from_path,
)
from .baselines import (
    BmiResult,
    SectioningResult,
    bmi_batch_count,
    bmi_from_stats,
    bmi_infer,
    sectioning_infer,
)
from .calibration import (
    LimitDrawSpec,
    QuantileCache,
    ScalingQuantile,
    estimate_alpha,
    f_quantile,
    g_of_skeleton,
    simulate_limit_draw,
    spec_from_plan,
    weights_key,
)
from .errors import (
    BatchCountTooSmall,
    BatchTooSmall,
    DegenerateCovariance,
    DegenerateDraw,
    DimensionMismatch,
    ExcessDegeneracy,
    ExhaustedData,
    FeedCountMismatch,
    InvalidBatchCount,
    KeyMismatch,
    LabelDomainError,
    NonFiniteIterate,
    NotPositiveDefinite,
    OracleDimensionMismatch,
    ParseError,
    SgdciError,
)
from .experiments import (
    CoverageConfig,
    CoverageReport,
    run_comparison,
    run_coverage,
    run_det_study,
    run_volume_study,
)
from .inference import (
    ConfidenceRegion,
    MarginalIntervals,
    VolumeFactor,
    build_region,
    contains,
    expected_volume_factor,
    marginal_intervals,
    region_volume,
    unit_ball_volume,
)
from .linalg import SymMatrix, cholesky, det_sqrt, quad_form_inv
from .models import (
    TrueParams,
    ingest_csv,
    linear_gradient,
    linear_oracle,
    linspace_params,
    logistic_gradient,
    logistic_oracle,
)
from .sgd import GradientOracle, SgdRunConfig, StepSchedule, run_sgd
from .streams import RandomStream, derive_stream

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "BatchAccumulator",
    "BatchCountTooSmall",
    "BatchMeansSummary",
    "BatchPlan",
    "BatchTooSmall",
    "BmiResult",
    "ConfidenceRegion",
    "CoverageConfig",
    "CoverageReport",
    "DegenerateCovariance",
    "DegenerateDraw",
    "DimensionMismatch",
    "ExcessDegeneracy",
    "ExhaustedData",
    "FeedCountMismatch",
    "GradientOracle",
    "InvalidBatchCount",
    "KeyMismatch",
    "LabelDomainError",
    "LimitDrawSpec",
    "MarginalIntervals",
    "NonFiniteIterate",
    "NotPositiveDefinite",
    "OracleDimensionMismatch",
    "ParseError",
    "QuantileCache",
    "RandomStream",
    "ScalingQuantile",
    "SectioningResult",
    "SgdRunConfig",
    "SgdciError",
    "StepSchedule",
    "SymMatrix",
    "TrueParams",
    "VolumeFactor",
    "accumulate",
    "bmi_batch_count",
    "bmi_from_stats",
    "bmi_infer",
    "build_region",
    "cholesky",
    "contains",
    "derive_stream",
    "det_sqrt",
    "estimate_alpha",
    "expected_volume_factor",
    "f_quantile",
    "g_of_skeleton",
    "gamma_statistic",
    "ideal_weights",
    "ingest_csv",
    "linear_gradient",
    "linear_oracle",
    "linspace_params",
    "logistic_gradient",
    "logistic_oracle",
    "make_plan",
    "marginal_intervals",
    "quad_form_inv",
    "region_volume",
    "run_comparison",
    "run_coverage",
    "run_det_study",
    "run_sgd",
    "run_volume_study",
    "sample_cov",
    "sectioning_infer",
    "simulate_limit_draw",
    "spec_from_plan",
    "summary_from_path",
    "unit_ball_volume",
    "weights_key",
]
