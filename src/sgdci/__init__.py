"""Confidence regions for averaged SGD estimates via batch-means cancellation.

The package runs Polyak-Ruppert averaged SGD, splits the trajectory into
batches under a chosen size allocation, and turns the batch means into a
joint confidence region (or per-coordinate intervals) whose critical value
is calibrated once per (dimension, batch count, weights, level) by Monte
Carlo simulation of the limiting law. Sectioning and a fixed-width batch
interval construction are included as baselines, along with a desk-scale
experiment harness.

The package root exports the names the README shows; every other name is
imported from its own module, e.g. ``sgdci.calibration.QuantileCache``.
"""

from .baselines import bmi_from_stats
from .batching import Allocation, accumulate, gamma_statistic, make_plan
from .calibration import LimitDrawSpec, estimate_alpha, spec_from_plan
from .errors import DegenerateCovariance, NonFiniteIterate, NotPositiveDefinite
from .experiments import run_comparison, run_coverage, run_volume_study
from .inference import (
    build_region,
    contains,
    expected_volume_factor,
    marginal_intervals,
    region_volume,
)
from .linalg import det_sqrt
from .models import ingest_csv, linear_oracle, linspace_params
from .sgd import GradientOracle, SgdRunConfig, run_sgd
from .streams import derive_stream

__version__ = "0.1.0"
