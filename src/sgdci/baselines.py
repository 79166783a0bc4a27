"""Comparison methods: sectioning and BMI-style batch-means intervals.

Sectioning replaces the batches of one long run by m fully independent runs
of equal length. Independence makes the even-split limiting law exact, so
the scaling parameter is the F quantile itself rather than a Monte Carlo
estimate. One run is replication 0 of section_summaries' grouped pass.

The BMI-style method ties the batch count to the sample size, m_n =
ceil(T^{1/4}), targets marginal intervals with standard normal quantiles
(its validity argument is asymptotic in m), and declares joint coverage
through a Bonferroni split of delta across the d coordinates. It is labeled
"BMI-style" in reports because the exact interval construction of the
original method is out of scope; the allocation reuses this package's
increasing batch-size planner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .batching import (
    Allocation,
    BatchMeansSummary,
    BatchPlan,
    check_batch_count,
    make_plan,
    sample_cov,
    sample_sigma,
)
from .calibration import check_delta, exact_quantile, spec_from_plan
from .errors import NonFiniteIterate
from .inference import ConfidenceRegion, MarginalIntervals, build_region, marginal_intervals
from .linalg import SymMatrix
from .sgd import GradientOracle, SgdRunConfig, StepSchedule, replicate, single_run


@dataclass
class SectioningResult:
    section_means: np.ndarray  # (m, d)
    pooled_mean: np.ndarray
    cov: SymMatrix
    region: Optional[ConfidenceRegion]
    intervals: MarginalIntervals
    m: int
    section_T: int
    delta: float


def section_plan(m: int, total_T: int) -> BatchPlan:
    """m sections of total_T // m steps as one even-split plan (weights 1/m);
    batching.check_batch_count judges m and total_T."""
    check_batch_count(m, total_T)
    return make_plan(m * (total_T // m), m, Allocation(kind="es"))


def section_summaries(oracle: GradientOracle, plan: BatchPlan, schedule: StepSchedule,
                      burn_in: int, R: int, base_seed: int, x0=None,
                      threads: Optional[int] = None) -> list:
    """R summaries whose batch means are plan.m section means, from one
    sgd.replicate pass; section j of replication r reads stream (base_seed, r, j)."""
    config = SgdRunConfig(T=plan.T // plan.m, burn_in=burn_in, x0=x0, schedule=schedule)
    ((_, means),) = replicate(oracle, config, [[0, config.T]], R, base_seed, plan.m, threads)
    return [BatchMeansSummary(plan=plan, xi=mu, xbar=mu.mean(axis=0), d=oracle.dim)
            for mu in means.reshape(R, plan.m, oracle.dim)]


def sectioning_infer(oracle: GradientOracle, m: int, total_T: int, schedule: StepSchedule,
                     delta: float, base_seed: int, burn_in: int = 0, x0=None) -> SectioningResult:
    """Independent replicated runs treated like equally weighted batches.

    Section j consumes the stream (base_seed, 0, j), as in replication 0
    of a sectioning run_coverage cell; a divergence raises NonFiniteIterate
    at the earliest step with replication None. The joint scaling parameter
    is the exact F(d, m-d) quantile; the marginal one is F(1, m-1).
    """
    check_delta(delta)
    plan = section_plan(m, total_T)
    try:
        (summary,) = section_summaries(oracle, plan, schedule, burn_in, 1, base_seed, x0)
    except NonFiniteIterate as e:
        raise NonFiniteIterate(e.t) from None
    region = None
    if m > summary.d:
        region = build_region(summary, exact_quantile(spec_from_plan(plan, summary.d), delta))
        region.T = total_T  # the budget asked for, m * section_T plus the remainder
    intervals = marginal_intervals(summary, exact_quantile(spec_from_plan(plan, 1), delta))
    return SectioningResult(section_means=summary.xi, pooled_mean=summary.xbar,
                            cov=sample_cov(summary) if region is None else region.shape,
                            region=region, intervals=intervals, m=m,
                            section_T=plan.T // m, delta=delta)


@dataclass
class BmiResult:
    m_n: int
    center: np.ndarray
    sigma: np.ndarray
    marginal_lo: np.ndarray
    marginal_hi: np.ndarray
    joint_lo: np.ndarray
    joint_hi: np.ndarray
    delta: float


def bmi_batch_count(T: int) -> int:
    return math.ceil(T ** 0.25)


def bmi_plan(T: int, alloc_r: float = 2.0 / 3.0) -> BatchPlan:
    """m_n = ceil(T^{1/4}) increasing batches at exponent alloc_r; T >= 16."""
    if T < 16:
        raise ValueError(f"BMI-style inference needs T >= 16, got {T}")
    return make_plan(T, bmi_batch_count(T), Allocation(kind="ibs", r=alloc_r))


def bmi_from_stats(xbar: np.ndarray, sigma: np.ndarray, m_n: int, delta: float) -> BmiResult:
    """Normal-quantile intervals from batch-means statistics."""
    check_delta(delta)
    d = xbar.shape[0]
    z_marg = ndtri(1.0 - delta / 2.0)
    z_joint = ndtri(1.0 - delta / (2.0 * d))
    half_marg = z_marg * sigma / math.sqrt(m_n)
    half_joint = z_joint * sigma / math.sqrt(m_n)
    return BmiResult(
        m_n=m_n,
        center=xbar.copy(),
        sigma=sigma.copy(),
        marginal_lo=xbar - half_marg,
        marginal_hi=xbar + half_marg,
        joint_lo=xbar - half_joint,
        joint_hi=xbar + half_joint,
        delta=delta,
    )


def bmi_infer(
    oracle: GradientOracle,
    T: int,
    delta: float,
    gen: np.random.Generator,
    schedule: Optional[StepSchedule] = None,
    burn_in: int = 0,
    x0=None,
    alloc_r: float = 2.0 / 3.0,
) -> BmiResult:
    """Run averaged SGD with m_n = ceil(T^{1/4}) batches and build intervals.

    Marginal intervals use z at level delta; the joint declaration splits
    delta across coordinates (Bonferroni), i.e. uses z at delta / d.
    """
    check_delta(delta)
    plan = bmi_plan(T, alloc_r)
    cfg = SgdRunConfig(T=T, burn_in=burn_in, x0=x0, schedule=schedule or StepSchedule())
    xi, xbar = single_run(oracle, cfg, gen, plan.boundaries)
    summary = BatchMeansSummary(plan=plan, xi=xi, xbar=xbar, d=oracle.dim)
    return bmi_from_stats(xbar, sample_sigma(summary), plan.m, delta)
