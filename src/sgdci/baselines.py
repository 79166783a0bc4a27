"""Comparison methods: sectioning and BMI-style batch-means intervals.

Sectioning replaces the batches of one long run by m fully independent runs
of equal length. Independence makes the even-split limiting law exact, so
the scaling parameter is the F quantile itself rather than a Monte Carlo
estimate.

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
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtri

from .batching import (
    Allocation,
    BatchMeansSummary,
    BatchPlan,
    make_plan,
    sample_cov,
    sample_sigma,
)
from .calibration import exact_quantile, spec_from_plan
from .inference import ConfidenceRegion, MarginalIntervals, build_region, marginal_intervals
from .linalg import SymMatrix
from .sgd import GradientOracle, SgdRunConfig, StepSchedule, single_run
from .streams import derive_streams


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


def _section_plan(m: int, total_T: int) -> BatchPlan:
    """m sections of total_T // m steps as one even-split plan (weights 1/m)."""
    if m < 2:
        raise ValueError(f"sectioning needs m >= 2, got {m}")
    if total_T // m < 1:
        raise ValueError(f"total_T={total_T} leaves empty sections at m={m}")
    return make_plan(m * (total_T // m), m, Allocation(kind="es"))


def sectioning_infer(
    oracle_factory: Callable[[int], GradientOracle],
    m: int,
    total_T: int,
    schedule: StepSchedule,
    delta: float,
    base_seed: int,
    burn_in: int = 0,
    x0=None,
    lineage_prefix: tuple = (),
) -> SectioningResult:
    """Independent replicated runs treated like equally weighted batches.

    Section j consumes the stream (base_seed, *lineage_prefix, j), so
    sections are disjoint by construction and the whole result is
    reproducible from the seed. The joint scaling parameter is the exact
    F(d, m-d) quantile; the marginal one is F(1, m-1).
    """
    plan = _section_plan(m, total_T)
    section_T = plan.T // m
    cfg = SgdRunConfig(T=section_T, burn_in=burn_in, x0=x0, schedule=schedule)
    gens = derive_streams(base_seed, [(*lineage_prefix, j) for j in range(m)])
    means = np.array([
        single_run(oracle_factory(j), cfg, gen, [0, section_T])[1] for j, gen in enumerate(gens)
    ])
    d = means.shape[1]
    summary = BatchMeansSummary(plan=plan, xi=means, xbar=means.mean(axis=0), d=d)
    region = None
    if m > d:
        region = build_region(summary, exact_quantile(spec_from_plan(plan, d), delta))
        region.T = total_T  # the budget asked for, m * section_T plus the remainder
    return SectioningResult(
        section_means=means,
        pooled_mean=summary.xbar,
        cov=sample_cov(summary),
        region=region,
        intervals=marginal_intervals(summary, exact_quantile(spec_from_plan(plan, 1), delta)),
        m=m,
        section_T=section_T,
        delta=delta,
    )


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


def _bmi_plan(T: int, alloc_r: float = 2.0 / 3.0) -> BatchPlan:
    """m_n = ceil(T^{1/4}) increasing batches at exponent alloc_r; T >= 16."""
    if T < 16:
        raise ValueError(f"BMI-style inference needs T >= 16, got {T}")
    return make_plan(T, bmi_batch_count(T), Allocation(kind="ibs", r=alloc_r))


def bmi_from_stats(xbar: np.ndarray, sigma: np.ndarray, m_n: int, delta: float) -> BmiResult:
    """Normal-quantile intervals from batch-means statistics."""
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
    plan = _bmi_plan(T, alloc_r)
    cfg = SgdRunConfig(T=T, burn_in=burn_in, x0=x0, schedule=schedule or StepSchedule())
    xi, xbar = single_run(oracle, cfg, gen, plan.boundaries)
    summary = BatchMeansSummary(plan=plan, xi=xi, xbar=xbar, d=oracle.dim)
    return bmi_from_stats(xbar, sample_sigma(summary), plan.m, delta)
