"""Joint confidence regions, marginal intervals, and volume formulas.

The joint region around the averaged iterate is the closed ellipsoid

    { x : (X_bar - x)^T S_m^{-1} (X_bar - x) <= d(m-1)/(m(m-d)) * alpha }

and the marginal interval for coordinate k is

    X_bar(k) +/- sqrt(alpha_1 / m) * sigma_k,

with alpha_1 calibrated at d = 1 for the same batch count and weights. Every
constructor checks that the quantile it is handed was calibrated for the
same (d, m, weights) as the summary, since a mismatched alpha silently
changes the confidence level.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .batching import BatchMeansSummary, check_joint, factored_cov, joint_constant, sample_sigma
from .calibration import LimitDrawSpec, ScalingQuantile, det_sqrt_draws, weights_key
from .errors import DimensionMismatch, KeyMismatch
from .linalg import CholFactor, SymMatrix


def unit_ball_volume(d: int) -> float:
    """q_d = pi^{d/2} / Gamma(d/2 + 1), the volume of the unit d-ball."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass
class ConfidenceRegion:
    center: np.ndarray
    shape: SymMatrix
    factor: CholFactor  # shape's Cholesky factor, decided once by build_region
    scale: float
    m: int
    T: int
    delta: float
    alpha: ScalingQuantile


@dataclass
class MarginalIntervals:
    lo: np.ndarray
    hi: np.ndarray
    sigma: np.ndarray
    center: np.ndarray
    alpha_1d: ScalingQuantile


def _check_key(alpha: ScalingQuantile, d: int, m: int, w) -> None:
    kd, km, kw = alpha.key[0], alpha.key[1], alpha.key[2]
    if (kd, km, kw) != (d, m, weights_key(w)):
        raise KeyMismatch(
            f"quantile calibrated for (d={kd}, m={km}, w={kw}); "
            f"needed (d={d}, m={m}, w={weights_key(w)})"
        )


def build_region(summary: BatchMeansSummary, alpha: ScalingQuantile) -> ConfidenceRegion:
    """Assemble the joint region for a finished run.

    Checks m > d (batching.check_joint) and alpha's key, then factors S_m(T)
    once (batching.factored_cov, DegenerateCovariance when it is not
    positive definite) and keeps the factor for contains and region_volume.
    """
    d, m = summary.d, summary.plan.m
    check_joint(d, m)
    _check_key(alpha, d, m, summary.plan.weights)
    S, factor = factored_cov(summary)
    return ConfidenceRegion(
        center=summary.xbar.copy(),
        shape=S,
        factor=factor,
        scale=joint_constant(d, m) * alpha.alpha_hat,
        m=m,
        T=summary.plan.T,
        delta=alpha.delta,
        alpha=alpha,
    )


def contains(region: ConfidenceRegion, x) -> bool:
    """Closed-region membership test, through the region's stored factor."""
    x = np.asarray(x, dtype=float)
    if x.shape != region.center.shape:
        raise DimensionMismatch(
            f"point shape {x.shape}, region dimension {region.center.shape}"
        )
    return region.factor.quad_form(region.center - x) <= region.scale


def region_volume(region: ConfidenceRegion) -> float:
    """Lebesgue volume scale^{d/2} * det(S)^{1/2} * q_d; interval length at d=1.

    det(S)^{1/2} comes from the region's stored factor.
    """
    d = region.center.shape[0]
    return region.scale ** (d / 2.0) * region.factor.det_sqrt() * unit_ball_volume(d)


def marginal_intervals(
    summary: BatchMeansSummary, alpha_1d: ScalingQuantile
) -> MarginalIntervals:
    """Per-coordinate intervals sharing one d=1 scaling parameter.

    sample_sigma refuses m < 2 batches before alpha_1d's key is checked.
    """
    m = summary.plan.m
    sigma = sample_sigma(summary)
    _check_key(alpha_1d, 1, m, summary.plan.weights)
    half = np.sqrt(alpha_1d.alpha_hat / m) * sigma
    return MarginalIntervals(
        lo=summary.xbar - half,
        hi=summary.xbar + half,
        sigma=sigma,
        center=summary.xbar.copy(),
        alpha_1d=alpha_1d,
    )


@dataclass
class VolumeFactor:
    """Monte Carlo estimate of the problem-independent volume factor v_d."""

    estimate: float
    std_error: float
    d: int
    m: int
    alpha_hat: float
    e_det_sqrt: float
    se_det_sqrt: float
    reps: int


def check_det_reps(reps: int) -> None:
    """The one rule for a determinant pass's draw count: at least one draw."""
    if reps < 1:
        raise ValueError(f"determinant draws must be >= 1, got {reps}")


def expected_volume_factor(
    d: int,
    m: int,
    w,
    alpha: ScalingQuantile,
    reps: int,
    gen: np.random.Generator,
) -> VolumeFactor:
    """v_d = (d(m-1)/(m(m-d)))^{d/2} * E[det(g)^{1/2}] * alpha^{d/2}.

    What submit_volume_factor's finisher gives for alpha, with the
    determinant pass run on a worker thread.
    """
    spec = LimitDrawSpec(d=d, m=m, w=tuple(np.asarray(w, dtype=float)))
    _check_key(alpha, d, m, spec.w)
    with ThreadPoolExecutor(max_workers=1) as pool:
        return submit_volume_factor(pool, spec, reps, gen)(alpha)


def submit_volume_factor(pool, spec: LimitDrawSpec, reps: int,
                         gen: np.random.Generator) -> Callable[[ScalingQuantile], VolumeFactor]:
    """Start the determinant pass on pool; returns a finisher alpha -> VolumeFactor.

    The pass takes det(g)^{1/2} of reps skeleton draws from gen and averages
    them into E[det(g)^{1/2}] with its standard error, so it holds its
    draws only while it runs, in one reps-long array: the mean and standard
    error are formed over it in place, by the steps of numpy's mean and
    std(ddof=1), so they equal those bit for bit with no second reps-long
    array (reps = 1 gives a standard error of 0). The finisher checks that
    alpha was calibrated for spec; the reported standard error combines the
    pass's sampling error with the quantile's own confidence interval
    through first-order propagation.
    """
    check_det_reps(reps)

    def mean_and_se() -> tuple:
        dets = det_sqrt_draws(spec, gen, reps)
        mean = np.add.reduce(dets) / reps
        if reps == 1:
            return float(mean), 0.0
        dets -= mean
        dets *= dets
        return float(mean), float(np.sqrt(np.add.reduce(dets) / (reps - 1)) / math.sqrt(reps))

    pending = pool.submit(mean_and_se)

    def finish(alpha: ScalingQuantile) -> VolumeFactor:
        d, m = spec.d, spec.m
        _check_key(alpha, d, m, spec.w)
        e_det, se_det = pending.result()
        cfac = joint_constant(d, m) ** (d / 2.0)
        v = cfac * e_det * alpha.alpha_hat ** (d / 2.0)
        se_alpha = (alpha.ci_high - alpha.ci_low) / (2 * 1.96)
        rel = 0.0
        if e_det > 0:
            rel += (se_det / e_det) ** 2
        if alpha.alpha_hat > 0:
            rel += (d / 2.0 * se_alpha / alpha.alpha_hat) ** 2
        return VolumeFactor(estimate=v, std_error=v * math.sqrt(rel), d=d, m=m,
                            alpha_hat=alpha.alpha_hat, e_det_sqrt=e_det, se_det_sqrt=se_det,
                            reps=reps)

    return finish
