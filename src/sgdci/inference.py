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
from dataclasses import dataclass

import numpy as np

from .batching import BatchMeansSummary, _joint_constant, sample_cov, sample_sigma
from .calibration import LimitDrawSpec, ScalingQuantile, _gram_blocks, weights_key
from .errors import (
    BatchCountTooSmall,
    DegenerateCovariance,
    DimensionMismatch,
    KeyMismatch,
    NotPositiveDefinite,
)
from .linalg import SymMatrix, cholesky, det_sqrt, quad_form_inv


def unit_ball_volume(d: int) -> float:
    """q_d = pi^{d/2} / Gamma(d/2 + 1), the volume of the unit d-ball."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass
class ConfidenceRegion:
    center: np.ndarray
    shape: SymMatrix
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
    """Assemble the joint region for a finished run."""
    d, m = summary.d, summary.plan.m
    if m <= d:
        raise BatchCountTooSmall(f"joint region needs m > d; got m={m}, d={d}")
    _check_key(alpha, d, m, summary.plan.weights)
    S = sample_cov(summary)
    try:
        cholesky(S)
    except NotPositiveDefinite as e:
        raise DegenerateCovariance(str(e)) from e
    return ConfidenceRegion(
        center=summary.xbar.copy(),
        shape=S,
        scale=_joint_constant(d, m) * alpha.alpha_hat,
        m=m,
        T=summary.plan.T,
        delta=alpha.delta,
        alpha=alpha,
    )


def contains(region: ConfidenceRegion, x) -> bool:
    """Closed-region membership test."""
    x = np.asarray(x, dtype=float)
    if x.shape != region.center.shape:
        raise DimensionMismatch(
            f"point shape {x.shape}, region dimension {region.center.shape}"
        )
    return quad_form_inv(region.shape, region.center - x) <= region.scale


def region_volume(region: ConfidenceRegion) -> float:
    """Lebesgue volume scale^{d/2} * det(S)^{1/2} * q_d; interval length at d=1."""
    d = region.center.shape[0]
    return region.scale ** (d / 2.0) * det_sqrt(region.shape) * unit_ball_volume(d)


def marginal_intervals(
    summary: BatchMeansSummary, alpha_1d: ScalingQuantile
) -> MarginalIntervals:
    """Per-coordinate intervals sharing one d=1 scaling parameter."""
    m = summary.plan.m
    if m < 2:
        raise BatchCountTooSmall(f"marginal intervals need m >= 2, got {m}")
    _check_key(alpha_1d, 1, m, summary.plan.weights)
    sigma = sample_sigma(summary)
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


def expected_volume_factor(
    d: int,
    m: int,
    w,
    alpha: ScalingQuantile,
    reps: int,
    gen: np.random.Generator,
) -> VolumeFactor:
    """v_d = (d(m-1)/(m(m-d)))^{d/2} * E[det(g)^{1/2}] * alpha^{d/2}.

    E[det(g)^{1/2}] is estimated over skeleton draws; the reported standard
    error combines that sampling error with the quantile's own confidence
    interval through first-order propagation.
    """
    spec = LimitDrawSpec(d=d, m=m, w=tuple(np.asarray(w, dtype=float)))
    _check_key(alpha, d, m, spec.w)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    return _volume_factor(d, m, alpha, _det_sqrts(spec, reps, gen))


def _det_sqrts(spec: LimitDrawSpec, reps: int, gen: np.random.Generator) -> np.ndarray:
    """det(g)^{1/2} of reps skeleton draws from gen; 0 where det(g) <= 0."""
    dets = np.empty(reps)
    done = 0
    for G, _ in _gram_blocks(spec, gen, reps, with_z=False):
        sign, logdet = np.linalg.slogdet(G)
        dets[done : done + len(G)] = np.where(sign > 0, np.exp(0.5 * logdet), 0.0)
        done += len(G)
    return dets


def _volume_factor(d: int, m: int, alpha: ScalingQuantile, dets: np.ndarray) -> VolumeFactor:
    """The volume factor and its standard error from the determinant draws."""
    reps = len(dets)
    e_det = float(dets.mean())
    se_det = float(dets.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    cfac = _joint_constant(d, m) ** (d / 2.0)
    v = cfac * e_det * alpha.alpha_hat ** (d / 2.0)
    se_alpha = (alpha.ci_high - alpha.ci_low) / (2 * 1.96)
    rel = 0.0
    if e_det > 0:
        rel += (se_det / e_det) ** 2
    if alpha.alpha_hat > 0:
        rel += (d / 2.0 * se_alpha / alpha.alpha_hat) ** 2
    return VolumeFactor(
        estimate=v,
        std_error=v * math.sqrt(rel),
        d=d,
        m=m,
        alpha_hat=alpha.alpha_hat,
        e_det_sqrt=e_det,
        se_det_sqrt=se_det,
        reps=reps,
    )
