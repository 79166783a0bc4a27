"""Batch planning, streaming batch means, and the scaled statistic.

A plan fixes integer boundaries 0 = tau_0 < tau_1 < ... < tau_m = T; batch i
covers iterates tau_{i-1}+1 .. tau_i. Boundaries come from rounding the
cumulative weight curve of the chosen allocation, with collisions repaired
by shifting forward one step and the last boundary pinned to T, so the
partition is always exact (per-batch ceilings can overshoot T; cumulative
rounding cannot).

Allocations
-----------
ibs     tau_i = (i/m)^{1/(1-r)} * T, batch sizes increasing in i. The
        exponent equalizes the summed step sizes across batches.
es      even split, tau_i = i*T/m.
dbs     the ibs batch-size sequence reversed.
custom  arbitrary positive weights, normalized at plan time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BatchCountTooSmall,
    BatchTooSmall,
    DegenerateCovariance,
    DimensionMismatch,
    FeedCountMismatch,
    InvalidBatchCount,
    NotPositiveDefinite,
)
from .linalg import SymMatrix, quad_form_inv

ALLOCATION_KINDS = ("ibs", "es", "dbs", "custom")


@dataclass(frozen=True)
class Allocation:
    kind: str
    r: float = 2.0 / 3.0
    custom_weights: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ALLOCATION_KINDS:
            raise ValueError(f"unknown allocation kind {self.kind!r}")
        if self.kind in ("ibs", "dbs") and not 0.0 < self.r < 1.0:
            raise ValueError(f"allocation exponent r must lie in (0, 1), got {self.r}")
        if self.kind == "custom":
            if self.custom_weights is None or len(self.custom_weights) == 0:
                raise ValueError("custom allocation requires custom_weights")
            if any(w <= 0 for w in self.custom_weights):
                raise ValueError("custom weights must be strictly positive")
        elif self.custom_weights is not None:
            raise ValueError("custom_weights only apply to kind='custom'")


@dataclass(frozen=True)
class BatchPlan:
    T: int
    m: int
    boundaries: np.ndarray  # integer, shape (m+1,)
    weights: np.ndarray  # (tau_i - tau_{i-1}) / T
    c: np.ndarray  # cumulative weights, c_0 = 0, c_m = 1

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.boundaries)


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5).astype(np.int64)


def ideal_weights(m: int, alloc: Allocation) -> np.ndarray:
    """Continuum weights of an allocation, before integer rounding.

    These are the weights the limiting law is calibrated at when no
    concrete T is in play (batch-count studies, volume factors).
    """
    if m < 2:
        raise InvalidBatchCount(f"batch count m must be >= 2, got {m}")
    if alloc.kind == "es":
        return np.full(m, 1.0 / m)
    if alloc.kind in ("ibs", "dbs"):
        i = np.arange(m + 1, dtype=float)
        w = np.diff((i / m) ** (1.0 / (1.0 - alloc.r)))
        return w[::-1].copy() if alloc.kind == "dbs" else w
    w = np.asarray(alloc.custom_weights, dtype=float)
    if len(w) != m:
        raise DimensionMismatch(
            f"custom allocation has {len(w)} weights for m={m} batches"
        )
    return w / w.sum()


def make_plan(T: int, m: int, alloc: Allocation) -> BatchPlan:
    """Integer boundaries for the requested allocation over 1..T."""
    if m < 2:
        raise InvalidBatchCount(f"batch count m must be >= 2, got {m}")
    if T < m:
        raise BatchTooSmall(f"T={T} cannot host {m} nonempty batches")
    i = np.arange(m + 1, dtype=float)
    if alloc.kind == "es":
        cum = i / m
    elif alloc.kind in ("ibs", "dbs"):
        cum = (i / m) ** (1.0 / (1.0 - alloc.r))
    else:
        w = np.asarray(alloc.custom_weights, dtype=float)
        if len(w) != m:
            raise DimensionMismatch(
                f"custom allocation has {len(w)} weights for m={m} batches"
            )
        cum = np.concatenate([[0.0], np.cumsum(w / w.sum())])
    tau = _round_half_up(cum * T)
    tau[0] = 0
    for k in range(1, m):
        if tau[k] <= tau[k - 1]:
            tau[k] = tau[k - 1] + 1
    tau[m] = T
    sizes = np.diff(tau)
    if np.any(sizes < 1):
        raise BatchTooSmall(
            f"allocation produced an empty batch at T={T}, m={m} "
            f"(sizes {sizes.tolist()})"
        )
    if alloc.kind == "dbs":
        sizes = sizes[::-1].copy()
        tau = np.concatenate([[0], np.cumsum(sizes)])
    weights = sizes / float(T)
    c = tau / float(T)
    return BatchPlan(T=T, m=m, boundaries=tau, weights=weights, c=c)


@dataclass
class BatchMeansSummary:
    plan: BatchPlan
    xi: np.ndarray  # (m, d) batch means
    xbar: np.ndarray  # (d,) overall mean
    d: int


class BatchAccumulator:
    """One-pass batch-mean accumulator with O(m*d) memory.

    Feed exactly plan.T iterates in path order, then call finalize().
    """

    def __init__(self, plan: BatchPlan, d: int):
        self.plan = plan
        self.d = d
        self._sums = np.zeros((plan.m, d))
        self._fed = 0
        self._batch = 0

    def feed(self, x) -> None:
        if self._fed >= self.plan.T:
            raise FeedCountMismatch(
                f"plan expects exactly {self.plan.T} iterates, got more"
            )
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise DimensionMismatch(f"iterate shape {x.shape}, expected ({self.d},)")
        self._fed += 1
        if self._fed > self.plan.boundaries[self._batch + 1]:
            self._batch += 1
        self._sums[self._batch] += x

    def finalize(self) -> BatchMeansSummary:
        if self._fed != self.plan.T:
            raise FeedCountMismatch(
                f"plan expects exactly {self.plan.T} iterates, got {self._fed}"
            )
        sizes = self.plan.sizes.astype(float)
        xi = self._sums / sizes[:, None]
        xbar = self._sums.sum(axis=0) / float(self.plan.T)
        return BatchMeansSummary(plan=self.plan, xi=xi, xbar=xbar, d=self.d)


def accumulate(plan: BatchPlan, d: int) -> BatchAccumulator:
    return BatchAccumulator(plan, d)


def summary_from_path(plan: BatchPlan, path: Sequence) -> BatchMeansSummary:
    """Offline reference: batch means recomputed from a stored path.

    Independent of BatchAccumulator: each batch's sum is a running sum over
    its slice of the path, in step order (the order the accumulator adds,
    where a pairwise sum of the slice could differ in the last bits), and
    xbar is the sum of the batch sums over T.
    """
    arr = np.asarray(path, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if len(arr) != plan.T:
        raise FeedCountMismatch(f"plan expects exactly {plan.T} iterates, got {len(arr)}")
    b = plan.boundaries
    sums = np.array([np.cumsum(arr[lo:hi], axis=0)[-1] for lo, hi in zip(b[:-1], b[1:])])
    return BatchMeansSummary(plan=plan, xi=sums / plan.sizes[:, None],
                             xbar=sums.sum(axis=0) / float(plan.T), d=arr.shape[1])


def sample_cov(summary: BatchMeansSummary) -> SymMatrix:
    """S_m(T), the unweighted covariance of batch means around X_bar."""
    dev = summary.xi - summary.xbar[None, :]
    m = summary.plan.m
    return SymMatrix(dev.T @ dev / (m - 1))


def sample_sigma(summary: BatchMeansSummary) -> np.ndarray:
    """Per-coordinate batch-means standard deviations, sqrt(diag S_m(T))."""
    dev = summary.xi - summary.xbar[None, :]
    return np.sqrt((dev * dev).sum(axis=0) / (summary.plan.m - 1))


def _joint_constant(d: int, m: int) -> float:
    """d(m-1)/(m(m-d)), the factor between alpha and the joint region's scale."""
    return d * (m - 1) / (m * (m - d))


def gamma_statistic(summary: BatchMeansSummary, x_ref) -> float:
    """m(m-d)/(d(m-1)) * (X_bar - x_ref)^T S_m^{-1} (X_bar - x_ref)."""
    x_ref = np.asarray(x_ref, dtype=float)
    d, m = summary.d, summary.plan.m
    if x_ref.shape != (d,):
        raise DimensionMismatch(f"x_ref shape {x_ref.shape}, expected ({d},)")
    if m <= d:
        raise BatchCountTooSmall(
            f"joint statistic needs m > d; got m={m}, d={d} "
            "(covariance is degenerate with probability one)"
        )
    S = sample_cov(summary)
    try:
        quad = quad_form_inv(S, summary.xbar - x_ref)
    except NotPositiveDefinite as e:
        raise DegenerateCovariance(str(e)) from e
    return quad / _joint_constant(d, m)
