"""Monte Carlo calibration of the scaling parameter alpha_m(delta, w).

The statistic's limiting law is a ratio of a standard Gaussian quadratic
form to the batch-slope covariance of a Brownian motion evaluated on the
cumulative weight grid. That grid skeleton is simulated exactly, increment
by increment (D_i ~ N(0, w_i I_d)), with no path discretization, so the
only error in a calibrated quantile is Monte Carlo error, which is reported
as a distribution-free order-statistic confidence interval.

Draw generation is chunked: chunk k of a calibration run consumes the
stream (base_seed, k), so results are independent of thread count and the
chunk schedule is reproducible. Inside a chunk the linear algebra is
batched through numpy; the per-draw route below (simulate_limit_draw) uses
the package's own factorization and serves as the reference the batched
path is tested against.

With even weights the limit is the F(d, m-d) distribution rescaled, which
provides an exact cross-check: f_quantile here is computed independently
by bisection on the regularized incomplete beta function.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import betainc
from scipy.stats import binom

from .errors import DegenerateDraw, DimensionMismatch, NotPositiveDefinite
from .linalg import SymMatrix, quad_form_inv
from .streams import RandomStream, derive_stream

MIN_REPS = 10_000
HEAVY_TAIL_GAP = 5
_F_TOL = 1e-8
_RESCUE_OFFSET = 1 << 32


@dataclass(frozen=True)
class LimitDrawSpec:
    """Dimension, batch count, and weights pinning one limiting law."""

    d: int
    m: int
    w: tuple

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.m <= self.d:
            raise ValueError(
                f"batch count must exceed dimension, got m={self.m}, d={self.d}"
            )
        w = np.asarray(self.w, dtype=float)
        if len(w) != self.m:
            raise DimensionMismatch(f"{len(w)} weights for m={self.m}")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")

    @property
    def factor(self) -> float:
        d, m = self.d, self.m
        return m * (m - d) / (d * (m - 1))


def spec_from_plan(plan, d: int) -> LimitDrawSpec:
    return LimitDrawSpec(d=d, m=plan.m, w=tuple(plan.weights))


def weights_key(w) -> str:
    """Stable 16-hex-digit digest of an exact weight vector."""
    arr = np.ascontiguousarray(np.asarray(w, dtype=float))
    return hashlib.sha1(arr.tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class ScalingQuantile:
    alpha_hat: float
    ci_low: float
    ci_high: float
    delta: float
    reps: int
    key: tuple  # (d, m, weights_key, delta, reps, base_seed)


def g_of_skeleton(increments, w) -> SymMatrix:
    """Batch-slope covariance of a Brownian skeleton.

    increments holds D_i = B(c_i) - B(c_{i-1}); the slope of batch i is
    D_i / w_i and B(1) is the increments' sum. Returns
    (m-1)^{-1} sum_i (D_i/w_i - B(1)) (D_i/w_i - B(1))^T.

    A single-increment skeleton (m = 1) has one slope equal to B(1), so the
    numerator vanishes identically and the zero matrix is returned.
    """
    D = np.asarray(increments, dtype=float)
    if D.ndim == 1:
        D = D[:, None]
    w = np.asarray(w, dtype=float)
    m = len(w)
    if D.shape[0] != m:
        raise DimensionMismatch(f"{D.shape[0]} increments for {m} weights")
    d = D.shape[1]
    if m == 1:
        return SymMatrix(np.zeros((d, d)))
    slopes = D / w[:, None]
    b1 = D.sum(axis=0)
    dev = slopes - b1[None, :]
    return SymMatrix(dev.T @ dev / (m - 1))


def _draw_skeleton_raw(spec: LimitDrawSpec, stream: RandomStream):
    """One draw's worth of noise: m*d increments then d for Z, in order."""
    m, d = spec.m, spec.d
    raw = stream.gen.standard_normal(m * d + d)
    sqw = np.sqrt(np.asarray(spec.w))
    D = raw[: m * d].reshape(m, d) * sqw[:, None]
    Z = raw[m * d :]
    return D, Z


def simulate_limit_draw(spec: LimitDrawSpec, stream: RandomStream) -> float:
    """One draw of m(m-d)/(d(m-1)) * Z^T g^{-1} Z with Z independent of g.

    A singular g has probability zero; if the factorization fails the draw
    is resampled once from the same stream, then DegenerateDraw is raised.
    """
    for attempt in range(2):
        D, Z = _draw_skeleton_raw(spec, stream)
        g = g_of_skeleton(D, spec.w)
        try:
            return spec.factor * quad_form_inv(g, Z)
        except NotPositiveDefinite:
            continue
    raise DegenerateDraw(
        f"singular skeleton covariance twice in a row at d={spec.d}, m={spec.m}"
    )


def _chunk_size(spec: LimitDrawSpec) -> int:
    """Draws per chunk, sized so a chunk's noise block stays near 128 MB."""
    return max(128, min(65536, (1 << 24) // max(1, spec.m * spec.d)))


def _skeleton_grams(spec: LimitDrawSpec, normals: np.ndarray) -> np.ndarray:
    """g_of_skeleton for n skeletons at once, from standard normals (n, m, d).

    Batch i's increments are normals[:, i] * sqrt(w_i); returns (n, d, d).
    """
    w = np.asarray(spec.w)
    D = normals * np.sqrt(w)[None, :, None]
    dev = D / w[None, :, None] - D.sum(axis=1)[:, None, :]
    return np.einsum("nmi,nmj->nij", dev, dev) / (spec.m - 1)


def _eval_chunk(spec: LimitDrawSpec, n: int, chunk_index: int, base_seed: int):
    """n statistics from stream (base_seed, chunk_index), batched."""
    m, d = spec.m, spec.d
    stream = derive_stream(base_seed, chunk_index)
    raw = stream.gen.standard_normal((n, m * d + d))
    G = _skeleton_grams(spec, raw[:, : m * d].reshape(n, m, d))
    Z = raw[:, m * d :]
    try:
        sol = np.linalg.solve(G, Z[..., None])[..., 0]
        stats = spec.factor * np.einsum("nd,nd->n", Z, sol)
    except np.linalg.LinAlgError:
        stats = np.full(n, np.nan)
        for i in range(n):
            gi = SymMatrix(G[i])
            try:
                stats[i] = spec.factor * quad_form_inv(gi, Z[i])
            except NotPositiveDefinite:
                pass  # rescued below
    bad = ~np.isfinite(stats)
    if np.any(bad):
        rescue = derive_stream(base_seed, _RESCUE_OFFSET + chunk_index)
        for i in np.nonzero(bad)[0]:
            stats[i] = simulate_limit_draw(spec, rescue)
    return stats


class QuantileCache:
    """Persistent store of calibrated quantiles, one JSON record per key.

    Writes go through a temporary file and an atomic rename, so a crashed
    run never leaves a truncated cache behind.
    """

    def __init__(self, path):
        self.path = str(path)
        self._records = {}
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as fh:
                self._records = json.load(fh)

    @staticmethod
    def _key_str(key: tuple) -> str:
        d, m, wkey, delta, reps, seed = key
        return f"d={d}|m={m}|w={wkey}|delta={delta!r}|reps={reps}|seed={seed}"

    def get(self, key: tuple) -> Optional[ScalingQuantile]:
        rec = self._records.get(self._key_str(key))
        if rec is None:
            return None
        return ScalingQuantile(
            alpha_hat=rec["alpha_hat"],
            ci_low=rec["ci_low"],
            ci_high=rec["ci_high"],
            delta=rec["delta"],
            reps=rec["reps"],
            key=key,
        )

    def put(self, sq: ScalingQuantile) -> None:
        d, m, wkey, delta, reps, seed = sq.key
        self._records[self._key_str(sq.key)] = {
            "d": d,
            "m": m,
            "weights_key": wkey,
            "delta": delta,
            "reps": reps,
            "base_seed": seed,
            "alpha_hat": sq.alpha_hat,
            "ci_low": sq.ci_low,
            "ci_high": sq.ci_high,
        }
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._records, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def estimate_alpha(
    spec: LimitDrawSpec,
    delta: float,
    reps: int,
    base_seed: int,
    cache: Optional[QuantileCache] = None,
    force: bool = False,
    threads: int = 1,
) -> ScalingQuantile:
    """Empirical (1-delta)-quantile of the limiting statistic.

    Returns the order statistic of rank ceil((1-delta)*reps) over reps
    independent draws, with a 95% binomial order-statistic confidence
    interval. Results are cached under the exact
    (d, m, weight digest, delta, reps, base_seed) key.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if reps < MIN_REPS:
        raise ValueError(
            f"reps must be >= {MIN_REPS} for a meaningful tail quantile, got {reps}"
        )
    if spec.m - spec.d < HEAVY_TAIL_GAP:
        warnings.warn(
            f"m - d = {spec.m - spec.d} < {HEAVY_TAIL_GAP}: the limiting "
            "statistic is heavy-tailed and the quantile estimate will be noisy",
            UserWarning,
            stacklevel=2,
        )
    key = (spec.d, spec.m, weights_key(spec.w), float(delta), int(reps), int(base_seed))
    if cache is not None and not force:
        hit = cache.get(key)
        if hit is not None:
            return hit

    chunk = _chunk_size(spec)
    bounds = list(range(0, reps, chunk))
    sizes = [min(chunk, reps - b) for b in bounds]
    stats = np.empty(reps)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = pool.map(
                lambda ib: _eval_chunk(spec, ib[1], ib[0], base_seed),
                enumerate(sizes),
            )
            for b, n, part in zip(bounds, sizes, parts):
                stats[b : b + n] = part
    else:
        for idx, (b, n) in enumerate(zip(bounds, sizes)):
            stats[b : b + n] = _eval_chunk(spec, n, idx, base_seed)

    stats.sort()
    p = 1.0 - delta
    k = int(np.ceil(p * reps))
    lo_rank = int(binom.ppf(0.025, reps, p))
    hi_rank = int(binom.ppf(0.975, reps, p)) + 1
    lo_rank = min(max(lo_rank, 1), k)
    hi_rank = max(min(hi_rank, reps), k)
    sq = ScalingQuantile(
        alpha_hat=float(stats[k - 1]),
        ci_low=float(stats[lo_rank - 1]),
        ci_high=float(stats[hi_rank - 1]),
        delta=float(delta),
        reps=int(reps),
        key=key,
    )
    if cache is not None:
        cache.put(sq)
    return sq


def f_quantile(d1: int, d2: int, p: float) -> float:
    """Inverse CDF of the F(d1, d2) distribution by bisection.

    The CDF is evaluated through the regularized incomplete beta function;
    the bracket is bisected to an absolute tolerance of 1e-8.
    """
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")

    def cdf(x: float) -> float:
        return float(betainc(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2)))

    lo, hi = 0.0, 1.0
    while cdf(hi) < p:
        hi *= 2.0
        if hi > 1e18:
            raise RuntimeError("f_quantile bracket expansion failed")
    while hi - lo > _F_TOL:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
