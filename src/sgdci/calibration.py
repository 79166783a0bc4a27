"""Monte Carlo calibration of the scaling parameter alpha_m(delta, w).

The statistic's limiting law is a ratio of a standard Gaussian quadratic
form to the batch-slope covariance of a Brownian motion evaluated on the
cumulative weight grid. That grid skeleton is simulated exactly, increment
by increment (D_i ~ N(0, w_i I_d)), with no path discretization, so the
only error in a calibrated quantile is Monte Carlo error, which is reported
as a distribution-free order-statistic confidence interval.

Draw generation is chunked: chunk k of a calibration run consumes the
stream (base_seed, k), so results are independent of thread count and the
chunk schedule is reproducible. The chunk is the unit of stream and of
thread: a calibration runs its chunks on a pool of worker threads, and the
volume study (experiments.run_volume_study) runs the chunks and the
determinant pass of neighbouring batch counts side by side on one pool,
each on its own stream. The chunk is not the unit of memory: _gram_blocks
walks a chunk, and the determinant pass of the volume factor, in blocks of
about 4 MB of normals, reducing each block to its Gram matrices in place
while it is in cache, so a worker holds one block at a time whatever the
chunk size or thread count. The batched route forms every G by the same
matmuls and every statistic as
Z^T G^{-1} Z / batching._joint_constant(d, m), the divisor gamma_statistic
uses, at every d. The per-draw route (simulate_limit_draw) decides through
linalg's one positive-definiteness rule; it redraws the probability-zero
singular draws of the batched route and is the reference that route is
tested against.

With even weights the limit is the F(d, m-d) distribution rescaled, which
provides an exact cross-check: f_quantile here is computed independently
by bisection on the regularized incomplete beta function.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import bdtr, bdtrik, betainc

from .batching import _joint_constant
from .errors import DegenerateDraw, DimensionMismatch, NotPositiveDefinite
from .linalg import SymMatrix, quad_form_inv
from .streams import derive_stream

MIN_REPS = 10_000
HEAVY_TAIL_GAP = 5
_F_TOL = 1e-8
_RESCUE_OFFSET = 1 << 32
# Doubles of noise per block of _gram_blocks (4 MB): the peak memory of one
# worker, small enough to stay in cache while the block is reduced to G.
_BLOCK_DOUBLES = 1 << 19
# Version of the route from a stream to a statistic (draw layout, skeleton
# arithmetic, statistic). Bump it whenever a calibrated value can change,
# even in its last bits, so QuantileCache never serves an older route's value.
KERNEL_ROUTE = 3


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


def _draw_skeleton_raw(spec: LimitDrawSpec, gen: np.random.Generator):
    """One draw's worth of noise: m*d increments then d for Z, in order."""
    m, d = spec.m, spec.d
    raw = gen.standard_normal(m * d + d)
    sqw = np.sqrt(np.asarray(spec.w))
    D = raw[: m * d].reshape(m, d) * sqw[:, None]
    Z = raw[m * d :]
    return D, Z


def simulate_limit_draw(spec: LimitDrawSpec, gen: np.random.Generator) -> float:
    """One draw of m(m-d)/(d(m-1)) * Z^T g^{-1} Z with Z independent of g.

    A singular g has probability zero; if the factorization fails the draw
    is resampled once from the same generator, then DegenerateDraw is raised.
    """
    for attempt in range(2):
        D, Z = _draw_skeleton_raw(spec, gen)
        g = g_of_skeleton(D, spec.w)
        try:
            return quad_form_inv(g, Z) / _joint_constant(spec.d, spec.m)
        except NotPositiveDefinite:
            continue
    raise DegenerateDraw(
        f"singular skeleton covariance twice in a row at d={spec.d}, m={spec.m}"
    )


def _chunk_size(spec: LimitDrawSpec) -> int:
    """Draws per chunk, the unit of stream and of thread.

    Chunk k of a calibration run consumes stream (base_seed, k), so these
    values fix which draws a run makes; memory is bounded by _gram_blocks.
    """
    return max(128, min(65536, (1 << 24) // max(1, spec.m * spec.d)))


def _gram_blocks(spec: LimitDrawSpec, gen: np.random.Generator, n: int, with_z: bool):
    """Yield (G, Z) for n skeleton draws from gen, in blocks of about 4 MB.

    Each draw takes m*d standard normals for the increments (batch-major)
    and, if with_z, d more for Z; drawing block by block consumes exactly
    the normals of one (n, m*d [+ d]) call. G (b, d, d) is g_of_skeleton of
    each draw, formed in place over the block's normals; Z is None without
    with_z.
    """
    m, d = spec.m, spec.d
    width = m * d + (d if with_z else 0)
    rows = max(16, _BLOCK_DOUBLES // (m * d + d))
    sqw = np.sqrt(np.asarray(spec.w))
    sqw_flat = np.repeat(sqw, d)  # sqrt(w_i) at each of batch i's d normals
    for start in range(0, n, rows):
        raw = gen.standard_normal((min(rows, n - start), width))
        flat = raw[:, : m * d]
        N = flat.reshape(-1, m, d)
        b1 = np.matmul(sqw, N)  # B(1), the increments' sum
        flat /= sqw_flat  # batch slopes D_i / w_i
        N -= b1[:, None, :]
        G = np.matmul(N.transpose(0, 2, 1), N)
        G /= m - 1
        yield G, (raw[:, m * d :] if with_z else None)


def _eval_chunk(spec: LimitDrawSpec, n: int, chunk_index: int, base_seed: int):
    """n statistics from stream (base_seed, chunk_index), batched.

    An exactly singular G (probability zero) fails the block's solve; its
    draws are solved against I instead, so the block's other draws keep
    their values, and are then redrawn through simulate_limit_draw from the
    rescue stream (base_seed, 2**32 + chunk_index).
    """
    stats = np.empty(n)
    done, scale = 0, _joint_constant(spec.d, spec.m)
    for G, Z in _gram_blocks(spec, derive_stream(base_seed, chunk_index), n, with_z=True):
        try:
            sol = np.linalg.solve(G, Z[..., None])[..., 0]
        except np.linalg.LinAlgError:
            singular = np.linalg.det(G) == 0.0
            G[singular] = np.eye(spec.d)
            sol = np.linalg.solve(G, Z[..., None])[..., 0]
            Z[singular] = np.nan  # rescued below
        stats[done : done + len(G)] = np.einsum("nd,nd->n", Z, sol) / scale
        done += len(G)
    bad = ~np.isfinite(stats)
    if np.any(bad):
        rescue = derive_stream(base_seed, _RESCUE_OFFSET + chunk_index)
        for i in np.nonzero(bad)[0]:
            stats[i] = simulate_limit_draw(spec, rescue)
    return stats


class QuantileCache:
    """Persistent store of calibrated quantiles, one JSON record per key.

    Keys carry KERNEL_ROUTE, so a record made by another draw route (or
    stored before routes were versioned) is a miss, recomputed and stored
    under the current route; such records are dropped on load. A write
    holds an exclusive lock on ``path + ".lock"``, merges the records other
    processes have stored since this one loaded, and goes through a private
    temporary file and an atomic rename, so concurrent writers keep each
    other's records and a crashed run never leaves a truncated cache behind.
    """

    _PREFIX = f"route={KERNEL_ROUTE}|"

    def __init__(self, path):
        self.path = str(path)
        self._records = self._load()

    def _load(self) -> dict:
        if not os.path.exists(self.path):
            return {}
        with open(self.path, "r", encoding="utf-8") as fh:
            return {k: v for k, v in json.load(fh).items() if k.startswith(self._PREFIX)}

    @staticmethod
    def _key_str(key: tuple) -> str:
        d, m, wkey, delta, reps, seed = key
        return (f"{QuantileCache._PREFIX}d={d}|m={m}|w={wkey}|delta={delta!r}"
                f"|reps={reps}|seed={seed}")

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
        with open(self.path + ".lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
            self._records = {**self._load(), **self._records}
            mode = os.stat(self.path).st_mode & 0o777 if os.path.exists(self.path) else 0o644
            fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=os.path.basename(self.path) + ".",
                                       dir=os.path.dirname(os.path.abspath(self.path)))
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(self._records, fh, indent=1, sort_keys=True)
                os.chmod(tmp, mode)
                os.replace(tmp, self.path)
            except BaseException:
                os.unlink(tmp)
                raise


def estimate_alpha(
    spec: LimitDrawSpec,
    delta: float,
    reps: int,
    base_seed: int,
    cache: Optional[QuantileCache] = None,
    threads: int = 1,
) -> ScalingQuantile:
    """Empirical (1-delta)-quantile of the limiting statistic.

    Returns the order statistic of rank ceil((1-delta)*reps) over reps
    independent draws, with a 95% binomial order-statistic confidence
    interval. Results are cached under the exact
    (d, m, weight digest, delta, reps, base_seed) key.
    """
    key = _alpha_key(spec, delta, reps, base_seed)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    with ThreadPoolExecutor(max_workers=threads) as pool:
        sq = _order_statistics(key, _submit_chunks(pool, spec, reps, base_seed))
    if cache is not None:
        cache.put(sq)
    return sq


def _alpha_key(spec: LimitDrawSpec, delta: float, reps: int, base_seed: int) -> tuple:
    """Check a calibration's arguments, warn of a heavy tail, return its key."""
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
            stacklevel=3,
        )
    return (spec.d, spec.m, weights_key(spec.w), float(delta), int(reps), int(base_seed))


def _submit_chunks(pool, spec: LimitDrawSpec, reps: int, base_seed: int) -> list:
    """Submit the chunks of a calibration run, in order; returns their futures."""
    chunk = _chunk_size(spec)
    return [pool.submit(_eval_chunk, spec, min(chunk, reps - b), k, base_seed)
            for k, b in enumerate(range(0, reps, chunk))]


def _order_statistics(key: tuple, chunks: list) -> ScalingQuantile:
    """The quantile and its confidence interval from the chunks' futures."""
    delta, reps = key[3], key[4]
    stats = np.concatenate([f.result() for f in chunks])
    stats.sort()
    p = 1.0 - delta
    k = int(np.ceil(p * reps))
    lo_rank = _binom_ppf(0.025, reps, p)
    hi_rank = _binom_ppf(0.975, reps, p) + 1
    lo_rank = min(max(lo_rank, 1), k)
    hi_rank = max(min(hi_rank, reps), k)
    return ScalingQuantile(
        alpha_hat=float(stats[k - 1]),
        ci_low=float(stats[lo_rank - 1]),
        ci_high=float(stats[hi_rank - 1]),
        delta=float(delta),
        reps=int(reps),
        key=key,
    )


def _binom_ppf(q: float, n: int, p: float) -> int:
    """Smallest k with P(Binomial(n, p) <= k) >= q, for 0 < q < 1.

    Computed as scipy.stats.binom.ppf long was (ceil of bdtrik, then one
    step down where the CDF allows), through scipy.special alone: importing
    scipy.stats costs most of the package's start-up time.
    """
    k = math.ceil(bdtrik(q, n, p))
    return k - 1 if k >= 1 and bdtr(k - 1, n, p) >= q else k


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
