"""Monte Carlo calibration of the scaling parameter alpha_m(delta, w).

The statistic's limiting law is a ratio of a standard Gaussian quadratic
form to the batch-slope covariance of a Brownian motion evaluated on the
cumulative weight grid. That grid skeleton is simulated exactly, increment
by increment (D_i ~ N(0, w_i I_d)), with no path discretization, so the
only error in a calibrated quantile is Monte Carlo error, which is reported
as a distribution-free order-statistic confidence interval.

Draw generation is chunked: chunk k of a calibration run consumes the
stream (base_seed, k), the unit of stream and of thread, so results are
independent of thread count. submit_alpha is the one way to start a
calibration: it checks the arguments, serves each cache hit and submits
the misses' chunks to a caller's pool, and returns one finisher per spec
that gives the quantile and stores a miss; estimate_alpha runs it for one
spec on a pool of its own, and the volume study
(experiments.run_volume_study) submits it for all of its batch counts at
once, then inference.submit_volume_factor for each. Every spec reads a
prefix of the same streams, so the specs of one call share chunk k: one
task walks stream (base_seed, k) once (_walk), and each spec reads its
draws from the walk's window (common random numbers across the specs, with
the values each spec gets alone). The determinant pass of the volume
factor, det_sqrt_draws, is a walk of its own stream with one reader, and
_gram turns the draws of every walk into Gram matrices.
Memory is bounded by windows, not chunks: a walk holds one window of about
512 KB of normals, reduced to Gram matrices while a window and its
centering temporary fit in a core's L2 cache. A lone reader forms its batch
slopes over its window; a chunk task of several specs forms them in one
slope buffer the window's size. Each missed spec keeps only the tail its
quantile reads (_Tail): the reps - lo + 1 largest statistics, lo the lowest
rank of the confidence interval, and never more than twice that many plus
one window's statistics (2 * keep is about a tenth of reps at
delta = 0.05).
The batched Gram matmul, solve and slogdet of each view a walk yields
hold one process-wide lock, _BLAS_LOCK: OpenBLAS makes one small call per
draw there, and two workers making them at once spent 3-5x the CPU of each
call alone (BENCH_18.json). The normals, the centering and B(1) stay outside it, but
the locked part of a draw (6% at (d, m) = (1, 100), 36% at (5, 10)) runs one
worker at a time, which caps what more than two workers gain.
The batched route forms every G by the same matmuls and every statistic as
Z^T G^{-1} Z / batching.joint_constant(d, m), the divisor gamma_statistic
uses, at every d. The per-draw route (simulate_limit_draw) decides through
linalg's one positive-definiteness rule; it redraws the probability-zero
singular draws of the batched route and is the reference that route is
tested against.

With even weights the limit is the F(d, m-d) distribution rescaled, which
provides an exact cross-check: f_quantile here is computed independently
by bisection on the regularized incomplete beta function. exact_quantile
gives it as the ScalingQuantile of an evenly weighted spec; sectioning
uses it.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import sys
import tempfile
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
from scipy.special import bdtr, bdtrik, betainc

from .batching import check_dim, check_joint, check_weight_count, check_weights, joint_constant
from .errors import DegenerateDraw, DimensionMismatch, NotPositiveDefinite
from .linalg import SymMatrix, quad_form_inv
from .streams import _worker_count, derive_stream, derive_streams

MIN_REPS = 10_000
HEAVY_TAIL_GAP = 5
_F_TOL = 1e-8
_RESCUE_OFFSET = 1 << 32
# Doubles of noise per window of _walk (512 KB), the peak memory of one
# worker: of the sizes 2^15..2^19 that ran fastest, the smallest (BENCH_11.json).
_BLOCK_DOUBLES = 1 << 16
# Version of the route from a stream to a statistic (draw layout, skeleton
# arithmetic, statistic). Bump it whenever a calibrated value can change,
# even in its last bits, so QuantileCache never serves an older route's value.
KERNEL_ROUTE = 3
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep
_BLAS_LOCK = threading.Lock()  # see the module docstring; not reentrant


@dataclass(frozen=True)
class LimitDrawSpec:
    """Dimension, batch count, and weights pinning one limiting law."""

    d: int
    m: int
    w: tuple

    def __post_init__(self):
        check_dim(self.d)
        check_joint(self.d, self.m)
        check_weight_count(self.w, self.m)
        check_weights(self.w)
        w = np.asarray(self.w, dtype=float)
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")


def check_delta(delta: float) -> None:
    """The one rule for a miss probability: delta in the open interval (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def check_reps(reps: int) -> None:
    """The one rule for a calibration's draw count: at least MIN_REPS."""
    if reps < MIN_REPS:
        raise ValueError(
            f"reps must be >= {MIN_REPS} for a meaningful tail quantile, got {reps}"
        )


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
            return quad_form_inv(g, Z) / joint_constant(spec.d, spec.m)
        except NotPositiveDefinite:
            continue
    raise DegenerateDraw(
        f"singular skeleton covariance twice in a row at d={spec.d}, m={spec.m}"
    )


def _chunk_size(spec: LimitDrawSpec) -> int:
    """Draws per chunk, the unit of stream and of thread.

    Chunk k of a calibration run consumes stream (base_seed, k), so these
    values fix which draws a run makes; memory is bounded by _walk's window.
    """
    return max(128, min(65536, (1 << 24) // max(1, spec.m * spec.d)))


def _window_doubles(widths, counts) -> int:
    """Doubles in _walk's window for readers of draws of widths normals,
    counts draws each: up to max(_BLOCK_DOUBLES, 16 of the widest draws),
    plus room for a carried tail shorter than one widest draw, and never
    more than the longest prefix."""
    widest = max(widths)
    return min(max(w * n for w, n in zip(widths, counts)),
               max(_BLOCK_DOUBLES, 16 * widest) + widest - 1)


def _walk(gen: np.random.Generator, widths, counts):
    """Yield (i, draws) as gen's stream is drawn once for several readers.

    Reader i reads the stream's first counts[i] draws of widths[i] normals
    each, so every reader reads a prefix of the same normals. The stream
    is drawn into one window (_window_doubles) at a time, and after each
    refill every reader with whole draws in it gets, in reader order, a
    (k, widths[i]) view of them, valid until the next refill. A refill
    moves the unread tail, from the earliest unfinished reader's position,
    to the window's front and draws the rest, so the stream is consumed
    exactly as one standard_normal call for the longest prefix would.
    """
    total = max(w * n for w, n in zip(widths, counts))
    window = np.empty(_window_doubles(widths, counts))
    done = [0] * len(widths)  # draws each reader has read
    start = end = 0  # stream offsets of window[0] and of the next normal drawn
    while end < total:
        fresh = min(window.size - (end - start), total - end)
        gen.standard_normal(out=window[end - start : end - start + fresh])
        end += fresh
        for i, (w, n) in enumerate(zip(widths, counts)):
            k = min(n, end // w) - done[i]
            if k > 0:
                lo = done[i] * w - start
                yield i, window[lo : lo + k * w].reshape(k, w)
                done[i] += k
        tail = min((r * w for r, w, n in zip(done, widths, counts) if r < n), default=end)
        window[: end - tail] = window[tail - start : end - start]
        start = tail


def _gram(spec: LimitDrawSpec, draws: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """G (k, d, d), g_of_skeleton of each of the k draws in the rows of draws.

    Each row leads with the draw's m*d increment normals, batch-major
    (D_i / sqrt(w_i)); columns past them (Z) are not read. The batch slopes
    are formed in out, a flat buffer of at least k*m*d doubles, or over
    those normals when out is None, for a reader whose window no other
    reader shares.
    """
    m, d = spec.m, spec.d
    raw = draws[:, : m * d]
    sqw = np.sqrt(np.asarray(spec.w))
    b1 = np.matmul(sqw, raw.reshape(-1, m, d))  # B(1), the increments' sum
    flat = raw if out is None else out[: raw.size].reshape(raw.shape)
    np.divide(raw, np.repeat(sqw, d), out=flat)  # batch slopes D_i / w_i
    flat -= np.tile(b1, (1, m))  # one m*d-long inner loop, not m of length d
    N = flat.reshape(-1, m, d)
    with _BLAS_LOCK:
        G = np.matmul(N.transpose(0, 2, 1), N)
    G /= m - 1
    return G


def _eval_chunk(cells, chunk_index: int, base_seed: int, gen: np.random.Generator) -> None:
    """Hand each cell's statistics from gen, the stream (base_seed, chunk_index),
    to the cell's sink.

    cells holds (spec, n, sink) triples: sink is called once per window, in
    draw order, with the statistics of spec's next whole draws among its
    first n draws of m*d + d normals on the stream, an array valid only
    during the call. Each cell reads a prefix of the same normals, walked
    once (_walk). A lone cell forms its batch slopes over its window;
    several cells share one slope buffer. Each cell's values are those the
    stream gives it alone.

    An exactly singular G (probability zero) fails the block's solve; its
    draws are solved against I instead, so the block's other draws keep
    their values, and are then redrawn through simulate_limit_draw, before
    the window reaches the sink, from the cell's own rescue stream
    (base_seed, 2**32 + chunk_index), derived at its first such draw and
    carried across its windows.
    """
    widths = [spec.m * spec.d + spec.d for spec, _, _ in cells]
    counts = [n for _, n, _ in cells]
    slopes = np.empty(_window_doubles(widths, counts)) if len(cells) > 1 else None
    rescues = [None] * len(cells)
    for i, draws in _walk(gen, widths, counts):
        spec, _, sink = cells[i]
        G = _gram(spec, draws, slopes)
        Z = draws[:, spec.m * spec.d :]
        singular = None
        with _BLAS_LOCK:  # the rescue's det and solve run under the same hold
            try:
                sol = np.linalg.solve(G, Z[..., None])[..., 0]
            except np.linalg.LinAlgError:
                singular = np.linalg.det(G) == 0.0
                G[singular] = np.eye(spec.d)
                sol = np.linalg.solve(G, Z[..., None])[..., 0]
        stats = np.einsum("nd,nd->n", Z, sol) / joint_constant(spec.d, spec.m)
        if singular is not None:
            stats[singular] = np.nan  # rescued below
        for j in np.nonzero(~np.isfinite(stats))[0]:
            if rescues[i] is None:
                rescues[i] = derive_stream(base_seed, _RESCUE_OFFSET + chunk_index)
            stats[j] = simulate_limit_draw(spec, rescues[i])
        sink(stats)


def det_sqrt_draws(spec: LimitDrawSpec, gen: np.random.Generator, reps: int) -> np.ndarray:
    """det(g)^{1/2} of reps skeleton draws of m*d normals each from gen, 0
    where det(g) <= 0: the determinant pass of a volume factor, one
    reader's walk of gen's stream."""
    dets = np.empty(reps)
    done = 0
    for _, draws in _walk(gen, [spec.m * spec.d], [reps]):
        G = _gram(spec, draws, None)
        with _BLAS_LOCK:
            sign, logdet = np.linalg.slogdet(G)
        dets[done : done + len(G)] = np.where(sign > 0, np.exp(0.5 * logdet), 0.0)
        done += len(G)
    return dets


class _Tail:
    """The keep largest of one spec's statistics, added a window at a time by
    its chunk tasks.

    add keeps the values at or above the floor, which is -inf until more
    than 2 * keep values are held and then, under the lock, cuts them to
    the keep largest and rises to the least of them, the keep-th largest
    value so far; a value equal to the floor is kept, so ties stay. Which
    values are the keep largest does not depend on the order of the adds.
    """

    def __init__(self, keep: int):
        self.keep, self.floor = keep, -math.inf
        self._held, self._count = [], 0
        self._lock = threading.Lock()

    def add(self, values: np.ndarray) -> None:
        kept = values[values >= self.floor]  # a floor read before it rises keeps more
        with self._lock:
            self._held.append(kept)
            self._count += len(kept)
            if self._count > 2 * self.keep:
                held = np.concatenate(self._held)
                cut = len(held) - self.keep
                held.partition(cut)
                self._held, self._count = [held[cut:].copy()], self.keep
                self.floor = float(self._held[0][0])

    def sorted(self) -> np.ndarray:
        """The keep largest values, ascending."""
        return np.sort(np.concatenate(self._held))[-self.keep :]


class QuantileCache:
    """Persistent store of calibrated quantiles, one JSON record per key.

    Keys carry KERNEL_ROUTE, so a record made by another draw route (or
    stored before routes were versioned) is a miss, recomputed and stored
    under the current route; such records are dropped on load. A write
    holds an exclusive lock on ``path + ".lock"``, merges the records other
    processes have stored since this one loaded, and goes through a private
    temporary file and an atomic rename, so concurrent writers keep each
    other's records and a crashed run never leaves a truncated cache behind.
    A current-route record that is not an object of the fields put stores,
    each a finite number but the weights_key string, is refused by name on
    load.
    """

    _PREFIX = f"route={KERNEL_ROUTE}|"
    _KEY = ("d", "m", "weights_key", "delta", "reps", "base_seed")  # ScalingQuantile.key
    _VALUE = ("alpha_hat", "ci_low", "ci_high")

    def __init__(self, path):
        self.path = str(path)
        self._records = self._load()

    def _load(self) -> dict:
        if not os.path.exists(self.path):
            return {}
        with open(self.path, "r", encoding="utf-8") as fh:
            records = json.load(fh)
        if not isinstance(records, dict):
            raise ValueError(f"quantile cache {self.path} does not hold a JSON object")
        current = {k: v for k, v in records.items() if k.startswith(self._PREFIX)}
        fields = self._KEY + self._VALUE
        for k, rec in current.items():
            if not (isinstance(rec, dict) and rec.keys() >= set(fields)
                    and isinstance(rec["weights_key"], str)
                    and all(type(v) is int or type(v) is float and math.isfinite(v)
                            for v in (rec[f] for f in fields if f != "weights_key"))):
                raise ValueError(f"quantile cache {self.path} holds a malformed record {k!r}: "
                                 f"it needs {', '.join(fields)}, each a finite number but "
                                 "the weights_key string")
        return current

    @staticmethod
    def _key_str(key: tuple) -> str:
        d, m, wkey, delta, reps, seed = key
        return (f"{QuantileCache._PREFIX}d={d}|m={m}|w={wkey}|delta={delta!r}"
                f"|reps={reps}|seed={seed}")

    def get(self, key: tuple) -> Optional[ScalingQuantile]:
        rec = self._records.get(self._key_str(key))
        if rec is None:
            return None
        return ScalingQuantile(**{f: rec[f] for f in self._VALUE}, delta=rec["delta"],
                               reps=rec["reps"], key=key)

    def put(self, sq: ScalingQuantile) -> None:
        self._records[self._key_str(sq.key)] = {
            **dict(zip(self._KEY, sq.key)), **{f: getattr(sq, f) for f in self._VALUE}}
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
    threads: Optional[int] = None,
) -> ScalingQuantile:
    """Empirical (1-delta)-quantile of the limiting statistic.

    What submit_alpha's finisher gives for [spec], with the chunks run on a
    pool of `threads` workers (None: every usable CPU); no result depends
    on it.
    """
    with ThreadPoolExecutor(max_workers=_worker_count(threads)) as pool:
        (finish,) = submit_alpha(pool, [spec], delta, reps, base_seed, cache)
        return finish()


def submit_alpha(pool, specs, delta: float, reps: int, base_seed: int,
                 cache: Optional[QuantileCache] = None) -> list:
    """Start the calibration of each spec on pool; returns one finisher per
    spec, each giving that spec's ScalingQuantile.

    The arguments are checked, and each narrow spec's heavy tail warned of
    once, before any stream is derived or drawn. A cache hit submits
    nothing for its spec, and a repeated spec is calibrated once. Chunk k
    of a miss draws from stream (base_seed, k), so the misses' chunk k are
    one task, submitted in order of k (each with no more normals than the
    last), that draws the stream once for all of them (_eval_chunk). A
    finisher takes the order statistic of rank ceil((1-delta)*reps) over
    its spec's reps draws, with a 95% binomial order-statistic confidence
    interval, and stores it in the cache under the exact (d, m, weight
    digest, delta, reps, base_seed) key. Each is what a call for that spec
    alone gives. The ranks are fixed here (_ranks), so each miss holds only
    its statistics from the interval's lowest rank lo up, reps - lo + 1 of
    them, in a _Tail its chunks add to, until its finisher runs.
    """
    check_delta(delta)
    check_reps(reps)
    keys = [(spec.d, spec.m, weights_key(spec.w), float(delta), int(reps), int(base_seed))
            for spec in specs]
    ranks = _ranks(float(delta), int(reps))
    hits, misses = {}, {}  # key -> ScalingQuantile; key -> (spec, tail, chunk)
    for spec, key in zip(specs, keys):
        if key in hits or key in misses:
            continue
        if spec.m - spec.d < HEAVY_TAIL_GAP:
            _warn_at_caller(
                f"m - d = {spec.m - spec.d} < {HEAVY_TAIL_GAP}: the limiting "
                "statistic is heavy-tailed and the quantile estimate will be noisy"
            )
        hit = cache.get(key) if cache is not None else None
        if hit is None:
            misses[key] = (spec, _Tail(reps - ranks[1] + 1), _chunk_size(spec))
        else:
            hits[key] = hit
    n_streams = max((-(-reps // chunk) for _, _, chunk in misses.values()), default=0)
    tasks = []
    for k, gen in enumerate(derive_streams(base_seed, [(k,) for k in range(n_streams)])):
        cells = [(spec, min(chunk, reps - k * chunk), tail.add)
                 for spec, tail, chunk in misses.values() if k * chunk < reps]
        tasks.append(pool.submit(_eval_chunk, cells, k, base_seed, gen))
    finishers = {key: (lambda hit=hit: hit) for key, hit in hits.items()}
    finishers.update(
        (key, partial(_order_statistic, key, ranks, tail, cache, tasks[: -(-reps // chunk)]))
        for key, (_, tail, chunk) in misses.items())
    return [finishers[key] for key in keys]


def _ranks(delta: float, reps: int) -> tuple:
    """(k, lo, hi): the rank ceil((1-delta)*reps) of the quantile among reps
    ascending statistics, and the ranks of its 95% binomial order-statistic
    confidence interval, lo <= k <= hi."""
    p = 1.0 - delta
    k = int(np.ceil(p * reps))
    lo = min(max(_binom_ppf(0.025, reps, p), 1), k)
    hi = max(min(_binom_ppf(0.975, reps, p) + 1, reps), k)
    return k, lo, hi


def _order_statistic(key: tuple, ranks: tuple, tail: _Tail, cache: Optional[QuantileCache],
                     tasks) -> ScalingQuantile:
    """The ScalingQuantile of key at ranks (_ranks), stored in cache, once
    tasks have added every statistic to tail: only the tail, the statistics
    of rank lo and up, is sorted, and rank r is read at index r - lo."""
    for task in tasks:
        task.result()
    k, lo, hi = ranks
    top = tail.sorted()
    sq = ScalingQuantile(alpha_hat=float(top[k - lo]), ci_low=float(top[0]),
                         ci_high=float(top[hi - lo]), delta=key[3], reps=key[4], key=key)
    if cache is not None:
        cache.put(sq)
    return sq


def _warn_at_caller(message: str) -> None:
    """UserWarning at the first frame outside this package, however deep the
    call chain into it (Python 3.12's skip_file_prefixes, by hand)."""
    level, frame = 1, sys._getframe()
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        level, frame = level + 1, frame.f_back
    warnings.warn(message, UserWarning, stacklevel=level)


def exact_quantile(spec: LimitDrawSpec, delta: float) -> ScalingQuantile:
    """The exact F(d, m-d) quantile of an evenly weighted spec.

    Only equal weights make the limit law an F law, so any other spec
    raises ValueError, as does a delta outside (0, 1). reps = 0 in the key
    marks a quantile that is exact, not Monte Carlo.
    """
    check_delta(delta)
    if any(x != spec.w[0] for x in spec.w):
        raise ValueError("the exact F quantile needs equal weights")
    alpha = f_quantile(spec.d, spec.m - spec.d, 1.0 - delta)
    return ScalingQuantile(alpha_hat=alpha, ci_low=alpha, ci_high=alpha, delta=delta, reps=0,
                           key=(spec.d, spec.m, weights_key(spec.w), float(delta), 0, -1))


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
    the bracket is bisected to an absolute tolerance of 1e-8, or until no
    double lies strictly inside it, as happens above 2**26, where adjacent
    doubles are more than 1e-8 apart. A quantile above 1e18 raises
    ValueError.
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
            raise ValueError(f"the F(d1={d1}, d2={d2}) quantile at p={p} exceeds 1e18")
    while hi - lo > _F_TOL and lo < (mid := 0.5 * (lo + hi)) < hi:
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
