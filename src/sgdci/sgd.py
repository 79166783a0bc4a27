"""Averaged stochastic gradient descent driver.

Runs the recursion X_t = X_{t-1} - gamma_t * G(X_{t-1}, zeta_t) with step
sizes gamma_t = a * t^{-r} for R independent chains at once, on (R, d)
arrays, and accumulates the post-burn-in iterates into batch sums. The step
index t is global: burn-in iterations advance the schedule, their iterates
are simply not averaged. `run_chains` is the one stepping loop; a single run
(`single_run`, `run_sgd`) is its R = 1 case, so a serial run and one chain
of a replicated study agree, and fail the same way, by construction;
`replicate` steps a study's replications through it in groups. One call
batches the same iterates under several plans at once: each plan keeps its
own batch sums, added in step order, so its batch means are those of a
separate run, bit for bit. Inputs are rows (a, b) in a chain-major block,
(R, depth, d + 1): each chain draws in place into its own contiguous slice,
and step s reads row s of every chain. Each block is drawn and prepared in
full before the first of its steps, over contiguous ranges of chains on a
pool made for the call; every chain draws its own stream in order, so the
thread count changes no bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteIterate, OracleDimensionMismatch
from .streams import _worker_count, derive_streams

DEFAULT_A = 0.5
DEFAULT_R = 2.0 / 3.0
# run_chains' input-block budget in doubles (4 MB), depth floor in steps, and prepare slice rows
_BLOCK_DOUBLES = 1 << 19
_MIN_DEPTH = 64
_SLICE_ROWS = 4096


@dataclass(frozen=True)
class StepSchedule:
    """gamma_t = a * t^{-r} with a > 0 and r in the open interval (1/2, 1)."""

    a: float = DEFAULT_A
    r: float = DEFAULT_R

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"step scale a must be positive, got {self.a}")
        if not 0.5 < self.r < 1.0:
            raise ValueError(f"step exponent r must lie in (0.5, 1), got {self.r}")


@dataclass
class GradientOracle:
    """Source of unbiased stochastic gradients, batched over chains.

    Inputs are rows (a, b), a the first d of d + 1 columns. ``draw(gen,
    out)`` fills one chain's next n rows into out, C-contiguous (n, d + 1),
    from that chain's generator; one call for n rows must write what n
    calls for one row would. run_chains may call draw for different chains
    at the same time, so draw may touch only its own gen and out. The
    optional ``prepare(block)`` turns drawn rows (chains, n, d + 1), in
    place, into the rows gradient reads, say normals into (a, b); it runs
    once per block and slice of chains, never per step, and must treat
    every row alone. ``gradient(X, a, b)`` maps iterates (R, d) and one
    step's rows, a (R, d) and b (R,), to gradients (R, d), and must be a
    pure function of its arguments. The conditional mean of a gradient
    given x must be the true gradient of the target loss; noise moment
    conditions are the caller's responsibility and are not checked.
    """

    dim: int
    draw: Callable[[np.random.Generator, np.ndarray], None]
    gradient: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    prepare: Optional[Callable[[np.ndarray], None]] = None

    def next_gradient(self, x, gen: np.random.Generator) -> np.ndarray:
        """One step's gradient at x, shape (dim,), drawing from gen."""
        z = np.empty((1, 1, self.dim + 1))
        self.draw(gen, z[0])
        if self.prepare is not None:
            self.prepare(z)
        return self.gradient(np.asarray(x, dtype=float)[None], z[0, :, :-1], z[0, :, -1])[0]


@dataclass
class SgdRunConfig:
    T: int
    burn_in: int = 0
    x0: Optional[np.ndarray] = None
    schedule: StepSchedule = field(default_factory=StepSchedule)

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")


def run_chains(oracle: GradientOracle, config: SgdRunConfig, gens, plans,
               observer: Optional[Callable[[np.ndarray], None]] = None,
               threads: Optional[int] = None) -> list:
    """Advance len(gens) independent chains and return their batch means.

    plans is a sequence of integer boundary arrays, each
    0 = tau_0 < ... < tau_m = config.T; returns one (xi, xbar) per plan,
    with xi of shape (m, R, d) and xbar of shape (R, d). Every chain starts
    at config.x0 (zero if None); chain j draws from gens[j], at least one,
    in blocks of up to 4096 steps, into its contiguous slice of one
    chain-major (R, depth, d + 1) block of at most _BLOCK_DOUBLES (2^19)
    doubles, 4 MB, unless _MIN_DEPTH (64) steps of all chains exceed that. A block is
    drawn and prepared in full before its first step: the chains split into
    min(threads, R) contiguous ranges (threads None: every usable CPU), the
    calling thread filling the first and a pool made for the call the rest,
    each range prepared in slices of at most _SLICE_ROWS rows or one chain;
    at R = 1 everything runs inline.
    If draw or prepare raises, run_chains raises the exception of the
    lowest failing range once every range has stopped. observer, if given,
    receives the (R, d) iterates of every step after burn-in. A chain that
    leaves the finite range raises NonFiniteIterate with its global step
    index and its index (the lowest, if several leave at that step) as the
    replication. The check runs once per block, so observer may have
    received the iterates of the block in which a chain diverged.
    """
    R, d = len(gens), oracle.dim
    if R == 0:
        raise ValueError("run_chains needs at least one generator")
    T, burn = config.T, config.burn_in
    bounds = [np.asarray(b, dtype=np.int64) for b in plans]
    if any(b[0] != 0 or b[-1] != T for b in bounds):
        raise ValueError(f"batch boundaries must run from 0 to T={T}")
    x0 = np.zeros(d) if config.x0 is None else np.asarray(config.x0, dtype=float)
    if x0.shape != (d,):
        raise OracleDimensionMismatch(f"x0 has shape {x0.shape}, oracle dimension is {d}")
    x = np.tile(x0, (R, 1))
    # per plan: batch sums, and a view of the row step k adds to, taken where a batch opens
    sums = [np.zeros((len(b) - 1, R, d)) for b in bounds]
    opens = set().union(*(b[:-1].tolist() for b in bounds))
    total = burn + T
    depth = min(total, max(_MIN_DEPTH, min(4096, _BLOCK_DOUBLES // (R * (d + 1)))))
    block = np.empty((R, depth, d + 1))
    a_sched, r_sched = config.schedule.a, config.schedule.r
    workers = min(_worker_count(threads), R)
    edges = [R * i // workers for i in range(workers + 1)]
    ranges = list(zip(edges[:-1], edges[1:]))

    def fill(lo, hi, c):
        # chains lo..hi-1 of one block of c steps, then prepared slice by slice
        for j in range(lo, hi):
            oracle.draw(gens[j], block[j, :c])
        if oracle.prepare is not None:
            step = max(1, _SLICE_ROWS // c)
            for i in range(lo, hi, step):
                oracle.prepare(block[i:min(hi, i + step), :c])

    # Overflow on the way to NonFiniteIterate is expected; the exception is
    # the one signal a diverging chain gives. The pool starts no thread at
    # R = 1, and its exit waits for every range still filling.
    with np.errstate(over="ignore", invalid="ignore"), \
            ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        t = 0
        while t < total:
            c = min(depth, total - t)
            pending = [pool.submit(fill, lo, hi, c) for lo, hi in ranges[1:]]
            fill(*ranges[0], c)
            for f in pending:
                f.result()
            # per step: its size, and every chain's row a and response b
            gammas = [a_sched * tt ** (-r_sched) for tt in range(t + 1, t + c + 1)]
            A, B = block[:, :c, :d].swapaxes(0, 1), block[:, :c, d].T
            x_start = x
            for s, (gamma, a, b) in enumerate(zip(gammas, A, B)):
                g = oracle.gradient(x, a, b)
                if s == 0 and g.shape != x.shape:
                    raise OracleDimensionMismatch(
                        f"oracle returned shape {g.shape}, expected {x.shape}")
                x = x - gamma * g
                k = t + s - burn
                if k >= 0:
                    if k in opens:
                        views = [p[np.searchsorted(bd, k, side="right") - 1]
                                 for p, bd in zip(sums, bounds)]
                    for v in views:
                        v += x
                    if observer is not None:
                        observer(x)
            if not np.isfinite(x).all():
                # A non-finite coordinate never turns finite again, so one check
                # per block sees every divergence; replay the block to find it.
                x = x_start
                for s, (gamma, a, b) in enumerate(zip(gammas, A, B)):
                    x = x - gamma * oracle.gradient(x, a, b)
                    bad = ~np.isfinite(x).all(axis=1)
                    if bad.any():
                        raise NonFiniteIterate(t + s + 1, replication=int(np.argmax(bad)))
            t += c
    return [(p / np.diff(b).astype(float)[:, None, None], p.sum(axis=0) / float(T))
            for p, b in zip(sums, bounds)]


def _replication_group(chains: int, d: int) -> int:
    """Replications per group of a replicated pass, `chains` chains each:
    isqrt(_BLOCK_DOUBLES) chains (724), and no more than fit run_chains'
    depth floor in its chain-major block, _BLOCK_DOUBLES // (_MIN_DEPTH *
    (d + 1)) (390 at d = 20), rounded down to whole replications, at least one.

    A smaller group steps more often in Python for the same chains; a larger
    one makes run_chains' block shallower, so each chain draws more often.
    In a sweep of the sectioning pass at d = 2 (BENCH_14.json), the pass time
    at the 2^19 block was flat from about 500 to 1,500 chains and higher at
    250 and from 2,730 up; the square root of the block sits near the low end
    of that range, so few generators are alive at once. Each chain draws its
    own stream in order whatever the group, so no result depends on it.
    """
    group = min(math.isqrt(_BLOCK_DOUBLES), _BLOCK_DOUBLES // (_MIN_DEPTH * (d + 1)))
    return max(1, group // chains)


def replicate(oracle: GradientOracle, config: SgdRunConfig, plans, R: int, base_seed: int,
              sections: Optional[int] = None, threads: Optional[int] = None) -> list:
    """Step R replications once; run_chains' (xi, xbar) for each boundary
    array in plans, every chain in replication order along axis -2 of both.

    Replication r is one chain on stream (base_seed, r), or `sections`
    chains, chain j on (base_seed, r, j). Each group of _replication_group
    whole replications derives its streams in one call and steps them in
    one run_chains pass, inputs filled on `threads` workers; its generators
    die with the pass. A divergence raises after every group has run, with
    the earliest step and, at that step, the lowest replication, as one
    pass over all would.
    """
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    tails = [()] if sections is None else [(j,) for j in range(sections)]
    group = _replication_group(len(tails), oracle.dim)
    parts, failures = [], []
    for first in range(0, R, group):
        paths = [(r, *tail) for r in range(first, min(R, first + group)) for tail in tails]
        try:
            parts.append(run_chains(oracle, config, derive_streams(base_seed, paths), plans,
                                    threads=threads))
        except NonFiniteIterate as e:
            failures.append((e.t, first + e.replication // len(tails)))
    if failures:
        t, rep = min(failures)
        raise NonFiniteIterate(t, replication=rep)
    return [tuple(np.concatenate(a, axis=-2) for a in zip(*plan)) for plan in zip(*parts)]


def single_run(oracle: GradientOracle, config: SgdRunConfig, gen: np.random.Generator,
               boundaries, observer: Optional[Callable[[np.ndarray], None]] = None):
    """run_chains on one generator: xi (m, d) and xbar (d,); a divergence
    raises NonFiniteIterate with replication None."""
    try:
        ((xi, xbar),) = run_chains(oracle, config, [gen], [boundaries], observer)
    except NonFiniteIterate as e:
        raise NonFiniteIterate(e.t) from None
    return xi[:, 0], xbar[0]


def run_sgd(oracle: GradientOracle, config: SgdRunConfig, gen: np.random.Generator,
            observer: Optional[Callable[[np.ndarray], None]] = None) -> np.ndarray:
    """Run burn_in + T steps, delivering the last T iterates to observer.

    Returns the final iterate. A NaN or infinite coordinate aborts the run
    with NonFiniteIterate carrying the offending global step index; the
    observer may already have received the iterates of the block of steps
    in which the run diverged.
    """
    last = [None]

    def see(x):
        last[0] = x[0]
        if observer is not None:
            observer(x[0])

    single_run(oracle, config, gen, [0, config.T], see)
    return last[0]
