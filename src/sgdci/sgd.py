"""Averaged stochastic gradient descent driver.

Runs the recursion X_t = X_{t-1} - gamma_t * G(X_{t-1}, zeta_t) with step
sizes gamma_t = a * t^{-r} for R independent chains at once, on (R, d)
arrays, and accumulates the post-burn-in iterates into batch sums. The step
index t is global: burn-in iterations advance the schedule, their iterates
are simply not averaged. `run_chains` is the one stepping loop; a single run
(`single_run`, `run_sgd`) is its R = 1 case, so a serial run and one chain
of a replicated study agree, and fail the same way, by construction. One
call batches the same iterates under several plans at once: each plan keeps
its own batch sums, added in step order, so its batch means are those of a
separate run, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteIterate, OracleDimensionMismatch

DEFAULT_A = 0.5
DEFAULT_R = 2.0 / 3.0


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

    ``draw(gen, n)`` returns one chain's inputs for its next n steps, shape
    (n, k), from that chain's generator; one call for n steps must return
    what n calls for one step would. ``gradient(X, inputs)`` maps iterates
    (R, d) and one step's inputs (R, k) to gradients (R, d), and must be a
    pure function of its arguments. The conditional mean of a gradient
    given x must be the true gradient of the target loss; noise moment
    conditions are the caller's responsibility and are not checked.
    """

    dim: int
    draw: Callable[[np.random.Generator, int], np.ndarray]
    gradient: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def next_gradient(self, x, gen: np.random.Generator) -> np.ndarray:
        """One step's gradient at x, shape (dim,), drawing from gen."""
        return self.gradient(np.asarray(x, dtype=float)[None], self.draw(gen, 1))[0]


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
               observer: Optional[Callable[[np.ndarray], None]] = None) -> list:
    """Advance len(gens) independent chains and return their batch means.

    plans is a sequence of integer boundary arrays, each
    0 = tau_0 < ... < tau_m = config.T; returns one (xi, xbar) per plan,
    with xi of shape (m, R, d) and xbar of shape (R, d). Every chain starts
    at config.x0 (zero if None); chain j draws its inputs from gens[j] in
    blocks. observer, if given, receives the (R, d) iterates of every step
    after burn-in. A chain that leaves the finite range raises
    NonFiniteIterate with its global step index and its index (the lowest,
    if several leave at that step) as the replication. The check runs once
    per block, so observer may have received the iterates of the block in
    which a chain diverged.
    """
    R, d = len(gens), oracle.dim
    T, burn = config.T, config.burn_in
    bounds = [np.asarray(b, dtype=np.int64) for b in plans]
    if any(b[0] != 0 or b[-1] != T for b in bounds):
        raise ValueError(f"batch boundaries must run from 0 to T={T}")
    x0 = np.zeros(d) if config.x0 is None else np.asarray(config.x0, dtype=float)
    if x0.shape != (d,):
        raise OracleDimensionMismatch(f"x0 has shape {x0.shape}, oracle dimension is {d}")
    x = np.tile(x0, (R, 1))
    # per plan: its batch sums and the batch index of each post-burn-in step
    batched = [(np.zeros((len(b) - 1, R, d)),
                np.searchsorted(b, np.arange(T), side="right") - 1) for b in bounds]
    total = burn + T
    chunk = max(64, min(4096, (1 << 21) // max(1, R * (d + 1))))
    inputs = None  # (chunk, R, k), allocated once the first block shows k
    a_sched, r_sched = config.schedule.a, config.schedule.r

    def advance(x, step_inputs, tt):
        g = oracle.gradient(x, step_inputs)
        if g.shape != x.shape:
            raise OracleDimensionMismatch(f"oracle returned shape {g.shape}, expected {x.shape}")
        return x - (a_sched * tt ** (-r_sched)) * g

    # Overflow on the way to NonFiniteIterate is expected; the exception is
    # the one signal a diverging chain gives.
    with np.errstate(over="ignore", invalid="ignore"):
        t = 0
        while t < total:
            c = min(chunk, total - t)
            for j, gen in enumerate(gens):
                block = oracle.draw(gen, c)
                if inputs is None:
                    inputs = np.empty((chunk, R) + block.shape[1:])
                inputs[:c, j] = block
            x_start = x
            for s in range(c):
                tt = t + s + 1
                x = advance(x, inputs[s], tt)
                k = tt - burn - 1
                if k >= 0:
                    for plan_sums, step_batch in batched:
                        plan_sums[step_batch[k]] += x
                    if observer is not None:
                        observer(x)
            if not np.isfinite(x).all():
                # A non-finite coordinate never turns finite again, so one check
                # per block sees every divergence; replay the block to find it.
                x = x_start
                for s in range(c):
                    x = advance(x, inputs[s], t + s + 1)
                    bad = ~np.isfinite(x).all(axis=1)
                    if bad.any():
                        raise NonFiniteIterate(t + s + 1, replication=int(np.argmax(bad)))
            t += c
    return [(plan_sums / np.diff(b).astype(float)[:, None, None],
             plan_sums.sum(axis=0) / float(T))
            for (plan_sums, _), b in zip(batched, bounds)]


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
