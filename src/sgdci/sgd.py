"""Averaged stochastic gradient descent driver.

Runs the recursion X_t = X_{t-1} - gamma_t * G(X_{t-1}, zeta_t) with step
sizes gamma_t = a * t^{-r} and streams the post-burn-in iterates to an
observer, so a run of any length needs O(d) memory on top of the observer's
own state. The step index t is global: burn-in iterations advance the
schedule, their iterates are simply not delivered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteIterate, OracleDimensionMismatch
from .streams import RandomStream

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
    """Source of unbiased stochastic gradients.

    ``next_gradient(x, stream)`` must return a length-``dim`` vector whose
    conditional mean given x is the true gradient of the target loss. Noise
    moment conditions are the caller's responsibility and are not checked.
    """

    dim: int
    next_gradient: Callable[[np.ndarray, RandomStream], np.ndarray]


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


def run_sgd(
    oracle: GradientOracle,
    config: SgdRunConfig,
    stream: RandomStream,
    observer: Optional[Callable[[np.ndarray], None]] = None,
) -> np.ndarray:
    """Run burn_in + T steps, delivering the last T iterates to observer.

    Returns the final iterate. A NaN or infinite coordinate aborts the run
    with NonFiniteIterate carrying the offending global step index.
    """
    d = oracle.dim
    if config.x0 is None:
        x = np.zeros(d)
    else:
        x = np.asarray(config.x0, dtype=float)
        if x.shape != (d,):
            raise OracleDimensionMismatch(
                f"x0 has shape {x.shape}, oracle dimension is {d}"
            )
        x = x.copy()
    a, r = config.schedule.a, config.schedule.r
    burn = config.burn_in
    # A diverging run overflows on its way to NonFiniteIterate, which is
    # the one signal it gives; numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, burn + config.T + 1):
            g = np.asarray(oracle.next_gradient(x, stream), dtype=float)
            if g.shape != (d,):
                raise OracleDimensionMismatch(
                    f"oracle returned shape {g.shape}, expected ({d},)"
                )
            x = x - (a * t ** (-r)) * g
            if not np.all(np.isfinite(x)):
                raise NonFiniteIterate(t)
            if observer is not None and t > burn:
                observer(x)
    return x
