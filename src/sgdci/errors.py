"""Exception taxonomy shared across the package."""


class SgdciError(Exception):
    """Base class for every domain error raised by this package."""


class DimensionMismatch(SgdciError):
    """Vector or matrix arguments disagree in dimension."""


class NotPositiveDefinite(SgdciError):
    """A pivot of the Cholesky factorization was <= 1e-12 times the largest
    diagonal entry, or that entry was not finite and positive."""


class BatchTooSmall(SgdciError, ValueError):
    """A planned batch would contain no iterates: T < m (batching.check_batch_count).

    A ValueError as well, like every other argument rule of the package."""


class FeedCountMismatch(SgdciError):
    """An accumulator received a different number of iterates than planned."""


class BatchCountTooSmall(SgdciError, ValueError):
    """Too few batches: m < 2 for any batch-means statistic
    (batching.check_batch_count), or m <= d for a joint one, where the
    batch-means covariance is degenerate with probability one
    (batching.check_joint).

    A ValueError as well, like every other argument rule of the package."""


class DegenerateCovariance(SgdciError):
    """The batch-means covariance matrix is numerically rank deficient."""


class DegenerateDraw(SgdciError):
    """A simulated limiting draw produced a singular shape matrix twice."""


class OracleDimensionMismatch(SgdciError):
    """A gradient oracle returned a vector of the wrong length."""


class NonFiniteIterate(SgdciError):
    """An SGD iterate left the finite range; carries the step index.

    replication names the diverged chain of a replicated run (the lowest
    index if several left the range at step t) and is None for a single run.
    """

    def __init__(self, t: int, message: str | None = None, *,
                 replication: int | None = None):
        self.t = t
        self.replication = replication
        where = "" if replication is None else f" in replication {replication}"
        super().__init__(message or f"iterate became non-finite at step t={t}{where}")


class KeyMismatch(SgdciError):
    """A calibrated quantile was produced for a different (d, m, weights)."""


class ExcessDegeneracy(SgdciError):
    """More than one percent of replications produced degenerate covariances."""


class ParseError(SgdciError):
    """A data file could not be parsed; message carries row/column context."""


class LabelDomainError(SgdciError):
    """A logistic response outside {-1, +1}."""


class ExhaustedData(SgdciError):
    """A replayed sample sequence ran out before the run finished."""
