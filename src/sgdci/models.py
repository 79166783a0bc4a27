"""Synthetic data models, gradient oracles, and CSV replay.

Two families: least squares with Gaussian noise, and logistic regression
with labels in {-1, +1}. `linear_gradient` and `logistic_gradient` are the
package's only gradient formulas; they work row by row, so the driver
applies them to every chain of a step at once. Covariates are standard
normal in both synthetic models. Each synthetic oracle draws exactly d + 1
standard normal variates per step (d for the covariate vector, one for the
response channel) and maps them to (a, b); the logistic label turns its
normal variate into a uniform through the normal CDF. A CSV dataset is
replayed from an (n, d + 1) array of rows (a, b), one row per step.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr

from .errors import ExhaustedData, LabelDomainError, ParseError
from .sgd import GradientOracle


@dataclass(frozen=True)
class TrueParams:
    x_star: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.x_star, dtype=float)
        if not np.all(np.isfinite(xs)):
            raise ValueError("true parameters must be finite")
        object.__setattr__(self, "x_star", xs)

    @property
    def d(self) -> int:
        return self.x_star.shape[0]


def linspace_params(d: int) -> TrueParams:
    """d coordinates linearly spaced over [0, 1]; the midpoint when d = 1."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d == 1:
        return TrueParams(np.array([0.5]))
    return TrueParams(np.linspace(0.0, 1.0, d))


def linear_gradient(x: np.ndarray, a: np.ndarray, b) -> np.ndarray:
    """Gradient of (b - x^T a)^2 at x, row by row over leading axes."""
    coef = -2.0 * (b - np.einsum("...d,...d->...", a, x))
    return coef[..., None] * a


def logistic_gradient(x: np.ndarray, a: np.ndarray, b) -> np.ndarray:
    """Gradient of log(1 + exp(-b x^T a)) at x, row by row over leading axes."""
    coef = -b * expit(-b * np.einsum("...d,...d->...", a, x))
    return coef[..., None] * a


def linear_oracle(params: TrueParams) -> GradientOracle:
    """Draws a ~ N(0, I_d), b = x*^T a + eps with eps ~ N(0, 1)."""
    xs, d = params.x_star, params.d

    def gradient(x, z):
        a = z[:, :d]
        return linear_gradient(x, a, a @ xs + z[:, d])

    return GradientOracle(dim=d, draw=lambda gen, n: gen.standard_normal((n, d + 1)),
                          gradient=gradient)


def logistic_oracle(params: TrueParams) -> GradientOracle:
    """Draws a ~ N(0, I_d); b = +1 with probability (1 + exp(-x*^T a))^{-1}."""
    xs, d = params.x_star, params.d

    def gradient(x, z):
        a = z[:, :d]
        b = np.where(ndtr(z[:, d]) < expit(a @ xs), 1.0, -1.0)
        return logistic_gradient(x, a, b)

    return GradientOracle(dim=d, draw=lambda gen, n: gen.standard_normal((n, d + 1)),
                          gradient=gradient)


ORACLES = {"linear": linear_oracle, "logistic": logistic_oracle}


def _replay_oracle(rows: np.ndarray, model_kind: str) -> GradientOracle:
    d = rows.shape[1] - 1
    grad = linear_gradient if model_kind == "linear" else logistic_gradient
    cursor = [0]

    def draw(gen, n):
        i = cursor[0]
        if i + n > len(rows):
            raise ExhaustedData(
                f"data provides {len(rows)} rows; the run requested more"
            )
        cursor[0] = i + n
        return rows[i:i + n]

    def gradient(x, rows_t):
        return grad(x, rows_t[:, :d], rows_t[:, d])

    return GradientOracle(dim=d, draw=draw, gradient=gradient)


def ingest_csv(path, model_kind: str):
    """Read a header + numeric rows file into an array and a replay oracle.

    The header must be a_1,...,a_d,b. Each row becomes one SGD step, in file
    order. Logistic responses must be -1 or +1. Returns (rows, oracle) with
    rows of shape (n, d + 1); the oracle raises ExhaustedData when asked for
    more rows than the file holds.
    """
    if model_kind not in ("linear", "logistic"):
        raise ValueError(f"model_kind must be 'linear' or 'logistic', got {model_kind!r}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        d = len(header) - 1
        expected = [f"a_{k}" for k in range(1, d + 1)] + ["b"]
        if d < 1 or header != expected:
            raise ParseError(
                f"{path}: header must be a_1,...,a_d,b; got {','.join(header)}"
            )
        data = array("d")  # row-major values, 8 bytes each
        for row_num, row in enumerate(reader, start=1):
            if len(row) != d + 1:
                raise ParseError(
                    f"{path}: row {row_num} has {len(row)} fields, expected {d + 1}"
                )
            for col, cell in enumerate(row):
                try:
                    data.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: row {row_num}, column {col + 1}: "
                        f"could not parse {cell!r} as a number"
                    ) from None
            if model_kind == "logistic" and data[-1] not in (-1.0, 1.0):
                raise LabelDomainError(
                    f"{path}: row {row_num}: logistic response must be -1 or +1, got {data[-1]}"
                )
    if not data:
        raise ParseError(f"{path}: no data rows")
    rows = np.frombuffer(data).reshape(-1, d + 1)
    return rows, _replay_oracle(rows, model_kind)
