"""Synthetic data models, gradient oracles, and CSV replay.

Two families: least squares with Gaussian noise, and logistic regression
with labels in {-1, +1}. `linear_gradient` and `logistic_gradient` are the
package's only gradient formulas, and each is an oracle's gradient as it
stands: gradient(x, a, b) works row by row, so the driver applies it to
every chain of a step at once. Every oracle, synthetic or replayed, fills
rows (a, b), a in the first d columns and the response b in the last, into
the slice of the driver's block that draw(gen, out) is handed. Covariates
are standard normal in both synthetic models. Each synthetic oracle draws
exactly d + 1 standard normal variates per step (d for the covariate
vector, one for the response channel) straight into out, and its block
hook turns a slice of (chains, steps) rows into rows (a, b) in place, so
the response x*^T a is computed once per block, not once per step; the
logistic label turns its normal variate into a uniform through the normal
CDF. A CSV dataset is replayed from an (n, d + 1) array of rows (a, b), one
row per step, to one chain.
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


def _draw_normals(gen: np.random.Generator, out: np.ndarray) -> None:
    # the same normals, in the same order, as gen.standard_normal(out.shape)
    gen.standard_normal(out=out)


def linear_oracle(params: TrueParams) -> GradientOracle:
    """Draws a ~ N(0, I_d), b = x*^T a + eps with eps ~ N(0, 1)."""
    xs, d = params.x_star, params.d

    def prepare(z):
        # einsum, not a @ xs: a BLAS product changes a row's last bits with
        # the number of rows, and one chain must equal its single run
        z[..., d] += np.einsum("...d,d->...", z[..., :d], xs)

    return GradientOracle(dim=d, draw=_draw_normals, gradient=linear_gradient, prepare=prepare)


def logistic_oracle(params: TrueParams) -> GradientOracle:
    """Draws a ~ N(0, I_d); b = +1 with probability (1 + exp(-x*^T a))^{-1}."""
    xs, d = params.x_star, params.d

    def prepare(z):
        z[..., d] = np.where(
            ndtr(z[..., d]) < expit(np.einsum("...d,d->...", z[..., :d], xs)), 1.0, -1.0)

    return GradientOracle(dim=d, draw=_draw_normals, gradient=logistic_gradient,
                          prepare=prepare)


ORACLES = {"linear": linear_oracle, "logistic": logistic_oracle}


def _replay_oracle(rows: np.ndarray, model_kind: str) -> GradientOracle:
    """Rows in order, to the first generator that draws; a second one raises
    ValueError, since one cursor cannot feed two chains."""
    cursor, owner = [0], []

    def draw(gen, out):
        if not owner:
            owner.append(gen)
        elif owner[0] is not gen:
            raise ValueError("a replayed dataset feeds one chain; a second generator drew from it")
        i, n = cursor[0], len(out)
        if i + n > len(rows):
            raise ExhaustedData(f"data provides {len(rows)} rows; the run requested more")
        cursor[0] = i + n
        out[:] = rows[i:i + n]

    grad = linear_gradient if model_kind == "linear" else logistic_gradient
    return GradientOracle(dim=rows.shape[1] - 1, draw=draw, gradient=grad)


def ingest_csv(path, model_kind: str):
    """Read a header + numeric rows file into an array and a replay oracle.

    The header must be a_1,...,a_d,b. Each row becomes one SGD step, in file
    order. Logistic responses must be -1 or +1. Returns (rows, oracle) with
    rows of shape (n, d + 1); the oracle raises ExhaustedData when asked for
    more rows than the file holds.
    """
    if model_kind not in ORACLES:
        raise ValueError(f"model_kind must be 'linear' or 'logistic', got {model_kind!r}")
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:  # -sig: drop a BOM
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
                    if "_" in cell:  # float() reads the digit separator in "1_0" as 10
                        raise ValueError(cell)
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
    nonfinite = np.argwhere(~np.isfinite(rows))
    if len(nonfinite):
        r, c = nonfinite[0]
        raise ParseError(
            f"{path}: row {r + 1}, column {c + 1}: {rows[r, c]} is not a finite number"
        )
    return rows, _replay_oracle(rows, model_kind)
