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

from .batching import check_dim
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
    check_dim(d)
    if d == 1:
        return TrueParams(np.array([0.5]))
    return TrueParams(np.linspace(0.0, 1.0, d))


def linear_gradient(x: np.ndarray, a: np.ndarray, b) -> np.ndarray:
    """Gradient of (b - x^T a)^2 at x, row by row over leading axes."""
    coef = -2.0 * (b - np.einsum("...d,...d->...", a, x))
    return coef[..., None] * a


# scipy.special's expit and ndtr, imported at the first call, which rebinds
# the name to scipy's ufunc: a linear run never loads scipy, and a logistic
# step pays no import statement (0.3 us a call, 1 % of a step at R = 200).
def _expit(z):
    global _expit
    from scipy.special import expit as _expit
    return _expit(z)


def _ndtr(z):
    global _ndtr
    from scipy.special import ndtr as _ndtr
    return _ndtr(z)


def logistic_gradient(x: np.ndarray, a: np.ndarray, b) -> np.ndarray:
    """Gradient of log(1 + exp(-b x^T a)) at x, row by row over leading axes."""
    coef = -b * _expit(-b * np.einsum("...d,...d->...", a, x))
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
            _ndtr(z[..., d]) < _expit(np.einsum("...d,d->...", z[..., :d], xs)), 1.0, -1.0)

    return GradientOracle(dim=d, draw=_draw_normals, gradient=logistic_gradient,
                          prepare=prepare)


ORACLES = {"linear": linear_oracle, "logistic": logistic_oracle}


def oracle_factory(model: str):
    """The one model rule: ORACLES[model], or ValueError for an unknown name."""
    if model not in ORACLES:
        raise ValueError(f"unknown model {model!r}")
    return ORACLES[model]


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


def _reader_after_header(fh):
    """A csv reader on fh from its start, past the header record."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    return reader


def _parse_plain(fh, d: int, model_kind: str):
    """The data rows after fh's header by numpy's C parser, or None.

    Only plain files take this route: every data line ASCII, not blank
    (np.loadtxt skips blank lines, and warns when none is left), and free
    of quotes, digit separators and the separators \\x1c-\\x1f (which
    np.loadtxt strips from a field and float() does not), so the C parser
    and the csv module split the same fields and both read each of them as
    float() does. The result stands only if it has one row of d + 1 finite
    values per line and, for logistic, labels of +-1; otherwise the row
    walk decides.
    """
    lines = 0
    try:
        for line in fh:
            if (not line.isascii() or line.isspace() or '"' in line or "_" in line
                    or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line):
                return None
            lines += 1
    except UnicodeDecodeError:
        return None  # the row walk meets it after the rows before it, as it always has
    if not lines:
        return None
    _reader_after_header(fh)
    try:
        rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape != (lines, d + 1) or not np.isfinite(rows).all():
        return None
    if model_kind == "logistic" and not (np.abs(rows[:, d]) == 1.0).all():
        return None
    return rows


def _walk_rows(reader, path, d: int, model_kind: str) -> np.ndarray:
    """The data rows, cell by cell through float(); raises at the first bad one."""
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
    return rows


def ingest_csv(path, model_kind: str):
    """Read a header + numeric rows file into an array and a replay oracle.

    The header must be a_1,...,a_d,b. Each row becomes one SGD step, in file
    order. Logistic responses must be -1 or +1. Returns (rows, oracle) with
    rows of shape (n, d + 1); the oracle raises ExhaustedData when asked for
    more rows than the file holds. A plain file (see _parse_plain) is
    parsed by np.loadtxt; any other file, and any file that parse does not
    fully accept, is walked row by row, which gives the same values and
    decides every error.
    """
    oracle_factory(model_kind)
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
        rows = _parse_plain(fh, d, model_kind)
        if rows is None:
            rows = _walk_rows(_reader_after_header(fh), path, d, model_kind)
    return rows, _replay_oracle(rows, model_kind)
