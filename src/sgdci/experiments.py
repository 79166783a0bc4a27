"""Replicated experiment harness: coverage, volume, and degeneracy studies.

Replication r of a study consumes the stream (base_seed, r), or (base_seed,
r, j) for its section j, and nothing else, so reports are reproducible and
independent of scheduling. Every replicated study steps through
`sgd.replicate`: whole replications advance together, in groups, through
`sgd.run_chains`, the same driver a single run uses at R = 1, so each
replication's iterates are those of a serial run on its stream by
construction, and memory does not grow with R beyond the batch means. A
comparison steps each chain set once and scores every method on it: the bm
and BMI cells share one set of R long chains, batched under both plans in
the same pass, and the two sectioning cells share one set of section chains
(baselines.section_summaries).

Every report embeds its full configuration. Wall-clock time is recorded for
convenience but is the one field outside the determinism contract; cells
that share a trajectory each count its full stepping time.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .baselines import bmi_from_stats, bmi_plan, section_plan, section_summaries
from .batching import (
    Allocation,
    BatchMeansSummary,
    BatchPlan,
    check_joint,
    ideal_weights,
    make_plan,
    sample_cov,
    sample_sigma,
)
from .calibration import (
    LimitDrawSpec,
    QuantileCache,
    ScalingQuantile,
    check_delta,
    check_reps,
    estimate_alpha,
    exact_quantile,
    spec_from_plan,
    submit_alpha,
)
from .errors import DegenerateCovariance, ExcessDegeneracy, SgdciError
from .inference import (
    VolumeFactor,
    build_region,
    check_det_reps,
    marginal_intervals,
    submit_volume_factor,
)
from .linalg import SymMatrix, det_sqrt
from .models import linspace_params, oracle_factory
from .sgd import SgdRunConfig, StepSchedule, replicate
from .streams import _worker_count, derive_streams

DESK_REPLICATIONS = 300
DEFAULT_CAL_REPS = 200_000
DEFAULT_CAL_SEED = 1_000_003

METHODS = (
    "bm_joint",
    "bm_marginal",
    "sectioning_joint",
    "sectioning_marginal",
    "bmi_joint",
    "bmi_marginal",
)


@dataclass(frozen=True)
class CoverageConfig:
    model: str
    d: int
    T: int
    method: str
    m: int
    alloc: Allocation
    delta: float = 0.05
    replications: int = DESK_REPLICATIONS
    base_seed: int = 0
    schedule: StepSchedule = field(default_factory=StepSchedule)
    burn_in: int = 0
    cal_reps: int = DEFAULT_CAL_REPS
    cal_seed: int = DEFAULT_CAL_SEED

    def __post_init__(self):
        oracle_factory(self.model)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        check_delta(self.delta)
        if self.method.startswith("bm_"):
            check_reps(self.cal_reps)
        if self.method in ("bm_joint", "sectioning_joint"):
            check_joint(self.d, self.m)


@dataclass
class CoverageReport:
    config: CoverageConfig
    hits: float
    degenerate: int
    coverage: float
    half_width: float
    alpha_used: Optional[float]
    replication_log: list
    # seconds to step and score this cell; cells of one run_comparison call
    # that share a trajectory each include its full stepping time
    wall_time: float

    def signature(self) -> tuple:
        """Everything the determinism contract covers (wall time excluded)."""
        return (
            self.config,
            self.hits,
            self.degenerate,
            self.coverage,
            self.half_width,
            self.alpha_used,
            tuple(tuple(sorted(r.items())) for r in self.replication_log),
        )


def _cell_plan(cfg: CoverageConfig) -> BatchPlan:
    """The batch plan a cell scores; a sectioning plan has one batch per section."""
    if cfg.method.startswith("sectioning"):
        return section_plan(cfg.m, cfg.T)
    if cfg.method.startswith("bmi"):
        alloc_r = cfg.alloc.r if cfg.alloc.kind in ("ibs", "dbs") else 2.0 / 3.0
        return bmi_plan(cfg.T, alloc_r)
    return make_plan(cfg.T, cfg.m, cfg.alloc)


def _trajectory(cfg: CoverageConfig, plans, threads: Optional[int] = None) -> list:
    """Step the chain set of cfg's method once; one summary list per plan.

    bm and BMI cells run R chains of T steps, and every plan over [0, T]
    batches the same iterates. Sectioning runs m chains of T // m steps per
    replication (baselines.section_summaries). Both step through
    sgd.replicate, which fills each pass's input blocks on `threads` workers.
    """
    R, d = cfg.replications, cfg.d
    oracle = oracle_factory(cfg.model)(linspace_params(d))
    if cfg.method.startswith("sectioning"):
        return [section_summaries(oracle, plan, cfg.schedule, cfg.burn_in, R, cfg.base_seed,
                                  threads=threads) for plan in plans]
    sgd_cfg = SgdRunConfig(T=cfg.T, burn_in=cfg.burn_in, schedule=cfg.schedule)
    return [[BatchMeansSummary(plan=plan, xi=xi[:, r], xbar=xbar[r], d=d) for r in range(R)]
            for plan, (xi, xbar) in zip(plans, replicate(
                oracle, sgd_cfg, [p.boundaries for p in plans], R, cfg.base_seed,
                threads=threads))]


def _score(cfg: CoverageConfig, plan: BatchPlan, summaries, cache, threads,
           stepping_s: float) -> CoverageReport:
    """Score one cell's replications; wall_time adds stepping_s to its own."""
    t0 = time.perf_counter()
    x_star = linspace_params(cfg.d).x_star
    R = cfg.replications
    d = cfg.d
    mth = cfg.method
    joint = mth.endswith("joint")
    alpha = None
    if mth.startswith("bm_"):
        spec = spec_from_plan(plan, d if joint else 1)
        alpha = estimate_alpha(
            spec, cfg.delta, cfg.cal_reps, cfg.cal_seed, cache=cache, threads=threads
        )
    elif mth.startswith("sectioning"):
        alpha = exact_quantile(spec_from_plan(plan, d if joint else 1), cfg.delta)

    def verdict(s: BatchMeansSummary):
        # (covered, stat): stat is the quadratic form for a region and the
        # mean half-width for per-coordinate bands
        if alpha is None:
            b = bmi_from_stats(s.xbar, sample_sigma(s), plan.m, cfg.delta)
            lo, hi = (b.joint_lo, b.joint_hi) if joint else (b.marginal_lo, b.marginal_hi)
        elif joint:
            region = build_region(s, alpha)
            quad = region.factor.quad_form(region.center - x_star)
            return bool(quad <= region.scale), quad
        else:
            iv = marginal_intervals(s, alpha)
            lo, hi = iv.lo, iv.hi
        inside = (lo <= x_star) & (x_star <= hi)
        covered = bool(inside.all()) if joint else float(inside.mean())
        return covered, float(np.mean(hi - lo) / 2.0)

    hits, degenerate, log = 0.0, 0, []
    for rep, s in enumerate(summaries):
        try:
            covered, stat = verdict(s)
        except DegenerateCovariance:
            degenerate += 1
            covered = stat = None
        else:
            hits += covered
        log.append({"rep": rep, "covered": covered, "stat": stat})

    if degenerate > 0.01 * R:
        raise ExcessDegeneracy(
            f"{degenerate} of {R} replications degenerate (limit is 1%)"
        )
    effective = R - degenerate  # >= 0.99 R after the check above
    coverage = hits / effective
    half_width = 1.96 * math.sqrt(coverage * (1.0 - coverage) / effective)
    return CoverageReport(config=cfg, hits=hits, degenerate=degenerate, coverage=coverage,
                          half_width=half_width,
                          alpha_used=None if alpha is None else alpha.alpha_hat,
                          replication_log=log, wall_time=stepping_s + time.perf_counter() - t0)


def run_coverage(
    config: CoverageConfig,
    cache: Optional[QuantileCache] = None,
    threads: Optional[int] = None,
) -> CoverageReport:
    """Estimate the coverage rate of one method under one configuration.

    Each replication's region or intervals come from the single-run calls
    (build_region, marginal_intervals, bmi_from_stats) on its batch means.
    Degenerate replications (numerically rank-deficient covariance) are a
    third outcome, counted separately from hits and misses; the run aborts
    if they exceed one percent of replications. Marginal methods record the
    average coverage across the d coordinates of each replication. A
    diverging chain raises NonFiniteIterate. `threads` workers (None: every
    usable CPU) fill the chains' input blocks and run a cold calibration; a
    count below 1 raises before any stream is derived, as does a
    replication count below 1 (sgd.replicate's rule).
    """
    _worker_count(threads)
    t0 = time.perf_counter()
    plan = _cell_plan(config)
    (summaries,) = _trajectory(config, [plan], threads)
    return _score(config, plan, summaries, cache, threads, time.perf_counter() - t0)


@dataclass
class VolumeRow:
    d: int
    m: int
    allocation: str
    delta: float
    reps: int
    det_reps: int
    base_seed: int
    factor: VolumeFactor
    alpha: ScalingQuantile


def run_volume_study(
    d: int,
    m_list,
    allocation: Allocation,
    delta: float,
    reps: int,
    base_seed: int,
    det_reps: Optional[int] = None,
    cache: Optional[QuantileCache] = None,
    threads: Optional[int] = None,
) -> list:
    """Volume factor v_d(m, w) across batch counts, with standard errors.

    Row i holds what estimate_alpha (with this cache and base_seed) and
    expected_volume_factor (on stream (base_seed, 7_000_000 + m)) give for
    batch count m_list[i]; every argument is checked before the first
    stream or draw, and a repeated m is run once. All draws run on one pool
    of `threads` workers (None: all usable CPUs): one submit_alpha call for
    every batch count, whose chunk k serves all the missed cells from one
    draw of stream (base_seed, k), then the determinant passes, largest m
    first, as cost grows with m. Their BLAS calls hold one lock, which caps
    what more workers gain. The study holds the tails of all its missed
    cells at once, each at most 2 * keep doubles and one window, keep the
    reps - lo + 1 statistics a quantile reads (submit_alpha; about
    reps / 20 at delta = 0.05): 0.33 MB at reps = 1e5 and four batch
    counts, 26 MB at reps = 8e6. Each running determinant pass holds its
    det_reps draws once.
    """
    det_n = det_reps if det_reps is not None else reps
    check_det_reps(det_n)
    specs = [LimitDrawSpec(d, m, tuple(ideal_weights(m, allocation))) for m in m_list]
    cells = sorted({s.m: s for s in specs}.values(), key=lambda s: -s.m)
    rows = {}
    pool = ThreadPoolExecutor(max_workers=_worker_count(threads))
    try:
        alphas = submit_alpha(pool, cells, delta, reps, base_seed, cache)
        gens = derive_streams(base_seed, [(7_000_000 + s.m,) for s in cells])
        factors = [submit_volume_factor(pool, s, det_n, gen) for s, gen in zip(cells, gens)]
        for alpha, factor in zip(alphas, factors):
            sq = alpha()
            vf = factor(sq)
            rows[vf.m] = VolumeRow(d=d, m=vf.m, allocation=allocation.kind, delta=delta,
                                   reps=reps, det_reps=det_n, base_seed=base_seed, factor=vf,
                                   alpha=sq)
    finally:
        pool.shutdown(cancel_futures=True)
    return [rows[m] for m in m_list]


def run_det_study(
    d: int,
    m: int,
    T: int,
    model: str,
    R: int,
    base_seed: int,
    alloc: Optional[Allocation] = None,
    schedule: Optional[StepSchedule] = None,
    burn_in: int = 0,
) -> np.ndarray:
    """R determinants of T * S_m(T); rank deficiency shows up as exact zeros.

    This study deliberately allows m <= d: with fewer batches than
    dimensions the covariance has rank at most m - 1 and the determinant
    collapses, which is the phenomenon being measured.
    """
    oracle = oracle_factory(model)(linspace_params(d))
    plan = make_plan(T, m, alloc or Allocation(kind="ibs"))
    config = SgdRunConfig(T=T, burn_in=burn_in, schedule=schedule or StepSchedule())
    ((xi, xbar),) = replicate(oracle, config, [plan.boundaries], R, base_seed)
    covs = [sample_cov(BatchMeansSummary(plan=plan, xi=xi[:, r], xbar=xbar[r], d=d))
            for r in range(R)]
    return np.array([det_sqrt(SymMatrix(float(T) * c.entries)) ** 2 for c in covs])


@dataclass
class FailedCell:
    method: str
    error: str


def _failed(method: str, e: Exception) -> FailedCell:
    return FailedCell(method=method, error=f"{type(e).__name__}: {e}")


def _family(method: str) -> str:
    """bm, bmi or sectioning: the cells of one family share a batch plan."""
    return method.rsplit("_", 1)[0]


def _shared_cells(cells: dict, plans: dict, cache, threads) -> dict:
    """Step the chain set that cells (method -> config) share once and score
    each cell on it; returns method -> CoverageReport or FailedCell.

    The batch means die with this call, so one set's small arrays never sit
    above its freed input buffer in the heap while the next set steps.
    """
    families = list(dict.fromkeys(map(_family, cells)))
    t0 = time.perf_counter()
    try:
        summaries = _trajectory(next(iter(cells.values())), [plans[f] for f in families],
                                threads)
    except (SgdciError, ValueError) as e:
        return {mth: _failed(mth, e) for mth in cells}
    stepping_s = time.perf_counter() - t0
    by_family = dict(zip(families, summaries))
    out = {}
    for mth, cfg in cells.items():
        try:
            out[mth] = _score(cfg, plans[_family(mth)], by_family[_family(mth)], cache,
                              threads, stepping_s)
        except (SgdciError, ValueError) as e:
            out[mth] = _failed(mth, e)
    return out


def run_comparison(
    model: str,
    d: int,
    T: int,
    m: int,
    alloc: Allocation,
    delta: float,
    replications: int,
    base_seed: int,
    schedule: Optional[StepSchedule] = None,
    burn_in: int = 0,
    cal_reps: int = DEFAULT_CAL_REPS,
    cache: Optional[QuantileCache] = None,
    threads: Optional[int] = None,
) -> list:
    """All methods on one problem at an identical iteration budget.

    Returns one CoverageReport per method, equal in signature() to what
    run_coverage gives for that cell; a cell that raises a domain error is
    replaced by a FailedCell record and the run continues. Each chain set is
    stepped once: one pass over R long chains batches them under the bm and
    the BMI plans, and one pass over the sections serves both sectioning
    cells. A divergence in a shared pass fails every cell that uses it.
    `threads` is used, and checked, as in run_coverage.
    """
    _worker_count(threads)
    out, cells, plans = {}, {}, {}  # method -> result, method -> config, family -> plan
    for method in METHODS:
        try:
            cfg = CoverageConfig(
                model=model, d=d, T=T, method=method, m=m, alloc=alloc,
                delta=delta, replications=replications, base_seed=base_seed,
                schedule=schedule or StepSchedule(), burn_in=burn_in,
                cal_reps=cal_reps,
            )
            if _family(method) not in plans:
                plans[_family(method)] = _cell_plan(cfg)
            cells[method] = cfg
        except (SgdciError, ValueError) as e:
            out[method] = _failed(method, e)
    for chain_set in (("bm", "bmi"), ("sectioning",)):
        members = {mth: cfg for mth, cfg in cells.items() if _family(mth) in chain_set}
        if members:
            out.update(_shared_cells(members, plans, cache, threads))
    return [out[mth] for mth in METHODS]


_COVERAGE_COLUMNS = [
    "model", "d", "T", "method", "m", "alloc", "alloc_r", "a", "r",
    "burn_in", "delta", "replications", "base_seed", "cal_reps", "cal_seed",
    "status", "coverage", "half_width", "hits", "degenerate", "alpha",
    "error", "wall_time",
]


def write_coverage_csv(reports, path) -> None:
    """One row per cell, full configuration echoed into every row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COVERAGE_COLUMNS)
        for rep in reports:
            if isinstance(rep, FailedCell):
                row = [""] * len(_COVERAGE_COLUMNS)
                row[_COVERAGE_COLUMNS.index("method")] = rep.method
                row[_COVERAGE_COLUMNS.index("status")] = "failed"
                row[_COVERAGE_COLUMNS.index("error")] = rep.error
                writer.writerow(row)
                continue
            c = rep.config
            writer.writerow(
                [
                    c.model, c.d, c.T, c.method, c.m, c.alloc.kind,
                    c.alloc.r if c.alloc.kind in ("ibs", "dbs") else "",
                    c.schedule.a, c.schedule.r, c.burn_in, c.delta,
                    c.replications, c.base_seed, c.cal_reps, c.cal_seed,
                    "ok", f"{rep.coverage:.6f}", f"{rep.half_width:.6f}",
                    rep.hits, rep.degenerate,
                    "" if rep.alpha_used is None else f"{rep.alpha_used:.8g}",
                    "", f"{rep.wall_time:.3f}",
                ]
            )


def write_volume_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d", "m", "allocation", "delta", "reps", "det_reps", "base_seed",
                         "v", "se", "alpha", "alpha_ci_low", "alpha_ci_high",
                         "e_det_sqrt", "se_det_sqrt"])
        for r in rows:
            writer.writerow([
                r.d, r.m, r.allocation, r.delta, r.reps, r.det_reps,
                r.base_seed, f"{r.factor.estimate:.8g}",
                f"{r.factor.std_error:.8g}", f"{r.alpha.alpha_hat:.8g}",
                f"{r.alpha.ci_low:.8g}", f"{r.alpha.ci_high:.8g}",
                f"{r.factor.e_det_sqrt:.8g}", f"{r.factor.se_det_sqrt:.8g}",
            ])


def write_det_csv(dets, path, *, model: str, d: int, m: int, T: int,
                  base_seed: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "d", "m", "T", "base_seed", "rep", "det_scaled"])
        for rep, val in enumerate(dets):
            writer.writerow([model, d, m, T, base_seed, rep, f"{val:.10g}"])
