"""Replicated coverage / volume / determinant studies and CSV writers."""

import contextlib
import csv
import io
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sgdci import (
    baselines,
    batching,
    calibration,
    cli,
    experiments,
    inference,
    linalg,
    sgd,
    streams,
)
from sgdci.baselines import bmi_infer, section_plan, sectioning_infer
from sgdci.batching import (
    Allocation,
    BatchMeansSummary,
    BatchPlan,
    accumulate,
    gamma_statistic,
    ideal_weights,
    make_plan,
    summary_from_path,
)
from sgdci.calibration import (
    MIN_REPS,
    LimitDrawSpec,
    QuantileCache,
    ScalingQuantile,
    estimate_alpha,
    spec_from_plan,
    weights_key,
)
from sgdci.errors import (
    BatchCountTooSmall,
    BatchTooSmall,
    DimensionMismatch,
    NonFiniteIterate,
    SgdciError,
)
from sgdci.experiments import (
    DEFAULT_CAL_SEED,
    METHODS,
    CoverageConfig,
    FailedCell,
    run_comparison,
    run_coverage,
    run_det_study,
    run_volume_study,
    write_coverage_csv,
    write_det_csv,
    write_volume_csv,
)
from sgdci.inference import (
    build_region,
    contains,
    expected_volume_factor,
    marginal_intervals,
    region_volume,
)
from sgdci.linalg import quad_form_inv
from sgdci.models import linear_oracle, linspace_params, logistic_oracle
from sgdci.sgd import SgdRunConfig, StepSchedule, run_chains, run_sgd
from sgdci.streams import derive_stream


def _serial_batch_stats(model, d, T, m, burn_in, seeds):
    """Reference path: one run_sgd call per chain, streamed into batches."""
    params = linspace_params(d)
    factory = linear_oracle if model == "linear" else logistic_oracle
    plan = make_plan(T, m, Allocation(kind="ibs", r=2.0 / 3.0))
    xi = np.empty((m, len(seeds), d))
    xbar = np.empty((len(seeds), d))
    sched = StepSchedule()
    for j, s in enumerate(seeds):
        acc = accumulate(plan, d)
        cfg = SgdRunConfig(T=T, burn_in=burn_in, schedule=sched)
        run_sgd(factory(params), cfg, derive_stream(*s), acc.feed)
        out = acc.finalize()
        xi[:, j, :] = out.xi
        xbar[j] = out.xbar
    return xi, xbar, plan


class TestChainEngine:
    @pytest.mark.parametrize("model", ["linear", "logistic"])
    def test_matches_one_chain_at_a_time(self, model):
        d, T, m = 2, 600, 5
        seeds = [(42, 0, j) for j in range(4)]
        xi_ref, xbar_ref, plan = _serial_batch_stats(model, d, T, m, 0, seeds)
        params = linspace_params(d)
        gens = [derive_stream(*s) for s in seeds]
        factory = linear_oracle if model == "linear" else logistic_oracle
        xi, xbar = run_chains(factory(params), SgdRunConfig(T=T), gens, [plan.boundaries])[0]
        assert np.allclose(xi, xi_ref, rtol=0, atol=1e-12)
        assert np.allclose(xbar, xbar_ref, rtol=0, atol=1e-12)

    def test_matches_with_burn_in(self):
        d, T, m, burn = 1, 400, 4, 37
        seeds = [(43, j) for j in range(3)]
        xi_ref, xbar_ref, plan = _serial_batch_stats("linear", d, T, m, burn, seeds)
        params = linspace_params(d)
        gens = [derive_stream(*s) for s in seeds]
        xi, xbar = run_chains(linear_oracle(params), SgdRunConfig(T=T, burn_in=burn), gens,
                              [plan.boundaries])[0]
        assert np.allclose(xi, xi_ref, rtol=0, atol=1e-12)
        assert np.allclose(xbar, xbar_ref, rtol=0, atol=1e-12)


class TestRunCoverage:
    def _cfg(self, **over):
        base = dict(
            model="linear", d=2, T=800, method="bm_joint", m=8,
            alloc=Allocation(kind="es"), replications=12, base_seed=21,
            cal_reps=10000,
        )
        base.update(over)
        return CoverageConfig(**base)

    @pytest.mark.parametrize("method", ["bm_joint", "bm_marginal"])
    def test_too_few_cal_reps_raise_before_any_step(self, method, monkeypatch):
        def no_stepping(*args, **kwargs):
            raise AssertionError("a chain stepped")

        monkeypatch.setattr(sgd, "run_chains", no_stepping)
        with pytest.raises(ValueError, match=f"reps must be >= {MIN_REPS}"):
            run_coverage(self._cfg(method=method, cal_reps=MIN_REPS - 1))

    def test_deterministic_signature(self):
        a = run_coverage(self._cfg())
        b = run_coverage(self._cfg())
        assert a.signature() == b.signature()
        assert a.wall_time >= 0.0

    def test_thread_count_does_not_change_results(self):
        a = run_coverage(self._cfg(), threads=1)
        b = run_coverage(self._cfg(), threads=3)
        assert a.signature() == b.signature()

    def test_coverage_is_a_fraction(self):
        rep = run_coverage(self._cfg(replications=16))
        assert 0.0 <= rep.coverage <= 1.0
        assert rep.hits == pytest.approx(rep.coverage * (16 - rep.degenerate))

    def test_marginal_method_runs(self):
        rep = run_coverage(self._cfg(method="bm_marginal", d=1, m=8))
        assert 0.0 <= rep.coverage <= 1.0
        assert rep.alpha_used is not None

    def test_sectioning_methods_run(self):
        rep = run_coverage(self._cfg(method="sectioning_joint", m=8,
                                     replications=6))
        assert 0.0 <= rep.coverage <= 1.0

    def test_bmi_method_runs(self):
        rep = run_coverage(self._cfg(method="bmi_marginal", replications=6))
        assert 0.0 <= rep.coverage <= 1.0
        assert rep.alpha_used is None

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            self._cfg(method="magic")

    def test_joint_needs_more_batches_than_dims(self):
        with pytest.raises(ValueError, match="m > d"):
            self._cfg(d=6, m=6)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            self._cfg(model="quadratic")


def _band(lo, hi, x, joint):
    inside = (lo <= x) & (x <= hi)
    covered = bool(inside.all()) if joint else float(inside.mean())
    return covered, float(np.mean(hi - lo) / 2)


class TestSingleRunAgreement:
    """Replication 0 of run_coverage against the single-run API on its streams."""

    T, delta, seed, cal_reps = 3000, 0.05, 5, 10000
    ibs = Allocation(kind="ibs", r=2.0 / 3.0)

    def _single_run(self, model, d, m, method):
        params = linspace_params(d)
        factory = linear_oracle if model == "linear" else logistic_oracle
        x_star = params.x_star
        joint = method.endswith("joint")
        if method.startswith("bm_"):
            plan = make_plan(self.T, m, self.ibs)
            acc = accumulate(plan, d)
            run_sgd(factory(params), SgdRunConfig(T=self.T), derive_stream(self.seed, 0),
                    acc.feed)
            summary = acc.finalize()
            alpha = estimate_alpha(spec_from_plan(plan, d if joint else 1), self.delta,
                                   self.cal_reps, DEFAULT_CAL_SEED)
            if joint:
                region = build_region(summary, alpha)
                quad = quad_form_inv(region.shape, region.center - x_star)
                return contains(region, x_star), quad
            iv = marginal_intervals(summary, alpha)
            return _band(iv.lo, iv.hi, x_star, joint)
        if method.startswith("sectioning"):
            res = sectioning_infer(factory(params), m, self.T, StepSchedule(), self.delta,
                                   self.seed)
            if joint:
                quad = quad_form_inv(res.region.shape, res.region.center - x_star)
                return contains(res.region, x_star), quad
            return _band(res.intervals.lo, res.intervals.hi, x_star, joint)
        res = bmi_infer(factory(params), self.T, self.delta, gen=derive_stream(self.seed, 0))
        if joint:
            return _band(res.joint_lo, res.joint_hi, x_star, joint)
        return _band(res.marginal_lo, res.marginal_hi, x_star, joint)

    @pytest.mark.parametrize("model, d, m", [("linear", 2, 12), ("logistic", 3, 15)])
    @pytest.mark.parametrize("method", METHODS)
    def test_replication_zero_matches_single_run(self, model, d, m, method):
        cfg = CoverageConfig(model=model, d=d, T=self.T, method=method, m=m, alloc=self.ibs,
                             delta=self.delta, replications=2, base_seed=self.seed,
                             cal_reps=self.cal_reps)
        entry = run_coverage(cfg).replication_log[0]
        covered, stat = self._single_run(model, d, m, method)
        assert entry["covered"] == covered
        assert entry["stat"] == pytest.approx(stat, rel=1e-9, abs=0)


# hits per method in METHODS order, then alpha_used per method, measured on
# the harness that predates the shared single-run code
PINNED_CELLS = [
    ("linear", 2, 12,
     [40.0, 39.0, 38.0, 38.5, 40.0, 39.5],
     [1.0667790325514048, 0.7809633394059614, 4.10282101854682, 4.844335671514273,
      None, None]),
    ("logistic", 3, 15,
     [2.0, 14.000000000000002, 0.0, 13.000000000000005, 32.0, 34.33333333333334],
     [1.03814915441131, 0.5985185940826798, 3.4902948178350925, 4.600109938532114,
      None, None]),
]


@pytest.mark.parametrize("model, d, m, hits, alphas", PINNED_CELLS)
def test_comparison_reproduces_pinned_cells(model, d, m, hits, alphas):
    out = run_comparison(model, d, 3000, m, Allocation(kind="ibs", r=2.0 / 3.0), 0.05,
                         replications=40, base_seed=5, cal_reps=10000)
    assert [r.config.method for r in out] == list(METHODS)
    assert [r.hits for r in out] == hits
    assert [r.degenerate for r in out] == [0] * len(METHODS)
    assert [r.alpha_used for r in out] == alphas


class TestDivergence:
    """A runaway chain fails like the serial driver: NonFiniteIterate at its step."""

    d, T, sched = 20, 4000, StepSchedule(a=20.0)

    def _serial_step(self, *lineage, T=None):
        params = linspace_params(self.d)
        cfg = SgdRunConfig(T=T or self.T, schedule=self.sched)
        with pytest.raises(NonFiniteIterate) as exc:
            run_sgd(linear_oracle(params), cfg, derive_stream(*lineage))
        assert exc.value.replication is None
        return exc.value.t

    def _coverage(self, method, R, m=4):
        cfg = CoverageConfig(model="linear", d=self.d, T=self.T, method=method, m=m,
                             alloc=Allocation(kind="ibs"), replications=R, base_seed=0,
                             schedule=self.sched)
        with pytest.raises(NonFiniteIterate) as exc:
            run_coverage(cfg)
        return exc.value

    def test_single_replication_reports_the_serial_step(self):
        err = self._coverage("bmi_joint", R=1)
        assert (err.t, err.replication) == (self._serial_step(0, 0), 0)

    def test_earliest_replication_is_reported(self):
        steps = [self._serial_step(0, rep) for rep in range(3)]
        err = self._coverage("bm_marginal", R=3)
        assert err.t == min(steps)
        assert err.replication == steps.index(min(steps))

    def test_sectioning_reports_the_replication_not_the_section(self):
        m, R = 4, 2
        steps = {(rep, j): self._serial_step(0, rep, j, T=self.T // m)
                 for rep in range(R) for j in range(m)}
        first = min(steps, key=steps.get)
        err = self._coverage("sectioning_marginal", R=R, m=m)
        assert (err.t, err.replication) == (steps[first], first[0])

    def test_single_and_replicated_sectioning_report_the_same_step(self):
        m = 4
        steps = [self._serial_step(0, 0, j, T=self.T // m) for j in range(m)]
        assert steps == [635, 627, 608, 651]
        with pytest.raises(NonFiniteIterate) as single:
            sectioning_infer(linear_oracle(linspace_params(self.d)), m, self.T, self.sched,
                             0.05, 0)
        assert (single.value.t, single.value.replication) == (608, None)
        err = self._coverage("sectioning_marginal", R=1, m=m)
        assert (err.t, err.replication) == (608, 0)

    def test_sectioning_groups_report_the_earliest_step(self, monkeypatch):
        # one replication per group: replication 0 diverges in the first
        # group, a later replication at an earlier step in a later group
        m, R = 4, 4
        steps = {(rep, j): self._serial_step(0, rep, j, T=self.T // m)
                 for rep in range(R) for j in range(m)}
        first = min(steps, key=lambda k: (steps[k], k))
        assert first[0] > 0
        monkeypatch.setattr(sgd, "_replication_group", lambda chains, d: 1)
        err = self._coverage("sectioning_marginal", R=R, m=m)
        assert (err.t, err.replication) == (steps[first], first[0])

    def test_bm_groups_report_the_earliest_step(self, monkeypatch):
        # one replication per group: replication 0 diverges in the first
        # group, a later replication at an earlier step in a later group
        steps = [self._serial_step(0, rep) for rep in range(3)]
        first = steps.index(min(steps))
        assert first > 0
        monkeypatch.setattr(sgd, "_replication_group", lambda chains, d: 1)
        for method in ("bm_marginal", "bmi_joint"):
            err = self._coverage(method, R=3)
            assert (err.t, err.replication) == (steps[first], first)

    def test_det_study_raises(self):
        with pytest.raises(NonFiniteIterate):
            run_det_study(d=self.d, m=25, T=self.T, model="linear", R=2, base_seed=0,
                          schedule=self.sched)

    def test_comparison_records_failed_cells(self):
        # sections of T/25 = 160 steps end before any chain leaves the range
        out = run_comparison("linear", self.d, self.T, 25, Allocation(kind="ibs"), 0.05,
                             replications=2, base_seed=0, schedule=self.sched,
                             cal_reps=10000)
        for method, r in zip(METHODS, out):
            if not method.startswith("sectioning"):
                assert isinstance(r, FailedCell) and r.method == method
                assert r.error.startswith("NonFiniteIterate")


class TestSectionGroups:
    """Every replicated pass steps in groups of whole replications."""

    @pytest.mark.parametrize("model, d, seed", [("linear", 2, 0), ("linear", 2, 5),
                                                ("logistic", 3, 0), ("logistic", 3, 5)])
    def test_group_and_block_size_do_not_change_results(self, model, d, seed, tmp_path,
                                                        monkeypatch):
        R = 7

        def signatures():
            out = run_comparison(model, d, 1500, 10, Allocation(kind="ibs"), 0.05, R, seed,
                                 cal_reps=10000, cache=QuantileCache(tmp_path / "q.json"))
            assert not any(isinstance(r, FailedCell) for r in out)
            return [r.signature() for r in out]

        shipped = signatures()
        # (R, 2^21): all sections in one pass with a 16 MB input block
        for group, block in ((1, sgd._BLOCK_DOUBLES), (3, 64), (R, 1 << 21)):
            monkeypatch.setattr(sgd, "_replication_group", lambda chains, d, g=group: g)
            monkeypatch.setattr(sgd, "_BLOCK_DOUBLES", block)
            assert signatures() == shipped

    def test_memory_does_not_grow_with_sections(self):
        # 3,000 and 30,000 sections of 20 steps each
        def peak(R):
            cfg = CoverageConfig(model="linear", d=2, T=2000, method="sectioning_marginal",
                                 m=100, alloc=Allocation(kind="ibs"), replications=R,
                                 base_seed=0)
            tracemalloc.start()
            try:
                experiments._trajectory(cfg, [experiments._cell_plan(cfg)])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(300) <= peak(30) + 3 * 2**20

    @pytest.mark.parametrize("method", ["bm_marginal", "bmi_joint"])
    def test_long_chain_memory_grows_only_by_the_batch_means(self, method):
        def peak(R):
            cfg = CoverageConfig(model="linear", d=2, T=300, method=method, m=10,
                                 alloc=Allocation(kind="ibs"), replications=R, base_seed=0)
            plan = experiments._cell_plan(cfg)
            tracemalloc.start()
            try:
                experiments._trajectory(cfg, [plan])
                return tracemalloc.get_traced_memory()[1], plan.m
            finally:
                tracemalloc.stop()

        (low, m), (high, _) = peak(2_000), peak(20_000)
        # xi and xbar of the 18,000 more chains, counted three times: the
        # groups' arrays, their concatenation, and the per-replication summaries
        assert high - low <= 3 * 18_000 * (m + 1) * 2 * 8

    @staticmethod
    def _peak(model, d, threads=None):
        cfg = CoverageConfig(model=model, d=d, T=6000, method="sectioning_marginal",
                             m=30, alloc=Allocation(kind="ibs"), replications=48, base_seed=0)
        tracemalloc.start()
        try:
            experiments._trajectory(cfg, [experiments._cell_plan(cfg)], threads)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_block_stays_in_budget_at_large_d(self):
        # at d = 20 a 720-chain group would need 64 * 720 * 21 doubles (7.7 MB)
        # for run_chains' 64-step floor; the group rule caps it at 390 chains
        assert sgd._replication_group(30, 20) * 30 * 64 * 21 <= sgd._BLOCK_DOUBLES
        assert self._peak("linear", 20) <= 1.5 * 8 * sgd._BLOCK_DOUBLES
        # at d = 2 the 720-chain block is 242 steps deep; the block hook works
        # in slices of at most _SLICE_ROWS rows, so its temporaries (einsum,
        # ndtr, expit, comparison, where) stay small beside the 4 MB block
        for model in ("linear", "logistic"):
            assert self._peak(model, 2, threads=2) <= 1.125 * 8 * sgd._BLOCK_DOUBLES, model


def _separate_cells(model, d, T, m, alloc, replications, base_seed, **kw):
    """Each method as its own run_coverage call, failures recorded as in compare."""
    out = []
    for method in METHODS:
        try:
            cfg = CoverageConfig(model=model, d=d, T=T, method=method, m=m, alloc=alloc,
                                 replications=replications, base_seed=base_seed,
                                 cal_reps=10000, **kw)
            out.append(run_coverage(cfg))
        except (SgdciError, ValueError) as e:
            out.append(FailedCell(method=method, error=f"{type(e).__name__}: {e}"))
    return out


class TestSharedTrajectories:
    """run_comparison steps each chain set once; every cell still equals the
    separate run_coverage call for that method, failures included."""

    ibs = Allocation(kind="ibs", r=2.0 / 3.0)
    diverging = StepSchedule(a=20.0)

    @pytest.mark.filterwarnings("ignore:m - d")
    @pytest.mark.parametrize("problem, extra, failing", [
        (("linear", 2, 600, 8, ibs, 6, 3), {}, set()),
        (("logistic", 3, 600, 8, ibs, 6, 4), {"burn_in": 11}, set()),
        (("linear", 3, 600, 3, Allocation(kind="es"), 4, 9), {},
         {"bm_joint", "sectioning_joint"}),
        (("linear", 2, 12, 4, Allocation(kind="es"), 5, 1), {},
         {"bmi_joint", "bmi_marginal"}),
        # TestDivergence's setup: the long chains diverge, the sections do not
        (("linear", 20, 4000, 25, Allocation(kind="ibs"), 2, 0), {"schedule": diverging},
         {"bm_joint", "bm_marginal", "bmi_joint", "bmi_marginal", "sectioning_joint"}),
        (("linear", 2, 400, 8, ibs, 3, 0), {"burn_in": -5}, set(METHODS)),
    ], ids=["linear_d2", "logistic_d3", "m_le_d", "T12", "diverging", "negative_burn_in"])
    def test_cells_equal_separate_runs(self, problem, extra, failing):
        model, d, T, m, alloc, R, seed = problem
        shared = run_comparison(model, d, T, m, alloc, 0.05, R, seed, cal_reps=10000,
                                **extra)
        separate = _separate_cells(model, d, T, m, alloc, R, seed, **extra)
        assert {c.method for c in separate if isinstance(c, FailedCell)} == failing
        for a, b in zip(shared, separate):
            if isinstance(b, FailedCell):
                assert a == b
            else:
                assert not isinstance(a, FailedCell)
                assert a.signature() == b.signature()


def _joint_rule(m, d):
    """The one message of the m > d rule."""
    return (f"joint statistic needs m > d; got m={m}, d={d} "
            "(covariance is degenerate with probability one)")


def _quantile(d, plan, alpha=2.0):
    """A ScalingQuantile carrying a chosen value under plan's key."""
    return ScalingQuantile(alpha, alpha, alpha, 0.05, MIN_REPS,
                           (d, plan.m, weights_key(plan.weights), 0.05, MIN_REPS, 0))


def _few_batches():
    """A summary of m = 3 even batches of d = 4 coordinates."""
    xi = np.arange(12.0).reshape(3, 4) ** 2
    return BatchMeansSummary(plan=make_plan(300, 3, Allocation(kind="es")), xi=xi,
                             xbar=xi.mean(axis=0), d=4)


# Each argument rule: its one class, its one message with "{}" for the bad
# value, and the bad values drawn for it (the m > d rule at d = 4, the T >= m
# rule at m = 8).
RULES = {
    "m >= 2": (BatchCountTooSmall, "batch count m must be >= 2, got {}", st.integers(-3, 1)),
    "T >= m": (BatchTooSmall, "T={} cannot host 8 nonempty batches", st.integers(-3, 7)),
    "R": (ValueError, "R must be >= 1, got {}", st.integers(-3, 0)),
    "d": (ValueError, "d must be >= 1, got {}", st.integers(-3, 0)),
    "det draws": (ValueError, "determinant draws must be >= 1, got {}", st.integers(-3, 0)),
    "m > d": (BatchCountTooSmall, _joint_rule("{}", 4), st.integers(2, 4)),
    "delta": (ValueError, "delta must lie in (0, 1), got {}",
              st.floats(max_value=0.0) | st.floats(min_value=1.0)),
    "reps": (ValueError, f"reps must be >= {MIN_REPS} for a meaningful tail quantile, got {{}}",
             st.integers(-3, MIN_REPS - 1)),
    "threads": (ValueError, "threads must be >= 1, got {}", st.integers(-3, 0)),
    "weights": (ValueError, "weights must be finite and strictly positive, got {}",
                st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan])),
    "weight count": (DimensionMismatch, "got {} weights for m=8 batches",
                     st.integers(1, 7) | st.integers(9, 12)),
}
_IBS = Allocation(kind="ibs")


def _even(m):
    return (1 / m,) * m


# the run_coverage argument each rule judges: a CoverageConfig field, or threads
_COVERAGE_FIELD = {"m >= 2": "m", "T >= m": "T", "R": "replications", "d": "d",
                   "delta": "delta", "reps": "cal_reps", "threads": "threads"}


def _coverage_cell(method, threads=None, **over):
    base = dict(model="linear", d=1, T=400, method=method, m=8, alloc=_IBS, replications=3,
                base_seed=0, cal_reps=MIN_REPS)
    return run_coverage(CoverageConfig(**{**base, **over}), threads=threads)


def _comparison(**over):
    """The one error of every cell, which must all have failed alike."""
    base = dict(model="linear", d=1, T=400, m=8, alloc=_IBS, delta=0.05, replications=3,
                base_seed=0, cal_reps=MIN_REPS)
    (error,) = {r.error for r in run_comparison(**{**base, **over})}
    return error


def _hand_built_marginal(m):
    """marginal_intervals on a summary of m batches built by hand, with a
    quantile under its own key, so only the batch count can be refused."""
    plan = BatchPlan(T=10, m=m, boundaries=np.array([0, 10]), weights=np.ones(1),
                     c=np.array([0.0, 1.0]))
    s = BatchMeansSummary(plan=plan, xi=np.ones((1, 2)), xbar=np.ones(2), d=2)
    key = (1, m, weights_key(plan.weights), 0.05, MIN_REPS, 0)
    return marginal_intervals(s, ScalingQuantile(2.0, 2.0, 2.0, 0.05, MIN_REPS, key))


def _volume_factor(d, m, reps):
    w = _even(m)
    key = (d, m, weights_key(w), 0.05, MIN_REPS, 0)
    return expected_volume_factor(d, m, w, ScalingQuantile(2.0, 2.0, 2.0, 0.05, MIN_REPS, key),
                                  reps, np.random.Generator(np.random.PCG64(0)))


def _cli(*argv):
    """What `sgdci argv` printed: the one stderr line of exit code 1, or for
    compare (exit code 0) the one error of every failed cell."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    if argv[0] == "compare":
        assert rc == 0
        (error,) = {line.split("failed (", 1)[1][:-1] for line in out.getvalue().splitlines()}
        return error
    assert rc == 1 and err.getvalue().count("\n") == 1
    return err.getvalue().rstrip("\n")


# bad values the CLI's positive-integer flags let through
_CLI_INT = {"m >= 2": st.just(1), "T >= m": st.integers(1, 7),
            "reps": st.integers(1, MIN_REPS - 1)}
_INFER = ["infer", "--model", "linear", "--no-cache"]  # the entry's second argument is --data
_COVER = ["experiment", "coverage", "--model", "linear", "--reps", "3", "--no-cache"]
_VOLUME = ["experiment", "volume", "--no-cache"]
_DETCOV = ["experiment", "detcov", "--model", "linear", "--reps", "3"]

def _custom(*w):
    return Allocation(kind="custom", custom_weights=w)


# (rule, entry(bad value, path of a 40-row d = 4 linear CSV), values or None for the rule's own)
RULE_CASES = {
    "Allocation/weights": ("weights", lambda v, _: _custom(1.0, v), None),
    "LimitDrawSpec/weights": ("weights", lambda v, _: LimitDrawSpec(1, 8, (v,) + _even(8)[1:]),
                              None),
    "LimitDrawSpec/weight count": ("weight count", lambda v, _: LimitDrawSpec(1, 8, _even(v)),
                                   None),
    "ideal_weights/weights": ("weights", lambda v, _: ideal_weights(8, _custom(*[1.0] * 7, v)),
                              None),
    "ideal_weights/weight count": ("weight count", lambda v, _: ideal_weights(
        8, _custom(*[1.0] * v)), None),
    "make_plan/weights": ("weights", lambda v, _: make_plan(400, 8, _custom(*[1.0] * 7, v)),
                          None),
    "make_plan/weight count": ("weight count", lambda v, _: make_plan(
        400, 8, _custom(*[1.0] * v)), None),
    "cli calibrate/weights": ("weights", lambda v, _: _cli(
        "calibrate", "--d", 1, "--alloc", "custom", f"--weights=1,{v!r}", "--no-cache"), None),
    "cli calibrate/weight count": ("weight count", lambda v, _: _cli(
        "calibrate", "--d", 1, "--alloc", "custom", "--m", 8, "--weights", ",".join(["1"] * v),
        "--no-cache"), None),
    "make_plan/m": ("m >= 2", lambda v, _: make_plan(400, v, _IBS), None),
    "make_plan/T": ("T >= m", lambda v, _: make_plan(v, 8, _IBS), None),
    "ideal_weights/m": ("m >= 2", lambda v, _: ideal_weights(v, _IBS), None),
    "section_plan/m": ("m >= 2", lambda v, _: section_plan(v, 400), None),
    "section_plan/T": ("T >= m", lambda v, _: section_plan(8, v), None),
    "marginal_intervals/m": ("m >= 2", lambda v, _: _hand_built_marginal(v), st.just(1)),
    "LimitDrawSpec/d": ("d", lambda v, _: LimitDrawSpec(v, 8, _even(8)), None),
    "LimitDrawSpec/m>d": ("m > d", lambda v, _: LimitDrawSpec(4, v, _even(v)), None),
    **{f"estimate_alpha/{rule}": (rule, entry, None) for rule, entry in [
        ("delta", lambda v, _: estimate_alpha(LimitDrawSpec(1, 8, _even(8)), v, MIN_REPS, 0)),
        ("reps", lambda v, _: estimate_alpha(LimitDrawSpec(1, 8, _even(8)), 0.05, v, 0)),
        ("threads", lambda v, _: estimate_alpha(LimitDrawSpec(1, 8, _even(8)), 0.05, MIN_REPS, 0,
                                                threads=v))]},
    **{f"run_volume_study/{rule}": (rule, entry, None) for rule, entry in [
        ("m >= 2", lambda v, _: run_volume_study(1, [8, v], _IBS, 0.05, MIN_REPS, 0)),
        ("d", lambda v, _: run_volume_study(v, [8], _IBS, 0.05, MIN_REPS, 0)),
        ("m > d", lambda v, _: run_volume_study(4, [v], _IBS, 0.05, MIN_REPS, 0)),
        ("delta", lambda v, _: run_volume_study(1, [8], _IBS, v, MIN_REPS, 0)),
        ("reps", lambda v, _: run_volume_study(1, [8], _IBS, 0.05, v, 0, det_reps=10)),
        ("det draws", lambda v, _: run_volume_study(1, [8], _IBS, 0.05, MIN_REPS, 0, det_reps=v)),
        ("threads", lambda v, _: run_volume_study(1, [8], _IBS, 0.05, MIN_REPS, 0, threads=v))]},
    "expected_volume_factor/d": ("d", lambda v, _: _volume_factor(v, 8, 10), None),
    "expected_volume_factor/m>d": ("m > d", lambda v, _: _volume_factor(4, v, 10), None),
    "expected_volume_factor/draws": ("det draws", lambda v, _: _volume_factor(1, 8, v), None),
    **{f"run_coverage/{method}/{rule}": (rule, lambda v, _, method=method, field=field:
                                         _coverage_cell(method, **{field: v}), None)
       for method, rules in [("bm_marginal", ["m >= 2", "T >= m", "R", "d", "delta", "reps",
                                              "threads"]),
                             ("sectioning_marginal", ["m >= 2", "T >= m", "R", "d", "delta",
                                                      "threads"]),
                             ("bmi_marginal", ["R", "d", "delta", "threads"])]
       for rule, field in ((rule, _COVERAGE_FIELD[rule]) for rule in rules)},
    **{f"run_coverage/{method}/m>d": ("m > d", lambda v, _, method=method: _coverage_cell(
        method, d=4, m=v), None) for method in ("bm_joint", "sectioning_joint")},
    **{f"run_comparison/{rule}": (rule, entry, None) for rule, entry in [
        ("R", lambda v, _: _comparison(replications=v)),
        ("d", lambda v, _: _comparison(d=v)),
        ("delta", lambda v, _: _comparison(delta=v)),
        ("threads", lambda v, _: run_comparison("linear", 1, 400, 8, _IBS, 0.05, 3, 0,
                                                threads=v))]},
    **{f"run_det_study/{rule}": (rule, entry, None) for rule, entry in [
        ("m >= 2", lambda v, _: run_det_study(2, v, 400, "linear", 3, 0)),
        ("T >= m", lambda v, _: run_det_study(2, 8, v, "linear", 3, 0)),
        ("R", lambda v, _: run_det_study(2, 8, 400, "linear", v, 0)),
        ("d", lambda v, _: run_det_study(v, 8, 400, "linear", 3, 0))]},
    "replicate/R": ("R", lambda v, _: sgd.replicate(
        linear_oracle(linspace_params(1)), SgdRunConfig(T=10), [[0, 10]], v, 0), None),
    **{f"sectioning_infer/{rule}": (rule, entry, None) for rule, entry in [
        ("m >= 2", lambda v, _: sectioning_infer(
            linear_oracle(linspace_params(1)), v, 400, StepSchedule(), 0.05, 0)),
        ("T >= m", lambda v, _: sectioning_infer(
            linear_oracle(linspace_params(1)), 8, v, StepSchedule(), 0.05, 0)),
        ("delta", lambda v, _: sectioning_infer(
            linear_oracle(linspace_params(1)), 8, 400, StepSchedule(), v, 0))]},
    "bmi_infer/delta": ("delta", lambda v, _: bmi_infer(
        linear_oracle(linspace_params(1)), 400, v, np.random.Generator(np.random.PCG64(0))), None),
    "linspace_params/d": ("d", lambda v, _: linspace_params(v), None),
    **{f"cli calibrate/{rule}": (rule, entry, _CLI_INT.get(rule)) for rule, entry in [
        ("m >= 2", lambda v, _: _cli("calibrate", "--d", 1, "--m", v, "--no-cache")),
        ("m > d", lambda v, _: _cli("calibrate", "--d", 4, "--m", v, "--no-cache")),
        ("delta", lambda v, _: _cli("calibrate", "--d", 1, "--m", 8, f"--delta={v!r}",
                                    "--no-cache")),
        ("reps", lambda v, _: _cli("calibrate", "--d", 1, "--m", 8, "--reps", v, "--no-cache"))]},
    **{f"cli infer/{rule}": (rule, entry, _CLI_INT.get(rule)) for rule, entry in [
        ("m >= 2", lambda v, data: _cli(*_INFER, "--data", data, "--m", v)),
        ("T >= m", lambda v, data: _cli(*_INFER, "--data", data, "--m", 8, "--burn-in", 40 - v)),
        ("m > d", lambda v, data: _cli(*_INFER, "--data", data, "--m", v)),
        ("delta", lambda v, data: _cli(*_INFER, "--data", data, "--mode", "both", "--m", 8,
                                       f"--delta={v!r}")),
        ("reps", lambda v, data: _cli(*_INFER, "--data", data, "--mode", "marginal", "--m", 8,
                                      "--cal-reps", v))]},
    "cli compare/delta": ("delta", lambda v, _: _cli(
        "compare", "--model", "linear", "--d", 1, "--T", 400, "--m", 8, "--reps", 3,
        f"--delta={v!r}", "--no-cache"), None),
    **{f"cli experiment coverage/{rule}": (rule, entry, _CLI_INT.get(rule)) for rule, entry in [
        ("m >= 2", lambda v, _: _cli(*_COVER, "--method", "sectioning_marginal", "--d", 1,
                                     "--T", 400, "--m", v)),
        ("T >= m", lambda v, _: _cli(*_COVER, "--method", "bm_marginal", "--d", 1, "--T", v,
                                     "--m", 8)),
        ("m > d", lambda v, _: _cli(*_COVER, "--method", "bm_joint", "--d", 4, "--T", 400,
                                    "--m", v)),
        ("delta", lambda v, _: _cli(*_COVER, "--d", 1, "--T", 400, "--m", 8, f"--delta={v!r}")),
        ("reps", lambda v, _: _cli(*_COVER, "--method", "bm_marginal", "--d", 1, "--T", 400,
                                   "--m", 8, "--cal-reps", v))]},
    **{f"cli experiment volume/{rule}": (rule, entry, _CLI_INT.get(rule)) for rule, entry in [
        ("m >= 2", lambda v, _: _cli(*_VOLUME, "--d", 1, "--m-list", f"8,{v}")),
        ("m > d", lambda v, _: _cli(*_VOLUME, "--d", 4, "--m-list", v)),
        ("delta", lambda v, _: _cli(*_VOLUME, "--d", 1, "--m-list", 8, f"--delta={v!r}")),
        ("reps", lambda v, _: _cli(*_VOLUME, "--d", 1, "--m-list", 8, "--reps", v))]},
    **{f"cli experiment detcov/{rule}": (rule, entry, _CLI_INT.get(rule)) for rule, entry in [
        ("m >= 2", lambda v, _: _cli(*_DETCOV, "--d", 2, "--m", v, "--T", 400)),
        ("T >= m", lambda v, _: _cli(*_DETCOV, "--d", 2, "--m", 8, "--T", v))]},
}


def _refusal(call) -> str:
    """The "Class: message" of what call raised, or the text it returned."""
    try:
        return call()
    except (SgdciError, ValueError) as e:
        return f"{type(e).__name__}: {e}"



class TestSharedRules:
    """The replicated studies and the single-run API reject the same inputs."""

    @pytest.fixture
    def no_streams(self, monkeypatch):
        """Every way to derive a stream fails the test."""
        def no_streams(*args):
            raise AssertionError(f"derive_streams{args} called")

        for module in (streams, sgd, experiments, calibration):
            monkeypatch.setattr(module, "derive_streams", no_streams)
        monkeypatch.setattr(sgd, "run_chains", no_streams)

    def _coverage(self, **over):
        base = dict(model="linear", d=1, T=400, method="bm_marginal", m=8,
                    alloc=Allocation(kind="ibs"), replications=3, base_seed=0,
                    cal_reps=10000)
        base.update(over)
        return run_coverage(CoverageConfig(**base))

    def test_bmi_short_run_raises_the_same_error(self):
        with pytest.raises(ValueError) as single:
            bmi_infer(linear_oracle(linspace_params(1)), 12, 0.05, derive_stream(0))
        with pytest.raises(ValueError) as replicated:
            self._coverage(method="bmi_joint", T=12)
        assert str(replicated.value) == str(single.value)

    @pytest.mark.parametrize("m, T", [(1, 400), (50, 30)])
    def test_sectioning_rules_raise_the_same_error(self, m, T):
        with pytest.raises(Exception) as single:
            sectioning_infer(linear_oracle(linspace_params(1)), m, T,
                             StepSchedule(), 0.05, 0)
        with pytest.raises(Exception) as replicated:
            self._coverage(method="sectioning_marginal", m=m, T=T)
        assert type(replicated.value) is type(single.value)
        assert str(replicated.value) == str(single.value)

    @pytest.mark.parametrize("method", ["bm_marginal", "sectioning_marginal", "bmi_marginal"])
    def test_coverage_rejects_negative_burn_in(self, method):
        with pytest.raises(ValueError, match="burn_in"):
            self._coverage(method=method, burn_in=-5)

    def test_det_study_rejects_negative_burn_in(self):
        with pytest.raises(ValueError, match="burn_in"):
            run_det_study(d=2, m=5, T=400, model="linear", R=3, base_seed=0, burn_in=-5)

    @pytest.mark.parametrize("entry, message", [
        (lambda: run_coverage(CoverageConfig(
            model="linear", d=1, T=400, method="bm_marginal", m=8, alloc=Allocation(kind="ibs"),
            replications=3, cal_reps=10000), threads=0), "threads"),
        (lambda: run_comparison("linear", 1, 400, 8, Allocation(kind="ibs"), 0.05, 3, 0,
                                cal_reps=10000, threads=0), "threads"),
        (lambda: run_volume_study(1, [6], Allocation(kind="ibs"), 0.05, 10000, 0, threads=0),
         "threads"),
        (lambda: run_det_study(d=2, m=5, T=400, model="linear", R=0, base_seed=0), "R"),
        (lambda: sgd.replicate(linear_oracle(linspace_params(1)), SgdRunConfig(T=10),
                               [[0, 10]], 0, 0), "R"),
    ], ids=["run_coverage", "run_comparison", "run_volume_study", "run_det_study", "replicate"])
    def test_bad_count_raises_before_any_stream(self, entry, message, no_streams):
        with pytest.raises(ValueError, match=f"^{message} must be >= 1, got 0$"):
            entry()

    @pytest.mark.parametrize("entry", [
        lambda: LimitDrawSpec(4, 3, (1 / 3,) * 3),
        lambda: estimate_alpha(spec_from_plan(_few_batches().plan, 4), 0.05, MIN_REPS, 0),
        lambda: run_volume_study(4, [3], Allocation(kind="es"), 0.05, MIN_REPS, 0),
        lambda: run_coverage(CoverageConfig(
            model="linear", d=4, T=300, method="bm_joint", m=3, alloc=Allocation(kind="es"),
            replications=3, cal_reps=MIN_REPS)),
        lambda: run_coverage(CoverageConfig(
            model="linear", d=4, T=300, method="sectioning_joint", m=3,
            alloc=Allocation(kind="es"), replications=3, cal_reps=MIN_REPS)),
        lambda: build_region(_few_batches(), _quantile(4, _few_batches().plan)),
        lambda: gamma_statistic(_few_batches(), np.zeros(4)),
    ], ids=["LimitDrawSpec", "estimate_alpha", "run_volume_study", "bm_joint",
            "sectioning_joint", "build_region", "gamma_statistic"])
    def test_m_rule_raises_before_any_stream(self, entry, no_streams):
        with pytest.raises(BatchCountTooSmall) as e:
            entry()
        assert str(e.value) == _joint_rule(3, 4)

    def test_unknown_model_raises_before_any_stream(self, no_streams):
        with pytest.raises(ValueError, match="^unknown model 'bogus'$"):
            run_det_study(2, 5, 100, "bogus", 3, 0)

    @pytest.fixture(scope="class")
    def linear_csv(self, tmp_path_factory):
        """40 rows of a d = 4 linear model."""
        path = tmp_path_factory.mktemp("rules") / "rows.csv"
        rows = np.random.Generator(np.random.PCG64(3)).standard_normal((40, 5))
        np.savetxt(path, rows, delimiter=",", header="a_1,a_2,a_3,a_4,b", comments="")
        return str(path)

    @pytest.mark.parametrize("rule, entry, values", RULE_CASES.values(), ids=RULE_CASES)
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_each_rule_has_one_class_and_message(self, rule, entry, values, data, no_streams,
                                                 linear_csv):
        """Every public entry refuses a bad value with the rule's one class and
        one message, naming the argument and its value, before any stream."""
        cls, message, default = RULES[rule]
        v = data.draw(default if values is None else values, label=rule)
        assert _refusal(lambda: entry(v, linear_csv)) == f"{cls.__name__}: {message.format(v)}"


def test_each_joint_summary_is_factored_once(monkeypatch):
    real, calls = linalg.cholesky, []

    def counted(S):
        calls.append(S.dim)
        return real(S)

    for module in (linalg, batching, calibration, inference, baselines, experiments):
        if getattr(module, "cholesky", None) is real:
            monkeypatch.setattr(module, "cholesky", counted)
    R = 12
    rep = run_coverage(CoverageConfig(
        model="linear", d=2, T=600, method="bm_joint", m=8, alloc=Allocation(kind="ibs"),
        replications=R, base_seed=4, cal_reps=MIN_REPS), threads=1)
    assert rep.degenerate == 0 and calls == [2] * R

    plan = make_plan(8, 4, Allocation(kind="es"))
    s = summary_from_path(plan, np.arange(16.0).reshape(8, 2) ** 2)
    region = build_region(s, _quantile(2, plan))
    assert len(calls) == R + 1
    contains(region, np.zeros(2))
    region_volume(region)
    assert len(calls) == R + 1


class TestVolumeStudy:
    def test_rows_and_determinism(self):
        rows_a = run_volume_study(
            d=1, m_list=[8, 12], allocation=Allocation(kind="es"),
            delta=0.05, reps=10000, base_seed=77, det_reps=10000,
        )
        rows_b = run_volume_study(
            d=1, m_list=[8, 12], allocation=Allocation(kind="es"),
            delta=0.05, reps=10000, base_seed=77, det_reps=10000,
        )
        assert [r.m for r in rows_a] == [8, 12]
        for ra, rb in zip(rows_a, rows_b):
            assert ra.factor.estimate == rb.factor.estimate
            assert ra.alpha.alpha_hat == rb.alpha.alpha_hat
            assert ra.factor.estimate > 0.0

    def test_m_must_exceed_d(self):
        with pytest.raises(ValueError):
            run_volume_study(
                d=3, m_list=[3], allocation=Allocation(kind="es"),
                delta=0.05, reps=10000, base_seed=78,
            )

    @staticmethod
    def _study(cache, threads=1, m_list=(7, 20), det_reps=5000, delta=0.05, reps=10000):
        return run_volume_study(
            d=2, m_list=list(m_list), allocation=Allocation(kind="ibs", r=2.0 / 3.0),
            delta=delta, reps=reps, base_seed=31, det_reps=det_reps,
            cache=cache, threads=threads,
        )

    # the cells run largest m first; an unsorted list with a duplicate still
    # gives its rows in the order asked
    M_LISTS = [(7, 20), (20, 7, 40, 7)]

    def test_rows_and_cache_bytes_do_not_depend_on_threads(self, tmp_path):
        for k, m_list in enumerate(self.M_LISTS):
            rows, blobs = [], []
            for threads in (1, 2, 3):
                path = tmp_path / f"q{k}_{threads}.json"
                rows.append(self._study(QuantileCache(path), threads, m_list))
                blobs.append(path.read_bytes())
            assert [r.m for r in rows[0]] == list(m_list)
            assert rows[1] == rows[0] and rows[2] == rows[0]
            assert blobs[1] == blobs[0] and blobs[2] == blobs[0]

    def test_rows_equal_separate_calibration_and_volume_factor(self, tmp_path):
        alloc = Allocation(kind="ibs", r=2.0 / 3.0)
        for k, m_list in enumerate(self.M_LISTS):
            rows = self._study(QuantileCache(tmp_path / f"q{k}.json"), 2, m_list)
            assert len(rows) == len(m_list)
            assert len({id(row) for row in rows}) == len(set(m_list))  # a repeat runs once
            for row, m in zip(rows, m_list):
                w = ideal_weights(m, alloc)
                sq = estimate_alpha(LimitDrawSpec(2, m, tuple(w)), 0.05, 10000, 31)
                vf = expected_volume_factor(2, m, w, sq, 5000,
                                            derive_stream(31, 7_000_000 + m))
                assert (row.m, row.alpha, row.factor) == (m, sq, vf)

    def test_warm_cache_is_read_not_rewritten(self, tmp_path):
        path = tmp_path / "q.json"
        cold = self._study(QuantileCache(path))
        blob, mtime = path.read_bytes(), path.stat().st_mtime_ns
        assert self._study(QuantileCache(path), threads=2) == cold
        assert path.read_bytes() == blob and path.stat().st_mtime_ns == mtime

    @pytest.mark.parametrize("bad", [{"m_list": (7, 2)}, {"det_reps": 0}, {"delta": 0.0},
                                     {"reps": MIN_REPS - 1}])
    def test_bad_cell_raises_before_any_draw(self, tmp_path, monkeypatch, bad):
        # the pool runs each submission at once, so a calibration chunk or a
        # determinant pass submitted before the error is recorded rather than
        # cancelled when the pool shuts down
        drawn = []
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", lambda max_workers: SimpleNamespace(
            submit=lambda fn, *args: fn(*args), shutdown=lambda cancel_futures: None))
        monkeypatch.setattr(calibration, "_eval_chunk", lambda *args: drawn.append(args))
        monkeypatch.setattr(inference, "det_sqrt_draws",
                            lambda spec, gen, reps: drawn.append(spec) or np.zeros(reps))
        derived = []
        for module in (calibration, experiments):
            monkeypatch.setattr(module, "derive_streams",
                                lambda *args: derived.append(args) or [])
        path = tmp_path / "q.json"
        with pytest.raises(ValueError):
            self._study(QuantileCache(path), **bad)
        assert drawn == [] and derived == [] and not path.exists()


class TestDetStudy:
    def test_rank_deficient_batches_give_zero(self):
        dets = run_det_study(d=4, m=3, T=600, model="linear", R=8, base_seed=5)
        assert dets.shape == (8,)
        assert np.all(dets == 0.0)

    def test_one_extra_batch_restores_positive_volume(self):
        dets = run_det_study(d=4, m=5, T=600, model="linear", R=8, base_seed=5)
        assert np.all(dets > 0.0)

    def test_deterministic(self):
        a = run_det_study(d=2, m=6, T=500, model="logistic", R=5, base_seed=6)
        b = run_det_study(d=2, m=6, T=500, model="logistic", R=5, base_seed=6)
        assert np.array_equal(a, b)


class TestComparison:
    # tiny m here is the point of the test; the heavy-tail caution is expected
    @pytest.mark.filterwarnings("ignore:m - d")
    def test_every_method_reports_or_fails_loud(self):
        out = run_comparison(
            model="linear", d=3, T=600, m=3, alloc=Allocation(kind="es"),
            delta=0.05, replications=4, base_seed=9, cal_reps=10000,
        )
        assert len(out) == len(METHODS)
        by_method = {
            (r.method if isinstance(r, FailedCell) else r.config.method): r
            for r in out
        }
        # m = d: the joint cells cannot build a region and must fail loud
        for method in ("bm_joint", "sectioning_joint"):
            assert by_method[method].error == f"BatchCountTooSmall: {_joint_rule(3, 3)}"
        # the marginal and Bonferroni cells still run
        for method in ("bm_marginal", "sectioning_marginal", "bmi_joint", "bmi_marginal"):
            assert not isinstance(by_method[method], FailedCell), method

    def test_all_cells_pass_when_m_large_enough(self):
        out = run_comparison(
            model="linear", d=1, T=600, m=8, alloc=Allocation(kind="es"),
            delta=0.05, replications=4, base_seed=10, cal_reps=10000,
        )
        assert all(not isinstance(r, FailedCell) for r in out)

    @pytest.mark.parametrize("delta", [-0.5, 1.5, float("nan")])
    def test_invalid_delta_fails_every_cell(self, delta, monkeypatch):
        def no_stepping(*args, **kwargs):
            raise AssertionError("a chain stepped")

        monkeypatch.setattr(sgd, "run_chains", no_stepping)  # every cell fails first
        out = run_comparison("linear", 2, 400, 10, Allocation(kind="ibs"), delta,
                             replications=3, base_seed=0, cal_reps=10000)
        assert [type(r) for r in out] == [FailedCell] * len(METHODS)
        assert all(r.error == f"ValueError: delta must lie in (0, 1), got {delta}"
                   for r in out)

    def test_too_few_cal_reps_fail_only_the_bm_cells(self):
        out = run_comparison("linear", 2, 400, 10, Allocation(kind="ibs"), 0.05,
                             replications=3, base_seed=0, cal_reps=MIN_REPS - 1)
        message = f"ValueError: reps must be >= {MIN_REPS} for a meaningful tail quantile, got"
        for r, method in zip(out, METHODS):
            failed = method.startswith("bm_")
            assert isinstance(r, FailedCell) == failed, method
            assert not failed or r.error == f"{message} {MIN_REPS - 1}"

    def test_thread_count_does_not_change_results(self, tmp_path):
        # cold caches and three calibration chunks per quantile, so the
        # calibrations run on one and on three workers
        sigs = []
        for threads in (1, 3):
            out = run_comparison(
                model="linear", d=2, T=600, m=8, alloc=Allocation(kind="ibs", r=2.0 / 3.0),
                delta=0.05, replications=6, base_seed=12, cal_reps=140000,
                cache=QuantileCache(tmp_path / f"q{threads}.json"), threads=threads,
            )
            assert not any(isinstance(r, FailedCell) for r in out)
            sigs.append([r.signature() for r in out])
        assert sigs[0] == sigs[1]


class TestCsvWriters:
    def test_coverage_csv_round_trip(self, tmp_path):
        cfg = CoverageConfig(
            model="linear", d=1, T=400, method="bm_marginal", m=8,
            alloc=Allocation(kind="ibs", r=0.5), replications=5,
            base_seed=11, cal_reps=10000,
        )
        rep = run_coverage(cfg)
        fail = FailedCell(method="bm_joint", error="ValueError: m > d needed")
        path = tmp_path / "cov.csv"
        write_coverage_csv([rep, fail], path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        ok, bad = rows
        assert ok["status"] == "ok"
        assert ok["model"] == "linear"
        assert ok["alloc"] == "ibs"
        assert float(ok["alloc_r"]) == 0.5
        assert int(ok["replications"]) == 5
        assert int(ok["base_seed"]) == 11
        assert float(ok["coverage"]) == pytest.approx(rep.coverage)
        assert bad["status"] == "failed"
        assert bad["method"] == "bm_joint"
        assert "ValueError" in bad["error"]
        assert bad["coverage"] == ""

    def test_volume_csv(self, tmp_path):
        rows = run_volume_study(
            d=1, m_list=[8, 10], allocation=Allocation(kind="es"),
            delta=0.05, reps=10000, base_seed=12, det_reps=2000,
        )
        path = tmp_path / "vol.csv"
        write_volume_csv(rows, path)
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert len(got) == 2
        assert [int(r["m"]) for r in got] == [8, 10]
        assert all(float(r["v"]) > 0 for r in got)
        assert all(int(r["base_seed"]) == 12 for r in got)

    def test_det_csv(self, tmp_path):
        dets = run_det_study(d=2, m=5, T=400, model="linear", R=3, base_seed=13)
        path = tmp_path / "det.csv"
        write_det_csv(dets, path, model="linear", d=2, m=5, T=400, base_seed=13)
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert len(got) == 3
        assert [int(r["rep"]) for r in got] == [0, 1, 2]
        assert all(r["model"] == "linear" for r in got)
        assert float(got[0]["det_scaled"]) == pytest.approx(dets[0])
