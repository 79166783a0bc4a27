"""Replicated coverage / volume / determinant studies and CSV writers."""

import csv

import numpy as np
import pytest

from sgdci.baselines import bmi_infer, sectioning_infer
from sgdci.batching import Allocation, accumulate, ideal_weights, make_plan
from sgdci.calibration import LimitDrawSpec, QuantileCache, estimate_alpha, spec_from_plan
from sgdci.errors import NonFiniteIterate, SgdciError
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
from sgdci.inference import build_region, contains, expected_volume_factor, marginal_intervals
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
            res = sectioning_infer(lambda j: factory(params), m, self.T, StepSchedule(),
                                   self.delta, self.seed, lineage_prefix=(0,))
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


class TestSharedRules:
    """The replicated studies and the single-run API reject the same inputs."""

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
            sectioning_infer(lambda j: linear_oracle(linspace_params(1)), m, T,
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
    def _study(cache, threads=1, m_list=(7, 20), det_reps=5000):
        return run_volume_study(
            d=2, m_list=list(m_list), allocation=Allocation(kind="ibs", r=2.0 / 3.0),
            delta=0.05, reps=10000, base_seed=31, det_reps=det_reps,
            cache=cache, threads=threads,
        )

    def test_rows_and_cache_bytes_do_not_depend_on_threads(self, tmp_path):
        rows, blobs = [], []
        for threads in (1, 2, 3):
            path = tmp_path / f"q{threads}.json"
            rows.append(self._study(QuantileCache(path), threads))
            blobs.append(path.read_bytes())
        assert rows[1] == rows[0] and rows[2] == rows[0]
        assert blobs[1] == blobs[0] and blobs[2] == blobs[0]

    def test_rows_equal_separate_calibration_and_volume_factor(self, tmp_path):
        rows = self._study(QuantileCache(tmp_path / "q.json"), threads=2)
        alloc = Allocation(kind="ibs", r=2.0 / 3.0)
        for row, m in zip(rows, (7, 20)):
            w = ideal_weights(m, alloc)
            sq = estimate_alpha(LimitDrawSpec(2, m, tuple(w)), 0.05, 10000, 31)
            vf = expected_volume_factor(2, m, w, sq, 5000, derive_stream(31, 7_000_000 + m))
            assert (row.m, row.alpha, row.factor) == (m, sq, vf)

    def test_warm_cache_is_read_not_rewritten(self, tmp_path):
        path = tmp_path / "q.json"
        cold = self._study(QuantileCache(path))
        blob, mtime = path.read_bytes(), path.stat().st_mtime_ns
        assert self._study(QuantileCache(path), threads=2) == cold
        assert path.read_bytes() == blob and path.stat().st_mtime_ns == mtime

    @pytest.mark.parametrize("bad", [{"m_list": (7, 2)}, {"det_reps": 0}])
    def test_bad_cell_raises_before_any_draw(self, tmp_path, bad):
        path = tmp_path / "q.json"
        with pytest.raises(ValueError):
            self._study(QuantileCache(path), **bad)
        assert not path.exists()


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
        assert isinstance(by_method["bm_joint"], FailedCell)
        assert isinstance(by_method["sectioning_joint"], FailedCell)
        assert "m > d" in by_method["bm_joint"].error
        # the marginal and Bonferroni cells still run
        assert not isinstance(by_method["bm_marginal"], FailedCell)
        assert not isinstance(by_method["bmi_joint"], FailedCell)

    def test_all_cells_pass_when_m_large_enough(self):
        out = run_comparison(
            model="linear", d=1, T=600, m=8, alloc=Allocation(kind="es"),
            delta=0.05, replications=4, base_seed=10, cal_reps=10000,
        )
        assert all(not isinstance(r, FailedCell) for r in out)


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
