"""End-to-end acceptance checks, one numbered test per shipped claim.

Every test appends its verdict to the shared acceptance log before
asserting, so the terminal summary lists one line per check whatever the
outcome. Seeds and budgets are frozen; nothing here depends on wall time
or thread count.

Check 1 compares the shipped increasing-batch-size calibration against an
externally tabulated set of reference quantiles and is expected to fail:
the tabulated values correspond to a cumulative batch-boundary exponent of
2 (allocation exponent 1/2), not the shipped default exponent 3
(allocation exponent 2/3). Check 1a pins that diagnosis: rerunning the
same cells at allocation exponent 1/2 matches the table in 7 of 8 cells,
and the remaining cell agrees with an independently computed constant
instead of the printed one. See notes in the repository root for the
analysis trail.
"""

import math

import numpy as np
import pytest

from sgdci.batching import (
    Allocation,
    accumulate,
    gamma_statistic,
    ideal_weights,
    make_plan,
    sample_cov,
    summary_from_path,
)
from sgdci.calibration import (
    LimitDrawSpec,
    ScalingQuantile,
    estimate_alpha,
    f_quantile,
    g_of_skeleton,
    weights_key,
)
from sgdci.experiments import CoverageConfig, run_coverage, run_det_study, run_volume_study
from sgdci.inference import build_region, contains, marginal_intervals
from sgdci.linalg import det_sqrt
from sgdci.sgd import StepSchedule
from sgdci.streams import derive_stream

# Frozen reference quantiles (reported to +/- 0.01 by their source) for the
# 95% scaling parameter under increasing batch sizes, keyed by (d, m).
REFERENCE_QUANTILES = {
    (1, 10): 2.93, (2, 10): 2.92, (3, 10): 3.13, (4, 10): 3.50,
    (1, 40): 1.76, (2, 40): 1.55, (3, 40): 1.47, (4, 40): 1.50,
}
TABLE_TOL = 0.04  # source rounding plus our Monte Carlo slack
TABLE_SEED = 5150
TABLE_REPS = 10**6

# Independently computed value for the (4, 40) cell at allocation exponent
# 1/2, obtained from both simulation routes before this suite was frozen.
CELL_4_40_RECOMPUTED = 1.4433

COVERAGE_SCHEDULE = StepSchedule(a=0.5, r=0.55)
COVERAGE_SEED = 31337


def _alpha(d, m, alloc, seed=TABLE_SEED, reps=TABLE_REPS):
    w = ideal_weights(m, alloc)
    return estimate_alpha(LimitDrawSpec(d, m, tuple(w)), 0.05, reps, seed)


def _verdict(acceptance_log, label, ok, detail):
    acceptance_log.append(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    return ok


def test_check_1_reference_quantiles_shipped_allocation(acceptance_log):
    alloc = Allocation(kind="ibs", r=2.0 / 3.0)
    drift = {}
    for (d, m), ref in sorted(REFERENCE_QUANTILES.items()):
        drift[(d, m)] = _alpha(d, m, alloc).alpha_hat - ref
    bad = {k: round(v, 3) for k, v in drift.items() if abs(v) > TABLE_TOL}
    ok = _verdict(
        acceptance_log,
        "check 1 (reference quantiles, shipped allocation r=2/3)",
        not bad,
        f"{len(bad)}/8 cells outside +/-{TABLE_TOL}"
        + (f", drifts {bad}" if bad else ""),
    )
    assert ok, (
        f"cells outside +/-{TABLE_TOL} of the tabulated quantiles: {bad}; "
        "the table matches allocation exponent 1/2, see check 1a"
    )


def test_check_1a_reference_quantiles_match_exponent_half(acceptance_log):
    alloc = Allocation(kind="ibs", r=0.5)
    hats = {}
    for (d, m) in sorted(REFERENCE_QUANTILES):
        hats[(d, m)] = _alpha(d, m, alloc).alpha_hat
    plain = {
        k: round(hats[k] - REFERENCE_QUANTILES[k], 3)
        for k in hats if k != (4, 40)
    }
    bad = {k: v for k, v in plain.items() if abs(v) > TABLE_TOL}
    anomaly = hats[(4, 40)]
    anomaly_ok = abs(anomaly - CELL_4_40_RECOMPUTED) < 0.01
    ok = _verdict(
        acceptance_log,
        "check 1a (diagnostic: same cells at allocation r=1/2)",
        not bad and anomaly_ok,
        f"7/7 regular cells within +/-{TABLE_TOL}; (4,40)={anomaly:.4f} "
        f"matches recomputed {CELL_4_40_RECOMPUTED} not printed 1.50"
        if not bad and anomaly_ok
        else f"bad={bad}, (4,40)={anomaly:.4f}",
    )
    assert ok
    # the printed (4, 40) value stays unexplained under either exponent
    assert abs(anomaly - 1.50) > TABLE_TOL


def test_check_2_even_weights_recover_f_distribution(acceptance_log):
    rows = []
    ok = True
    for d, m in [(1, 10), (2, 20), (3, 30)]:
        sq = _alpha(d, m, Allocation(kind="es"))
        target = f_quantile(d, m - d, 0.95)
        hit = sq.ci_low <= target <= sq.ci_high
        ok = ok and hit
        rows.append(f"(d={d},m={m}): F={target:.4f} in "
                    f"[{sq.ci_low:.4f},{sq.ci_high:.4f}]={hit}")
    ok = _verdict(acceptance_log,
                  "check 2 (even weights give the exact F law)",
                  ok, "; ".join(rows))
    assert ok


def test_check_3_rank_threshold_of_limit_matrix(acceptance_log):
    draws = 10**4
    failures = []
    for d in (1, 2, 5, 10):
        for m in sorted({max(1, d // 2), d, d + 1}):
            w = np.full(m, 1.0 / m)
            gen = derive_stream(424242, d, m)
            dets = np.empty(draws)
            for k in range(draws):
                incr = np.sqrt(w)[:, None] * gen.standard_normal((m, d))
                dets[k] = det_sqrt(g_of_skeleton(incr, w))
            if m <= d and not np.all(dets == 0.0):
                failures.append(f"(d={d},m={m}) expected all zero")
            if m == d + 1 and not np.all(dets > 0.0):
                failures.append(f"(d={d},m={m}) expected all positive")
    ok = _verdict(
        acceptance_log,
        "check 3 (limit matrix singular iff batches <= dimension)",
        not failures,
        f"{draws} draws per cell, d in {{1,2,5,10}}"
        + ("" if not failures else f"; failures: {failures}"),
    )
    assert ok, failures


def _coverage(model, d, T, m, alloc, replications):
    cfg = CoverageConfig(
        model=model, d=d, T=T, method="bm_joint", m=m, alloc=alloc,
        delta=0.05, replications=replications, base_seed=COVERAGE_SEED,
        schedule=COVERAGE_SCHEDULE, burn_in=0,
    )
    return run_coverage(cfg)


def test_check_4_linear_coverage_band_and_allocation_order(acceptance_log):
    ibs = Allocation(kind="ibs", r=2.0 / 3.0)
    es = Allocation(kind="es")
    dbs = Allocation(kind="dbs", r=2.0 / 3.0)
    cov_ibs = _coverage("linear", 2, 10**5, 30, ibs, 300)
    cov_es = _coverage("linear", 2, 10**5, 30, es, 300)
    cov_ibs_small = _coverage("linear", 2, 10**4, 30, ibs, 300)
    cov_dbs_small = _coverage("linear", 2, 10**4, 30, dbs, 300)
    band_ok = (0.91 <= cov_ibs.coverage <= 0.985
               and 0.91 <= cov_es.coverage <= 0.985)
    gap = cov_ibs_small.coverage - cov_dbs_small.coverage
    slack = cov_ibs_small.half_width + cov_dbs_small.half_width
    order_ok = gap > slack
    ok = _verdict(
        acceptance_log,
        "check 4 (linear d=2 coverage band and allocation ordering)",
        band_ok and order_ok,
        f"T=1e5: ibs={cov_ibs.coverage:.4f}, es={cov_es.coverage:.4f} "
        f"(band [0.91, 0.985]); T=1e4: ibs-dbs gap={gap:.4f} vs "
        f"combined half-widths {slack:.4f}",
    )
    assert ok


def test_check_5_logistic_undercoverage_at_small_budget(acceptance_log):
    rep = _coverage("logistic", 3, 10**4, 40, Allocation(kind="ibs", r=2.0 / 3.0), 300)
    ok = _verdict(
        acceptance_log,
        "check 5 (logistic d=3, T=1e4, m=40 undercovers)",
        rep.coverage <= 0.80,
        f"coverage={rep.coverage:.4f} <= 0.80",
    )
    assert ok


def test_check_6_determinant_collapse_across_dimension(acceptance_log):
    high = run_det_study(d=20, m=18, T=10**5, model="logistic", R=200,
                         base_seed=COVERAGE_SEED)
    low = run_det_study(d=10, m=18, T=10**5, model="logistic", R=200,
                        base_seed=COVERAGE_SEED)
    frac_high = float(np.mean(high < 1e-6))
    frac_low = float(np.mean(low > 1e-6))
    ok = _verdict(
        acceptance_log,
        "check 6 (scaled determinant collapses once d exceeds m)",
        frac_high >= 0.95 and frac_low >= 0.95,
        f"d=20: {100 * frac_high:.1f}% below 1e-6; "
        f"d=10: {100 * frac_low:.1f}% above 1e-6",
    )
    assert ok


def test_check_7_volume_factor_decreases_in_batch_count(acceptance_log):
    budgets = {1: (8_000_000, 4_000_000),
               2: (1_000_000, 1_000_000),
               5: (400_000, 400_000)}
    alloc = Allocation(kind="ibs", r=2.0 / 3.0)
    failures = []
    summary = []
    for d, (reps, det_reps) in budgets.items():
        rows = run_volume_study(d=d, m_list=[d + 5, 20, 40, 100],
                                allocation=alloc, delta=0.05, reps=reps,
                                base_seed=909, det_reps=det_reps)
        vs = [r.factor.estimate for r in rows]
        ses = [r.factor.std_error for r in rows]
        summary.append(f"d={d}: " + " > ".join(f"{v:.4g}" for v in vs))
        for i in range(len(rows) - 1):
            gap = vs[i] - vs[i + 1]
            comb = math.hypot(ses[i], ses[i + 1])
            if not gap > 2.0 * comb:
                failures.append(
                    f"d={d}, m {rows[i].m}->{rows[i + 1].m}: "
                    f"gap={gap:.4g} vs 2*SE={2 * comb:.4g}"
                )
    ok = _verdict(
        acceptance_log,
        "check 7 (expected volume factor strictly decreasing in m)",
        not failures,
        "; ".join(summary) + ("" if not failures else f"; {failures}"),
    )
    assert ok, failures


def test_check_8_exact_identities(acceptance_log):
    notes = []

    # streaming accumulation reproduces the offline batch means bit for bit
    gen = derive_stream(8080)
    path = [gen.standard_normal(3) for _ in range(300)]
    for kind in ("es", "ibs", "dbs"):
        plan = make_plan(300, 6, Allocation(kind=kind))
        acc = accumulate(plan, 3)
        for x in path:
            acc.feed(x)
        s = acc.finalize()
        o = summary_from_path(plan, path)
        assert np.array_equal(s.xi, o.xi) and np.array_equal(s.xbar, o.xbar)
        # the overall mean is the weight-vector contraction of batch means
        assert np.allclose(s.xbar, np.asarray(plan.weights) @ s.xi,
                           rtol=0, atol=1e-12)
    notes.append("streaming==offline and xbar==w@xi for es/ibs/dbs")

    # at d = 1 the joint region is exactly the marginal interval
    plan = make_plan(100, 10, Allocation(kind="ibs"))
    s = summary_from_path(plan, list(derive_stream(8081).standard_normal(100)))
    q = ScalingQuantile(alpha_hat=2.5, ci_low=2.5, ci_high=2.5, delta=0.05,
                        reps=10**4,
                        key=(1, 10, weights_key(plan.weights), 0.05, 10**4, 0))
    region = build_region(s, q)
    iv = marginal_intervals(s, q)
    half_joint = math.sqrt(region.scale * region.shape.entries[0, 0])
    assert half_joint == pytest.approx(float(iv.hi[0] - s.xbar[0]), rel=1e-10)
    for x in np.linspace(float(s.xbar[0]) - 3, float(s.xbar[0]) + 3, 41):
        assert contains(region, [x]) == (iv.lo[0] <= x <= iv.hi[0])
    notes.append("d=1 region == marginal interval")

    # translation and affine equivariance of the two covariance kernels,
    # using singleton batches so the batch means are the raw rows
    gen = derive_stream(8082)
    xi = gen.standard_normal((7, 3))
    G = gen.standard_normal((3, 3))
    t = gen.standard_normal(3)
    plan7 = make_plan(7, 7, Allocation(kind="es"))
    s_id = summary_from_path(plan7, xi)
    S = sample_cov(s_id).entries
    St = sample_cov(summary_from_path(plan7, xi + t)).entries
    SG = sample_cov(summary_from_path(plan7, xi @ G.T)).entries
    assert np.allclose(S, St, rtol=0, atol=1e-12)
    assert np.allclose(SG, G @ S @ G.T, rtol=1e-10, atol=1e-12)
    w = np.full(7, 1.0 / 7)
    gmat = g_of_skeleton(xi, w).entries
    gt = g_of_skeleton(xi + t, w).entries
    gG = g_of_skeleton(xi @ G.T, w).entries
    assert np.allclose(gmat, gt, rtol=0, atol=1e-12)
    assert np.allclose(gG, G @ gmat @ G.T, rtol=1e-10, atol=1e-12)
    notes.append("sample_cov and g_of_skeleton equivariant")

    # the pivot statistic vanishes exactly at the batch-mean center
    assert gamma_statistic(s_id, s_id.xbar) == 0.0
    notes.append("gamma(center)=0")

    # reported numbers are invariant to the worker-thread cap
    spec = LimitDrawSpec(2, 8, tuple(np.full(8, 0.125)))
    a1 = estimate_alpha(spec, 0.05, 20000, 77, threads=1)
    a3 = estimate_alpha(spec, 0.05, 20000, 77, threads=3)
    assert (a1.alpha_hat, a1.ci_low, a1.ci_high) == (a3.alpha_hat, a3.ci_low, a3.ci_high)
    cfg = CoverageConfig(model="linear", d=1, T=600, method="bm_joint", m=8,
                         alloc=Allocation(kind="es"), replications=8,
                         base_seed=3, cal_reps=10000)
    assert (run_coverage(cfg, threads=1).signature()
            == run_coverage(cfg, threads=3).signature())
    notes.append("thread-count invariance")

    _verdict(acceptance_log, "check 8 (exact identities)", True,
             "; ".join(notes))


def test_check_9_scope_limits_are_documented(acceptance_log):
    import pathlib

    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    wanted = ["scope and exclusions", "excluded", "direction"]
    missing = [w for w in wanted if w not in text]
    ok = _verdict(
        acceptance_log,
        "check 9 (README states what is out of reproduction scope)",
        not missing,
        "README has a scope section naming the excluded comparisons"
        if not missing else f"README missing: {missing}",
    )
    assert ok, missing
