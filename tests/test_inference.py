"""Region assembly, membership, volumes, and marginal intervals."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sgdci import calibration, inference
from sgdci.batching import (
    Allocation,
    BatchMeansSummary,
    accumulate,
    ideal_weights,
    make_plan,
    summary_from_path,
)
from sgdci.calibration import (
    LimitDrawSpec,
    ScalingQuantile,
    estimate_alpha,
    weights_key,
)
from sgdci.errors import (
    BatchCountTooSmall,
    DegenerateCovariance,
    DimensionMismatch,
    KeyMismatch,
)
from sgdci.inference import (
    build_region,
    contains,
    expected_volume_factor,
    marginal_intervals,
    region_volume,
    submit_volume_factor,
    unit_ball_volume,
)
from sgdci.streams import derive_stream


def manual_quantile(alpha, d, m, w, delta=0.05):
    """A ScalingQuantile carrying a chosen value with a matching key."""
    return ScalingQuantile(
        alpha_hat=alpha,
        ci_low=alpha,
        ci_high=alpha,
        delta=delta,
        reps=10**4,
        key=(d, m, weights_key(w), delta, 10**4, 0),
    )


def scalar_summary():
    """m = 2 even batches with batch means (1, 3): xbar = 2, S = 2."""
    plan = make_plan(2, 2, Allocation(kind="es"))
    return summary_from_path(plan, [1.0, 3.0])


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


class TestBuildRegion:
    def test_hand_interval(self):
        # scale = 1*1/(2*1) * 4 = 2, so the region is (2-x)^2/2 <= 2 = [0, 4]
        s = scalar_summary()
        region = build_region(s, manual_quantile(4.0, 1, 2, s.plan.weights))
        assert region.scale == pytest.approx(2.0)
        assert contains(region, [0.0])
        assert contains(region, [4.0])
        assert contains(region, [2.0])
        assert not contains(region, [5.0])
        assert not contains(region, [-0.001])

    def test_center_always_contained(self):
        s = scalar_summary()
        region = build_region(s, manual_quantile(0.5, 1, 2, s.plan.weights))
        assert contains(region, region.center)

    def test_key_mismatch_dim(self):
        s = scalar_summary()
        with pytest.raises(KeyMismatch):
            build_region(s, manual_quantile(4.0, 2, 2, s.plan.weights))

    def test_key_mismatch_weights(self):
        s = scalar_summary()
        with pytest.raises(KeyMismatch):
            build_region(s, manual_quantile(4.0, 1, 2, (0.3, 0.7)))

    def test_batch_count_guard(self):
        plan = make_plan(4, 2, Allocation(kind="es"))
        path = [np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                np.array([0.0, 1.0]), np.array([0.0, 1.0])]
        s = summary_from_path(plan, path)
        with pytest.raises(BatchCountTooSmall):
            build_region(s, manual_quantile(1.0, 2, 2, plan.weights))

    def test_degenerate_covariance(self):
        plan = make_plan(4, 2, Allocation(kind="es"))
        s = summary_from_path(plan, [2.0, 2.0, 2.0, 2.0])
        with pytest.raises(DegenerateCovariance):
            build_region(s, manual_quantile(1.0, 1, 2, plan.weights))

    def test_contains_dimension_check(self):
        s = scalar_summary()
        region = build_region(s, manual_quantile(4.0, 1, 2, s.plan.weights))
        with pytest.raises(DimensionMismatch):
            contains(region, [1.0, 2.0])

    def test_nesting_in_delta(self):
        s = scalar_summary()
        wide = build_region(s, manual_quantile(6.0, 1, 2, s.plan.weights, delta=0.01))
        narrow = build_region(s, manual_quantile(4.0, 1, 2, s.plan.weights))
        gen = derive_stream(404)
        for _ in range(50):
            x = np.array([gen.uniform(-2.0, 6.0)])
            if contains(narrow, x):
                assert contains(wide, x)


class TestRegionVolume:
    def test_interval_length(self):
        s = scalar_summary()
        region = build_region(s, manual_quantile(4.0, 1, 2, s.plan.weights))
        assert region_volume(region) == pytest.approx(4.0)

    def test_matches_ellipsoid_formula(self):
        gen = derive_stream(405)
        plan = make_plan(40, 8, Allocation(kind="ibs", r=2.0 / 3.0))
        s = summary_from_path(plan, [gen.standard_normal(2) for _ in range(40)])
        region = build_region(s, manual_quantile(1.7, 2, 8, plan.weights))
        det = float(np.sqrt(np.linalg.det(region.shape.entries)))
        expected = region.scale * det * math.pi
        assert region_volume(region) == pytest.approx(expected, rel=1e-10)


class TestMarginalIntervals:
    def test_hand_interval(self):
        # m = 4, sigma = 1, alpha = 4: half width sqrt(4/4)*1 = 1
        plan = make_plan(4, 4, Allocation(kind="es"))
        dev = math.sqrt(3.0) / 2.0
        xi = np.array([[2.0 - dev], [2.0 + dev], [2.0 - dev], [2.0 + dev]])
        s = BatchMeansSummary(plan=plan, xi=xi, xbar=np.array([2.0]), d=1)
        iv = marginal_intervals(s, manual_quantile(4.0, 1, 4, plan.weights))
        assert iv.sigma[0] == pytest.approx(1.0)
        assert iv.lo[0] == pytest.approx(1.0)
        assert iv.hi[0] == pytest.approx(3.0)

    def test_zero_spread_degenerates_to_point(self):
        plan = make_plan(4, 4, Allocation(kind="es"))
        s = summary_from_path(plan, [5.0, 5.0, 5.0, 5.0])
        iv = marginal_intervals(s, manual_quantile(4.0, 1, 4, plan.weights))
        assert iv.lo[0] == iv.hi[0] == 5.0

    def test_requires_one_dim_calibration(self):
        s = scalar_summary()
        with pytest.raises(KeyMismatch):
            marginal_intervals(s, manual_quantile(4.0, 2, 2, s.plan.weights))

    def test_requires_matching_plan(self):
        s = scalar_summary()
        with pytest.raises(KeyMismatch):
            marginal_intervals(s, manual_quantile(4.0, 1, 4, (0.25,) * 4))

    def test_joint_equals_marginal_at_d1(self):
        gen = derive_stream(406)
        plan = make_plan(100, 10, Allocation(kind="ibs", r=2.0 / 3.0))
        s = summary_from_path(plan, list(gen.standard_normal(100)))
        q = manual_quantile(2.5, 1, 10, plan.weights)
        region = build_region(s, q)
        iv = marginal_intervals(s, q)
        # the joint region is an interval; its endpoints solve
        # (xbar - x)^2 / S = scale
        half_joint = math.sqrt(region.scale * region.shape.entries[0, 0])
        assert half_joint == pytest.approx(
            float(iv.hi[0] - s.xbar[0]), rel=1e-10
        )
        for x in np.linspace(s.xbar[0] - 3, s.xbar[0] + 3, 41):
            in_region = contains(region, [x])
            in_interval = iv.lo[0] <= x <= iv.hi[0]
            assert in_region == in_interval


class TestExpectedVolumeFactor:
    def test_deterministic(self):
        w = tuple([0.1] * 10)
        q = estimate_alpha(LimitDrawSpec(1, 10, w), 0.05, 10**4, 90)
        a = expected_volume_factor(1, 10, w, q, 10**4, derive_stream(91))
        b = expected_volume_factor(1, 10, w, q, 10**4, derive_stream(91))
        assert a.estimate == b.estimate
        assert a.std_error == b.std_error
        assert a.estimate > 0 and a.std_error > 0

    def test_key_checked(self):
        w = tuple([0.1] * 10)
        q = manual_quantile(2.0, 1, 10, w)
        with pytest.raises(KeyMismatch):
            expected_volume_factor(2, 10, w, q, 10**4, derive_stream(92))

    def test_diminishing_returns_in_batch_count(self):
        # the drop from m=20 to m=40 dwarfs the drop from m=100 to m=120
        vals = {}
        for m in (20, 40, 100, 120):
            w = tuple([1.0 / m] * m)
            q = estimate_alpha(LimitDrawSpec(1, m, w), 0.05, 10**6, 93)
            vf = expected_volume_factor(1, m, w, q, 5 * 10**5, derive_stream(94, m))
            vals[m] = vf
        gap_early = vals[20].estimate - vals[40].estimate
        gap_late = vals[100].estimate - vals[120].estimate
        spread = 2.0 * math.hypot(
            vals[20].std_error, vals[40].std_error,
            vals[100].std_error, vals[120].std_error,
        )
        assert gap_early > gap_late + spread

    @pytest.mark.parametrize("n", [1, 2, 129, 10**5 + 1])
    def test_mean_and_se_equal_numpy_bit_for_bit(self, n, monkeypatch):
        # draws spanning about six decades, past numpy's 128-element
        # pairwise-summation block at n = 129 and 10**5 + 1
        dets = derive_stream(41, n).lognormal(0.0, 2.0, n)
        monkeypatch.setattr(inference, "det_sqrt_draws", lambda spec, gen, reps: dets.copy())
        w = tuple([0.125] * 8)
        vf = expected_volume_factor(1, 8, w, manual_quantile(2.0, 1, 8, w), n, derive_stream(0))
        se = dets.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
        assert (vf.e_det_sqrt.hex(), vf.se_det_sqrt.hex()) == (float(dets.mean()).hex(),
                                                               float(se).hex())

    def test_pass_holds_its_draws_once(self):
        # 1e6 draws (7.6 MiB) and one window's working set, at most four
        # windows of doubles; std(ddof=1) over the draws made a second array
        n = 10**6
        w = tuple(ideal_weights(6, Allocation(kind="ibs")))
        q = manual_quantile(2.0, 1, 6, w)
        with ThreadPoolExecutor(max_workers=1) as pool:
            tracemalloc.start()
            try:
                submit_volume_factor(pool, LimitDrawSpec(1, 6, w), n, derive_stream(2))(q)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 8 * n + 4 * 8 * calibration._BLOCK_DOUBLES
