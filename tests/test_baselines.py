"""Sectioning and fixed-width batch-interval baselines."""

import numpy as np
import pytest
from scipy.special import ndtri

from sgdci import sgd
from sgdci.baselines import (
    bmi_batch_count,
    bmi_from_stats,
    bmi_infer,
    sectioning_infer,
)
from sgdci.calibration import f_quantile
from sgdci.inference import contains
from sgdci.models import linear_oracle, linspace_params, logistic_oracle
from sgdci.sgd import SgdRunConfig, StepSchedule, single_run
from sgdci.streams import derive_stream


def test_batch_count_rule():
    assert bmi_batch_count(10**5) == 18
    assert bmi_batch_count(16) == 2
    assert bmi_batch_count(10**4) == 10


def test_bmi_from_stats_hand_values():
    res = bmi_from_stats(np.array([0.0]), np.array([2.0]), 4, 0.05)
    z = float(ndtri(0.975))
    assert res.marginal_hi[0] == pytest.approx(z * 2.0 / 2.0)
    # one coordinate: the Bonferroni joint band equals the marginal band
    assert res.joint_hi[0] == pytest.approx(res.marginal_hi[0])


def test_bmi_joint_band_widens_with_dimension():
    res = bmi_from_stats(np.zeros(3), np.ones(3), 9, 0.05)
    z_marg = float(ndtri(1.0 - 0.05 / 2.0))
    z_joint = float(ndtri(1.0 - 0.05 / 6.0))
    assert res.marginal_hi[0] == pytest.approx(z_marg / 3.0)
    assert res.joint_hi[0] == pytest.approx(z_joint / 3.0)
    assert res.joint_hi[0] > res.marginal_hi[0]


def test_bmi_infer_deterministic():
    params = linspace_params(2)
    a = bmi_infer(linear_oracle(params), T=4000, delta=0.05, gen=derive_stream(7))
    b = bmi_infer(linear_oracle(params), T=4000, delta=0.05, gen=derive_stream(7))
    assert np.array_equal(a.center, b.center)
    assert a.m_n == b.m_n == bmi_batch_count(4000)


def test_bmi_infer_minimum_run_length():
    params = linspace_params(1)
    with pytest.raises(ValueError):
        bmi_infer(linear_oracle(params), T=15, delta=0.05, gen=derive_stream(8))


def _no_stepping(*args, **kwargs):
    raise AssertionError("a chain stepped")


@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, float("nan")])
def test_bmi_rejects_delta_outside_the_unit_interval(delta, monkeypatch):
    monkeypatch.setattr(sgd, "run_chains", _no_stepping)  # rejected before any step
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        bmi_infer(linear_oracle(linspace_params(2)), T=400, delta=delta, gen=derive_stream(9))


def test_width_comparison_predicate():
    # a batch-means band beats the normal-quantile band exactly when the
    # calibrated scaling stays below z^2; both widths share sigma / sqrt(m)
    z = float(ndtri(0.975))
    for alpha in (2.0, 6.0):
        width_bm = np.sqrt(alpha)
        width_bmi = z
        assert (width_bmi < width_bm) == (z**2 < alpha)


class TestSectioning:
    def setup_method(self):
        self.params = linspace_params(2)
        self.oracle = linear_oracle(self.params)

    def test_deterministic(self):
        kw = dict(m=8, total_T=4000, schedule=StepSchedule(), delta=0.05, base_seed=5)
        a = sectioning_infer(self.oracle, **kw)
        b = sectioning_infer(self.oracle, **kw)
        assert np.array_equal(a.section_means, b.section_means)
        assert np.array_equal(a.pooled_mean, b.pooled_mean)

    def test_sections_are_distinct_runs(self):
        res = sectioning_infer(
            self.oracle, m=6, total_T=3000, schedule=StepSchedule(),
            delta=0.05, base_seed=6,
        )
        assert res.section_means.shape == (6, 2)
        diffs = np.ptp(res.section_means, axis=0)
        assert np.all(diffs > 0)

    def test_joint_scale_is_exact_f_quantile(self):
        m, d = 10, 2
        res = sectioning_infer(
            self.oracle, m=m, total_T=5000, schedule=StepSchedule(),
            delta=0.05, base_seed=7,
        )
        alpha = f_quantile(d, m - d, 0.95)
        expected_scale = d * (m - 1) / (m * (m - d)) * alpha
        assert res.region.scale == pytest.approx(expected_scale, rel=1e-9)
        assert res.region.alpha.reps == 0  # marks an exact quantile
        assert contains(res.region, res.pooled_mean)

    def test_marginal_uses_one_dim_f(self):
        m = 8
        res = sectioning_infer(
            self.oracle, m=m, total_T=4000, schedule=StepSchedule(),
            delta=0.05, base_seed=8,
        )
        alpha_1 = f_quantile(1, m - 1, 0.95)
        half = np.sqrt(alpha_1 / m) * res.intervals.sigma
        assert np.allclose(res.intervals.hi - res.pooled_mean, half, rtol=1e-10)

    def test_no_joint_region_when_sections_too_few(self):
        params5 = linspace_params(5)
        res = sectioning_infer(
            linear_oracle(params5), m=4, total_T=2000,
            schedule=StepSchedule(), delta=0.05, base_seed=9,
        )
        assert res.region is None
        assert res.intervals is not None

    def test_section_count_floor(self):
        with pytest.raises(ValueError):
            sectioning_infer(
                self.oracle, m=1, total_T=100, schedule=StepSchedule(),
                delta=0.05, base_seed=10,
            )

    def test_empty_sections_rejected(self):
        with pytest.raises(ValueError):
            sectioning_infer(
                self.oracle, m=50, total_T=30, schedule=StepSchedule(),
                delta=0.05, base_seed=11,
            )

    @pytest.mark.parametrize("delta", [-0.5, 1.5, float("nan")])
    def test_delta_is_checked_before_any_step(self, delta, monkeypatch):
        monkeypatch.setattr(sgd, "run_chains", _no_stepping)
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            sectioning_infer(self.oracle, m=8, total_T=400, schedule=StepSchedule(),
                             delta=delta, base_seed=0)

    @pytest.mark.parametrize("make, d, m, T", [(linear_oracle, 2, 30, 20000),
                                               (logistic_oracle, 3, 15, 3000),
                                               (linear_oracle, 5, 8, 4000)])
    def test_section_j_is_a_serial_run_on_stream_zero_j(self, make, d, m, T):
        oracle = make(linspace_params(d))
        res = sectioning_infer(oracle, m=m, total_T=T, schedule=StepSchedule(), delta=0.05,
                               base_seed=12, burn_in=10)
        cfg = SgdRunConfig(T=T // m, burn_in=10)
        serial = [single_run(oracle, cfg, derive_stream(12, 0, j), [0, T // m])[1]
                  for j in range(m)]
        assert np.array_equal(res.section_means, np.array(serial))
        assert np.array_equal(res.pooled_mean, np.array(serial).mean(axis=0))
        assert res.section_T == T // m
