"""Batch plans, streaming accumulation, and the scaled quadratic statistic.

The plan examples are frozen by hand evaluation of the boundary formulas;
the accumulator is checked against a brute-force offline recomputation.
"""

import numpy as np
import pytest

from sgdci.batching import (
    Allocation,
    BatchAccumulator,
    accumulate,
    gamma_statistic,
    ideal_weights,
    make_plan,
    sample_cov,
    sample_sigma,
    summary_from_path,
)
from sgdci.errors import (
    BatchCountTooSmall,
    BatchTooSmall,
    DegenerateCovariance,
    DimensionMismatch,
    FeedCountMismatch,
    InvalidBatchCount,
)
from sgdci.streams import derive_stream


class TestAllocation:
    def test_kinds_validated(self):
        with pytest.raises(ValueError):
            Allocation(kind="geometric")

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_exponent_domain(self, bad):
        with pytest.raises(ValueError):
            Allocation(kind="ibs", r=bad)

    def test_half_exponent_is_legal(self):
        # the allocation exponent is not tied to the step-size exponent
        Allocation(kind="ibs", r=0.5)

    def test_custom_requires_weights(self):
        with pytest.raises(ValueError):
            Allocation(kind="custom")
        with pytest.raises(ValueError):
            Allocation(kind="custom", custom_weights=(1.0, -1.0))

    def test_weights_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            Allocation(kind="es", custom_weights=(0.5, 0.5))


class TestMakePlan:
    def test_es_even_division(self):
        p = make_plan(100, 4, Allocation(kind="es"))
        assert p.boundaries.tolist() == [0, 25, 50, 75, 100]
        assert p.sizes.tolist() == [25, 25, 25, 25]

    def test_ibs_hand_boundary(self):
        # tau_1 = (1/2)^3 * 800 = 100 at r = 2/3
        p = make_plan(800, 2, Allocation(kind="ibs", r=2.0 / 3.0))
        assert p.boundaries.tolist() == [0, 100, 800]

    def test_dbs_reverses_ibs_sizes(self):
        p = make_plan(800, 2, Allocation(kind="dbs", r=2.0 / 3.0))
        assert p.sizes.tolist() == [700, 100]
        assert p.boundaries.tolist() == [0, 700, 800]

    def test_custom_boundaries(self):
        p = make_plan(100, 2, Allocation(kind="custom", custom_weights=(1.0, 3.0)))
        assert p.boundaries.tolist() == [0, 25, 100]

    @pytest.mark.parametrize(
        "T, m, alloc",
        [
            (10**4, 25, Allocation(kind="ibs", r=2.0 / 3.0)),
            (10**4, 40, Allocation(kind="ibs", r=0.55)),
            (997, 7, Allocation(kind="es")),
            (10**4, 40, Allocation(kind="dbs", r=2.0 / 3.0)),
        ],
    )
    def test_sizes_partition_T(self, T, m, alloc):
        p = make_plan(T, m, alloc)
        assert int(p.sizes.sum()) == T
        assert int(p.sizes.min()) >= 1
        assert p.boundaries[0] == 0 and p.boundaries[-1] == T
        assert np.all(np.diff(p.boundaries) >= 1)

    def test_ibs_sizes_nondecreasing(self):
        p = make_plan(10**4, 40, Allocation(kind="ibs", r=2.0 / 3.0))
        assert np.all(np.diff(p.sizes) >= 0)

    def test_dbs_sizes_nonincreasing(self):
        p = make_plan(10**4, 40, Allocation(kind="dbs", r=2.0 / 3.0))
        assert np.all(np.diff(p.sizes) <= 0)

    def test_weights_sum_to_one(self):
        p = make_plan(5000, 12, Allocation(kind="ibs", r=0.7))
        assert float(p.weights.sum()) == pytest.approx(1.0)
        assert p.c[0] == 0.0 and p.c[-1] == 1.0

    def test_small_m_rejected(self):
        with pytest.raises(InvalidBatchCount):
            make_plan(100, 1, Allocation(kind="es"))

    def test_infeasible_T_rejected(self):
        with pytest.raises(BatchTooSmall):
            make_plan(3, 4, Allocation(kind="es"))

    def test_custom_weight_count_checked(self):
        with pytest.raises(DimensionMismatch):
            make_plan(100, 3, Allocation(kind="custom", custom_weights=(1.0, 1.0)))


class TestIdealWeights:
    def test_es_uniform(self):
        w = ideal_weights(4, Allocation(kind="es"))
        assert np.allclose(w, 0.25)

    def test_ibs_matches_cumulative_curve(self):
        w = ideal_weights(2, Allocation(kind="ibs", r=2.0 / 3.0))
        assert w[0] == pytest.approx(0.125)
        assert w[1] == pytest.approx(0.875)

    def test_dbs_is_reversed_ibs(self):
        wi = ideal_weights(6, Allocation(kind="ibs", r=0.6))
        wd = ideal_weights(6, Allocation(kind="dbs", r=0.6))
        assert np.allclose(wd, wi[::-1])

    def test_custom_normalized(self):
        w = ideal_weights(2, Allocation(kind="custom", custom_weights=(2.0, 6.0)))
        assert np.allclose(w, [0.25, 0.75])

    def test_all_kinds_sum_to_one(self):
        for alloc in (
            Allocation(kind="es"),
            Allocation(kind="ibs", r=0.55),
            Allocation(kind="dbs", r=0.8),
        ):
            assert float(ideal_weights(13, alloc).sum()) == pytest.approx(1.0)


class TestAccumulate:
    def test_hand_means(self):
        plan = make_plan(4, 2, Allocation(kind="es"))
        acc = accumulate(plan, 1)
        for v in (1.0, 3.0, 5.0, 7.0):
            acc.feed(np.array([v]))
        s = acc.finalize()
        assert s.xi.ravel().tolist() == [2.0, 6.0]
        assert s.xbar.tolist() == [4.0]

    def test_constant_path(self):
        plan = make_plan(10, 3, Allocation(kind="ibs", r=0.6))
        acc = accumulate(plan, 2)
        c = np.array([1.5, -2.0])
        for _ in range(10):
            acc.feed(c)
        s = acc.finalize()
        assert np.allclose(s.xi, c)
        assert np.allclose(s.xbar, c)

    @pytest.mark.parametrize("kind", ["es", "ibs", "dbs"])
    def test_streaming_equals_offline(self, kind):
        gen = derive_stream(808)
        plan = make_plan(137, 5, Allocation(kind=kind, r=0.7))
        path = [gen.standard_normal(3) for _ in range(137)]
        acc = accumulate(plan, 3)
        for x in path:
            acc.feed(x)
        s = acc.finalize()
        o = summary_from_path(plan, path)
        assert np.array_equal(s.xi, o.xi)
        assert np.array_equal(s.xbar, o.xbar)

    def test_underfeed_detected(self):
        plan = make_plan(4, 2, Allocation(kind="es"))
        acc = accumulate(plan, 1)
        acc.feed(np.array([1.0]))
        with pytest.raises(FeedCountMismatch):
            acc.finalize()

    def test_overfeed_detected(self):
        plan = make_plan(2, 2, Allocation(kind="es"))
        acc = accumulate(plan, 1)
        acc.feed(np.array([1.0]))
        acc.feed(np.array([1.0]))
        with pytest.raises(FeedCountMismatch):
            acc.feed(np.array([1.0]))

    def test_weighted_mean_identity(self):
        # xbar must equal sum_i (b_i / T) Xi_i for every plan
        gen = derive_stream(5150)
        plan = make_plan(211, 7, Allocation(kind="ibs", r=2.0 / 3.0))
        acc = accumulate(plan, 2)
        for _ in range(211):
            acc.feed(gen.standard_normal(2))
        s = acc.finalize()
        recomposed = (plan.weights[:, None] * s.xi).sum(axis=0)
        assert np.allclose(recomposed, s.xbar, atol=1e-14)


class TestSampleCov:
    def test_zero_spread(self):
        plan = make_plan(4, 2, Allocation(kind="es"))
        acc = accumulate(plan, 2)
        for _ in range(4):
            acc.feed(np.array([3.0, -1.0]))
        S = sample_cov(acc.finalize())
        assert np.allclose(S.entries, 0.0)

    def test_hand_scalar(self):
        plan = make_plan(2, 2, Allocation(kind="es"))
        acc = accumulate(plan, 1)
        acc.feed(np.array([1.0]))
        acc.feed(np.array([3.0]))
        S = sample_cov(acc.finalize())
        assert S.entries[0, 0] == pytest.approx(2.0)

    def test_hand_singular_2d(self):
        plan = make_plan(2, 2, Allocation(kind="es"))
        acc = accumulate(plan, 2)
        acc.feed(np.array([1.0, 0.0]))
        acc.feed(np.array([0.0, 1.0]))
        S = sample_cov(acc.finalize())
        assert np.allclose(S.entries, [[0.5, -0.5], [-0.5, 0.5]])

    def test_translation_invariance(self):
        gen = derive_stream(33)
        plan = make_plan(60, 6, Allocation(kind="es"))
        path = [gen.standard_normal(2) for _ in range(60)]
        shift = np.array([10.0, -4.0])
        S0 = sample_cov(summary_from_path(plan, path))
        S1 = sample_cov(summary_from_path(plan, [x + shift for x in path]))
        assert np.allclose(S0.entries, S1.entries, atol=1e-12)

    def test_affine_equivariance(self):
        gen = derive_stream(34)
        plan = make_plan(60, 6, Allocation(kind="es"))
        path = [gen.standard_normal(2) for _ in range(60)]
        G = np.array([[2.0, 1.0], [0.0, -1.0]])
        S0 = sample_cov(summary_from_path(plan, path))
        S1 = sample_cov(summary_from_path(plan, [G @ x for x in path]))
        assert np.allclose(S1.entries, G @ S0.entries @ G.T, atol=1e-10)

    def test_sigma_is_root_of_the_diagonal(self):
        gen = derive_stream(35)
        plan = make_plan(60, 6, Allocation(kind="ibs"))
        s = summary_from_path(plan, [gen.standard_normal(3) for _ in range(60)])
        diag = np.diag(sample_cov(s).entries)
        assert np.allclose(sample_sigma(s) ** 2, diag, rtol=1e-14, atol=0)


class TestGammaStatistic:
    def _scalar_summary(self):
        plan = make_plan(2, 2, Allocation(kind="es"))
        acc = accumulate(plan, 1)
        acc.feed(np.array([1.0]))
        acc.feed(np.array([3.0]))
        return acc.finalize()

    def test_zero_at_center(self):
        s = self._scalar_summary()
        assert gamma_statistic(s, s.xbar) == pytest.approx(0.0)

    def test_hand_value(self):
        # m=2, d=1: factor = 2*1/(1*1) = 2; (2-0)^2 / S = 4/2 = 2; total 4
        s = self._scalar_summary()
        assert gamma_statistic(s, np.array([0.0])) == pytest.approx(4.0)

    def test_degenerate_spread(self):
        plan = make_plan(2, 2, Allocation(kind="es"))
        acc = accumulate(plan, 1)
        acc.feed(np.array([2.0]))
        acc.feed(np.array([2.0]))
        with pytest.raises(DegenerateCovariance):
            gamma_statistic(acc.finalize(), np.array([0.0]))

    def test_batch_count_guard(self):
        plan = make_plan(4, 2, Allocation(kind="es"))
        acc = accumulate(plan, 2)
        for v in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]):
            acc.feed(np.array(v))
        with pytest.raises(BatchCountTooSmall):
            gamma_statistic(acc.finalize(), np.zeros(2))


def test_accumulator_is_constant_memory():
    plan = make_plan(1000, 4, Allocation(kind="es"))
    acc = BatchAccumulator(plan, 3)
    assert acc._sums.shape == (4, 3)
