"""Limiting-law simulation and quantile calibration.

The Monte Carlo sampler is cross-checked two independent ways: the even
weight case must bracket exact F quantiles, and the batched chunk evaluator
must reproduce the one-draw-at-a-time reference path draw for draw.
"""

import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from sgdci import calibration
from sgdci.batching import Allocation, _joint_constant, ideal_weights, make_plan
from sgdci.calibration import (
    LimitDrawSpec,
    QuantileCache,
    ScalingQuantile,
    _binom_ppf,
    _chunk_size,
    _eval_chunk,
    estimate_alpha,
    f_quantile,
    g_of_skeleton,
    simulate_limit_draw,
    spec_from_plan,
    weights_key,
)
from sgdci.errors import DimensionMismatch
from sgdci.inference import expected_volume_factor
from sgdci.linalg import det_sqrt
from sgdci.streams import derive_stream


def even_spec(d, m):
    return LimitDrawSpec(d, m, tuple([1.0 / m] * m))


class TestSkeletonCovariance:
    def test_equal_slopes_cancel(self):
        g = g_of_skeleton(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        assert g.entries[0, 0] == pytest.approx(0.0)

    def test_hand_value(self):
        # slopes (2, 0), B(1) = 1: ((2-1)^2 + (0-1)^2) / 1 = 2
        g = g_of_skeleton(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert g.entries[0, 0] == pytest.approx(2.0)

    def test_linear_drift_invisible(self):
        w = np.array([0.1, 0.3, 0.6])
        v = np.array([2.5, -1.0])
        D = v[None, :] * w[:, None]
        g = g_of_skeleton(D, w)
        assert np.allclose(g.entries, 0.0, atol=1e-12)

    def test_drift_shift_leaves_g_unchanged(self):
        gen = derive_stream(61)
        w = ideal_weights(5, Allocation(kind="ibs", r=2.0 / 3.0))
        D = gen.standard_normal((5, 3)) * np.sqrt(w)[:, None]
        v = gen.standard_normal(3)
        g0 = g_of_skeleton(D, w)
        g1 = g_of_skeleton(D + v[None, :] * w[:, None], w)
        assert np.allclose(g0.entries, g1.entries, atol=1e-10)

    def test_affine_equivariance(self):
        gen = derive_stream(62)
        w = np.full(6, 1.0 / 6.0)
        D = gen.standard_normal((6, 2)) * np.sqrt(w)[:, None]
        G = np.array([[1.0, 2.0], [0.0, 3.0]])
        g0 = g_of_skeleton(D, w)
        g1 = g_of_skeleton(D @ G.T, w)
        assert np.allclose(g1.entries, G @ g0.entries @ G.T, atol=1e-10)

    def test_single_increment_is_zero_matrix(self):
        g = g_of_skeleton(np.array([[1.0, 2.0]]), np.array([1.0]))
        assert np.allclose(g.entries, 0.0)

    def test_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            g_of_skeleton(np.ones((3, 2)), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_rank_law_small_sample(self, d):
        # m <= d: determinant exactly zero; m = d+1: strictly positive
        base = derive_stream(63, d)
        w_low = np.full(d, 1.0 / d)
        w_hi = np.full(d + 1, 1.0 / (d + 1))
        for _ in range(200):
            D = base.standard_normal((d, d)) * np.sqrt(w_low)[:, None]
            assert det_sqrt(g_of_skeleton(D, w_low)) == 0.0
            D = base.standard_normal((d + 1, d)) * np.sqrt(w_hi)[:, None]
            assert det_sqrt(g_of_skeleton(D, w_hi)) > 0.0


class TestLimitDrawSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LimitDrawSpec(1, 2, (0.4, 0.4))

    def test_batch_count_must_exceed_dim(self):
        with pytest.raises(ValueError):
            LimitDrawSpec(3, 3, (1 / 3, 1 / 3, 1 / 3))

    def test_factor(self):
        assert 1 / _joint_constant(1, 2) == 2.0

    def test_spec_from_plan(self):
        plan = make_plan(800, 2, Allocation(kind="ibs", r=2.0 / 3.0))
        s = spec_from_plan(plan, 1)
        assert s.w == pytest.approx((0.125, 0.875))


class TestSimulateLimitDraw:
    def test_nonnegative(self):
        s = even_spec(2, 8)
        stream = derive_stream(70)
        for _ in range(100):
            assert simulate_limit_draw(s, stream) >= 0.0

    def test_deterministic_under_lineage(self):
        s = even_spec(1, 4)
        a = simulate_limit_draw(s, derive_stream(71, 5))
        b = simulate_limit_draw(s, derive_stream(71, 5))
        assert a == b

    # the heavy-tail caution is the expected behavior at m - d = 1
    @pytest.mark.filterwarnings("ignore:m - d")
    def test_extreme_quantile_matches_f_1_1(self):
        # the m=2, d=1 even case is F(1,1); its 95% quantile is 161.45
        sq = estimate_alpha(even_spec(1, 2), 0.05, 10**6, 97)
        assert abs(sq.alpha_hat - f_quantile(1, 1, 0.95)) < 3.0


class TestEstimateAlpha:
    def test_order_statistic_ci_ordering(self):
        sq = estimate_alpha(even_spec(1, 10), 0.05, 2 * 10**4, 42)
        assert sq.ci_low <= sq.alpha_hat <= sq.ci_high

    def test_even_weights_bracket_exact_quantile(self):
        sq = estimate_alpha(even_spec(2, 12), 0.05, 10**5, 1234)
        exact = f_quantile(2, 10, 0.95)
        assert sq.ci_low <= exact <= sq.ci_high

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            estimate_alpha(even_spec(1, 10), 0.05, 5000, 0)

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            estimate_alpha(even_spec(1, 10), 0.0, 10**4, 0)

    def test_narrow_gap_warns(self):
        with pytest.warns(UserWarning):
            estimate_alpha(even_spec(4, 6), 0.05, 10**4, 3)

    def test_deterministic(self):
        a = estimate_alpha(even_spec(1, 6), 0.05, 10**4, 9)
        b = estimate_alpha(even_spec(1, 6), 0.05, 10**4, 9)
        assert a.alpha_hat == b.alpha_hat
        assert a.key == b.key

    def test_thread_count_invariance(self):
        spec = even_spec(2, 10)
        one = estimate_alpha(spec, 0.05, 3 * 10**4, 17, threads=1)
        three = estimate_alpha(spec, 0.05, 3 * 10**4, 17, threads=3)
        assert one.alpha_hat == three.alpha_hat
        assert one.ci_low == three.ci_low
        assert one.ci_high == three.ci_high

    def test_chunked_path_matches_serial_reference(self):
        # route A: the vectorized chunk evaluator; route B: one draw at a
        # time through the scalar reference implementation, same stream.
        # The unevenly weighted cases run over three blocks and part of a
        # fourth.
        ibs = Allocation(kind="ibs", r=2.0 / 3.0)
        cases = [(even_spec(2, 7), 50)] + [
            (LimitDrawSpec(d, m, tuple(ideal_weights(m, ibs))),
             3 * (calibration._BLOCK_DOUBLES // (m * d + d)) + 5)
            for d, m in ((1, 1000), (2, 500), (5, 200))
        ]
        for spec, n in cases:
            chunk_stats = _eval_chunk(spec, n, 0, 555)
            stream = derive_stream(555, 0)
            serial = np.array([simulate_limit_draw(spec, stream) for _ in range(n)])
            assert np.allclose(chunk_stats, serial, rtol=1e-9, atol=1e-12), (spec.d, spec.m)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_block_size_does_not_change_results(self, d, monkeypatch):
        w = ideal_weights(d + 9, Allocation(kind="ibs", r=2.0 / 3.0))
        spec = LimitDrawSpec(d, d + 9, tuple(w))
        alpha = ScalingQuantile(1.0, 0.9, 1.1, 0.05, 10**4,
                                (d, spec.m, weights_key(w), 0.05, 10**4, 0))

        def run():
            vol = expected_volume_factor(d, spec.m, w, alpha, 300, derive_stream(3))
            return _eval_chunk(spec, 300, 2, 8), vol.e_det_sqrt, vol.se_det_sqrt

        one_block = run()
        monkeypatch.setattr(calibration, "_BLOCK_DOUBLES", 64)  # 16-draw blocks
        many_blocks = run()
        assert np.array_equal(one_block[0], many_blocks[0])
        assert one_block[1:] == many_blocks[1:]

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_singular_draw_is_rescued(self, d, monkeypatch):
        # a zero G in the first block fails its batched solve; the zero G is
        # solved against I and then replaced from the rescue stream, and every
        # other draw keeps its clean value.
        spec = even_spec(d, d + 9)
        n, k, seed, bad = 300, 3, 8, 5
        monkeypatch.setattr(calibration, "_BLOCK_DOUBLES", 64)  # 16-draw blocks
        clean = _eval_chunk(spec, n, k, seed)
        gram_blocks = calibration._gram_blocks

        def zero_one_draw(*args, **kwargs):
            for b, (G, Z) in enumerate(gram_blocks(*args, **kwargs)):
                if b == 0:
                    G[bad] = 0.0
                yield G, Z

        monkeypatch.setattr(calibration, "_gram_blocks", zero_one_draw)
        stats = _eval_chunk(spec, n, k, seed)
        assert np.all(np.isfinite(stats))
        assert stats[bad] == simulate_limit_draw(spec, derive_stream(seed, 2**32 + k))
        others = np.arange(n) != bad
        assert np.array_equal(stats[others], clean[others])

    def test_chunk_memory_is_one_block(self):
        spec = even_spec(5, 100)
        tracemalloc.start()
        try:
            _eval_chunk(spec, _chunk_size(spec), 0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("reps", [10**4, 3 * 10**4 + 7, 10**5, 10**6, 10**7])
    def test_order_statistic_ranks_match_scipy(self, reps):
        from scipy.stats import binom

        for p in (0.5, 0.9, 0.95, 0.975, 0.99):
            for q in (0.025, 0.975):
                assert _binom_ppf(q, reps, p) == int(binom.ppf(q, reps, p))

    def test_quantile_monotone_in_delta(self):
        spec = even_spec(1, 8)
        tight = estimate_alpha(spec, 0.01, 5 * 10**4, 21)
        loose = estimate_alpha(spec, 0.10, 5 * 10**4, 21)
        assert tight.alpha_hat > loose.alpha_hat


class TestQuantileCache:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "q.json"
        cache = QuantileCache(path)
        sq = estimate_alpha(even_spec(1, 6), 0.05, 10**4, 77, cache=cache)
        reloaded = QuantileCache(path)
        hit = reloaded.get(sq.key)
        assert hit is not None
        assert hit.alpha_hat == sq.alpha_hat

    def test_hit_skips_recompute(self, tmp_path):
        path = tmp_path / "q.json"
        cache = QuantileCache(path)
        first = estimate_alpha(even_spec(1, 6), 0.05, 10**4, 78, cache=cache)
        # poison the stored value; a cache hit must surface the poison
        cache._records[cache._key_str(first.key)]["alpha_hat"] = -1.0
        hit = estimate_alpha(even_spec(1, 6), 0.05, 10**4, 78, cache=cache)
        assert hit.alpha_hat == -1.0

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = QuantileCache(tmp_path / "q.json")
        a = estimate_alpha(even_spec(1, 6), 0.05, 10**4, 80, cache=cache)
        b = estimate_alpha(even_spec(1, 6), 0.05, 10**4, 81, cache=cache)
        assert a.key != b.key
        assert len(cache._records) == 2

    def test_records_of_other_routes_are_not_served(self, tmp_path):
        spec = even_spec(1, 6)
        fresh = estimate_alpha(spec, 0.05, 10**4, 82)
        d, m, wkey, delta, reps, seed = fresh.key
        # a record in the unversioned key format of earlier releases, and one
        # made by the previous draw route
        for prefix in ("", "route=2|"):
            path = tmp_path / f"q{len(prefix)}.json"
            stale = f"{prefix}d={d}|m={m}|w={wkey}|delta={delta!r}|reps={reps}|seed={seed}"
            path.write_text(json.dumps({stale: {
                "d": d, "m": m, "weights_key": wkey, "delta": delta, "reps": reps,
                "base_seed": seed, "alpha_hat": -1.0, "ci_low": -2.0, "ci_high": 0.0}}))
            served = estimate_alpha(spec, 0.05, 10**4, 82, cache=QuantileCache(path))
            assert served == fresh
            stored = json.loads(path.read_text())
            assert list(stored) == [QuantileCache._key_str(fresh.key)]
            assert stored[QuantileCache._key_str(fresh.key)]["alpha_hat"] == fresh.alpha_hat

    def test_concurrent_writers_keep_every_record(self, tmp_path):
        # Both writers load the empty cache before either stores anything, so
        # each must merge what the other wrote rather than overwrite it.
        path, n, writers = tmp_path / "q.json", 30, 2
        script = (
            "import os, sys, time\n"
            "from sgdci.calibration import QuantileCache, ScalingQuantile\n"
            "path, tag, n = sys.argv[1], sys.argv[2], int(sys.argv[3])\n"
            "cache = QuantileCache(path)\n"
            "open(path + '.ready' + tag, 'w').close()\n"
            "while not os.path.exists(path + '.go'):\n"
            "    time.sleep(0.005)\n"
            "for i in range(n):\n"
            "    cache.put(ScalingQuantile(float(i), 0.0, 2.0 * i, 0.05, 10000,\n"
            "                              (1, 6, 'w' + tag, 0.05, 10000, i)))\n"
        )
        src = os.path.dirname(os.path.dirname(calibration.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        procs = [subprocess.Popen([sys.executable, "-c", script, str(path), str(k), str(n)],
                                  env=env) for k in range(writers)]
        try:
            deadline = time.monotonic() + 120
            while not all(os.path.exists(f"{path}.ready{k}") for k in range(writers)):
                assert time.monotonic() < deadline, "writers did not start"
                assert all(p.poll() is None for p in procs), "a writer exited early"
                time.sleep(0.01)
            open(f"{path}.go", "w").close()
            assert [p.wait(timeout=120) for p in procs] == [0] * writers
        finally:
            for p in procs:
                p.kill()
        cache = QuantileCache(path)
        for k in range(writers):
            for i in range(n):
                hit = cache.get((1, 6, f"w{k}", 0.05, 10000, i))
                assert hit is not None and hit.alpha_hat == float(i)
        assert len(json.loads(path.read_text())) == writers * n
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    def test_weights_key_sensitivity(self):
        w1 = (0.5, 0.5)
        w2 = (0.5000001, 0.4999999)
        assert weights_key(w1) != weights_key(w2)


class TestFQuantile:
    @pytest.mark.parametrize("k", [1, 4, 11])
    def test_median_symmetry(self, k):
        assert f_quantile(k, k, 0.5) == pytest.approx(1.0, abs=1e-6)

    def test_frozen_values(self):
        assert f_quantile(1, 9, 0.95) == pytest.approx(5.117355, abs=1e-5)
        assert f_quantile(2, 18, 0.95) == pytest.approx(3.554557, abs=1e-5)

    def test_against_scipy(self):
        from scipy.stats import f as f_dist

        for d1, d2, p in ((1, 1, 0.95), (3, 27, 0.9), (5, 95, 0.99)):
            assert f_quantile(d1, d2, p) == pytest.approx(
                float(f_dist.ppf(p, d1, d2)), abs=1e-6
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_quantile(0, 5, 0.95)
        with pytest.raises(ValueError):
            f_quantile(1, 5, 1.0)
