"""Limiting-law simulation and quantile calibration.

The Monte Carlo sampler is cross-checked two independent ways: the even
weight case must bracket exact F quantiles, and the batched chunk evaluator
must reproduce the one-draw-at-a-time reference path draw for draw.
"""

import contextlib
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from sgdci import calibration
from sgdci.batching import Allocation, ideal_weights, joint_constant, make_plan
from sgdci.calibration import (
    MIN_REPS,
    LimitDrawSpec,
    QuantileCache,
    _binom_ppf,
    _chunk_size,
    _eval_chunk,
    estimate_alpha,
    exact_quantile,
    f_quantile,
    g_of_skeleton,
    simulate_limit_draw,
    spec_from_plan,
    submit_alpha,
    weights_key,
)
from sgdci.cli import main
from sgdci.errors import DimensionMismatch
from sgdci.experiments import run_volume_study
from sgdci.linalg import det_sqrt
from sgdci.streams import derive_stream


def even_spec(d, m):
    return LimitDrawSpec(d, m, tuple([1.0 / m] * m))


def det_draws(spec, n, gen):
    """det(g)^{1/2} of each of the n draws of a volume factor's determinant
    pass, which submit_volume_factor averages on its pool."""
    return calibration.det_sqrt_draws(spec, gen, n)


class CountingLock:
    """Stand-in for calibration._BLAS_LOCK that counts entries and knows
    whether it is held."""

    def __init__(self):
        self.entries, self.held = 0, False

    def __enter__(self):
        assert not self.held  # non-reentrant, like the lock it stands in for
        self.entries, self.held = self.entries + 1, True

    def __exit__(self, *exc):
        self.held = False


def finish_on_one_worker(spec, *args):
    """submit_alpha(pool, [spec], *args) and its finisher, on a one-worker pool."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        (finish,) = submit_alpha(pool, [spec], *args)
        return finish()


def eval_chunks(cells, k, seed):
    """_eval_chunk on stream (seed, k) for cells of (spec, n); one array of
    statistics per cell, what its sink was handed, in order."""
    outs = [[] for _ in cells]
    _eval_chunk([(spec, n, lambda stats, out=out: out.append(stats.copy()))
                 for (spec, n), out in zip(cells, outs)], k, seed, derive_stream(seed, k))
    return [np.concatenate(out) for out in outs]


def eval_chunk(spec, n, k, seed):
    (stats,) = eval_chunks([(spec, n)], k, seed)
    return stats


def full_sort_quantile(spec, delta, reps, seed):
    """The hex of (alpha_hat, ci_low, ci_high) read from all reps statistics
    of a calibration, sorted in full, at the ranks its order statistic reads."""
    chunk = _chunk_size(spec)
    stats = np.sort(np.concatenate([eval_chunk(spec, min(chunk, reps - k * chunk), k, seed)
                                    for k in range(-(-reps // chunk))]))
    p = 1.0 - delta
    k = int(np.ceil(p * reps))
    lo = min(max(_binom_ppf(0.025, reps, p), 1), k)
    hi = max(min(_binom_ppf(0.975, reps, p) + 1, reps), k)
    return [float(stats[r - 1]).hex() for r in (k, lo, hi)]


def hexes(sq):
    return [sq.alpha_hat.hex(), sq.ci_low.hex(), sq.ci_high.hex()]


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
        # the sum check alone lets NaN through: abs(nan - 1) > tol is False
        for bad in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and strictly positive"):
                LimitDrawSpec(1, 3, (0.5, bad, 0.5))

    def test_batch_count_must_exceed_dim(self):
        with pytest.raises(ValueError):
            LimitDrawSpec(3, 3, (1 / 3, 1 / 3, 1 / 3))

    def test_factor(self):
        assert 1 / joint_constant(1, 2) == 2.0

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


class TestWalk:
    def test_each_reader_reads_its_prefix_of_one_stream(self, monkeypatch):
        # 64-double blocks make windows of 16 of the widest draws (20,020
        # normals); the readers end in the first, second, second and third
        # window, and the 101-wide one reads the longest prefix
        monkeypatch.setattr(calibration, "_BLOCK_DOUBLES", 64)
        widths, counts = [3, 7, 101, 20_020], [40_000, 60_000, 7_000, 20]
        gen = derive_stream(7)
        views = [[] for _ in widths]
        for i, draws in calibration._walk(gen, widths, counts):
            assert draws.shape[1] == widths[i]
            assert draws.size <= 16 * 20_020 + 20_019
            views[i].append(draws.copy())
        for w, n, read in zip(widths, counts, views):
            assert np.array_equal(np.concatenate(read).ravel(),
                                  derive_stream(7).standard_normal(n * w)), w
        ref = derive_stream(7)
        ref.standard_normal(101 * 7_000)
        assert gen.standard_normal() == ref.standard_normal()


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

    @pytest.mark.parametrize("start", [
        lambda spec: estimate_alpha(spec, 0.05, MIN_REPS, 3, threads=1),
        lambda spec: finish_on_one_worker(spec, 0.05, MIN_REPS, 3),
        lambda spec: run_volume_study(spec.d, [spec.m], Allocation(kind="es"), 0.05,
                                      MIN_REPS, 3, det_reps=10, threads=1),
    ], ids=["estimate_alpha", "submit_alpha", "run_volume_study"])
    def test_heavy_tail_warning_points_at_the_caller(self, start):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start(even_spec(1, 4))
        assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]

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
            chunk_stats = eval_chunk(spec, n, 0, 555)
            stream = derive_stream(555, 0)
            serial = np.array([simulate_limit_draw(spec, stream) for _ in range(n)])
            assert np.allclose(chunk_stats, serial, rtol=1e-9, atol=1e-12), (spec.d, spec.m)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_block_size_does_not_change_results(self, d, monkeypatch):
        # n draws span two blocks and part of a third at the largest size
        w = ideal_weights(d + 9, Allocation(kind="ibs", r=2.0 / 3.0))
        spec = LimitDrawSpec(d, d + 9, tuple(w))
        n = 2 * (2**19 // (spec.m * d + d)) + 5
        results = []
        for size in (64, 2**15, calibration._BLOCK_DOUBLES, 2**19):  # 64: 16-draw blocks
            monkeypatch.setattr(calibration, "_BLOCK_DOUBLES", size)
            results.append((eval_chunk(spec, n, 2, 8), det_draws(spec, n, derive_stream(3))))
        for stats, dets in results[1:]:
            assert np.array_equal(stats, results[0][0])
            assert np.array_equal(dets, results[0][1])

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_singular_draw_is_rescued(self, d, monkeypatch):
        # a zero G in the first block of one cell fails its batched solve; the
        # zero G is solved against I and then replaced from the rescue stream,
        # and every other draw, of that cell and of the cells that share its
        # stream, keeps its clean value.
        spec = even_spec(d, d + 9)
        cells = [(even_spec(d, d + 30), 200), (spec, 300), (even_spec(d, d + 5), 40)]
        k, seed, bad = 3, 8, 5
        monkeypatch.setattr(calibration, "_BLOCK_DOUBLES", 64)  # 16-draw blocks
        clean = eval_chunks(cells, k, seed)
        gram, zeroed = calibration._gram, []

        def zero_one_draw(cell_spec, *args):
            G = gram(cell_spec, *args)
            if cell_spec is spec and not zeroed:
                G[bad] = 0.0
                zeroed.append(bad)
            return G

        monkeypatch.setattr(calibration, "_gram", zero_one_draw)
        before, stats, after = eval_chunks(cells, k, seed)
        assert np.all(np.isfinite(stats))
        assert stats[bad] == simulate_limit_draw(spec, derive_stream(seed, 2**32 + k))
        others = np.arange(len(stats)) != bad
        assert np.array_equal(stats[others], clean[1][others])
        assert np.array_equal(before, clean[0]) and np.array_equal(after, clean[2])

    @pytest.mark.parametrize("d, m", [(1, 10), (2, 40), (5, 10)])
    def test_every_block_takes_the_blas_lock(self, d, m, monkeypatch):
        # a counting stand-in for the lock, and spies on the batched calls:
        # each block's Gram matmul and its solve (or slogdet) run inside the
        # lock, one entry each, and B(1)'s matmul runs outside it
        lock = CountingLock()
        monkeypatch.setattr(calibration, "_BLAS_LOCK", lock)
        calls = []

        def spy(fn, label):
            def call(*args):
                calls.append((label(*args), lock.held))
                return fn(*args)
            return call

        monkeypatch.setattr(np, "matmul",
                            spy(np.matmul, lambda a, b: "gram" if a.ndim == 3 else "b1"))
        monkeypatch.setattr(np.linalg, "solve", spy(np.linalg.solve, lambda *_: "solve"))
        monkeypatch.setattr(np.linalg, "slogdet", spy(np.linalg.slogdet, lambda *_: "slogdet"))
        spec = even_spec(d, m)
        n = 2 * max(16, calibration._BLOCK_DOUBLES // (m * d + d)) + 5  # three blocks
        eval_chunk(spec, n, 0, 4)
        assert calls == [("b1", False), ("gram", True), ("solve", True)] * 3
        assert (lock.entries, lock.held) == (6, False)
        calls.clear()
        n = 2 * max(16, calibration._BLOCK_DOUBLES // (m * d)) + 5  # three, m*d wide
        det_draws(spec, n, derive_stream(4))
        assert calls == [("b1", False), ("gram", True), ("slogdet", True)] * 3
        assert (lock.entries, lock.held) == (12, False)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_shared_pass_equals_one_spec_calls(self, threads, tmp_path):
        # widths from 3 to 505 normals a draw; d = 5, m = 100 takes two chunks
        # of 34,000 reps, the others one; a repeated spec out of order, and
        # one spec already in the cache, which no chunk task reads
        ibs = Allocation(kind="ibs", r=2.0 / 3.0)
        specs = [LimitDrawSpec(5, m, tuple(ideal_weights(m, ibs))) for m in (10, 100, 20)]
        specs += [specs[0], even_spec(2, 40), even_spec(1, 8)]
        reps, seed = 34_000, 13
        alone = [estimate_alpha(spec, 0.05, reps, seed, threads=1) for spec in specs]
        cache = QuantileCache(tmp_path / "q.json")
        cache.put(alone[2])
        read = []
        with ThreadPoolExecutor(max_workers=threads) as pool:
            spy = SimpleNamespace(submit=lambda fn, cells, *args: read.append(
                [spec for spec, _, _ in cells]) or pool.submit(fn, cells, *args))
            shared = [finish() for finish in submit_alpha(spy, specs, 0.05, reps, seed, cache)]
        assert shared == alone
        assert read == [[specs[0], specs[1], specs[4], specs[5]], [specs[1]]]

    def test_chunk_memory_is_one_block(self):
        spec = even_spec(5, 100)
        tracemalloc.start()
        try:
            eval_chunk(spec, _chunk_size(spec), 0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_det_pass_memory_is_one_block(self):
        spec = even_spec(5, 100)
        tracemalloc.start()
        try:
            det_draws(spec, 34_000, derive_stream(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_shared_chunk_memory_is_a_few_blocks(self):
        # the four volume cells at d = 5 on one stream: one window, one
        # slope buffer and their statistics, however many cells read
        ibs = Allocation(kind="ibs", r=2.0 / 3.0)
        specs = [LimitDrawSpec(5, m, tuple(ideal_weights(m, ibs))) for m in (10, 20, 40, 100)]
        cells = [(spec, min(34_000, _chunk_size(spec))) for spec in specs]
        tracemalloc.start()
        try:
            eval_chunks(cells, 0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_calibration_holds_its_tail_not_its_draws(self):
        # 1e6 statistics are 7.6 MiB; at delta = 0.05 the tail a quantile
        # reads is 50,429 of them, held at most twice over plus a window
        spec = LimitDrawSpec(1, 6, tuple(ideal_weights(6, Allocation(kind="ibs"))))
        tracemalloc.start()
        try:
            estimate_alpha(spec, 0.05, 10**6, 3, threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    # the bench's reps (25,000, 34,000, 100,000), check 7's (4e5 to 8e6), and
    # delta from 1e-4 to 0.999
    @pytest.mark.parametrize("reps", [10**4, 25_000, 3 * 10**4 + 7, 34_000, 10**5,
                                      4 * 10**5, 10**6, 4 * 10**6, 8 * 10**6, 10**7])
    def test_order_statistic_ranks_match_scipy(self, reps):
        from scipy.special import bdtr, bdtrik
        from scipy.stats import binom

        deltas = [1e-4, 0.001, 0.01, 0.025, 0.05, 0.1, 0.5, 0.9, 0.99, 0.999]
        for delta in deltas + np.geomspace(1e-4, 0.999, 23).tolist():
            p = 1.0 - delta
            for q in (0.025, 0.975):
                k = math.ceil(bdtrik(q, reps, p))
                k = k - 1 if k >= 1 and bdtr(k - 1, reps, p) >= q else k
                assert _binom_ppf(q, reps, p) == k == int(binom.ppf(q, reps, p)), (delta, q)

    def test_quantile_monotone_in_delta(self):
        spec = even_spec(1, 8)
        tight = estimate_alpha(spec, 0.01, 5 * 10**4, 21)
        loose = estimate_alpha(spec, 0.10, 5 * 10**4, 21)
        assert tight.alpha_hat > loose.alpha_hat


class TestTail:
    """Only the statistics from the confidence interval's lowest rank up are
    kept and sorted; what they give must equal a full sort of every draw."""

    SPEC = LimitDrawSpec(1, 10, tuple(ideal_weights(10, Allocation(kind="ibs"))))

    @pytest.mark.parametrize("delta", [1e-3, 0.05, 0.5, 0.95])
    def test_quantile_equals_a_full_sort(self, delta):
        # two whole chunks and part of a third, two workers adding at once
        reps = 2 * _chunk_size(self.SPEC) + 4321
        sq = estimate_alpha(self.SPEC, delta, reps, 19, threads=2)
        assert hexes(sq) == full_sort_quantile(self.SPEC, delta, reps, 19)

    def test_rescued_draws_reach_the_tail(self, monkeypatch):
        # the least G of every window (at d = 1 most often its largest
        # statistic) is zeroed, so each window has a draw rescued before
        # it reaches the tail, on any worker
        reps, seed = 2 * _chunk_size(self.SPEC) + 4321, 29
        clean = full_sort_quantile(self.SPEC, 0.05, reps, seed)
        gram, rescued = calibration._gram, []

        def zero_least(spec, *args):
            G = gram(spec, *args)
            G[np.argmin(G[:, 0, 0])] = 0.0
            return G

        def counted(spec, gen):
            rescued.append(spec)
            return simulate_limit_draw(spec, gen)

        monkeypatch.setattr(calibration, "_gram", zero_least)
        monkeypatch.setattr(calibration, "simulate_limit_draw", counted)
        sq = estimate_alpha(self.SPEC, 0.05, reps, seed, threads=2)
        assert len(rescued) > 20
        assert hexes(sq) == full_sort_quantile(self.SPEC, 0.05, reps, seed) != clean

    def test_concurrent_adds_lose_nothing(self):
        # eight workers on a shortened switch interval, each adding 400
        # windows, a cut at about every third add, five times over: a lost
        # add or cut would change the kept values
        values = derive_stream(31).standard_normal((8, 400, 53))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(5):
                    tail = calibration._Tail(150)
                    futures = [pool.submit(lambda t, rows: [t.add(row) for row in rows], tail,
                                           rows) for rows in values]
                    for future in futures:
                        future.result(timeout=60)
                    assert np.array_equal(tail.sorted(), np.sort(values, axis=None)[-150:])
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("order", ["shuffled", "ascending", "descending", "all equal"])
    def test_ties_at_the_floor_stay(self, order):
        # values rounded to 0.1 tie by the hundred at the floor, whose copies
        # fall on both sides of the keep largest; ascending adds raise the
        # floor at every cut, and all-equal ones cut at every add
        values = np.round(derive_stream(23).standard_normal(20_000), 1)
        if order == "ascending":
            values.sort()
        elif order == "descending":
            values = np.sort(values)[::-1].copy()
        elif order == "all equal":
            values[:] = 1.5
        keep = 1013
        tail = calibration._Tail(keep)
        for window in np.array_split(values, 37):
            tail.add(window)
            assert sum(map(len, tail._held)) <= 2 * keep
        top = tail.sorted()
        assert np.array_equal(top, np.sort(values)[-keep:])
        assert tail.floor <= top[0]
        if order != "all equal":
            ties = np.count_nonzero(values == top[0])
            assert 1 < np.count_nonzero(top == top[0]) < ties


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

    @pytest.mark.parametrize("text", ["[]", "3", "null"])
    def test_non_object_file_is_refused_by_name(self, tmp_path, text):
        path = tmp_path / "q.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="does not hold a JSON object") as exc:
            QuantileCache(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("field, value", [(None, 5), ("alpha_hat", None),
                                              ("ci_low", float("inf")), ("reps", "10000"),
                                              ("delta", True), ("weights_key", 3),
                                              ("ci_high", "missing")])
    def test_malformed_record_is_refused_by_name(self, tmp_path, field, value):
        fresh = estimate_alpha(even_spec(1, 6), 0.05, 10**4, 83)
        key = QuantileCache._key_str(fresh.key)
        d, m, wkey, delta, reps, seed = fresh.key
        rec = {"d": d, "m": m, "weights_key": wkey, "delta": delta, "reps": reps,
               "base_seed": seed, "alpha_hat": fresh.alpha_hat, "ci_low": fresh.ci_low,
               "ci_high": fresh.ci_high}
        if field is None:
            rec = value
        elif value == "missing":
            del rec[field]
        else:
            rec[field] = value
        path = tmp_path / "q.json"
        path.write_text(json.dumps({key: rec}))
        with pytest.raises(ValueError, match="malformed record") as exc:
            QuantileCache(path)
        assert str(path) in str(exc.value) and repr(key) in str(exc.value)

    def test_well_formed_records_load(self, tmp_path):
        path = tmp_path / "q.json"
        sq = estimate_alpha(even_spec(1, 6), 0.05, 10**4, 84, cache=QuantileCache(path))
        assert QuantileCache(path).get(sq.key) == sq

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

    @staticmethod
    @contextlib.contextmanager
    def _alarm(seconds):
        """A hang fails the test instead of stalling the run."""
        def stop(*_):
            raise TimeoutError(f"still running after {seconds} s")

        old = signal.signal(signal.SIGALRM, stop)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    @pytest.mark.parametrize("d1, p, exact", [
        (1, 0.99997, lambda p: math.tan(math.pi * p / 2) ** 2),
        (1, 1 - 1e-5, lambda p: math.tan(math.pi * p / 2) ** 2),
        (2, 1 - 1e-5, lambda p: ((1 - p) ** -2 - 1) / 2),
    ])
    def test_quantiles_above_2_pow_26_return(self, d1, p, exact):
        """Above 2**26 adjacent doubles lie more than the 1e-8 tolerance
        apart; the bisection stops once no double lies inside its bracket.
        F(1, 1) and F(2, 1) have closed forms; 1e-6 is the method's own limit,
        as the CDF's argument x / (x + 1) rounds near 1."""
        with self._alarm(5):
            x = f_quantile(d1, 1, p)
        assert x > 2 ** 26 and x == pytest.approx(exact(p), rel=1e-6)

    def test_quantile_past_the_bracket_limit_is_a_value_error(self, monkeypatch, capsys):
        import scipy.special  # f_quantile imports betainc at each call

        monkeypatch.setattr(scipy.special, "betainc", lambda a, b, x: 0.0)
        message = "the F(d1=1, d2=1) quantile at p=0.95 exceeds 1e18"
        with self._alarm(5), pytest.raises(ValueError) as e:
            f_quantile(1, 1, 0.95)
        assert str(e.value) == message
        with self._alarm(30):
            rc = main(["experiment", "coverage", "--model", "linear", "--d", "1", "--T", "200",
                       "--m", "2", "--method", "sectioning_marginal", "--reps", "2",
                       "--no-cache"])
        assert rc == 1 and capsys.readouterr().err == f"ValueError: {message}\n"


class TestExactQuantile:
    def test_even_weights_give_the_f_quantile(self):
        # an even-split plan's weights are bitwise equal, as are ideal es weights
        for spec in (spec_from_plan(make_plan(5000, 10, Allocation(kind="es")), 2),
                     LimitDrawSpec(3, 12, tuple(ideal_weights(12, Allocation(kind="es"))))):
            sq = exact_quantile(spec, 0.05)
            alpha = f_quantile(spec.d, spec.m - spec.d, 0.95)
            assert (sq.alpha_hat, sq.ci_low, sq.ci_high, sq.reps) == (alpha, alpha, alpha, 0)
            assert sq.key == (spec.d, spec.m, weights_key(spec.w), 0.05, 0, -1)

    def test_uneven_weights_refused(self):
        spec = LimitDrawSpec(1, 10, tuple(ideal_weights(10, Allocation(kind="ibs", r=0.5))))
        with pytest.raises(ValueError, match="equal weights"):
            exact_quantile(spec, 0.05)
