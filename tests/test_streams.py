"""Stream derivation: determinism, distinctness, and moment sanity checks."""

import os

import numpy as np
import pytest

from sgdci.batching import Allocation
from sgdci.calibration import LimitDrawSpec, estimate_alpha
from sgdci.experiments import CoverageConfig, run_coverage, run_volume_study
from sgdci.models import linear_oracle, linspace_params
from sgdci.sgd import SgdRunConfig, run_chains
from sgdci.streams import _worker_count, derive_stream, derive_streams


def test_same_lineage_identical():
    a = derive_stream(7, 3).random(5)
    b = derive_stream(7, 3).random(5)
    assert a.shape == (5,)
    assert np.array_equal(a, b)


def test_sibling_lineages_differ():
    a = derive_stream(7, 0).random(5)
    b = derive_stream(7, 1).random(5)
    assert not np.array_equal(a, b)


def test_nested_lineage_distinct_from_flat():
    a = derive_stream(7, 1).random(5)
    b = derive_stream(7, 1, 0).random(5)
    assert not np.array_equal(a, b)


def test_negative_base_seed_accepted():
    a = derive_stream(-3, 2).random(4)
    b = derive_stream(-3, 2).random(4)
    assert np.array_equal(a, b)


def test_normal_moments():
    # CLT bound at 4 sigma: |mean| < 4/sqrt(N) = 4e-3, |var - 1| < 1e-2
    x = derive_stream(123).standard_normal(10**6)
    assert abs(float(np.mean(x))) < 4e-3
    assert abs(float(np.var(x)) - 1.0) < 1e-2


def test_cross_covariance_near_zero():
    draws = derive_stream(99).standard_normal((10**6, 2))
    rho = float(np.corrcoef(draws[:, 0], draws[:, 1])[0, 1])
    assert abs(rho) < 0.005


def test_entropy_encoding_pinned():
    # the stream is PCG64 seeded from (base, len(indices), *indices), each
    # integer reduced modulo 2^64; derive_streams hashes the flat uint32
    # words of all paths at once, one- and two-word integers mixed
    mask = (1 << 64) - 1
    for base, indices in [(42, ()), (42, (1, 2)), (7, (1, 0)), (-3, (2,)),
                          (-1, (2**64 + 5,))]:
        entropy = (base & mask, len(indices), *(i & mask for i in indices))
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        gen = derive_stream(base, *indices)
        assert isinstance(gen, np.random.Generator)
        assert np.array_equal(gen.standard_normal(8), ref.standard_normal(8)), (base, indices)
    rng = np.random.default_rng(2024)
    paths = [(), (0,), (1, 0), (0, 0, 0), (2**32,), (2**32 - 1, 2**32), (2**64 - 1,),
             (5, 2**64 - 1, 7), (-1,), (2**64 + 5, 3), (2**70, 1, 2)]
    for _ in range(300):
        length = int(rng.integers(0, 4))
        paths.append(tuple(int(i) << int(s) for i, s in
                           zip(rng.integers(0, 2**31, length), rng.choice([0, 16, 32], length))))
    for base in (0, 42, -3, -1, 2**32, 2**63 + 11, 2**64 + 9):
        for path, gen in zip(paths, derive_streams(base, paths), strict=True):
            entropy = (base & mask, len(path), *(i & mask for i in path))
            ref = np.random.PCG64(np.random.SeedSequence(entropy))
            assert gen.bit_generator.state == ref.state, (base, path)
            assert np.array_equal(gen.standard_normal(8),
                                  np.random.Generator(ref).standard_normal(8)), (base, path)
    assert derive_streams(0, []) == []


_THREADED = {
    "run_chains": lambda threads: run_chains(
        linear_oracle(linspace_params(2)), SgdRunConfig(T=10), [derive_stream(0)], [[0, 10]],
        threads=threads),
    "run_coverage": lambda threads: run_coverage(
        CoverageConfig(model="linear", d=2, T=50, method="bmi_marginal", m=5,
                       alloc=Allocation(kind="es"), replications=2), threads=threads),
    "estimate_alpha": lambda threads: estimate_alpha(
        LimitDrawSpec(1, 5, (0.2,) * 5), 0.05, 1000, 0, threads=threads),
    "run_volume_study": lambda threads: run_volume_study(
        1, [5], Allocation(kind="es"), 0.05, 1000, 0, threads=threads),
}


@pytest.mark.parametrize("threads", [0, -1])
@pytest.mark.parametrize("name", sorted(_THREADED))
def test_bad_thread_count_raises_value_error(name, threads):
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
        _THREADED[name](threads)


def test_default_thread_count_is_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert _worker_count(None) == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _worker_count(None) == 64
    assert _worker_count(5) == 5
