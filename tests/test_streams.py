"""Stream derivation: determinism, distinctness, and moment sanity checks."""

import numpy as np

from sgdci.streams import derive_stream


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
    # integer reduced modulo 2^64
    mask = (1 << 64) - 1
    for base, indices in [(42, ()), (42, (1, 2)), (7, (1, 0)), (-3, (2,)),
                          (-1, (2**64 + 5,))]:
        entropy = (base & mask, len(indices), *(i & mask for i in indices))
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        gen = derive_stream(base, *indices)
        assert isinstance(gen, np.random.Generator)
        assert np.array_equal(gen.standard_normal(8), ref.standard_normal(8)), (base, indices)
