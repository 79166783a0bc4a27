"""Deterministic, splittable random streams.

A stream is identified by its lineage: a base seed plus an index path. The
same lineage always reproduces the same draw sequence, and distinct index
paths give statistically independent streams, so replicated experiments can
be farmed out across threads in any order without changing a single draw.
A stream is a numpy Generator, and every function that draws takes one.
"""

from __future__ import annotations

import functools
import os
from typing import Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1

# the constants of numpy's SeedSequence hash, whose pool holds 4 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4


def _worker_count(threads: Optional[int]) -> int:
    """Pool size for threads: None is every CPU this process may run on; < 1 raises."""
    if threads is None:
        affinity = getattr(os, "sched_getaffinity", None)
        return len(affinity(0)) if affinity else (os.cpu_count() or 1)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, n: int):
    """(xor, multiplier) uint32 arrays of n successive hash steps: each step
    xors in the constant, advances it by mult, then multiplies by the new one.
    Cached per (init, mult, n); n takes a handful of values."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)
    consts.flags.writeable = False
    return consts[:-1], consts[1:]


def _hashmix(value, xor, mul):
    """One hash step per column, each with its own constants."""
    value = (value ^ xor) * mul
    return value ^ (value >> np.uint32(16))


# for each source pool word, the pool words it is mixed into, in order
_OTHERS = [np.array([i for i in range(_POOL) if i != src]) for src in range(_POOL)]
_ALL = np.arange(_POOL)


def _pcg64_seeds(words: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, uint64) for each row of words,
    an (N, n) uint32 array of flat entropy words, all N hashed at once.

    The pool is an (N, 4) array. The hash constant advances once per pool
    word a step touches, and the steps that mix one source word into the
    other pool words read that source unchanged, so each such group runs
    as one step over several columns with consecutive constants.
    """
    n = words.shape[1]
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL * max(_POOL, n))
    pool = np.zeros((len(words), _POOL), dtype=np.uint32)
    pool[:, :min(n, _POOL)] = words[:, :_POOL]
    pool = _hashmix(pool, xor[:_POOL], mul[:_POOL])
    k = _POOL

    def mix_into(dst, src):
        nonlocal k
        h = _hashmix(src, xor[k:k + len(dst)], mul[k:k + len(dst)])
        k += len(dst)
        r = _MIX_L * pool[:, dst] - _MIX_R * h
        pool[:, dst] = r ^ (r >> np.uint32(16))

    for src in range(_POOL):
        mix_into(_OTHERS[src], pool[:, src, None])
    for src in range(_POOL, n):
        mix_into(_ALL, words[:, src, None])
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    state = _hashmix(np.concatenate([pool, pool], axis=1), xor, mul).astype("<u4")
    return state.view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """The seed sequence of one derived stream: it hands PCG64 the words
    that _pcg64_seeds computed for it and serves no other request."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a derived stream's seed sequence serves only PCG64's seeding")
        return self.words


def derive_streams(base_seed: int, paths: Sequence[Sequence[int]]) -> list:
    """The streams (base_seed, *path) for each path, built in one pass.

    Stream (base_seed, *indices) is PCG64 seeded by numpy's SeedSequence
    from the entropy (base_seed, len(indices), *indices), every integer
    reduced modulo 2^64, so any two distinct paths yield independent
    streams. The length word matters: the hash zero-pads short inputs, so
    without it a path ending in index 0 would replay the stream of the
    path one level up, e.g. (7, 1, 0) would alias (7, 1). Prefixing the
    length makes the encoding injective. A zero length word pads to the
    same state as no word at all, so bare base-seed streams are unchanged.

    The hash reads only the flat uint32 words of the entropy (one per
    integer below 2^32, two above), so it runs once as array arithmetic
    over all paths of each word count, and each PCG64 starts from exactly
    the state SeedSequence(entropy) would give it.
    """
    if not paths:
        return []
    base = int(base_seed) & _MASK64
    lengths = [2 + len(p) for p in paths]
    width = max(lengths)
    ints = np.array([(base, len(p), *(int(i) & _MASK64 for i in p)) + (0,) * (width - n)
                     for p, n in zip(paths, lengths)], dtype=np.uint64)
    present = np.arange(width) < np.array(lengths)[:, None]
    # each integer's low word, then its high word if it has one
    words = ints.astype("<u8").view("<u4")
    keep = np.stack([present, present & (ints >> np.uint64(32) != 0)], axis=2)
    keep = keep.reshape(len(paths), -1)
    counts = keep.sum(axis=1)
    seeds = np.empty((len(paths), 4), dtype=np.uint64)
    for n in set(counts.tolist()):
        rows = counts == n
        seeds[rows] = _pcg64_seeds(words[rows][keep[rows]].reshape(-1, n))
    return [np.random.Generator(np.random.PCG64(_SeedWords(s))) for s in seeds]


def derive_stream(base_seed: int, *indices: int) -> np.random.Generator:
    """Build the stream for (base_seed, *indices); see derive_streams.

    The generator's `bit_generator.seed_seq` is not a SeedSequence and
    cannot spawn: for a child stream, derive a longer index path instead.
    """
    return derive_streams(base_seed, [indices])[0]
