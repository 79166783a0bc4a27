"""Deterministic, splittable random streams.

A stream is identified by its lineage: a base seed plus an index path. The
same lineage always reproduces the same draw sequence, and distinct index
paths give statistically independent streams, so replicated experiments can
be farmed out across threads in any order without changing a single draw.
A stream is a numpy Generator, and every function that draws takes one.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

_MASK64 = (1 << 64) - 1


def _worker_count(threads: Optional[int]) -> int:
    """Pool size for threads: None is every CPU this process may run on; < 1 raises."""
    if threads is None:
        affinity = getattr(os, "sched_getaffinity", None)
        return len(affinity(0)) if affinity else (os.cpu_count() or 1)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


def derive_stream(base_seed: int, *indices: int) -> np.random.Generator:
    """Build the stream for (base_seed, *indices).

    Index paths are hashed through a seed sequence, so any two distinct
    paths yield independent streams. All integers are reduced modulo 2^64.

    The entropy fed to the hash is (base_seed, len(indices), *indices).
    The length word matters: the underlying hash zero-pads short inputs,
    so without it a path ending in index 0 would replay the stream of the
    path one level up, e.g. (7, 1, 0) would alias (7, 1). Prefixing the
    length makes the encoding injective. A zero length word pads to the
    same state as no word at all, so bare base-seed streams are unchanged.
    """
    path = tuple(int(i) & _MASK64 for i in (base_seed, *indices))
    entropy = (path[0], len(indices)) + path[1:]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
