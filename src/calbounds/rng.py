"""Deterministic random-stream derivation.

Every random draw in the library flows from a single 64-bit run seed.
Substreams are derived through ``SeedSequence`` spawn keys feeding the
counter-based Philox bit generator, so a given (seed, path) pair yields the
same stream on every platform, and independent cells of an experiment grid
can draw concurrently without sharing generator state.
"""

from __future__ import annotations

import numpy as np

from .binning import _check_count

# numpy.random is imported by the first call that draws, not with the package: it costs
# ~6 MB of RSS (OpenSSL's _hashlib among it, through secrets) and ~9 ms, which a run
# that never draws, such as ece, gap or bounds, should not pay.


def _seed_sequence(seed: int, path: tuple) -> np.random.SeedSequence:
    from numpy.random import SeedSequence

    seed, *path = _check_count(least=0, seed=seed, **{f"path[{i}]": p for i, p in enumerate(path)})
    return SeedSequence(seed, spawn_key=tuple(path))


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for substream ``path`` under ``seed``.

    The seed and every ``path`` component (grid indices, repetition
    counters, ...) must be non-negative integers: a float or a bool fails
    with ``ValueError`` and is never truncated. The empty path is the root
    stream.
    """
    from numpy.random import Generator, Philox

    return Generator(Philox(_seed_sequence(seed, path)))


def child_seed(seed: int, *path: int) -> int:
    """Derive a plain integer seed for substream ``path`` (for nested configs).

    Takes the seed and path that ``stream`` takes, checked the same way.
    """
    return int(_seed_sequence(seed, path).generate_state(1, dtype=np.uint64)[0])
