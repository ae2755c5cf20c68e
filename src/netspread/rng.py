"""Deterministic random-number substreams.

Every stochastic routine in the package draws from a numpy Generator
obtained through :func:`substream`, keyed by a master seed plus an
integer path. Streams with distinct paths are statistically independent,
and the mapping (seed, path) -> stream is stable across platforms, so a
replicate's draws do not depend on which replicates run before it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "as_generator"]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for (seed, *path).

    Parameters
    ----------
    seed : int
        Master seed: a non-negative int or numpy integer, never a bool or float.
    *path : int
        Optional substream coordinates of the same kind (replicate index, stage tag, ...).
    """
    for key in (seed, *path):
        if not isinstance(key, (int, np.integer)) or isinstance(key, bool) or key < 0:
            raise ValueError(f"seed and substream path need non-negative integers, got {key!r}")
    return np.random.default_rng(np.random.SeedSequence((int(seed), *map(int, path))))


def as_generator(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    """Accept either a master seed or an already-built generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return substream(seed_or_rng)
