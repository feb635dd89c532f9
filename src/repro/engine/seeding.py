"""Deterministic per-trial seed streams for parallel experiments.

The engine's reproducibility contract — *the same seed produces the same
statistics at any worker count* — rests on one rule: every trial owns an
independent random stream derived from the experiment seed by
:class:`numpy.random.SeedSequence` spawning, never from a shared
generator consumed in dispatch order.  A serial run and an 8-worker run
then draw exactly the same numbers for trial *i* no matter which process
executes it or when it completes.

Seeds may be plain integers or tuples of integers: sub-experiments (one
Fig. 6 fault count, one pillar-redundancy variant) derive their own
independent root as ``(seed, subkey)`` so sweep points stay statistically
independent of each other while remaining reproducible.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

SeedLike = Union[int, Sequence[int], np.random.SeedSequence]
"""Anything accepted as an experiment seed: int, tuple of ints, or a
pre-built :class:`~numpy.random.SeedSequence`."""


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Normalise a seed into a :class:`~numpy.random.SeedSequence`."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(int(seed))
    return np.random.SeedSequence([int(s) for s in seed])


def spawn_trial_seeds(seed: SeedLike, trials: int) -> list[np.random.SeedSequence]:
    """Spawn one independent child seed per trial.

    Spawning is order-stable: child ``i`` depends only on the root
    entropy and ``i``, so the mapping from trial index to random stream
    is fixed before any work is dispatched.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    return as_seed_sequence(seed).spawn(trials)


def seed_fingerprint(seed: SeedLike) -> list[int]:
    """A JSON-serialisable identity for a seed (used in cache keys)."""
    seq = as_seed_sequence(seed)
    entropy = seq.entropy
    if entropy is None:
        raise ValueError("seed has no recorded entropy; pass an explicit seed")
    if isinstance(entropy, (int, np.integer)):
        entropy_list = [int(entropy)]
    else:
        entropy_list = [int(e) for e in entropy]
    return entropy_list + [int(k) for k in seq.spawn_key]
