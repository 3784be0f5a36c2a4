"""Deterministic per-replication random streams.

Every simulation campaign in the validation layer derives its
randomness from a single root seed through ``numpy.random.
SeedSequence`` spawning. The stream of replication ``i`` depends only
on ``(root_seed, i)`` — never on how many replications run, in which
order, or on which worker process — which is what makes the parallel
campaign runner bit-identical to the serial one.

``SeedSequence(entropy).spawn(n)[i]`` is, by NumPy's spawning contract,
the same sequence as ``SeedSequence(entropy, spawn_key=(i,))``; we
construct children directly from the spawn key so a worker process
needs only ``(root_seed, index)`` to rebuild its streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["replication_seed", "spawn_seeds"]


def replication_seed(
    root_seed: int, index: int, *subkeys: int
) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` of one replication.

    Parameters
    ----------
    root_seed:
        Campaign-level seed (non-negative integer entropy).
    index:
        Zero-based replication index.
    subkeys:
        Optional further branch indices for replications that need
        several independent streams (e.g. one for data simulation and
        one for an MCMC fit).
    """
    if root_seed < 0:
        raise ValueError("root_seed must be non-negative")
    if index < 0 or any(k < 0 for k in subkeys):
        raise ValueError("spawn indices must be non-negative")
    return np.random.SeedSequence(root_seed, spawn_key=(index, *subkeys))


def spawn_seeds(root_seed: int, n: int) -> list[np.random.SeedSequence]:
    """Seed sequences for replications ``0..n-1`` of a campaign."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return [replication_seed(root_seed, index) for index in range(n)]
