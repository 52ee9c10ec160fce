"""Named random substreams derived from a single master seed.

Every stochastic mechanism in the simulator (population synthesis, seeding,
community contact resampling, transmission, progression, testing, tracing,
passive case detection) draws from its own generator, derived from the master
seed and a fixed stream id. Disabling one mechanism therefore consumes no
randomness and leaves all other mechanisms' draw sequences untouched, which
is what makes "zero testing and tracing equals a no-intervention run with the
same seed" an exact, testable equality rather than a statistical one.
"""

from __future__ import annotations

import numpy as np

# Fixed ids; order must never change or seeds stop reproducing old runs.
# Ids 8 and 9 (once "policy" and "search", never read) are retired and are
# never reused.
STREAM_IDS = {
    "population": 0,
    "seeding": 1,
    "community": 2,
    "transmission": 3,
    "progression": 4,
    "testing": 5,
    "tracing": 6,
    "detection": 7,
}


def substream(master_seed: int, name: str) -> np.random.Generator:
    """Return the named PCG64 substream for a master seed.

    Args:
        master_seed: Non-negative master seed for the whole run.
        name: One of the keys in STREAM_IDS.

    Returns:
        An independent np.random.Generator; calling twice with the same
        (master_seed, name) yields generators producing identical sequences.
    """
    if name not in STREAM_IDS:
        raise KeyError(f"unknown stream name: {name!r}")
    seq = np.random.SeedSequence(master_seed, spawn_key=(STREAM_IDS[name],))
    return np.random.Generator(np.random.PCG64(seq))


def all_substreams(master_seed: int) -> dict[str, np.random.Generator]:
    """Build the full named-stream dictionary for one simulation run."""
    return {name: substream(master_seed, name) for name in STREAM_IDS}
