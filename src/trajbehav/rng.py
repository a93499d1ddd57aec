"""Seeded random streams.

Every stochastic stage draws from its own stream keyed by (seed, domain tag,
...) so that, e.g., resampling and epoch shuffling never interact.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# domain tags (arbitrary distinct constants)
INIT = 1
SHUFFLE = 2
SPLIT = 3
ROS = 4
RUS = 5
SYNTH = 6
HMM_INIT = 7


def seeded_rng(*key):
    """Deterministic Generator from a non-negative integer key tuple."""
    key = [int(k) for k in key]
    if min(key) < 0:
        raise ConfigError(f"seed must be >= 0, got {min(key)}")
    return np.random.default_rng(np.random.SeedSequence(key))
