import hashlib
import json
import struct

import numpy as np
import pytest

from trajbehav.container import MAGIC, VERSION
from trajbehav.data import Windows


def _windows(states, labels, prefix):
    """Windows whose row i comes from agent `{prefix}-{i}` at frame i."""
    n = len(labels)
    return Windows(
        states=states, labels=np.asarray(labels, dtype=np.int64).reshape(n),
        agent_idx=np.arange(n), end_frame=np.arange(n),
        agents=[f"{prefix}-{i}" for i in range(n)],
    )


def make_samples(labels, rng=None, scale=1.0):
    """Windows with random 5x4 states and the given labels."""
    rng = rng or np.random.default_rng(0)
    return _windows(rng.normal(scale=scale, size=(len(labels), 5, 4)), labels, "agent")


def blob_samples(rng, counts, centers, sigma=0.3):
    """Gaussian-blob windows: one blob per class around `centers`."""
    states = np.concatenate([
        rng.normal(loc=center, scale=sigma, size=(count, 5, 4))
        for count, center in zip(counts, centers)
    ])
    return _windows(states, np.repeat(np.arange(len(counts)), counts), "blob")


def checksummed(header, data=b""):
    """Container bytes with a valid checksum around an arbitrary JSON header."""
    raw = json.dumps(header).encode("utf-8")
    body = MAGIC + struct.pack("<H", VERSION) + struct.pack("<I", len(raw)) + raw + data
    return body + hashlib.sha256(body).digest()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
