import hashlib
import json
import struct

import numpy as np
import pytest

from trajbehav.container import MAGIC, VERSION
from trajbehav.data import WindowSample


def make_samples(labels, rng=None, scale=1.0):
    """WindowSamples with random 5x4 states and the given labels."""
    rng = rng or np.random.default_rng(0)
    out = []
    for i, label in enumerate(labels):
        out.append(
            WindowSample(
                states=rng.normal(scale=scale, size=(5, 4)),
                label=int(label),
                source=(f"agent-{i}", i),
            )
        )
    return out


def blob_samples(rng, counts, centers, sigma=0.3):
    """Gaussian-blob window samples: one blob per class around `centers`."""
    samples = []
    idx = 0
    for label, (count, center) in enumerate(zip(counts, centers)):
        for _ in range(count):
            states = rng.normal(loc=center, scale=sigma, size=(5, 4))
            samples.append(
                WindowSample(states=states, label=label, source=(f"blob-{idx}", idx))
            )
            idx += 1
    return samples


def checksummed(header, data=b""):
    """Container bytes with a valid checksum around an arbitrary JSON header."""
    raw = json.dumps(header).encode("utf-8")
    body = MAGIC + struct.pack("<H", VERSION) + struct.pack("<I", len(raw)) + raw + data
    return body + hashlib.sha256(body).digest()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
