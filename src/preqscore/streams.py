"""Counter-based random streams for reproducible, order-independent replication.

Each stream is a Philox4x64 generator keyed by ``(seed, substream)``.  Philox
is counter-based: the key alone determines the whole stream, so replicate r
of an experiment with base seed s always reads from ``stream(s, r)`` and the
results cannot depend on execution order or parallel scheduling.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["stream"]


def stream(seed: int, substream: int = 0) -> np.random.Generator:
    """Generator for the Philox stream keyed by (seed, substream), each an integer in [0, 2**64)."""
    for name, value in (("seed", seed), ("substream", substream)):
        if not 0 <= operator.index(value) < 2**64:
            raise ValueError(f"{name} must lie in [0, 2**64), got {value!r}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, substream], dtype=np.uint64)))
