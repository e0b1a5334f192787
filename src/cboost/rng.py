"""Seeded, named random streams.

All randomness in the toolkit flows from a single integer seed through
named Philox (counter-based) streams.  A stream depends only on
(seed, name), not on the order in which streams are drawn.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


def named_rng(seed: int, name: str) -> np.random.Generator:
    """Return an independent generator for (seed, name).

    The stream name is hashed into the SeedSequence spawn key, so distinct
    names give statistically independent streams and the mapping is stable
    across platforms and processes.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    spawn_key = struct.unpack("<4I", digest[:16])
    ss = np.random.SeedSequence(seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))
