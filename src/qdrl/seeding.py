"""Named, reproducible random streams.

Every stochastic component (quasi-static noise, fast charge noise, agent
exploration, snapshot sampling, ...) pulls its own generator from a master seed
plus a stream name, so components never share or perturb each other's state and
a run is reproducible from (config, seed) alone.
"""
from __future__ import annotations

import zlib

import numpy as np

__all__ = ["named_stream"]


def named_stream(seed: int, name: str) -> np.random.Generator:
    """Generator for stream `name` under master `seed`.

    Distinct names give statistically independent streams; the same
    (seed, name) pair always gives the same sequence.
    """
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), tag))))

