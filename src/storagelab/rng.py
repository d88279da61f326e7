"""Keyed random streams.

Every consumer derives its generator from ``(seed, *tags)``: the tags, as
32-bit words, are the spawn key of a ``SeedSequence`` with entropy
``seed``, which seeds an SFC64 bit generator.  So ensembles are
reproducible bit-for-bit and independent of evaluation order, and streams
with different keys are independent.  SFC64 is the cheaper bit generator
(numpy 2.4 on one Xeon core: 2.6 ns per uniform and 40 ns per Poisson
count, against Philox's 9.2 and 62 ns); these streams replaced Philox
ones with the same keys, so a seed no longer reproduces the numbers or
CSVs it gave under Philox.  The path engine keys its draws
per chunk of 8192 lanes, ``(seed, "grid", c)`` for chunk ``c``: a chunk
draws the same numbers whether it runs first, last, or in parallel, but a
lane's draws depend on how many lanes share its chunk.
"""

from __future__ import annotations

import zlib

import numpy as np


def _as_key(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    return zlib.crc32(str(tag).encode())


def substream(seed: int, *tags) -> np.random.Generator:
    """Generator keyed by (seed, tags); same key, same stream, always."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(_as_key(t) for t in tags))
    return np.random.Generator(np.random.SFC64(ss))
