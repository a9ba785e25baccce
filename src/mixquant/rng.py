"""Deterministic named random substreams derived from one root seed."""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, *labels: object) -> np.random.Generator:
    """A generator for the substream named by ``labels`` under ``seed``.

    ``seed`` is folded in whole, every bit of it, and a negative one is
    refused. Labels are folded in through crc32 of their string form, so
    the same (seed, labels) pair yields the same stream on every platform
    and the streams for different labels are statistically independent.
    """
    entropy = [int(seed)]
    entropy += [zlib.crc32(str(label).encode("utf-8")) for label in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))
