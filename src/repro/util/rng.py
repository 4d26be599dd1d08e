"""Seeded random-number helpers.

Every stochastic component in the library takes either an explicit
``numpy.random.Generator`` or an integer seed.  These helpers normalise the
two spellings and derive independent child streams so that, e.g., trace
generation and posterior sampling never share a stream (which would make
experiment results depend on call order).
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` produces a fresh non-deterministic generator, an ``int`` seeds a
    new PCG64 stream, and an existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def child_rng(rng: np.random.Generator, label: str) -> np.random.Generator:
    """Derive an independent child stream from ``rng`` tagged by ``label``.

    The label is folded into the spawn so that two children with different
    labels are independent even when created in a different order.
    """
    tag = np.frombuffer(label.encode("utf-8"), dtype=np.uint8)
    seed = int(rng.integers(0, 2**31 - 1)) + int(tag.sum())
    return np.random.default_rng(seed)


def spawn_seeds(seed: SeedLike, count: int) -> list[int]:
    """Produce ``count`` independent integer seeds derived from ``seed``."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = ensure_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]

