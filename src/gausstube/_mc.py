"""Deterministic block decomposition for Monte Carlo kernels.

Sampling work is split into fixed-size blocks, each driven by its own
child of one root ``SeedSequence``.  Results are combined in block order
with exact (fsum) accumulation, so estimates are bit-identical for any
worker count: the thread pool only changes *when* a block runs, never
which stream it uses or where its partial sums land.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

#: Samples per Monte Carlo block; fixed so results do not depend on workers.
BLOCK_SIZE = 32768


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Normalize a seed to a SeedSequence.

    Accepts a SeedSequence (returned as is), an int, or a tuple or list of
    ints; anything else, a ``numpy.random.Generator`` included, raises
    TypeError.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(int(seed))
    if isinstance(seed, (tuple, list)) and all(isinstance(s, (int, np.integer)) for s in seed):
        return np.random.SeedSequence([int(s) for s in seed])
    raise TypeError(f"cannot interpret {type(seed).__name__} as a seed")


def check_levels(levels) -> list[float]:
    """The levels as floats; an empty list or a NaN level raises ValueError."""
    levels = [float(u) for u in levels]
    if not levels or any(math.isnan(u) for u in levels):
        raise ValueError(f"levels must hold at least one level and no NaN, got {levels}")
    return levels


def block_sizes(n_total: int) -> list[int]:
    """Sizes of the ``BLOCK_SIZE`` blocks that make up ``n_total`` >= 1 samples."""
    if n_total < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_total}")
    full, rest = divmod(n_total, BLOCK_SIZE)
    return [BLOCK_SIZE] * full + ([rest] if rest else [])


def run_blocks(fn: Callable[[int], object], n_blocks: int, workers: int = 1) -> list:
    """Evaluate fn(0..n_blocks-1), possibly on a thread pool, in index order."""
    if workers <= 1 or n_blocks <= 1:
        return [fn(i) for i in range(n_blocks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_blocks)))


def fsum_arrays(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Entry-wise exact sum of equally-shaped arrays (order independent)."""
    stack = np.stack([np.asarray(p, dtype=float) for p in parts])
    flat = stack.reshape(stack.shape[0], -1)
    out = np.array([math.fsum(flat[:, j]) for j in range(flat.shape[1])])
    return out.reshape(stack.shape[1:])
