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

# NumPy's SeedSequence hash constants (NEP 19) and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hashmix(value, const: int):
    """NumPy's ``hashmix`` on an int or a uint32 array: (hashed value, next constant)."""
    nxt = const * _MULT_A & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """NumPy's ``mix`` of two words, either an int or a uint32 array."""
    out = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
    return out ^ out >> 16


def _words(entropy) -> list[int]:
    """The uint32 words NumPy reads from an int (0 is one word) or a sequence of ints."""
    if not isinstance(entropy, (int, np.integer)):
        return [word for value in entropy for word in _words(value)]
    value, words = int(entropy), []
    while value or not words:
        words.append(value & _MASK32)
        value >>= 32
    return words


def spawned_seed_words(parent: np.random.SeedSequence, count: int) -> np.ndarray:
    """``child.generate_state(4, np.uint64)`` for each child of ``parent.spawn(count)``,
    one (count, 4) uint64 row per child, without spawning.

    Child i, counted from ``parent.n_children_spawned`` as ``spawn`` counts,
    is the SeedSequence of the parent's entropy with spawn key
    ``parent.spawn_key + (i,)``.  Its entropy words differ from its
    siblings' only in the last one, i, which NumPy mixes into the pool after
    all the others, so the shared words are hashed once and the last word
    for every child at once, as a (count,) uint32 array, which then runs
    through ``generate_state``.  No SeedSequence is built per child and the
    parent's ``n_children_spawned`` is left as it is.  The child indices
    must fit one word, below 2³².
    """
    first = parent.n_children_spawned
    if first + count > 1 << 32:
        raise ValueError(f"children {first} … {first + count - 1} are not 32-bit indices")
    size, const = parent.pool_size, _INIT_A
    run = _words(parent.entropy)
    shared = run + [0] * (size - len(run)) + _words(parent.spawn_key)
    pool = []
    for word in shared[:size]:
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(size):
        for dst in range(size):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    for word in shared[size:] + [np.arange(first, first + count, dtype=np.uint32)]:
        for dst in range(size):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    const, words = _INIT_B, []
    for i in range(8):
        word, const = pool[i % size] ^ const, const * _MULT_B & _MASK32
        word = word * const & _MASK32
        words.append((word ^ word >> 16).astype(np.uint64))
    # each uint64 is a little-endian pair of uint32 words
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(words[::2], words[1::2])], axis=1)


def pcg64_state(words) -> dict:
    """``np.random.PCG64(seed).state`` from the four ints ``seed.generate_state(4, np.uint64)``.

    PCG64 reads them as the 128-bit seed s and stream q, high word first,
    and steps its LCG twice: inc = 2q + 1, state = ((inc + s)·M + inc) mod 2¹²⁸.
    """
    s1, s0, q1, q0 = words
    inc = (q1 << 65 | q0 << 1 | 1) & _MASK128
    state = ((inc + (s1 << 64 | s0)) * _PCG64_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


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
