"""The one verdict type of every check, the error for bad input, and the
sampling policy of the sampled checks.

Every pass/fail check in the package returns a ``Report`` and the CLI prints
it.  This module imports nothing from the package, so every layer can use it.

Sample k draws from ``default_rng([seed, k])``; ``sample_rngs`` seeds a whole
block of them in one vectorized pass of numpy's SeedSequence hash.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:
    import numpy as np

__all__ = ["InvalidInput", "Report", "BLOCK", "sample_rngs", "sample_blocks"]

# Samples per block of the sampled checks: a block runs as one round of stacked
# calls, and holding one block at a time keeps memory flat in the sample count
# (a Stokes block peaks at about 1.7 MB, a residual scan block at sl4 about 0.9 MB).
BLOCK = 64


class InvalidInput(ValueError):
    """An argument of the wrong shape or form: bad input, not a failed check."""


@dataclass(frozen=True)
class Report:
    """A verdict with its evidence.

    ``values`` print in order, then ``seed``, ``witness`` and ``pass``.
    ``reason`` says in words why a check failed and ``witness`` holds the
    structured evidence; sampled checks set ``seed`` and ``samples``.
    """

    ok: bool
    values: dict = field(default_factory=dict)
    reason: str = ""
    witness: Any = None
    seed: int | None = None
    samples: int | None = None

    def __bool__(self) -> bool:
        return self.ok

    def lines(self, porcelain: bool, command: str) -> list[str]:
        """``key=value`` lines, or under ``porcelain=False`` a ``[command]`` header
        and one aligned line per key."""
        items = dict(self.values)
        if self.seed is not None:
            items["seed"] = self.seed
        if self.witness is not None:
            items["witness"] = self.witness
        items["pass"] = self.ok
        if porcelain:
            return [f"{k}={v}" for k, v in items.items()]
        width = max(len(str(k)) for k in items)
        return [f"[{command}]"] + [f"  {k:<{width}}  {v}" for k, v in items.items()]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): 4 pool words, hash and mix constants
_POOL, _MASK32 = 4, 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@dataclass
class _HashedSeed:
    """A SeedSequence already hashed: PCG64 asks it for generate_state(4, uint64) alone."""

    state: np.ndarray

    def generate_state(self, n_words: int, dtype=None) -> np.ndarray:
        return self.state


def _seed_states(seed: int, ks: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, k]).generate_state(4, uint64)`` for each k < 2^64, one row each,
    hashed for all ks at once in wrapping uint32 arithmetic, as the constants are data-free."""
    import numpy as np

    def constants(value: int, mult: int, steps: int) -> np.ndarray:
        return np.array([*itertools.accumulate([mult] * steps, lambda c, m: c * m & _MASK32, initial=value)],
                        np.uint32)[:, None]

    def hashed(value, consts):  # xor the running constant, step it, multiply by it, fold
        value = (value ^ consts[:-1]) * consts[1:]
        return value ^ value >> 16

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ value >> 16

    # entropy rows: the seed's words, least significant first, then k's one or two; zeros fill the pool
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((max(len(words) + 2, _POOL), len(ks)), np.uint32)
    entropy[:len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)], entropy[len(words) + 1] = ks & _MASK32, ks >> 32
    length = len(words) + 1 + (ks >> 32 > 0)
    a = constants(_INIT_A, _MULT_A, _POOL * len(entropy))
    pool = hashed(entropy[:_POOL], a[:_POOL + 1])
    for src in range(_POOL):  # every pool word into every other, in numpy's order
        step, dst = _POOL + (_POOL - 1) * src, [i for i in range(_POOL) if i != src]
        pool[dst] = mix(pool[dst], hashed(pool[src], a[step:step + _POOL]))
    for i in range(_POOL, len(entropy)):  # each word past the pool into every pool word
        pool = np.where(i < length, mix(pool, hashed(entropy[i], a[_POOL * i:_POOL * i + _POOL + 1])), pool)
    # 8 uint32 words, cycling the pool, paired little-endian into 4 uint64; PCG64 reads each row raw
    state = hashed(pool[[*range(_POOL)] * 2], constants(_INIT_B, _MULT_B, 2 * _POOL)).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


def sample_rngs(seed: int, ks: Iterable[int]) -> list[np.random.Generator]:
    """The generator ``default_rng([seed, k])`` of each sample k < 2^64, the same in every
    block.  The block's seed sequences are hashed at once; a guard checks the first against
    numpy's SeedSequence, which also rejects a negative seed as ``default_rng`` does."""
    import numpy as np  # here, so that the exact half of the package loads no numpy
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_HashedSeed)  # a no-op once registered
    ks = np.asarray(ks, dtype=np.uint64)
    seqs = [_HashedSeed(state) for state in _seed_states(seed, ks)]
    if not np.array_equal(seqs[0].generate_state(4, np.uint64),
                          np.random.SeedSequence([seed, int(ks[0])]).generate_state(4, np.uint64)):
        raise AssertionError("the block's seed hash disagrees with numpy's SeedSequence")
    return [np.random.Generator(np.random.PCG64(seq)) for seq in seqs]


def sample_blocks(indices: range, run: Callable[[range], Any]) -> list:
    """``run(ks)`` on consecutive blocks ks of ``indices``, ``BLOCK`` samples at a
    time and in order, one result per block.  A block that raises runs again one
    sample at a time, so the error raised is the first failing sample's, as in a
    per-sample loop.  No samples is bad input: over them nothing would be checked."""
    if not indices:
        raise InvalidInput("a sampled check needs at least one sample")
    results = []
    for start in range(0, len(indices), BLOCK):
        ks = indices[start:start + BLOCK]
        try:
            results.append(run(ks))
        except (ValueError, AssertionError):
            for k in ks:
                run(range(k, k + 1))
            raise
    return results
