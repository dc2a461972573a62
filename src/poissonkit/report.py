"""The one verdict type of every check, the error for bad input, and the
sampling policy of the sampled checks.

Every pass/fail check in the package returns a ``Report`` and the CLI prints
it.  This module imports nothing from the package, so every layer can use it.

Sample k of a stream reads its own fixed block of raw words, ``sample_words``,
from a counter-based generator: a block of samples is one contiguous draw, and
each sample's words do not depend on the block that draws them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    import numpy as np

__all__ = ["InvalidInput", "Report", "BLOCK", "WORDS", "sample_words", "sample_blocks"]

# Samples per block of the sampled checks: a block runs as one round of stacked
# calls, and holding one block at a time keeps memory flat in the sample count
# (a Stokes block peaks at about 1.7 MB, a residual scan block at sl4 about 0.9 MB).
BLOCK = 64
# Raw 64-bit words per sample and stream: a group report's point takes at most 35 at n = 6, and a
# round of dynr's lambda candidates LAMBDA_ROUND words per rank, so 64 covers rank 8
WORDS = 64


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


def sample_words(seed: int, ks: range, stream: int = 0) -> np.ndarray:
    """The raw words of samples ks of one stream, one row of WORDS per sample.  Sample k's row is
    Philox keyed by ``seed`` (Salmon et al., SC 2011) from counter (stream << 128) + k WORDS / 4,
    as the counter steps by 4 words, so it is the same in every block.  A seed outside
    [0, 2^128 - 1], which a Philox key cannot hold, is bad input."""
    import numpy as np  # here, so that the exact half of the package loads no numpy

    if not 0 <= seed < 1 << 128:
        raise InvalidInput(f"a seed must be between 0 and 2^128 - 1, got {seed}")
    words = np.random.Philox(key=seed, counter=(stream << 128) + ks.start * WORDS // 4).random_raw(len(ks) * WORDS)
    return words.reshape(len(ks), WORDS)


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
