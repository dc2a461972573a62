"""The one verdict type of every check, the error for bad input, and the
sampling policy of the sampled checks.

Every pass/fail check in the package returns a ``Report`` and the CLI prints
it.  This module imports nothing from the package, so every layer can use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

__all__ = ["InvalidInput", "Report", "BLOCK", "sample_rngs", "sample_blocks"]

# Samples per block of the sampled checks: a block runs as one round of stacked
# calls, and holding one block at a time keeps memory flat in the sample count
# (a Stokes block peaks at about 1.5 MB, a residual scan block at sl4 about 8 MB).
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


def sample_rngs(seed: int, ks: Iterable[int]) -> list[np.random.Generator]:
    """The generator ``default_rng([seed, k])`` of each sample k, the same in every block."""
    return [np.random.default_rng([seed, k]) for k in ks]


def sample_blocks(indices: range, run: Callable[[range], Any]) -> list:
    """``run(ks)`` on consecutive blocks ks of ``indices``, ``BLOCK`` samples at a
    time and in order, one result per block.  A block that raises runs again one
    sample at a time, so the error raised is the first failing sample's, as in a
    per-sample loop."""
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
