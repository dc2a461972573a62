"""The one verdict type of every check, and the error for bad input.

Every pass/fail check in the package returns a ``Report`` and the CLI prints
it.  This module imports nothing from the package, so every layer can use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["InvalidInput", "Report"]


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
