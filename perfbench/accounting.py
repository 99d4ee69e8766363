"""Attempted and failed operations of a benchmark run."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Outcome:
    """Operations one job or CLI launch attempted and how many failed.

    `known` counts the failures of the documented pipeline defect: a
    pipeline listed in reference.json that fails, or raises
    DegenerateStateError, on a distillable pair.  Any other failure makes
    the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    known: int = 0
    problems: list[str] = field(default_factory=list)
    seen: set = field(default_factory=set)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known += other.known
        self.problems.extend(other.problems[: max(0, 5 - len(self.problems))])

    def add_job(self, key: Any, other: "Outcome") -> None:
        """Count a job's operations once per distinct input.

        Jobs repeat inputs as often as time allows; counting every repeat
        would make the counts depend on the program's speed.  A repeat
        still adds any failure other than the known defect.
        """
        if key not in self.seen:
            self.seen.add(key)
            self.add(other)
        elif other.failed > other.known:
            self.add(Outcome(other.attempted, other.failed - other.known, 0, other.problems))

    @property
    def correct(self) -> bool:
        return self.failed == self.known
