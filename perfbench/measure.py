"""Summary statistics and the run's correctness ledger."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    """The median; NaN (reported as not measured) for no samples."""
    return float(statistics.median(values)) if values else math.nan


def mean(values: Sequence[float]) -> float:
    """The mean; NaN (reported as not measured) for no samples."""
    return float(statistics.fmean(values)) if values else math.nan


def nearest_rank(values: Sequence[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with ten samples or fewer there is
    no such percentile and the maximum is returned as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return float(ordered[-1]), 100.0
    index = n - 11  # ten samples lie above ordered[index]
    return float(ordered[index]), 100.0 * (index + 1) / n


def geomean(values: Sequence[float]) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


class Ledger:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: broken invariants (router conservation); these fail the run
        self.violations: List[str] = []

    def check(self, ok: bool, what: str, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def violation(self, what: str) -> None:
        self.violations.append(what)

    def attempt(self, what: str, fn):
        """``fn()``, or None with the exception counted as one failure."""
        try:
            return fn()
        except Exception as exc:  # a program error counts; the run goes on
            self.check(False, f"{what} raised {type(exc).__name__}: {exc}")
            return None

    @property
    def error_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
