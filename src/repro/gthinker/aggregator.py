"""Job-level aggregators (the G-thinker aggregator facility).

G-thinker applications share job-wide state beyond the result file:
the max-clique app keeps a global incumbent. This small thread-safe
reducer models that facility so an app need not hand-roll locks.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable


class MaxSetAggregator:
    """Keep the largest set seen (the max-clique incumbent pattern)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._best: frozenset[int] = frozenset()

    @property
    def size(self) -> int:
        return len(self._best)

    def offer(self, candidate: Iterable[int]) -> bool:
        """Install `candidate` if strictly larger; returns True if installed."""
        fs = frozenset(candidate)
        with self._lock:
            if len(fs) > len(self._best):
                self._best = fs
                return True
            return False

    def best(self) -> set[int]:
        with self._lock:
            return set(self._best)
