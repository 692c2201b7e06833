"""Time sources and decomposition budgets.

The time-delayed decomposition strategy (paper Algorithm 10) needs a
notion of "this task has mined for longer than τ_time". With
``time_unit='wall'`` that is wall-clock time, as in the paper. By
default, and always above one machine × one thread, it is a deterministic
*operation budget* counted in
the miner's abstract work units (``MiningStats.mining_ops``), so that a
run decomposes at exactly the same search-tree nodes every time — a
property the paper's wall-clock cannot offer but our reproducibility
needs.
"""

from __future__ import annotations

import time

from ..core.options import MiningStats
from ..core.recursive_mine import Budget, NeverExpires


class WallClockBudget:
    """Budget of `seconds` wall-clock time starting at construction."""

    __slots__ = ("_deadline",)

    def __init__(self, seconds: float):
        self._deadline = time.monotonic() + seconds

    def expired(self) -> bool:
        return time.monotonic() > self._deadline


class OpBudget:
    """Deterministic budget of `ops` abstract mining operations.

    Reads the per-task MiningStats, which every decomposition path
    increments; independent of machine speed and thread interleaving.
    """

    __slots__ = ("_stats", "_limit")

    def __init__(self, stats: MiningStats, ops: int):
        self._stats = stats
        self._limit = stats.mining_ops + ops

    def expired(self) -> bool:
        return self._stats.mining_ops > self._limit


class AlwaysExpired:
    """Budget that splits at every opportunity: Algorithm 8's one-level split."""

    __slots__ = ()

    def expired(self) -> bool:
        return True


def make_budget(time_unit: str, tau_time: float, stats: MiningStats) -> Budget:
    """Budget factory: 'wall' takes seconds, 'ops' abstract operations."""
    if tau_time == float("inf"):
        return NeverExpires()
    if time_unit == "wall":
        return WallClockBudget(tau_time)
    if time_unit == "ops":
        return OpBudget(stats, int(tau_time))
    raise ValueError(f"unknown time_unit {time_unit!r} (expected 'wall' or 'ops')")
