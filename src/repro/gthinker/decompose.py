"""Task decomposition policy (paper Algorithms 8 and 10).

The set-enumeration walk exists once, in
:mod:`repro.core.recursive_mine`; how a task is split is decided solely
by the :class:`~repro.gthinker.clock.Budget` the walk is handed.
:func:`decomposition_budget` maps the engine's `decompose` setting to
that budget. The walk is bound here as ``time_delayed_mine_masked`` —
with a budget that can expire it *is* Algorithm 10.
"""

from __future__ import annotations

from ..core.options import MiningStats
from ..core.recursive_mine import recursive_mine_masked as time_delayed_mine_masked
from .clock import AlwaysExpired, Budget, NeverExpires, make_budget
from .config import EngineConfig

__all__ = ["decomposition_budget", "time_delayed_mine_masked"]


def decomposition_budget(config: EngineConfig, stats: MiningStats, ext_size: int) -> Budget:
    """The budget one iteration-3 task mines under.

    * ``'none'`` — never expires (Algorithm 2).
    * ``'size'`` — Algorithm 8: a task with |ext(S)| ≤ τ_split is mined
      whole; a bigger one is already expired, so the walk stops after
      one level and wraps every surviving child as a subtask.
    * ``'timed'`` — Algorithms 9/10: τ_time of wall clock or of the
      task's own `stats.mining_ops`, per `config.time_unit`.
    """
    if config.decompose == "none":
        return NeverExpires()
    if config.decompose == "size":
        return AlwaysExpired() if ext_size > config.tau_split else NeverExpires()
    return make_budget(config.time_unit, config.tau_time, stats)
