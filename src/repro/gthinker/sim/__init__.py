"""Deterministic simulation testing (DST) of the cluster control plane.

The *shipping* coordination code — :class:`~repro.gthinker.cluster.
reactor.MasterReactor` and :class:`~repro.gthinker.cluster.reactor.
WorkerReactor` — runs here over an in-memory :class:`~.net.SimNet` on a
virtual clock, under seeded :class:`~.plan.FaultPlan`s: delay, jitter,
reordering, duplication, connection tears, partitions, crashes,
restarts, wedges, stragglers. One seed reproduces one schedule
byte-for-byte; ``repro sim-fuzz`` sweeps thousands of schedules per
minute and every failure ships with its replay command.

See docs/TESTING.md for the taxonomy and the replay workflow.
"""

from .harness import SimReport, run_sim
from .net import SimChannel, SimLink, SimNet
from .plan import (
    FaultPlan,
    LinkFaults,
    PartitionWindow,
    WorkerFaults,
    generate_plan,
)

__all__ = [
    "FaultPlan",
    "LinkFaults",
    "PartitionWindow",
    "SimChannel",
    "SimLink",
    "SimNet",
    "SimReport",
    "WorkerFaults",
    "generate_plan",
    "run_sim",
]
