"""The search tree is pinned: a constant-factor kernel change must not move it.

Two registered instances are mined through the engine (serial backend,
time-delayed decomposition on an operation budget) and through the
serial miner, and every ``MiningStats`` counter is compared with the
values the kernel produced when these pins were recorded. Under
``time_unit="ops"`` the decomposition itself runs on ``mining_ops``, so
one operation more or less changes which subtasks exist:
``subtasks_created`` is pinned too. A change that is meant to alter the
tree (a new pruning rule, another branching order) updates these
numbers and says why.

The engine's root count (``EngineMetrics.tasks_spawned``) is pinned
beside the tree: only roots of the Theorem 2 core with at least k
larger-ID neighbours spawn (161 and 411 roots spawned before the
engine peeled its input and gated spawns; the tree did not move).
"""

import dataclasses

import pytest

from repro.core.miner import mine_maximal_quasicliques
from repro.datasets import get_dataset
from repro.gthinker.config import EngineConfig
from repro.gthinker.engine import mine_parallel

FIELDS = (
    "nodes_expanded", "bounding_rounds", "type1_pruned", "type2_pruned",
    "critical_moves", "cover_skipped", "lookahead_hits", "candidates_emitted",
    "mining_ops",
)

#: name → (tau_time ops, tau_split, results, subtasks_created,
#:         engine MiningStats, serial-miner MiningStats) in FIELDS order.
PINNED = {
    "cx_gse10158": (
        500, 500, 6, 13,
        (67, 355, 125, 254, 5, 513, 21, 21, 8411),
        (67, 355, 125, 254, 5, 513, 21, 21, 7495),
    ),
    "hyves": (
        5000, 30, 14, 183,
        (2356, 12709, 9851, 8901, 194, 21241, 402, 760, 458213),
        (2356, 12709, 9851, 8901, 194, 21241, 402, 757, 402721),
    ),
}

#: name → engine tasks_spawned under the PINNED configuration.
ROOTS_SPAWNED = {"cx_gse10158": 21, "hyves": 59}


@pytest.fixture(scope="module", params=sorted(PINNED))
def instance(request):
    spec = get_dataset(request.param)
    return spec, spec.build().graph, PINNED[request.param], ROOTS_SPAWNED[request.param]


def counters(stats):
    return dict(zip(FIELDS, (getattr(stats, f) for f in FIELDS)))


def test_counters_cover_every_mining_stats_field():
    from repro.core.options import MiningStats

    assert tuple(f.name for f in dataclasses.fields(MiningStats)) == FIELDS


def test_engine_timed_decomposition_tree(instance):
    spec, graph, (tau_time, tau_split, results, subtasks, engine_stats, _), roots = instance
    config = EngineConfig(
        backend="serial", decompose="timed", time_unit="ops",
        tau_time=tau_time, tau_split=tau_split,
    )
    out = mine_parallel(graph, spec.gamma, spec.min_size, config)
    assert len(out.maximal) == results
    assert out.metrics.tasks_spawned == roots
    assert out.metrics.subtasks_created == subtasks
    assert counters(out.metrics.mining_stats) == dict(zip(FIELDS, engine_stats))


def test_serial_miner_tree(instance):
    spec, graph, (_, _, results, _, _, serial_stats), _ = instance
    out = mine_maximal_quasicliques(graph, spec.gamma, spec.min_size)
    assert len(out.maximal) == results
    assert counters(out.stats) == dict(zip(FIELDS, serial_stats))
