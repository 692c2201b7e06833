"""The original Quick algorithm [27] as a baseline.

The paper characterizes Quick as (a) skipping the Theorem 2 k-core
preprocessing, (b) not examining G(S) before a critical-vertex
expansion, and (c) not examining G(S′) when diameter pruning empties
ext(S′) — (b) and (c) make Quick *miss results*. This module reuses the
shared machinery with those behaviors switched off, so benchmark
comparisons isolate exactly the paper's claimed deltas.

The baseline runs on the same set-enumeration walk as the corrected
algorithm. *Which* results it misses depends on the walk's pivot order
(ascending compact ID), and because a missed maximal set leaves its
valid subsets unsuperseded, Quick's output is not a subset of the true
maximal family: the invariant is only that every output is a valid
γ-quasi-clique contained in some truly maximal one.
"""

from __future__ import annotations

from ..graph.adjacency import Graph
from .miner import MiningResult, mine_maximal_quasicliques
from .options import QUICK_OPTIONS, MinerOptions


def mine_quick(graph: Graph, gamma: float, min_size: int) -> MiningResult:
    """Run the original-Quick baseline (may miss maximal results)."""
    return mine_maximal_quasicliques(
        graph, gamma, min_size, options=QUICK_OPTIONS, mode="global"
    )


def mine_quick_with_kcore(graph: Graph, gamma: float, min_size: int) -> MiningResult:
    """Quick plus the Theorem 2 k-core shrink — the (T1) ablation arm."""
    opts = MinerOptions(
        kcore_preprocess=True,
        check_before_critical_expand=False,
        check_empty_ext_candidate=False,
    )
    return mine_maximal_quasicliques(graph, gamma, min_size, options=opts, mode="global")


def missed_results(
    graph: Graph, gamma: float, min_size: int
) -> set[frozenset[int]]:
    """Maximal quasi-cliques the full algorithm finds but Quick does not."""
    full = mine_maximal_quasicliques(graph, gamma, min_size)
    quick = mine_quick(graph, gamma, min_size)
    return full.maximal - quick.maximal
