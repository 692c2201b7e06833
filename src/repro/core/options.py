"""Miner configuration, statistics counters, and result sinks.

Every pruning family can be toggled independently, which serves three
purposes: (1) the ablation benchmarks DESIGN.md calls out, (2) the
original-Quick baseline (`repro.core.quick`) that reproduces the result
misses the paper documents, and (3) fault isolation in tests.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .quasiclique import check_params


@dataclass(frozen=True)
class MinerOptions:
    """Feature switches for the recursive miner. Defaults = full paper algorithm."""

    kcore_preprocess: bool = True  # (T1): shrink input to its ceil(γ(τ−1))-core
    use_diameter_prune: bool = True  # P1, Theorem 1
    use_degree_prune: bool = True  # P3, Theorems 3–4
    use_upper_bound: bool = True  # P4, Theorems 5–6
    use_lower_bound: bool = True  # P5, Theorems 7–8
    use_critical_vertex: bool = True  # P6, Theorem 9 (needs lower bound)
    use_cover_vertex: bool = True  # P7, Eq. 9
    use_lookahead: bool = True  # Quick's lookahead (Alg. 2 lines 8–10)
    # The two checks the paper adds over the original Quick; disabling
    # both reproduces Quick's documented result misses (Section 4).
    check_before_critical_expand: bool = True
    check_empty_ext_candidate: bool = True

    def critical_vertex_enabled(self) -> bool:
        """P6 consumes L_S, so it silently degrades when P5 is off."""
        return self.use_critical_vertex and self.use_lower_bound


#: Full paper algorithm.
DEFAULT_OPTIONS = MinerOptions()

#: The original Quick algorithm as characterized by the paper: no k-core
#: preprocessing (T1 notes Quick "somehow does not use this rule") and
#: missing the two candidate checks that cause it to miss results.
QUICK_OPTIONS = MinerOptions(
    kcore_preprocess=False,
    check_before_critical_expand=False,
    check_empty_ext_candidate=False,
)


@dataclass
class MiningStats:
    """Counters kept by one mining run (cheap; used by ablations/Table 6)."""

    nodes_expanded: int = 0  # set-enumeration nodes entered
    bounding_rounds: int = 0  # iterations of the Alg. 1 repeat loop
    type1_pruned: int = 0  # vertices removed from ext(S)
    type2_pruned: int = 0  # subtrees killed by Type II rules
    critical_moves: int = 0  # Theorem 9 bulk moves
    cover_skipped: int = 0  # ext vertices parked in a cover tail
    lookahead_hits: int = 0
    candidates_emitted: int = 0
    mining_ops: int = 0  # abstract work units (virtual-clock cost model)

    def merge(self, other: "MiningStats") -> None:
        self.nodes_expanded += other.nodes_expanded
        self.bounding_rounds += other.bounding_rounds
        self.type1_pruned += other.type1_pruned
        self.type2_pruned += other.type2_pruned
        self.critical_moves += other.critical_moves
        self.cover_skipped += other.cover_skipped
        self.lookahead_hits += other.lookahead_hits
        self.candidates_emitted += other.candidates_emitted
        self.mining_ops += other.mining_ops


class ResultSink:
    """Deduplicating collector standing in for the paper's result file."""

    def __init__(self) -> None:
        self._results: set[frozenset[int]] = set()

    def emit(self, vertices: Iterable[int]) -> None:
        self._results.add(frozenset(vertices))

    def results(self) -> set[frozenset[int]]:
        return set(self._results)

    def __len__(self) -> int:
        return len(self._results)


@dataclass
class MiningJob:
    """Immutable-ish bundle passed through the recursive algorithms."""

    graph: object  # repro.graph.adjacency.Graph
    gamma: float
    min_size: int
    sink: ResultSink
    options: MinerOptions = DEFAULT_OPTIONS
    stats: MiningStats = field(default_factory=MiningStats)

    def __post_init__(self) -> None:
        check_params(self.gamma, self.min_size)
