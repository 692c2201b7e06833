"""Core mining algorithms: pruning rules, bounds, recursive miner."""

from .bounds import lower_bound, lower_bound_min, upper_bound, upper_bound_min
from .domain import TaskDomain, bit_list, bits, is_quasi_clique_masked
from .maxclique import CliqueSearchStats, is_clique, max_clique, max_clique_size
from .miner import MiningResult, mine_maximal_quasicliques, mine_root
from .naive import enumerate_maximal_quasicliques, enumerate_quasicliques
from .options import (
    DEFAULT_OPTIONS,
    QUICK_OPTIONS,
    MinerOptions,
    MiningJob,
    MiningStats,
    ResultSink,
    ThreadSafeResultSink,
)
from .postprocess import postprocess_results, remove_non_maximal
from .quasiclique import (
    ceil_gamma,
    degree_floor,
    is_quasi_clique,
    is_valid_quasi_clique,
    kcore_threshold,
)
from .quick import mine_quick, missed_results
from .resultsio import FileResultSink, postprocess_file, read_results, write_results
from .query import best_community, mine_containing
from .verify import VerificationReport, verify_results

__all__ = [
    "CliqueSearchStats",
    "is_clique",
    "max_clique",
    "max_clique_size",
    "DEFAULT_OPTIONS",
    "QUICK_OPTIONS",
    "TaskDomain",
    "bit_list",
    "bits",
    "is_quasi_clique_masked",
    "MinerOptions",
    "MiningJob",
    "MiningResult",
    "MiningStats",
    "ResultSink",
    "ThreadSafeResultSink",
    "ceil_gamma",
    "degree_floor",
    "enumerate_maximal_quasicliques",
    "enumerate_quasicliques",
    "is_quasi_clique",
    "is_valid_quasi_clique",
    "kcore_threshold",
    "lower_bound",
    "lower_bound_min",
    "mine_maximal_quasicliques",
    "mine_quick",
    "mine_root",
    "missed_results",
    "FileResultSink",
    "postprocess_file",
    "read_results",
    "write_results",
    "postprocess_results",
    "best_community",
    "mine_containing",
    "VerificationReport",
    "verify_results",
    "remove_non_maximal",
    "upper_bound",
    "upper_bound_min",
]
