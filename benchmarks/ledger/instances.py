"""Workload inputs: the seeded graph, its oracle family and their files.

The program under test only ever receives ``graph.txt``. ``--seed``
shuffles the order of the edge list (adjacency order, file order) and
nothing else, so the search tree, the task counts and the result family
stay those of the instance: the driver compares runs across seeds, and
a graph drawn from another generator seed changes ``job_wall_s`` by up
to 60% (1.32 to 2.11 s over six youtube-analog seeds). ``instance_seed``
is that other knob: it is added to the generator seed and gives a
different graph, for checking a claim on an instance not tuned on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import time

from repro.core.miner import mine_maximal_quasicliques
from repro.core.resultsio import write_results
from repro.datasets import get_dataset
from repro.graph.adjacency import Graph
from repro.graph.generators import planted_quasicliques

from spec import SPARSE_INSTANCE, Workload


def generate(workload: Workload, instance_seed: int = 0) -> Graph:
    if workload.dataset is None:
        params = dict(SPARSE_INSTANCE)
        params["seed"] += instance_seed
        return planted_quasicliques(**params).graph
    spec = get_dataset(workload.dataset)
    return dataclasses.replace(spec, seed=spec.seed + instance_seed).build().graph


def write_shuffled_edges(graph: Graph, seed: int, path: str) -> None:
    """Write the edge list in the seed's order (seed 0 keeps the generator's)."""
    edges = list(graph.edges())
    if seed:
        random.Random(seed).shuffle(edges)
    with open(path, "w") as f:
        f.writelines(f"{u} {v}\n" for u, v in edges)


def family_sha256(family) -> str:
    lines = sorted(" ".join(map(str, sorted(s))) for s in family)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def prepare(workload: Workload, seed: int, instance_seed: int, work_dir: str) -> dict:
    """One set-up round: generate, write ``graph.txt``, mine the oracle.

    Returns the two timers and the oracle's count and hash.
    """
    t0 = time.perf_counter()
    graph = generate(workload, instance_seed)
    write_shuffled_edges(graph, seed, os.path.join(work_dir, "graph.txt"))
    t1 = time.perf_counter()
    oracle = mine_maximal_quasicliques(graph, workload.gamma, workload.min_size)
    t2 = time.perf_counter()
    write_results(oracle.maximal, os.path.join(work_dir, "oracle.txt"))
    return {
        "generate_s": t1 - t0,
        "oracle_s": t2 - t1,
        "results": len(oracle.maximal),
        "sha256": family_sha256(oracle.maximal),
    }
