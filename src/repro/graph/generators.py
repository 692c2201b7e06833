"""Seeded synthetic graph generators.

The paper evaluates on eight real graphs (Table 1) that cannot be
downloaded in this offline environment, so the dataset registry builds
*analogs* from these generators: a heavy-tailed background (preferential
attachment) plus planted near-cliques whose density clears the γ
threshold. The planted cores are what make the reproduction faithful —
they recreate the paper's central empirical fact (Figures 1–3) that a
handful of dense regions spawn tasks that are orders of magnitude more
expensive than the rest of the graph.

All generators take an integer seed and are deterministic given it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .adjacency import Graph


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) via geometric edge skipping — O(n + m) expected time."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = random.Random(seed)
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    if p == 0.0:
        return g
    if p == 1.0:
        for u, v in itertools.combinations(range(n), 2):
            g.add_edge(u, v)
        return g
    # Iterate potential edges in lexicographic order, skipping ahead by
    # geometric jumps (Batagelj & Brandes 2005).
    lp = math.log1p(-p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log1p(-rng.random()) / lp)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            g.add_edge(v, w)
    return g


def barabasi_albert(n: int, m_attach: int, seed: int = 0) -> Graph:
    """Preferential attachment: each new vertex attaches to m distinct targets."""
    if m_attach < 1 or m_attach >= n:
        raise ValueError(f"need 1 <= m_attach < n, got m_attach={m_attach}, n={n}")
    rng = random.Random(seed)
    g = Graph()
    # Repeated-nodes list: vertex v appears once per incident edge, so
    # uniform draws from it realize degree-proportional sampling.
    repeated: list[int] = []
    for v in range(m_attach):
        g.add_vertex(v)
    for v in range(m_attach, n):
        if not repeated:
            targets = list(range(v))[:m_attach]
        else:
            targets_set: set[int] = set()
            while len(targets_set) < m_attach:
                targets_set.add(rng.choice(repeated))
            targets = list(targets_set)
        g.add_vertex(v)
        for t in targets:
            g.add_edge(v, t)
            repeated.append(v)
            repeated.append(t)
    return g


def powerlaw_cluster(n: int, m_attach: int, p_triangle: float, seed: int = 0) -> Graph:
    """Holme–Kim: preferential attachment with triangle-closing steps.

    Produces the high clustering of social graphs (DBLP/Amazon analogs).
    """
    if m_attach < 1 or m_attach >= n:
        raise ValueError(f"need 1 <= m_attach < n, got m_attach={m_attach}, n={n}")
    rng = random.Random(seed)
    g = Graph()
    repeated: list[int] = []
    for v in range(m_attach):
        g.add_vertex(v)
    for v in range(m_attach, n):
        g.add_vertex(v)
        count = 0
        rejects = 0
        last_target: int | None = None
        while count < m_attach:
            # Early vertices can exhaust their preferential/triangle
            # candidate pools (everything already adjacent); after a few
            # rejects fall back to a uniform draw over valid targets.
            if rejects > 16:
                options = [u for u in range(v) if not g.has_edge(v, u)]
                candidate = rng.choice(options)
            else:
                close_triangle = (
                    last_target is not None
                    and rng.random() < p_triangle
                    and g.degree(last_target) > 0
                )
                if close_triangle:
                    candidate = rng.choice(g.neighbors(last_target))
                elif repeated:
                    candidate = rng.choice(repeated)
                else:
                    candidate = rng.randrange(v)
            if candidate != v and g.add_edge(v, candidate):
                repeated.append(v)
                repeated.append(candidate)
                last_target = candidate
                count += 1
                rejects = 0
            else:
                rejects += 1
    return g


@dataclass
class PlantedGraph:
    """A background graph with planted dense vertex sets."""

    graph: Graph
    planted: list[set[int]] = field(default_factory=list)


def plant_quasiclique(
    graph: Graph, members: list[int], gamma: float, rng: random.Random
) -> None:
    """Densify `members` in-place until it is a γ-quasi-clique.

    First sprinkles edges at density ≈ γ + margin, then repairs any
    vertex still below the ceil(γ·(k−1)) degree floor so the planted set
    is a *guaranteed* quasi-clique (possibly non-maximal in context).
    """
    k = len(members)
    if k < 2:
        return
    target = math.ceil(gamma * (k - 1) - 1e-9)
    density = min(1.0, gamma + (1.0 - gamma) * 0.5)
    for u, v in itertools.combinations(members, 2):
        if rng.random() < density:
            graph.add_edge(u, v)
    # Repair pass: raise every member's internal degree to the floor.
    member_set = set(members)
    for v in members:
        deficit = target - graph.degree_in(v, member_set)
        if deficit <= 0:
            continue
        candidates = [u for u in members if u != v and not graph.has_edge(u, v)]
        rng.shuffle(candidates)
        for u in candidates[:deficit]:
            graph.add_edge(u, v)


def planted_quasicliques(
    n: int,
    avg_degree: float,
    num_plants: int,
    plant_size: int,
    gamma: float,
    seed: int = 0,
    background: str = "ba",
    overlap: int = 0,
    plant_sizes: list[int] | None = None,
) -> PlantedGraph:
    """Heavy-tailed background plus `num_plants` planted γ-quasi-cliques.

    `overlap` > 0 makes consecutive plants share that many vertices,
    creating the overlapping-subgraph tasks the paper's decomposition
    must handle. `plant_sizes` overrides (num_plants, plant_size) with
    an explicit per-plant size list — used to plant a few *giant* cores
    among normal ones, the paper's "vertex 363 of YouTube" anatomy where
    one region's tasks dwarf everything else.
    """
    rng = random.Random(seed)
    m_attach = max(1, round(avg_degree / 2))
    if background == "ba":
        g = barabasi_albert(n, m_attach, seed=rng.randrange(2**31))
    elif background == "plc":
        g = powerlaw_cluster(n, m_attach, 0.3, seed=rng.randrange(2**31))
    elif background == "er":
        g = erdos_renyi(n, min(1.0, avg_degree / max(1, n - 1)), seed=rng.randrange(2**31))
    else:
        raise ValueError(f"unknown background model {background!r}")
    sizes = list(plant_sizes) if plant_sizes is not None else [plant_size] * num_plants
    plants: list[set[int]] = []
    prev: list[int] = []
    vertices = list(range(n))
    for size in sizes:
        members = rng.sample(vertices, size)
        if overlap and prev:
            shared = min(overlap, len(prev), size - 1)
            members[:shared] = rng.sample(prev, shared)
            members = list(dict.fromkeys(members))
            while len(members) < size:
                extra = rng.randrange(n)
                if extra not in members:
                    members.append(extra)
        plant_quasiclique(g, members, gamma, rng)
        plants.append(set(members))
        prev = members
    return PlantedGraph(graph=g, planted=plants)


def coexpression_like(
    n_genes: int,
    n_modules: int,
    module_size: int,
    gamma: float = 0.85,
    noise_avg_degree: float = 4.0,
    seed: int = 0,
) -> PlantedGraph:
    """Gene-coexpression analog (CX_GSE1730 / CX_GSE10158 substitutes).

    Coexpression graphs threshold a gene–gene correlation matrix, which
    yields many medium-size dense modules over a sparse background —
    exactly what dense-module planting over an ER background produces.
    """
    rng = random.Random(seed)
    p = min(1.0, noise_avg_degree / max(1, n_genes - 1))
    g = erdos_renyi(n_genes, p, seed=rng.randrange(2**31))
    plants: list[set[int]] = []
    for _ in range(n_modules):
        members = rng.sample(range(n_genes), module_size)
        plant_quasiclique(g, members, gamma, rng)
        plants.append(set(members))
    return PlantedGraph(graph=g, planted=plants)
