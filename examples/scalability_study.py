"""Scalability study on virtual time (paper Table 5 in miniature).

Sweeps virtual thread and machine counts over one mining job and prints
speedup/utilization — deterministic because every task cost is an
operation count, so all configurations schedule the identical task set.

Run:  python examples/scalability_study.py
"""

from repro.bench import report
from repro.datasets import build_dataset, get_dataset
from repro.gthinker import EngineConfig, mine_parallel

DATASET = "enron"


def main() -> None:
    spec = get_dataset(DATASET)
    graph = build_dataset(DATASET).graph
    print(f"{DATASET} analog: |V|={graph.num_vertices} |E|={graph.num_edges}")

    def run(machines: int, threads: int):
        config = EngineConfig(
            num_machines=machines,
            threads_per_machine=threads,
            tau_split=spec.tau_split,
            tau_time=spec.tau_time_ops,
            time_unit="ops",
            decompose="timed",
        )
        return mine_parallel(graph, spec.gamma, spec.min_size, config).metrics

    # At 1 x 1 the makespan is the total work (one thread runs it all).
    base = run(1, 1).virtual_work
    rows = []
    for threads in (2, 4, 8, 16, 32):
        m = run(1, threads)
        rows.append([
            1, threads, f"{m.virtual_makespan:,.0f}",
            f"{base / m.virtual_makespan:.2f}x",
            f"{m.utilization:.2f}", m.results,
        ])
    report(
        "Vertical scalability (1 machine, thread sweep)",
        ["machines", "threads", "virtual makespan", "speedup", "util", "results"],
        rows,
    )

    rows = []
    for machines in (1, 2, 4, 8, 16):
        m = run(machines, 4)
        rows.append([
            machines, 4, f"{m.virtual_makespan:,.0f}",
            f"{base / m.virtual_makespan:.2f}x",
            m.steals, m.results,
        ])
    report(
        "Horizontal scalability (4 threads/machine, machine sweep)",
        ["machines", "threads", "virtual makespan", "speedup", "steals", "results"],
        rows,
    )


if __name__ == "__main__":
    main()
