"""Table 5 — vertical and horizontal scalability on Enron.

Paper setting: (a) 16 machines, threads/machine ∈ {4, 8, 16, 32};
(b) 32 threads/machine, machines ∈ {2, 4, 8, 16}. "The time keeps
decreasing significantly as the count doubles."

Measured analog: the same sweeps on the discrete-event simulated
cluster over the enron analog. Virtual makespans are deterministic and
the task set is identical across configurations, so the speedup curve
is pure scheduling.
"""

import pytest

from repro.bench import report
from conftest import sim_run

# The paper sweeps 16 machines x {4..32} threads and {2..16} machines x 32
# threads; the analog workload is ~1/100 scale, so the sweep is scaled
# down accordingly (saturation would otherwise hit at the first point).
VERTICAL = [1, 2, 4, 8]  # threads/machine at 4 machines
HORIZONTAL = [1, 2, 4, 8]  # machines at 4 threads

_vertical: dict[int, float] = {}
_horizontal: dict[int, object] = {}


@pytest.mark.parametrize("threads", VERTICAL)
def test_table5a_vertical(benchmark, dataset, threads):
    spec, pg = dataset("enron")
    out = benchmark.pedantic(
        lambda: sim_run(pg.graph, spec, machines=4, threads=threads),
        rounds=1, iterations=1,
    )
    _vertical[threads] = out.makespan


@pytest.mark.parametrize("machines", HORIZONTAL)
def test_table5b_horizontal(benchmark, dataset, machines):
    spec, pg = dataset("enron")
    out = benchmark.pedantic(
        lambda: sim_run(pg.graph, spec, machines=machines, threads=4),
        rounds=1, iterations=1,
    )
    _horizontal[machines] = out


def test_table5_report(benchmark, dataset):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    spec, pg = dataset("enron")
    solo = sim_run(pg.graph, spec, machines=1, threads=1)

    rows = [
        [4, t, f"{_vertical[t]:,.0f}", f"{solo.makespan / _vertical[t]:.1f}x"]
        for t in VERTICAL
    ]
    report(
        "Table 5(a) — vertical scalability (4 machines, enron analog)",
        ["machines", "threads", "virtual makespan", "speedup vs 1x1"],
        rows,
        notes="Paper shape: time keeps decreasing as threads double (739→172s).",
        out_name="table5a_vertical",
    )

    rows = [
        [m, 4, f"{_horizontal[m].makespan:,.0f}",
         f"{solo.makespan / _horizontal[m].makespan:.1f}x",
         _horizontal[m].metrics.steals]
        for m in HORIZONTAL
    ]
    report(
        "Table 5(b) — horizontal scalability (4 threads/machine, enron analog)",
        ["machines", "threads", "virtual makespan", "speedup vs 1x1", "steals"],
        rows,
        notes="Paper shape: time keeps decreasing as machines double (1035→172s).",
        out_name="table5b_horizontal",
    )

    # Shape assertions: monotone non-increasing makespans along each sweep.
    for a, b in zip(VERTICAL, VERTICAL[1:]):
        assert _vertical[b] <= _vertical[a] * 1.02
    for a, b in zip(HORIZONTAL, HORIZONTAL[1:]):
        assert _horizontal[b].makespan <= _horizontal[a].makespan * 1.02
    assert solo.makespan / _vertical[VERTICAL[-1]] > 4.0, (
        "the codesign must show substantial parallel speedup"
    )
