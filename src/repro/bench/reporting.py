"""Plain-text table rendering for the benchmark harness.

Every benchmark regenerates one paper table/figure and prints it in the
paper's row format next to the paper's own numbers, then appends the
rendering to ``benchmarks/out/`` so EXPERIMENTS.md can cite stable
artifacts. Absolute values are not comparable (virtual-time cluster,
synthetic analogs, Python) — the *shape* columns are the deliverable.
"""

from __future__ import annotations

import os
from collections.abc import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def report(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]],
           notes: str = "", out_name: str | None = None) -> str:
    """Print one experiment table and persist it under benchmarks/out/."""
    body = format_table(headers, rows)
    text = f"\n=== {title} ===\n{body}\n"
    if notes:
        text += f"{notes.rstrip()}\n"
    print(text)
    if out_name:
        out_dir = os.environ.get("REPRO_BENCH_OUT", "benchmarks/out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{out_name}.txt"), "w") as f:
            f.write(text.lstrip("\n"))
    return text


def ratio(a: float, b: float) -> float:
    """Safe a/b for speedup columns."""
    return a / b if b else float("inf")
