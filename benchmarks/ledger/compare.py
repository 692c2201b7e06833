#!/usr/bin/env python3
"""Diff two ledger files: one row per workload and end-to-end metric.

    python benchmarks/ledger/compare.py A.json B.json

A is the parent, B the change. Each side's value is the median over its
sets of the per-run medians, with quartiles when the side has two sets
or more. ``change`` is B against A as a share of A, positive when B is
worse. ``spread`` is the larger of A's interquartile range across its
sets and the widest interquartile range *within* one run of either
side (a run that met a burst of interference shows it there), each over
its median and taken from five samples or more. ``wins`` counts the sets in which B beat A, pairing set i
with set i. The verdict is

* ``unresolved`` when the spread exceeds the metric's bound: the runs
  cannot tell a change of that size from noise;
* ``regressed`` when B is worse by more than the bound;
* ``improved`` when B is better by more than the spread and won at
  least nine tenths of the pairs, with two sets or more a side (a gain
  is *claimed* on ten pairs or more, taken alternately);
* ``unchanged`` otherwise.

``fail_frac`` has an absolute bound of 0: any rise is a regression.
Exits 1 when a row regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spec import END_TO_END  # noqa: E402


def median_iqr(values: list[float]) -> dict:
    """Median with the samples behind it and, from two up, their quartiles."""
    out = {"value": statistics.median(values), "samples": list(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def _cells(ledger: dict, sets: list[int] | None, workload: str, metric: str) -> list[dict]:
    chosen = ledger["sets"] if sets is None else [ledger["sets"][i] for i in sets]
    return [
        s[workload]["end_to_end"][metric]
        for s in chosen
        if workload in s and metric in s[workload]["end_to_end"]
    ]


def _spread(cell: dict) -> float:
    """Interquartile range over median of a cell with five samples or more
    (the quartiles of fewer are its extremes, which one outlier sets)."""
    if len(cell.get("samples", ())) < 5 or not cell["value"]:
        return 0.0
    return (cell["q3"] - cell["q1"]) / abs(cell["value"])


def rows(a: dict, b: dict, a_sets: list[int] | None = None,
         b_sets: list[int] | None = None) -> list[dict]:
    out = []
    workloads = [w for w in a["sets"][0] if w in b["sets"][0]]
    for workload in workloads:
        for metric in END_TO_END:
            if metric.workloads is not None and workload not in metric.workloads:
                continue
            cells_a = _cells(a, a_sets, workload, metric.name)
            cells_b = _cells(b, b_sets, workload, metric.name)
            if not cells_a or not cells_b:
                continue
            values_a = [c["value"] for c in cells_a]
            values_b = [c["value"] for c in cells_b]
            side_a, side_b = median_iqr(values_a), median_iqr(values_b)
            sign = 1 if metric.better == "lower" else -1
            worse = sign * (side_b["value"] - side_a["value"])
            base = abs(side_a["value"])
            change = worse / base if base else (float("inf") if worse else 0.0)
            spread = max(_spread(side_a), *map(_spread, cells_a + cells_b))
            pairs = [sign * (vb - va) for va, vb in zip(values_a, values_b)]
            wins, decided = sum(p < 0 for p in pairs), sum(p != 0 for p in pairs)
            if metric.bound == 0:
                verdict = "regressed" if worse > 0 else "improved" if worse < 0 else "unchanged"
            elif spread > metric.bound:
                verdict = "unresolved"
            elif change > metric.bound:
                verdict = "regressed"
            elif len(pairs) >= 2 and change < -spread and wins >= 0.9 * decided:
                verdict = "improved"
            else:
                verdict = "unchanged"
            out.append({
                "workload": workload, "metric": metric.name, "unit": metric.unit,
                "better": metric.better, "a": side_a, "b": side_b, "change": change,
                "spread": spread, "wins": f"{wins}/{decided}", "bound": metric.bound,
                "verdict": verdict,
            })
    return out


def _cell(side: dict) -> str:
    text = f"{side['value']:.5g}"
    if "q1" in side:
        text += f" [{side['q1']:.5g}..{side['q3']:.5g}]"
    return text


def render(table: list[dict]) -> str:
    header = ["workload", "metric", "unit", "A", "B", "change", "spread", "wins", "bound",
              "verdict"]
    lines = [header] + [
        [r["workload"], r["metric"], r["unit"], _cell(r["a"]), _cell(r["b"]),
         f"{r['change']:+.2%}", f"{r['spread']:.2%}", r["wins"], f"{r['bound']:.0%}",
         r["verdict"]]
        for r in table
    ]
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path) as f:
            ledgers.append(json.load(f))
    for name, ledger in zip("AB", ledgers):
        fp = ledger["fingerprint"]
        print(f"{name}: commit={fp['git_commit']} cpu_count={fp['cpu_count']} "
              f"python={fp['python']} spin_mops={fp['spin_mops']:.2f} sets={len(ledger['sets'])}")
    table = rows(*ledgers)
    print(render(table))
    return 1 if any(r["verdict"] == "regressed" for r in table) else 0


if __name__ == "__main__":
    sys.exit(main())
