#!/usr/bin/env python3
"""Compare two sets of benchmark results: a parent and a change.

Usage:

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the standard output of runs of ``perfbench/run.py``
(any lines that are not run records are skipped).  Runs of the two sets
are paired in file order, so run them alternately.  For every workload
and end-to-end metric the command prints each side's median and
quartiles, how many pairs each side won, and a verdict, using the
metric's bound and direction from BENCHMARK.json:

- improved: the change wins at least nine tenths of the pairs, ties
  counting for neither, and the medians differ by more than the
  parent's quartile spread;
- regressed: the change's median is worse than the parent's by more
  than the bound;
- unresolved: the quartile spread of either side, as a share of its
  median, exceeds the bound;
- unchanged: otherwise.

It also prints the median and tail operation latency (``op_p50_s``,
``op_tail_s``) with medians, quartiles and pair wins but no verdict.
Where traced runs are present it prints the tracing overhead:
the median traced pass time against the median untraced ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Operation latencies from each record's "latency", printed without a
# verdict: their spread between runs is too wide for a bound.
LATENCY = ["op_p50_s", "op_tail_s"]


def load_records(path: Path) -> list[dict]:
    records = []
    for line in path.read_text().splitlines():
        if line.startswith("{"):
            rec = json.loads(line)
            if "workload" in rec:
                records.append(rec)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float):
    """(verdict, change wins, parent wins) for one metric on one workload."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1:
        return "improved", wins, losses
    if -sign * (cm - pm) > bound * pm:
        return "regressed", wins, losses
    if (p3 - p1) > bound * pm or (c3 - c1) > bound * cm:
        return "unresolved", wins, losses
    return "unchanged", wins, losses


def by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for rec in records:
        if rec["trace"] == trace:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change benchmark runs.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    config = json.loads(CONFIG.read_text())
    sides = {"parent": load_records(args.parent), "change": load_records(args.change)}
    untraced = {side: by_workload(recs, 0) for side, recs in sides.items()}
    traced = {side: by_workload(recs, 1) for side, recs in sides.items()}

    fmt = "{:<15} {:<12} {:>30} {:>30} {:>9}  {}"
    print(fmt.format("workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "wins c/p", "verdict"))
    status = 0
    listed = [w["name"] for w in config["workloads"]]
    seen = {r["workload"] for recs in sides.values() for r in recs}
    for name in listed + sorted(seen - set(listed)):
        parent_runs = untraced["parent"].get(name, [])
        change_runs = untraced["change"].get(name, [])
        if not parent_runs or not change_runs:
            print(f"{name:<15} missing runs: parent {len(parent_runs)}, change {len(change_runs)}")
            status = 1
            continue
        for m in config["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in parent_runs]
            c = [r["metrics"][m["name"]]["value"] for r in change_runs]
            result, wins, losses = verdict(p, c, m["better"], m["bound"])
            (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
            print(fmt.format(name, m["name"], f"{pm:.4g} [{p1:.4g}, {p3:.4g}]",
                             f"{cm:.4g} [{c1:.4g}, {c3:.4g}]", f"{wins}/{losses}", result))
        for metric in LATENCY:
            p = [r["latency"][metric] for r in parent_runs]
            c = [r["latency"][metric] for r in change_runs]
            wins = sum(1 for a, b in zip(p, c) if b < a)
            losses = sum(1 for a, b in zip(p, c) if b > a)
            (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
            print(fmt.format(name, metric, f"{pm:.4g} [{p1:.4g}, {p3:.4g}]",
                             f"{cm:.4g} [{c1:.4g}, {c3:.4g}]", f"{wins}/{losses}", "no bound"))
        failed = {side: sum(r["failed"] for r in untraced[side][name]) for side in sides}
        attempted = {side: sum(r["attempted"] for r in untraced[side][name]) for side in sides}
        print(f"{name:<15} failed/attempted: parent {failed['parent']}/{attempted['parent']}, "
              f"change {failed['change']}/{attempted['change']}")
        for side in sides:
            runs = traced[side].get(name)
            if runs:
                t = statistics.median(r["metrics"]["trace.pass.wall_s"]["value"] for r in runs)
                u = statistics.median(r["metrics"]["wall_s"]["value"] for r in untraced[side][name])
                print(f"{name:<15} tracing overhead ({side}): traced pass {t:.4g} s "
                      f"vs untraced wall_s {u:.4g} s, ratio {t / u:.3f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
