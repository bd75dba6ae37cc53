"""Compare benchmark results of a parent commit and a change.

Reads two results files written by ``run.py`` and, per workload and
end-to-end metric, prints each side's median and quartiles, how many
seed-matched pairs the change won, and a verdict:

    improved    the change wins at least 9 of 10 pairs (ties count for
                neither) and its median is better by more than the
                parent's interquartile range
    worse       the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json
    unresolved  neither, and the parent's own spread is wider than the
                bound, unless every change run beats every parent run
    no worse    otherwise
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if not record["trace"] and not record["tiny"]:
                by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]], lower: bool, bound: float):
    sign = -1.0 if lower else 1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (med_c - med_p)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved", wins
    if -gain > bound * abs(med_p):
        return "worse", wins
    every_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (q3 - q1) > bound * abs(med_p) and not every_better:
        return "unresolved", wins
    return "no worse", wins


def compare(parent_path: str, change_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(parent_path), load(change_path)
    any_worse = False
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        c_by_seed = {r["seed"]: r for r in c_runs}
        paired = [(p, c_by_seed[p["seed"]]) for p in p_runs if p["seed"] in c_by_seed]
        print(f"{workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs, {len(paired)} seed-matched pairs")
        failed = [sum(r["failed"] for r in runs) for runs in (p_runs, c_runs)]
        print(f"  failed operations: parent {failed[0]}, change {failed[1]}")
        print(f"  {'metric':<14} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} {'wins':>7}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [r["metrics"][name] for r in p_runs]
            c_vals = [r["metrics"][name] for r in c_runs]
            pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in paired]
            result, wins = verdict(p_vals, c_vals, pairs, metric["better"] == "lower", metric["bound"])
            any_worse |= result == "worse"
            cells = []
            for vals in (p_vals, c_vals):
                q1, q3 = quartiles(vals)
                cells.append(f"{statistics.median(vals):.4g} [{q1:.4g}, {q3:.4g}]")
            print(
                f"  {name:<14} {cells[0]:>32} {cells[1]:>32} {f'{wins}/{len(pairs)}':>7}  "
                f"{result} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']})"
            )
    return 1 if any_worse else 0
