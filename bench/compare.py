"""``run.py --compare A B``: per-workload, per-metric verdicts.

A and B are directories of result files, one per run (for example ten seeds
per workload on the parent commit and the same ten on the change).  Runs
with the same workload, trace mode and seed form a pair.  For each metric
the table gives each side's median and quartiles, the ratio B/A (base A),
and a verdict:

improved    B wins at least nine tenths of the pairs and the medians differ
            by more than A's own spread (its interquartile range);
worse       B's median is worse than A's by more than the metric's bound
            (metrics without a bound: the mirror of "improved");
unresolved  either side's spread, as a share of its median, exceeds the
            bound, and not every run of B reads better than every run of A;
unchanged   otherwise.
"""

import json
import statistics
from pathlib import Path


def _load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if "metrics" not in record:
            continue
        key = (record["workload"], record["trace"])
        runs.setdefault(key, {})[record["seed"]] = record["metrics"]
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(a, b, pairs, better, bound):
    """Verdict for B against base A; ``pairs`` are (a, b) of equal seeds."""
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1a, q3a = _quartiles(a)
    diff = sign * (med_b - med_a)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    beyond_spread = abs(med_b - med_a) > q3a - q1a
    if pairs and wins >= 0.9 * len(pairs) and diff > 0 and beyond_spread:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and diff < 0 \
                and beyond_spread:
            return "worse"
        return "unchanged"
    if med_a and diff < -bound * abs(med_a):
        return "worse"
    spreads = [(q3 - q1) / abs(med) for (q1, q3), med in
               ((_quartiles(a), med_a), (_quartiles(b), med_b)) if med]
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if any(s > bound for s in spreads) and not all_better:
        return "unresolved"
    return "unchanged"


def main(dir_a, dir_b, table):
    runs_a, runs_b = _load(dir_a), _load(dir_b)
    keys = sorted(set(runs_a) & set(runs_b))
    if not keys:
        print("no workload has result files on both sides")
        return 1
    print(f"A = {dir_a}\nB = {dir_b}")
    header = (f"{'metric':32s} {'A median [q1, q3]':>34s} "
              f"{'B median [q1, q3]':>34s} {'B/A':>7s}  verdict")
    for workload, trace in keys:
        side_a, side_b = runs_a[(workload, trace)], runs_b[(workload, trace)]
        print(f"\n{workload} (trace={trace}, runs A={len(side_a)}, "
              f"B={len(side_b)}, pairs={len(set(side_a) & set(side_b))})")
        print(header)
        names = sorted({n for m in side_a.values() for n in m}
                       & {n for m in side_b.values() for n in m})
        for name in names:
            a = [m[name]["value"] for m in side_a.values() if name in m]
            b = [m[name]["value"] for m in side_b.values() if name in m]
            pairs = [(side_a[s][name]["value"], side_b[s][name]["value"])
                     for s in set(side_a) & set(side_b)
                     if name in side_a[s] and name in side_b[s]]
            unit, better, bound = table.get(name, ("?", "lower", None))
            med_a, med_b = statistics.median(a), statistics.median(b)
            cells = []
            for values, med in ((a, med_a), (b, med_b)):
                q1, q3 = _quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {unit}")
            ratio = f"{med_b / med_a:.3f}" if med_a else "n/a"
            print(f"{name:32s} {cells[0]:>34s} {cells[1]:>34s} {ratio:>7s}  "
                  f"{verdict(a, b, pairs, better, bound)}")
    return 0
