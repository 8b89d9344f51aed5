"""Smoke check of the benchmark itself.

    python3 bench/smoke.py [WORKLOAD ...]

For each workload (default: all) it makes one short untraced run and two
short traced runs with the same seed, then checks that

* every metric BENCHMARK.json names is emitted, with its unit, and
* exact counts (``*_calls``, ``rows_written``, ``points_checked``) and the
  sha256 of every exported file repeat exactly across the two traced runs.

Exits 0 when every check holds, 1 otherwise.  Takes a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7


def is_exact_count(name):
    return name.endswith(("_calls", "rows_written", "points_checked"))


def run(workload, trace, results):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--results", str(results)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((results / f"{workload}-s{SEED}-t{trace}.json")
                        .read_text(encoding="utf-8"))
    return line, record


def missing_metrics(line, expected):
    problems = []
    for m in expected:
        got = line["metrics"].get(m["name"])
        if got is None:
            problems.append(f"missing {m['name']}")
        elif got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']} "
                            f"!= {m['unit']}")
    extra = set(line["metrics"]) - {m["name"] for m in expected}
    problems += [f"unexpected {name}" for name in sorted(extra)]
    return problems


def check(workload, spec):
    results = BENCH_DIR / "results" / "smoke"
    problems = []
    line, _ = run(workload, 0, results / "untraced")
    problems += missing_metrics(line, spec["end_to_end"])
    (line_a, rec_a), (line_b, rec_b) = (run(workload, 1, results / side)
                                        for side in ("a", "b"))
    problems += missing_metrics(line_a, spec["per_layer"])
    for name, entry in line_a["metrics"].items():
        if is_exact_count(name):
            other = line_b["metrics"][name]["value"]
            if entry["value"] != other:
                problems.append(f"{name}: {entry['value']} then {other}")
    if rec_a["output_sha256"] != rec_b["output_sha256"]:
        problems.append("exported files differ between runs")
    return problems


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = argv or [w["name"] for w in spec["workloads"]]
    failed = False
    for workload in names:
        problems = check(workload, spec)
        failed = failed or bool(problems)
        print(f"{workload}: {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
