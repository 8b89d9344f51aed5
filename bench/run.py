"""Benchmark of dsexact: closed-loop workloads over the public API.

Run from the repository root:

  python3 bench/run.py --workload verify_matrix --seed 1 --seconds 20 --trace 0
  python3 bench/run.py --compare RESULTS_A RESULTS_B

One client in one process, no worker threads: each op starts when the
previous one has returned and been checked.  A run repeats the workload's
round a number of times fixed by the workload and ``--seconds``.
``--trace 0`` runs a warm-up round and the timed rounds and reports the
end-to-end metrics; ``--trace 1`` runs untraced rounds for about half the
time, then one traced round, and reports the per-layer metrics and the
tracing overhead.  Every run prints each metric by name with its unit,
writes a result file (default ``bench/results/``), and ends its standard
output with one JSON line.  See bench/README.md for the workloads and metrics.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("verify_matrix", "transform_chains", "evolve_crosscheck",
             "field_export")
# Set-up is timed in this many fresh interpreters spread over the run; the
# median is reported.
SETUP_PROBES = 9
# The tail is the latency with ten samples beyond it, so a run times at
# least eleven ops, and at least MIN_ROUNDS repeats of each.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
MIN_ROUNDS = 3
# Machine speed is sampled by a calibration task at least this often (in op
# CPU time); CAL_REF_S is the task's CPU time at the reference speed, the
# median on the VM described in the README.
CAL_EVERY_S = 0.5
CAL_REF_S = 0.008

# Units and directions of the metrics that BENCHMARK.json does not list.
EXTRA_METRICS = {
    "verified_points_per_s": ("1/s", "higher"),
    "cell_steps_per_s": ("1/s", "higher"),
    "rows_per_s": ("1/s", "higher"),
    "failed_frac": ("ratio", "lower"),
    "max_dev": ("1", "lower"),
    "wall_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
}


class SetupError(Exception):
    """The program under test cannot be imported from this checkout."""


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise SetupError(f"cannot read {path}: {err}") from None


def metric_table(spec):
    """name -> (unit, better, bound or None) for every metric."""
    table = {name: (unit, better, None)
             for name, (unit, better) in EXTRA_METRICS.items()}
    for m in spec["end_to_end"]:
        table[m["name"]] = (m["unit"], m["better"], m["bound"])
    for m in spec["per_layer"]:
        table[m["name"]] = (m["unit"], m["better"], None)
    return table


def set_up(workload, seed, workdir):
    """Import dsexact from this checkout and build the workload's round."""
    t0 = time.perf_counter()
    if not (SRC / "dsexact" / "__init__.py").is_file():
        raise SetupError(f"no dsexact package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dsexact
    if Path(dsexact.__file__).resolve().parent != SRC / "dsexact":
        raise SetupError(f"imported dsexact from {dsexact.__file__}, "
                         f"not from {SRC}")
    import workloads
    workdir.mkdir(parents=True, exist_ok=True)
    work = workloads.build(workload, seed, workdir)
    return time.perf_counter() - t0, work


def setup_probe(workload, seed):
    """Set-up CPU time of this process at the reference speed.

    Scaled like op times (see ``Ledger``), by calibrations just before and
    just after the set-up.
    """
    cal_before = calibration_task()
    c0 = time.process_time()
    set_up(workload, seed, BENCH_DIR / "work")
    cpu = time.process_time() - c0
    cal_after = calibration_task()
    return cpu * CAL_REF_S / ((cal_before + cal_after) / 2.0)


class SetupProbes:
    """Set-up timed in fresh interpreters, spread over the timed phase.

    Called between ops (outside their timing); it runs the next probe once
    the op count passes the next of SETUP_PROBES evenly spaced marks, so the
    probes sample the whole run rather than one moment of it.
    """

    def __init__(self, ledger, workload, seed, total_ops):
        self.ledger = ledger
        self.argv = [sys.executable, str(Path(__file__).resolve()),
                     "--workload", workload, "--seed", str(seed),
                     "--setup-probe"]
        self.marks = [total_ops * k // SETUP_PROBES
                      for k in range(SETUP_PROBES)]
        self.times = []

    def probe(self):
        proc = subprocess.run(self.argv, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        self.times.append(float(proc.stdout.strip().splitlines()[-1]))

    def __call__(self):
        if len(self.times) < len(self.marks) and \
                self.ledger.attempted >= self.marks[len(self.times)]:
            self.probe()

    def median(self):
        while len(self.times) < len(self.marks):
            self.probe()
        return statistics.median(self.times)


def planned_rounds(work, seconds, trace):
    """Timed rounds of a run: fixed by the workload and ``--seconds`` alone.

    The count does not depend on how fast the machine or the program is, so
    every run of one seed attempts the same ops and fails the same ones.  A
    round takes about ``work.round_s`` on the VM described in the README, so
    a run lasts about ``seconds`` there.
    """
    if trace:
        return max(1, math.ceil(seconds / 2.0 / work.round_s))
    return max(MIN_ROUNDS, math.ceil(seconds / work.round_s),
               math.ceil(MIN_OPS / len(work.ops)))


# ---------------------------------------------------------------------------
# The closed loop.
# ---------------------------------------------------------------------------

def calibration_task():
    """CPU time of a fixed task that runs no program code.

    Interpreted float arithmetic and number formatting, the kind of work
    most op time goes to.  The task's time tracks the speed of the CPU the
    client gets, which on a shared host moves by up to 2x within minutes.
    """
    c0 = time.thread_time()
    acc = 0.0
    for i in range(30000):
        acc += (i * 0.5) % 3.0
    values = [i * 0.001 + acc * 1e-12 for i in range(2000)]
    "\n".join(",".join(f"{v:.17g}" for v in values[j:j + 8])
              for j in range(0, len(values), 8))
    return time.thread_time() - c0


@dataclass
class Sample:
    """One op: its latency on three clocks, and its outcome."""
    wall: float       # elapsed time of the call
    cpu: float        # CPU time of this (the only) thread over the call
    outcome: object
    cal_before: float  # calibration task time sampled before the call
    ref: float = 0.0  # ``cpu`` at the reference speed, set by Ledger


class Ledger:
    """Latency and outcome of every op, grouped by round.

    The calibration task runs between ops, before the first one, every
    CAL_EVERY_S of op CPU time and, called by the runner, after the last
    one.  An
    op's ``ref`` time is its CPU time scaled by CAL_REF_S over the mean of
    the calibrations before and after it.
    """

    def __init__(self):
        self.rounds = []
        self.failures = {}
        self.first_sha = {}
        self.sound = True
        self.calibrations = []
        self._uncalibrated = []
        self._since_cal = math.inf

    def calibrate(self):
        cal = calibration_task()
        for sample in self._uncalibrated:
            sample.ref = sample.cpu * CAL_REF_S / (
                (sample.cal_before + cal) / 2.0)
        self._uncalibrated = []
        self._since_cal = 0.0
        self.calibrations.append(cal)

    def record(self, op, sample):
        outcome = sample.outcome
        # Outputs that must be byte-identical across repeats of one config.
        sha = outcome.info.get("sha256")
        if sha is not None:
            first = self.first_sha.setdefault(op.label, sha)
            if sha != first:
                outcome.ok = outcome.sound = False
                outcome.reason = "output differs from its first repeat"
        if not outcome.sound:
            self.sound = False
        if not outcome.ok:
            entry = self.failures.setdefault(
                op.label, {"label": op.label, "count": 0,
                           "reason": outcome.reason})
            entry["count"] += 1
        self.rounds[-1].append(sample)
        self._uncalibrated.append(sample)
        self._since_cal += sample.cpu

    def run_round(self, ops, tracer=None, between=None):
        """Run each op once; ``between()`` runs after each op, untimed."""
        from workloads import Outcome
        self.rounds.append([])
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            if self._since_cal >= CAL_EVERY_S:
                self.calibrate()
            cal_before = self.calibrations[-1]
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failing op is counted, not fatal
                wall = time.perf_counter() - t0
                cpu = time.thread_time() - c0
                outcome = Outcome(ok=False,
                                  reason=f"{type(exc).__name__}: {exc}")
            else:
                wall = time.perf_counter() - t0
                cpu = time.thread_time() - c0
                try:
                    outcome = op.check(out)
                except Exception as exc:  # missing or unreadable output
                    outcome = Outcome(ok=False, sound=False,
                                      reason=f"check: {type(exc).__name__}: "
                                             f"{exc}")
            self.record(op, Sample(wall, cpu, outcome, cal_before))
            if between is not None:
                between()
        return sum(x.wall for x in self.rounds[-1])

    @property
    def outcomes(self):
        return [x.outcome for r in self.rounds for x in r]

    @property
    def attempted(self):
        return sum(len(r) for r in self.rounds)

    @property
    def failed(self):
        return sum(1 for o in self.outcomes if not o.ok)


def _clock_stats(rounds, clock):
    """Timing of the timed rounds on one clock (a field of ``Sample``).

    ``op_p50_ms`` is the median over the round's ops of each op's median
    repeat, so a round that mixes cheap and costly ops does not put the
    median on the edge between them.
    """
    lat = sorted(getattr(x, clock) for r in rounds for x in r)
    per_round = [sum(getattr(x, clock) for x in r) for r in rounds]
    per_op = [statistics.median(getattr(x, clock) for x in reps)
              for reps in zip(*rounds)]
    n = len(lat)
    return {"total_s": sum(lat),
            "round_s_median": statistics.median(per_round),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_tail_ms": lat[n - MIN_OPS] * 1e3,
            "op_min_ms": lat[0] * 1e3}


def end_to_end(ledger, work, setup_s):
    """End-to-end metrics of an untraced run.

    The first round warms up and is left out of the timing (its ops still
    count in ``attempted`` and ``failed``).  Throughput and latency are in
    op CPU time at the reference speed (``Sample.ref``): the client is one
    thread whose ops neither sleep nor wait, so CPU time leaves out the time
    the host took the CPU away, and the calibration takes out the swings of
    the CPU's speed.  ``wall_s`` is the elapsed time of the timed phase.
    """
    timed = ledger.rounds[1:]
    n = len(work.ops) * len(timed)
    timed_work = sum(x.outcome.work for r in timed for x in r)
    stats = {clock: _clock_stats(timed, clock)
             for clock in ("wall", "cpu", "ref")}
    ref = stats["ref"]
    metrics = {
        "setup_s": setup_s,
        "wall_s": stats["wall"]["total_s"],
        "ops_per_s": n / ref["total_s"],
        "op_p50_ms": ref["op_p50_ms"],
        "op_tail_ms": ref["op_tail_ms"],
        "work_per_s": timed_work / ref["total_s"],
        work.work_metric: timed_work / ref["total_s"],
        "failed_frac": ledger.failed / ledger.attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    devs = [o.info["max_dev"] for o in ledger.outcomes
            if "max_dev" in o.info]
    if devs:
        metrics["max_dev"] = max(devs)
    per_op = list(zip(*timed))  # per op of the round: its repeats
    detail = {
        "tail": {"percentile": 100.0 * (n - TAIL_BEYOND) / n,
                 "samples_beyond": TAIL_BEYOND, "n_samples": n},
        "clocks": stats,
        "calibration": {"ref_s": CAL_REF_S, "samples": len(
                            ledger.calibrations),
                        "median_s": statistics.median(ledger.calibrations)},
        "timed_rounds": len(timed),
        "warmup_round_s": sum(x.wall for x in ledger.rounds[0]),
        "ops": [{"label": o.label,
                 "median_ms": statistics.median(x.wall for x in reps) * 1e3,
                 "best_ms": min(x.wall for x in reps) * 1e3,
                 "cpu_median_ms":
                     statistics.median(x.cpu for x in reps) * 1e3,
                 "ref_median_ms":
                     statistics.median(x.ref for x in reps) * 1e3,
                 "repeats": len(reps),
                 "last_output": {k: v for k, v
                                 in reps[-1].outcome.info.items()
                                 if k != "sha256"}}
                for o, reps in zip(work.ops, per_op)],
    }
    return metrics, detail


def traced_round(ledger, name, seed, workdir, results_dir):
    """One round with every layer wrapped; the per-layer metrics."""
    import tracing
    import workloads
    tracer = tracing.Tracer()
    ops = workloads.build(name, seed, workdir, hooks=tracer).ops
    with tracer.install():
        traced_s = ledger.run_round(ops, tracer)
    steps_requested = sum(x.outcome.info.get("n_steps", 0)
                          for x in ledger.rounds[-1])
    metrics = tracer.layer_metrics(steps_requested)
    untraced_s = statistics.median(sum(x.wall for x in r)
                                   for r in ledger.rounds[:-1])
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    spans_path = results_dir / f"spans-{name}.npz"
    tracer.save(spans_path)
    return metrics, {"spans_file": str(spans_path),
                     "spans": len(tracer.start_col),
                     "traced_round_s": traced_s,
                     "untraced_round_s": untraced_s,
                     "fft_bytes_per_step_computed":
                         tracer.counts["fft_bytes"]
                         / max(1, metrics["evolve.step_calls"])}


# ---------------------------------------------------------------------------
# Environment and output.
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    import numpy
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "platform": platform.platform(),
            "git_commit": _git_commit(),
            "seed": seed,
            "thread_vars": {k: v for k, v in os.environ.items()
                            if k.endswith("_THREADS")}}


def emit(metrics, names, table):
    """Print every metric with its unit; return the contract's subset."""
    for name, value in metrics.items():
        print(f"{name:32s} {value:<22.10g} {table[name][0]}")
    return {name: {"value": metrics[name], "unit": table[name][0]}
            for name in names}


def measure(args):
    spec = load_spec()
    table = metric_table(spec)
    workdir = BENCH_DIR / "work"
    first_setup_s, work = set_up(args.workload, args.seed, workdir)
    results_dir = Path(args.results).resolve()
    results_dir.mkdir(parents=True, exist_ok=True)

    ledger = Ledger()
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed),
              "ops_per_round": [op.label for op in work.ops]}
    rounds = planned_rounds(work, args.seconds, args.trace)
    if args.trace:
        for _ in range(rounds):
            ledger.run_round(work.ops)
        metrics, record["trace_detail"] = traced_round(
            ledger, args.workload, args.seed, workdir, results_dir)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        # One warm-up round, then the timed ones.
        probes = SetupProbes(ledger, args.workload, args.seed,
                             (rounds + 1) * len(work.ops))
        for _ in range(rounds + 1):
            ledger.run_round(work.ops, between=probes)
        ledger.calibrate()
        setup_s = probes.median()
        record["setup"] = {"probes_s": probes.times, "first_in_process_s":
                           first_setup_s}
        metrics, record["detail"] = end_to_end(ledger, work, setup_s)
        names = [m["name"] for m in spec["end_to_end"]]

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ledger.rounds)} rounds, {ledger.attempted} ops, "
          f"{ledger.failed} failed")
    for entry in ledger.failures.values():
        print(f"# failed x{entry['count']}: {entry['label']}: "
              f"{entry['reason']}")
    contract = emit(metrics, names, table)
    record.update({
        "correct": ledger.sound, "attempted": ledger.attempted,
        "failed": ledger.failed, "rounds": len(ledger.rounds),
        "failures": list(ledger.failures.values()),
        "output_sha256": ledger.first_sha,
        "metrics": {k: {"value": v, "unit": table[k][0]}
                    for k, v in metrics.items()}})
    out = results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"# result file: {out}")
    print(json.dumps({"correct": ledger.sound,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": contract}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(BENCH_DIR / "results"),
                        help="directory for result files")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two directories of result files")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.compare:
            import compare
            return compare.main(args.compare[0], args.compare[1],
                                metric_table(load_spec()))
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_probe:
            print(repr(setup_probe(args.workload, args.seed)))
            return 0
        return measure(args)
    except SetupError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
