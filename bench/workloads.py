"""Workload inputs, the ops that run them, and the check of every op.

Each workload is a *round*: a fixed list of ops built once from the seed
during set-up.  The timed phase repeats the round, so every run of one seed
feeds the program exactly the same inputs, and every round does the same
work.  Where op cost differs strongly between input kinds (stationary versus
boosted evolution, chain shapes), the round holds a fixed mix of kinds and
the seed picks the parameters, so runs with different seeds do comparable
work.

An op is a program call (timed) plus a check of its output (untimed).  The
check returns an Outcome: ``ok`` is false when the op failed (an exception,
a nonzero exit code, a rejected certificate, a missed cross-check gate);
``sound`` is false when an output breaks an invariant that holds for every
input (wrong CSV header or row count, a report field out of range).  An
output carrying a ``sha256`` must also match the first repeat of its op;
the runner checks that.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from dsexact import TransformSpec, Variant, cli, compose, ellipk, family_a, \
    family_c, parse_timefn, residual
from dsexact.selftest import default_verification_matrix

# The CSV header documented in the README; checked independently of the
# program's own constant.
CSV_HEADER = "t,x,y,re_u,im_u,abs_u,v,valid"

EVOLVE_N = 128
EVOLVE_DT = 1e-3
# 50 steps per evolution: with the snapshot re-run an op makes 100 steps, so
# an op stays near 1.5-3.5 s and the rounds a run needs fit in about 30 s.
EVOLVE_T = 0.05
EVOLVE_MAX_DEV = 1e-5
EVOLVE_MASS_DRIFT_REL = 1e-10

# Program time of one round on the reference VM (see README).  The runner
# sizes a run from it, so the op count of a run is fixed by its arguments.
ROUND_S = {"verify_matrix": 0.95, "transform_chains": 5.0,
           "evolve_crosscheck": 5.5, "field_export": 9.0}

EXPORT_N = 256
EXPORT_HALF_WIDTH = 2.0
# Line profiles with real poles, so some rows fall inside the pole guard.
# Their per-row cost is alike, so the seed may pick any of them.
EXPORT_KINDS = ("rational", "tan", "sec", "coth", "csch")
# (eps1, ell) pairs for which every kind above has a real amplitude with
# eps2 = +1 (the default verification matrix uses the same pairs).
EXPORT_BRANCHES = ((1, 0.3), (-1, 0.4))


@dataclass
class Outcome:
    ok: bool
    work: float = 0.0
    sound: bool = True
    reason: str = ""
    info: dict = field(default_factory=dict)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    work_metric: str      # name of the workload's own throughput metric
    ops: list             # one round
    round_s: float        # a round's program time on the reference VM


class Hooks:
    """Identity wrappers for solutions; tracing substitutes recording ones.

    ``catalog`` wraps a family instance, ``symmetry`` a composed chain.
    """

    def catalog(self, sol):
        return sol

    def symmetry(self, sol):
        return sol


def build(name: str, seed: int, workdir: Path, hooks: Hooks = Hooks()):
    """The workload's round of ops, generated from ``seed``."""
    builders = {"verify_matrix": _verify_matrix,
                "transform_chains": _transform_chains,
                "evolve_crosscheck": _evolve_crosscheck,
                "field_export": _field_export}
    work = builders[name](seed, workdir, hooks)
    # The runner keys failures and output hashes by label.
    labels = [op.label for op in work.ops]
    if len(set(labels)) != len(labels):
        raise ValueError(f"{name}: op labels repeat: {labels}")
    return work


# ---------------------------------------------------------------------------
# verify_matrix and transform_chains: residual certificates.
# ---------------------------------------------------------------------------

def _verify_op(label, sol, points):
    def check(report):
        sound = 0 < report.n_points <= len(points)
        return Outcome(ok=bool(report.passed), work=report.n_points,
                       sound=sound,
                       reason="" if report.passed else "certificate rejected",
                       info={"n_points": report.n_points,
                             "n_sampled": len(points)})
    return Op(label, lambda: residual.verify(sol, points), check)


def _verify_matrix(seed, workdir, hooks):
    ops = [_verify_op(entry.name, hooks.catalog(entry.solution),
                      entry.grid.points(seed))
           for entry in default_verification_matrix()]
    return Workload("verified_points_per_s", ops, ROUND_S["verify_matrix"])


def _chain_bases():
    return [
        ("A Im=t", family_a(Variant(-1, 1), parse_timefn("t"), 1.0)),
        ("A Im=t+0.1*t^2",
         family_a(Variant(1, 1), parse_timefn("t+0.1*t^2"), 0.8)),
        ("C sn ell=0.4",
         family_c(Variant(-1, 1), "sn", 0.5, 0.4, 0.3, parse_timefn("0.1*t"))),
        ("C cn ell=1",
         family_c(Variant(1, 1), "cn", 0.6, 1.0, 0.3, parse_timefn("0"))),
        ("C sn ell=pi/2",
         family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0,
                  parse_timefn("0"))),
    ]


def _bounded_tree(rng):
    def coeff(lo=0.05, hi=0.5):
        return f"{rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)):.3f}"
    pieces = [f"{coeff()}*sin({coeff(0.3, 1.2)}*t)",
              f"{coeff()}*cos({coeff(0.3, 1.2)}*t)",
              f"{coeff(0.05, 0.4)}*t", f"{coeff(0.0, 0.3)}"]
    return parse_timefn("+".join(rng.choice(pieces)
                                 for _ in range(rng.randint(2, 3))))


def _within_dilation_limits(specs) -> bool:
    # Keep the composed dilation of the time and space axes moderate so the
    # probe grid stays inside every base's useful range.
    t_scale = x_scale = worst_t = worst_x = 1.0
    for spec in reversed(specs):
        if spec.kind == "T2":
            t_scale /= spec.b * spec.b
            x_scale /= abs(spec.b)
        worst_t = max(worst_t, t_scale)
        worst_x = max(worst_x, x_scale)
    return worst_t * 0.2 <= 6.0 and worst_x <= 8.0


def _chain(rng, shape):
    trees = {i: (_bounded_tree(rng), _bounded_tree(rng), _bounded_tree(rng))
             for i, kind in enumerate(shape) if kind == "T1"}
    for _ in range(10_000):
        specs = []
        for i, kind in enumerate(shape):
            if kind == "T1":
                alpha, beta, gamma = trees[i]
                specs.append(TransformSpec("T1", alpha=alpha, beta=beta,
                                           gamma=gamma))
            else:
                b = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0)
                specs.append(TransformSpec("T2", b=b))
        if _within_dilation_limits(specs):
            return specs
    raise RuntimeError(f"no chain of shape {shape} within dilation limits")


def _transform_chains(seed, workdir, hooks):
    rng = random.Random(seed)
    points = [(0.2, -0.6 + 0.4 * i, -0.6 + 0.4 * j)
              for i in range(4) for j in range(4)]
    # Each T1/T2 sequence of length 1-3 twice per round; cost follows the
    # sequence far more than the base (the five bases cost within 25% of
    # each other), so the seed spreads the bases evenly over the sequences.
    # Two chains per sequence keep the median chain steady across seeds.
    shapes = 2 * [s for n in (1, 2, 3)
                  for s in itertools.product(("T1", "T2"), repeat=n)]
    bases = _chain_bases()
    picks = [i % len(bases) for i in range(len(shapes))]
    rng.shuffle(picks)
    ops = []
    for k, (shape, pick) in enumerate(zip(shapes, picks)):
        base_name, base = bases[pick]
        specs = _chain(rng, shape)
        sol = hooks.symmetry(compose(specs, hooks.catalog(base)))
        ops.append(_verify_op(f"chain {k}: {base_name} {'.'.join(shape)}",
                              sol, points))
    rng.shuffle(ops)
    return Workload("verified_points_per_s", ops, ROUND_S["transform_chains"])


# ---------------------------------------------------------------------------
# evolve_crosscheck and field_export: commands through cli.main.
# ---------------------------------------------------------------------------

def _write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return str(path)


def _cli_call(argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    return call


def _csv_facts(path: Path) -> dict:
    data = path.read_bytes()
    lines = data.split(b"\n")
    rows = lines[1:-1] if lines and lines[-1] == b"" else lines[1:]
    return {"header": lines[0].decode("utf-8", "replace"),
            "rows": len(rows),
            "invalid_rows": sum(1 for r in rows if r.endswith(b",false")),
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data)}


def _evolve_crosscheck(seed, workdir, hooks):
    rng = random.Random(seed)
    ops = []
    # One stationary and one boosted line per round: the boost costs about
    # twice as much to sample, so a fixed mix keeps runs comparable.
    for i, boosted in enumerate((False, True)):
        m = rng.uniform(0.3, 0.7)
        box = 4.0 * ellipk(m)
        stem = workdir / f"evolve{i}"
        cfg = {"variant": {"eps1": -1, "eps2": 1}, "family": "C",
               "params": {"kind": "sn", "m": m, "ell": math.pi / 2.0,
                          "ell1": 0.0, "beta": "0"},
               "evolve": {"box": [box, box], "n": EVOLVE_N, "T": EVOLVE_T,
                          "dt": EVOLVE_DT, "tol": EVOLVE_MAX_DEV,
                          "snapshot_out": f"{stem}-snap.csv"},
               "out": f"{stem}-report.json"}
        if boosted:
            # alpha' = 2 pi / box keeps the compensating phase periodic.
            speed = 2.0 * math.pi / box
            cfg["transforms"] = [{"kind": "T1", "alpha": f"{speed!r}*t",
                                  "beta": "0", "gamma": "0"}]
        path = _write_config(Path(f"{stem}.json"), cfg)
        label = f"{'boosted' if boosted else 'stationary'} sn m={m:.4f}"
        ops.append(Op(label, _cli_call(["evolve", "--config", path]),
                      _evolve_check(stem)))
    rng.shuffle(ops)
    return Workload("cell_steps_per_s", ops, ROUND_S["evolve_crosscheck"])


def _evolve_check(stem: Path):
    def check(rc):
        if rc not in (0, 1):  # no report; 1 is a missed tolerance
            return Outcome(ok=False, reason=f"exit code {rc}")
        report = json.loads(Path(f"{stem}-report.json").read_text("utf-8"))
        snap = _csv_facts(Path(f"{stem}-snap.csv"))
        drift_limit = EVOLVE_MASS_DRIFT_REL * report["mass_initial"]
        reasons = []
        if rc != 0:
            reasons.append(f"exit code {rc}")
        if not report["max_dev"] <= EVOLVE_MAX_DEV:
            reasons.append(f"max_dev {report['max_dev']:.3e}")
        if not report["mass_drift"] <= drift_limit:
            reasons.append(f"mass drift {report['mass_drift']:.3e}")
        sound = (snap["header"] == CSV_HEADER
                 and snap["rows"] == EVOLVE_N * EVOLVE_N
                 and report["n"] == EVOLVE_N)
        if not sound:
            reasons.append("snapshot or report malformed")
        return Outcome(ok=not reasons, sound=sound,
                       work=float(EVOLVE_N * EVOLVE_N * report["n_steps"]),
                       reason="; ".join(reasons),
                       info={"max_dev": report["max_dev"],
                             "mass_drift": report["mass_drift"],
                             "n_steps": report["n_steps"]})
    return check


def _field_export(seed, workdir, hooks):
    rng = random.Random(seed)
    ops = []
    # Two configs per command: op cost varies with the drawn profile by up to
    # a fifth, and four draws per round keep runs of different seeds closer.
    for i, command in enumerate(("eval", "transform", "eval", "transform")):
        kind = rng.choice(EXPORT_KINDS)
        eps1, ell = rng.choice(EXPORT_BRANCHES)
        stem = workdir / f"export{i}"
        half = EXPORT_HALF_WIDTH
        cfg = {"variant": {"eps1": eps1, "eps2": 1}, "family": "C",
               "params": {"kind": kind, "ell": ell,
                          "ell1": round(rng.uniform(-0.5, 0.5), 4),
                          "beta": f"{rng.uniform(-0.2, 0.2):.3f}*t"},
               "grid": {"t": [0.2], "x": [-half, half, EXPORT_N],
                        "y": [-half, half, EXPORT_N]},
               "out": f"{stem}.csv"}
        if command == "transform":
            b = rng.choice((-1.0, 1.0)) * rng.uniform(0.7, 1.5)
            cfg["transforms"] = [{"kind": "T2", "b": round(b, 4)}]
            cfg["then"] = "eval"
        path = _write_config(Path(f"{stem}.json"), cfg)
        label = f"{command} {i}: C {kind} eps1={eps1:+d}"
        ops.append(Op(label, _cli_call([command, "--config", path,
                                        "--seed", str(seed)]),
                      _export_check(Path(f"{stem}.csv"))))
    rng.shuffle(ops)
    return Workload("rows_per_s", ops, ROUND_S["field_export"])


def _export_check(csv_path: Path):
    # The runner compares ``sha256`` with the first repeat of the same op.
    def check(rc):
        if rc != 0:
            return Outcome(ok=False, reason=f"exit code {rc}")
        facts = _csv_facts(csv_path)
        sound = (facts["header"] == CSV_HEADER
                 and facts["rows"] == EXPORT_N * EXPORT_N)
        return Outcome(ok=sound, sound=sound, work=facts["rows"],
                       reason="" if sound else "CSV header or row count wrong",
                       info=facts)
    return check
