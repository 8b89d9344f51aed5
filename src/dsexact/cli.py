"""Command-line front end: configuration, dispatch, and file output.

Commands
    families    list the solution families and their parameters
    eval        sample a configured solution onto a CSV field file
    verify      run the residual oracle; JSON report; exit 0 iff it passes
    transform   apply the configured transform chain, then eval or verify
    evolve      split-step cross-check of a periodic solution; JSON report
    selftest    run the built-in invariant suites

Configs are JSON documents (see README for the schema); all runs are
deterministic for a fixed config.  Exit codes: 0 pass, 1 verification
failure, 2 configuration error, 3 numerical blow-up.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import Solution, Variant, family_a, family_b, family_c
from .errors import BlowupError, ConfigError, DSError
# make_field and step stay importable here: bench/tracing.py patches them.
from .evolve import crosscheck, make_field, step
from .gridio import GridSpec, write_box_csv, write_field_csv, \
    write_json_report
from .residual import DEFAULT_H, DEFAULT_ORDER, DEFAULT_TOL_REL, verify
from .selftest import run_selftest
from .symmetry import TransformSpec, compose
from .timefn import parse_timefn

_FAMILIES_TEXT = """\
Solution families
-----------------
A  separable amplitude with quadratic phase.
   params: {"Im": <time function, increasing>, "c": <real>}
   variants: any (eps1, eps2).
B  profile linear in the stretched coordinates.
   params: {"a": <real != 0>, "b": <real != 0>, "c": <real>,
            "beta": <time function>, "im": <optional real override>}
   variants: eps1=+1 only; eps2=+1 (forced by the existence condition).
C  travelling line profile over one of eight shapes.
   params: {"kind": one of rational|tan|sec|coth|csch|sn|cn|dn,
            "m": <modulus in [0,1), elliptic kinds only>,
            "ell": <real>, "ell1": <real>, "beta": <time function>,
            "amplitude"/"v_constant"/"v_quad_coeff": <optional overrides>}
   variants: both eps1 branches; the instance exists where the matched
   amplitude is real.
Transforms: {"kind": "T1", "alpha": f, "beta": f, "gamma": f} shifts space
by time-dependent amounts with a compensating phase; {"kind": "T2",
"b": <real != 0>} is the parabolic scaling.  Time functions use the grammar:
numbers, t, + - * / ^, parentheses, exp, ln, sin, cos, sinh, cosh.
"""


# ---------------------------------------------------------------------------
# Config access with JSON-pointer style error paths.
# ---------------------------------------------------------------------------

def _get(cfg: dict, pointer: str, required: bool = True, default=None):
    node = cfg
    for key in [p for p in pointer.split("/") if p]:
        if not isinstance(node, dict) or key not in node:
            if required:
                raise ConfigError(f"{pointer}: missing required field")
            return default
        node = node[key]
    return node


def _number(cfg, pointer, required=True, default=None):
    value = _get(cfg, pointer, required, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{pointer}: expected a number, got {value!r}")
    return float(value)


def _sign(cfg, pointer):
    value = _get(cfg, pointer)
    if value not in (1, -1):
        raise ConfigError(f"{pointer}: must be 1 or -1, got {value!r}")
    return int(value)


def _timefn(cfg, pointer, required=True, default_expr=None):
    value = _get(cfg, pointer, required, None)
    if value is None:
        if default_expr is None:
            return None
        value = default_expr
    if isinstance(value, str):
        expr, domain = value, None
    elif isinstance(value, dict):
        expr = value.get("expr")
        domain = value.get("domain")
        if not isinstance(expr, str):
            raise ConfigError(f"{pointer}/expr: expected an expression string")
        if domain is not None and (not isinstance(domain, list)
                                   or len(domain) != 2):
            raise ConfigError(f"{pointer}/domain: expected [lo, hi]")
    else:
        raise ConfigError(f"{pointer}: expected a string or object")
    try:
        return parse_timefn(expr, domain)
    except ConfigError as err:
        raise ConfigError(f"{pointer}: {err}") from None


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("/: config must be a JSON object")
    return cfg


def build_solution(cfg: dict) -> Solution:
    variant = Variant(_sign(cfg, "/variant/eps1"), _sign(cfg, "/variant/eps2"))
    family = _get(cfg, "/family")
    if family == "A":
        return family_a(variant, _timefn(cfg, "/params/Im"),
                        _number(cfg, "/params/c"))
    if family == "B":
        return family_b(variant, _number(cfg, "/params/a"),
                        _number(cfg, "/params/b"), _number(cfg, "/params/c"),
                        _timefn(cfg, "/params/beta", default_expr="0"),
                        im=_number(cfg, "/params/im", required=False))
    if family == "C":
        kind = _get(cfg, "/params/kind")
        return family_c(
            variant, kind, _number(cfg, "/params/m", required=False),
            _number(cfg, "/params/ell"),
            _number(cfg, "/params/ell1", required=False, default=0.0),
            _timefn(cfg, "/params/beta", default_expr="0"),
            amplitude=_number(cfg, "/params/amplitude", required=False),
            v_constant=_number(cfg, "/params/v_constant", required=False),
            v_quad_coeff=_number(cfg, "/params/v_quad_coeff", required=False))
    raise ConfigError(f"/family: unknown family {family!r}; expected A, B or C")


def build_transforms(cfg: dict) -> list:
    raw = _get(cfg, "/transforms")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("/transforms: expected a nonempty list")
    specs = []
    for i, item in enumerate(raw):
        base = f"/transforms/{i}"
        if not isinstance(item, dict):
            raise ConfigError(f"{base}: expected an object")
        kind = item.get("kind")
        if kind == "T1":
            specs.append(TransformSpec(
                "T1", alpha=_timefn(item, "/alpha"),
                beta=_timefn(item, "/beta"), gamma=_timefn(item, "/gamma")))
        elif kind == "T2":
            specs.append(TransformSpec("T2", b=_number(item, "/b")))
        else:
            raise ConfigError(f"{base}/kind: expected 'T1' or 'T2'")
    return specs


def build_grid(cfg: dict) -> GridSpec:
    ts = _get(cfg, "/grid/t")
    if not isinstance(ts, list) or not ts:
        raise ConfigError("/grid/t: expected a nonempty list of times")
    ranges = []
    for axis in ("x", "y"):
        raw = _get(cfg, f"/grid/{axis}")
        if not isinstance(raw, list) or len(raw) != 3:
            raise ConfigError(f"/grid/{axis}: expected [lo, hi, count]")
        lo, hi, count = float(raw[0]), float(raw[1]), int(raw[2])
        if count < 1:
            raise ConfigError(f"/grid/{axis}: count must be >= 1")
        ranges.append((lo, hi, count))
    return GridSpec(tuple(float(t) for t in ts), ranges[0], ranges[1])


def _out_path(cfg, args, default_name):
    if getattr(args, "out", None):
        return args.out
    return _get(cfg, "/out", required=False, default=default_name)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def _cmd_families(args) -> int:
    print(_FAMILIES_TEXT, end="")
    return 0


def _cmd_eval(args, sol=None) -> int:
    cfg = load_config(args.config)
    if sol is None:
        sol = build_solution(cfg)
    grid = build_grid(cfg)
    out = _out_path(cfg, args, "field.csv")
    write_field_csv(out, sol, grid.points(seed=args.seed))
    print(f"wrote {out}")
    return 0


def _cmd_verify(args, sol=None) -> int:
    cfg = load_config(args.config)
    if sol is None:
        sol = build_solution(cfg)
    grid = build_grid(cfg)
    h = args.h if args.h is not None else \
        _number(cfg, "/verify/h", required=False, default=DEFAULT_H)
    order = int(args.order if args.order is not None else
                _number(cfg, "/verify/order", required=False,
                        default=DEFAULT_ORDER))
    tol = args.tol if args.tol is not None else \
        _number(cfg, "/verify/tol_rel", required=False,
                default=DEFAULT_TOL_REL)
    report = verify(sol, grid.points(seed=args.seed), h=h, order=order,
                    tol_rel=tol)
    out = _out_path(cfg, args, "report.json")
    write_json_report(out, report.to_json_dict())
    status = "pass" if report.passed else "FAIL"
    print(f"{status}  rms1={report.rms1:.3e} rms2={report.rms2:.3e} "
          f"order1={report.order1:.2f} order2={report.order2:.2f} "
          f"n={report.n_points} -> {out}")
    return 0 if report.passed else 1

def _cmd_transform(args) -> int:
    cfg = load_config(args.config)
    sol = compose(build_transforms(cfg), build_solution(cfg))
    then = _get(cfg, "/then", required=False, default="eval")
    if then == "eval":
        return _cmd_eval(args, sol=sol)
    if then == "verify":
        return _cmd_verify(args, sol=sol)
    raise ConfigError(f"/then: expected 'eval' or 'verify', got {then!r}")


def _cmd_evolve(args) -> int:
    cfg = load_config(args.config)
    sol = build_solution(cfg)
    if _get(cfg, "/transforms", required=False) is not None:
        sol = compose(build_transforms(cfg), sol)
    box = _get(cfg, "/evolve/box")
    if not isinstance(box, list) or len(box) != 2:
        raise ConfigError("/evolve/box: expected [Lx, Ly]")
    n = int(_number(cfg, "/evolve/n", required=False, default=64))
    t_final = args.T if args.T is not None else _number(cfg, "/evolve/T")
    dt = args.dt if args.dt is not None else _number(cfg, "/evolve/dt")
    v_mean = _get(cfg, "/evolve/v_mean", required=False, default="exact")
    if v_mean == "exact":
        v_mean = None
    elif isinstance(v_mean, bool) or not isinstance(v_mean, (int, float)):
        raise ConfigError("/evolve/v_mean: expected 'exact' or a number")
    report, field = crosscheck(sol, float(box[0]), float(box[1]), n,
                               t_final, dt, v_mean=v_mean)
    tol = _number(cfg, "/evolve/tol", required=False)
    if tol is not None:
        report["tol"] = tol
        report["pass"] = report["max_dev"] <= tol
    snapshot = _get(cfg, "/evolve/snapshot_out", required=False)
    if snapshot:
        write_box_csv(snapshot, field)
        report["snapshot"] = snapshot
    out = _out_path(cfg, args, "evolve.json")
    write_json_report(out, report)
    print(f"max_dev={report['max_dev']:.3e} l2_dev={report['l2_dev']:.3e} "
          f"mass_drift={report['mass_drift']:.3e} -> {out}")
    if tol is not None and not report["pass"]:
        return 1
    return 0


def _cmd_selftest(args) -> int:
    failures = run_selftest()
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dsexact",
        description="Exact solutions of the coupled envelope/mean-flow "
                    "system, with residual verification and a split-step "
                    "dynamical cross-check.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("families", help="list family parameter schemas")
    sub.add_parser("selftest", help="run built-in invariant suites")
    for name, helptext in (
            ("eval", "sample fields to CSV"),
            ("verify", "residual verification, JSON report"),
            ("transform", "apply transform chain, then eval/verify"),
            ("evolve", "split-step cross-check, JSON report")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="output path override")
        p.add_argument("--h", type=float, help="finite-difference step")
        p.add_argument("--order", type=int, choices=(2, 4, 6),
                       help="finite-difference order")
        p.add_argument("--tol", type=float, help="relative residual tolerance")
        p.add_argument("--dt", type=float, help="time step (evolve)")
        p.add_argument("--T", type=float, help="final time (evolve)")
        p.add_argument("--seed", type=int,
                       help="sample-point jitter seed (verify/eval)")

    args = parser.parse_args(argv)
    handler = {"families": _cmd_families, "eval": _cmd_eval,
               "verify": _cmd_verify, "transform": _cmd_transform,
               "evolve": _cmd_evolve, "selftest": _cmd_selftest}[args.command]
    try:
        return handler(args)
    except BlowupError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except ConfigError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except DSError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
