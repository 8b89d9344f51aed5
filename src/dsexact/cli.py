"""Command-line front end: configuration, dispatch, and file output.

Commands
    families    list the solution families and their parameters
    eval        sample a configured solution onto a CSV field file
    verify      run the residual oracle; JSON report; exit 0 iff it passes
    transform   apply the configured transform chain, then eval or verify
    evolve      split-step cross-check of a periodic solution; JSON report
    selftest    certify the matrix, a transform chain and a cross-check

Configs are JSON documents (see README for the schema); all runs are
deterministic for a fixed config and seed.  Every number in a config must
be finite, and a tolerance >= 0.  Exit codes: 0 pass, 1 verification
failure, 2 configuration error or input outside a family's contract, 3
numerical blow-up.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .catalog import Solution, Variant, family_a, family_b, family_c
from .elliptic import PROFILE_KINDS
from .errors import ConfigError, DomainError, DSError
# make_field and step stay importable here: bench/tracing.py patches them.
from .evolve import crosscheck, make_field, step
from .gridio import GridSpec, write_box_csv, write_field_csv, \
    write_json_report
from .residual import DEFAULT_H, DEFAULT_ORDER, DEFAULT_TOL_REL, ORDERS, \
    verify
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


# Largest counts, sized from the memory they ask for: an axis's coordinates,
# jitter and spelled cells take about 143 bytes a point (150 MB at 2**20),
# an evolve box about 204 bytes a grid point (860 MB at n = 2048), and a
# verify sample about 72 bytes a point, its (t, x, y) row included, besides
# the 14 MB block of nodes (316 MB at 2**22 points), measured with
# tracemalloc on numpy 2.4.  eval writes 4,096 points at a time, so only
# verify bounds the whole grid.
_MAX_AXIS = 2 ** 20
_MAX_BOX_N = 2048
_MAX_POINTS = 2 ** 22


# ---------------------------------------------------------------------------
# Config readers.  Every config value goes through one of them; each error
# names the full pointer of the offending value.
# ---------------------------------------------------------------------------

def _get(cfg, pointer: str, default=...):
    """The value at a pointer such as ``/grid/x/2`` (dict keys and list
    indices).  A missing or null value is ``default``, and an error when the
    default is ``...`` (a required field)."""
    node = cfg
    for key in pointer.split("/")[1:]:
        if isinstance(node, dict):
            node = node.get(key)
        elif isinstance(node, list) and key.isdigit() and int(key) < len(node):
            node = node[int(key)]
        else:
            node = None
    if node is not None:
        return node
    if default is ...:
        raise ConfigError(f"{pointer}: missing required field")
    return default


def _number(cfg, pointer, default=...):
    value = _get(cfg, pointer, default)
    if value is None:
        return None
    if type(value) not in (int, float) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{pointer}: expected a finite number, "
                          f"got {value!r}")
    return float(value)


def _count(cfg, pointer, most, default=..., least=1):
    value = _number(cfg, pointer, default)
    if value % 1 or not least <= value <= most:
        raise ConfigError(f"{pointer}: expected an integer from {least} to "
                          f"{most}, got {value!r}")
    return int(value)


def _tolerance(cfg, pointer, default=...):
    value = _number(cfg, pointer, default)
    if value is not None and value < 0.0:
        raise ConfigError(f"{pointer}: expected a number >= 0, got {value!r}")
    return value


def _choice(cfg, pointer, choices, default=...):
    value = _get(cfg, pointer, default)
    if isinstance(value, bool) or value not in choices:
        raise ConfigError(f"{pointer}: expected one of {choices}, "
                          f"got {value!r}")
    return choices[choices.index(value)]


def _string(cfg, pointer, default=...):
    value = _get(cfg, pointer, default)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{pointer}: expected a string, got {value!r}")
    return value


def _list(cfg, pointer, read, length=None, default=...):
    """Each entry of the nonempty list at ``pointer`` (of ``length`` entries
    if given), read by ``read`` through its own pointer."""
    value = _get(cfg, pointer, default)
    if value is None:
        return None
    if not isinstance(value, list) or not value \
            or length not in (None, len(value)):
        shape = f"a list of {length} entries" if length else "a nonempty list"
        raise ConfigError(f"{pointer}: expected {shape}, got {value!r}")
    return [read(cfg, f"{pointer}/{i}") for i in range(len(value))]


def _timefn(cfg, pointer, default=...):
    value = _get(cfg, pointer, default)
    if not isinstance(value, (str, dict)):
        raise ConfigError(f"{pointer}: expected a string or object")
    expr = value if isinstance(value, str) else _string(cfg, f"{pointer}/expr")
    domain = _list(cfg, f"{pointer}/domain", _number, 2, None)
    try:
        return parse_timefn(expr, domain)
    except ConfigError as err:
        raise ConfigError(f"{pointer}: {err}") from None


def _out(cfg, args, default):
    """The output path: ``--out`` when given, else ``/out``, else
    ``default``."""
    return _string(cfg, "/out", default) if args.out is None else args.out


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    except ValueError as err:  # JSON, UTF-8 or the int digit limit
        raise ConfigError(f"config is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("/: config must be a JSON object")
    return cfg


def build_solution(cfg: dict) -> Solution:
    variant = Variant(_choice(cfg, "/variant/eps1", (1, -1)),
                      _choice(cfg, "/variant/eps2", (1, -1)))
    family = _choice(cfg, "/family", ("A", "B", "C"))
    if family == "A":
        return family_a(variant, _timefn(cfg, "/params/Im"),
                        _number(cfg, "/params/c"))
    if family == "B":
        return family_b(variant, _number(cfg, "/params/a"),
                        _number(cfg, "/params/b"), _number(cfg, "/params/c"),
                        _timefn(cfg, "/params/beta", "0"),
                        im=_number(cfg, "/params/im", None))
    # family_c's one DomainError is elliptic's verdict on the modulus.
    try:
        return family_c(
            variant, _choice(cfg, "/params/kind", PROFILE_KINDS),
            _number(cfg, "/params/m", None), _number(cfg, "/params/ell"),
            _number(cfg, "/params/ell1", 0.0),
            _timefn(cfg, "/params/beta", "0"),
            amplitude=_number(cfg, "/params/amplitude", None),
            v_constant=_number(cfg, "/params/v_constant", None),
            v_quad_coeff=_number(cfg, "/params/v_quad_coeff", None))
    except DomainError as err:
        raise ConfigError(f"/params/m: {err}") from None


def _transform(cfg, pointer) -> TransformSpec:
    if _choice(cfg, f"{pointer}/kind", ("T1", "T2")) == "T2":
        return TransformSpec("T2", b=_number(cfg, f"{pointer}/b"))
    return TransformSpec("T1", alpha=_timefn(cfg, f"{pointer}/alpha"),
                         beta=_timefn(cfg, f"{pointer}/beta"),
                         gamma=_timefn(cfg, f"{pointer}/gamma"))


def build_transforms(cfg: dict) -> list:
    return _list(cfg, "/transforms", _transform)


def build_grid(cfg: dict) -> GridSpec:
    ranges = [(*_list(cfg, axis, _number, 3)[:2],
               _count(cfg, f"{axis}/2", _MAX_AXIS))
              for axis in ("/grid/x", "/grid/y")]
    return GridSpec(tuple(_list(cfg, "/grid/t", _number)), *ranges)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def _cmd_families(cfg, args) -> int:
    print(_FAMILIES_TEXT, end="")
    return 0


def _cmd_eval(cfg, args, sol=None) -> int:
    sol = build_solution(cfg) if sol is None else sol
    out = _out(cfg, args, "field.csv")
    write_field_csv(out, sol, *build_grid(cfg).axes(seed=args.seed))
    print(f"wrote {out}")
    return 0


def _cmd_verify(cfg, args, sol=None) -> int:
    sol = build_solution(cfg) if sol is None else sol
    grid = build_grid(cfg)
    size = len(grid.t_values) * grid.x_range[2] * grid.y_range[2]
    if size > _MAX_POINTS:
        raise ConfigError(f"/grid: {size} sample points, more than the "
                          f"{_MAX_POINTS} that verify holds")
    points = grid.points(seed=args.seed)
    h = _number(cfg, "/verify/h", DEFAULT_H)
    order = _choice(cfg, "/verify/order", ORDERS, DEFAULT_ORDER)
    tol = _tolerance(cfg, "/verify/tol_rel", DEFAULT_TOL_REL)
    out = _out(cfg, args, "report.json")
    report = verify(sol, points, h=h, order=order, tol_rel=tol)
    write_json_report(out, report.to_json_dict())
    status = "pass" if report.passed else "FAIL"
    print(f"{status}  rms1={report.rms1:.3e} rms2={report.rms2:.3e} "
          f"order1={report.order1:.2f} order2={report.order2:.2f} "
          f"n={report.n_points} -> {out}")
    return 0 if report.passed else 1


def _cmd_transform(cfg, args) -> int:
    sol = compose(build_transforms(cfg), build_solution(cfg))
    then = _choice(cfg, "/then", ("eval", "verify"), "eval")
    return (_cmd_eval if then == "eval" else _cmd_verify)(cfg, args, sol)


def _cmd_evolve(cfg, args) -> int:
    sol = build_solution(cfg)
    if _get(cfg, "/transforms", None) is not None:
        sol = compose(build_transforms(cfg), sol)
    lx, ly = _list(cfg, "/evolve/box", _number, 2)
    n = _count(cfg, "/evolve/n", _MAX_BOX_N, 64, least=2)
    t_final = _number(cfg, "/evolve/T")
    dt = _number(cfg, "/evolve/dt")
    v_mean = None if _get(cfg, "/evolve/v_mean", "exact") == "exact" \
        else _number(cfg, "/evolve/v_mean")
    tol = _tolerance(cfg, "/evolve/tol", None)
    snapshot = _string(cfg, "/evolve/snapshot_out", None)
    out = _out(cfg, args, "evolve.json")
    report, field = crosscheck(sol, lx, ly, n, t_final, dt, v_mean=v_mean)
    if tol is not None:
        report["tol"] = tol
        report["pass"] = report["max_dev"] <= tol
    if snapshot:
        write_box_csv(snapshot, field)
        report["snapshot"] = snapshot
    write_json_report(out, report)
    print(f"max_dev={report['max_dev']:.3e} l2_dev={report['l2_dev']:.3e} "
          f"mass_drift={report['mass_drift']:.3e} -> {out}")
    return 0 if report.get("pass", True) else 1


def _cmd_selftest(cfg, args) -> int:
    failures = run_selftest()
    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


# Optional flags: name -> (type, help).  The config holds every number a
# verdict depends on; a flag gives only the output path, which shapes no
# result, or the jitter seed, which has no config field.
_FLAGS = {
    "out": (str, "output path (overrides /out)"),
    "seed": (int, "sample-point jitter seed"),
}

# Command -> (handler, help, the optional flags it reads); None for the
# commands that take no config.
_COMMANDS = {
    "families": (_cmd_families, "list family parameter schemas", None),
    "eval": (_cmd_eval, "sample fields to CSV", ("out", "seed")),
    "verify": (_cmd_verify, "residual verification, JSON report",
               ("out", "seed")),
    "transform": (_cmd_transform, "apply transform chain, then eval/verify",
                  ("out", "seed")),
    "evolve": (_cmd_evolve, "split-step cross-check, JSON report", ("out",)),
    "selftest": (_cmd_selftest, "certify the matrix, a transform chain and "
                 "a cross-check", None),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: an argparse parser
    holds reference cycles, so one per call would leave garbage behind."""
    parser = argparse.ArgumentParser(
        prog="dsexact", allow_abbrev=False,
        description="Exact solutions of the coupled envelope/mean-flow "
                    "system, with residual verification and a split-step "
                    "dynamical cross-check.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext, allow_abbrev=False)
        if flags is not None:
            p.add_argument("--config", required=True, help="JSON config path")
        for flag in flags or ():
            kind, text = _FLAGS[flag]
            p.add_argument(f"--{flag}", type=kind, help=text)
    return parser


def main(argv=None) -> int:
    # argparse reads a token such as -c.json as an option: join each value
    # flag to the token after it, as in --config=-c.json.
    joined = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in ("--config", *(f"--{f}" for f in _FLAGS)):
            arg = joined.pop() + "=" + arg
        joined.append(arg)
    args = _parser().parse_args(joined)
    handler = _COMMANDS[args.command][0]
    try:
        cfg = load_config(args.config) if "config" in args else None
        return handler(cfg, args)
    except DSError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return err.exit_code
