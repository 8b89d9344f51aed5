"""Command-line front end: configuration, dispatch, and file output.

Commands
    families    list the solution families and their parameters
    eval        sample a configured solution onto a CSV field file
    verify      run the residual oracle; JSON report; exit 0 iff it passes
    transform   eval of a config that names a transform chain
    evolve      split-step cross-check; JSON report; exit 0 iff it passes
    selftest    certify the matrix, a transform chain and a cross-check

Configs are JSON documents (see README for the schema); all runs are
deterministic for a fixed config and seed.  Each command acts on the
config's ``/transforms``; ``transform`` is ``eval`` that requires them.
Numbers must be finite, tolerances >= 0; forced constants (B's ``im``, C's
``amplitude``, ``v_constant``, ``v_quad_coeff``) and ``m`` on a kind with
no modulus are refused.  Exit codes: 0 pass, 1 verification failure,
2 configuration error or input outside a family's contract, 3 numerical
blow-up, 4 internal error (an exception that is not a DSError).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .catalog import Solution, Variant, family_a, family_b, family_c
from .elliptic import PROFILE_KINDS, make_profile
from .errors import ConfigError, DSError, real
# make_field and step stay importable here: bench/tracing.py patches them.
from .evolve import MAX_BOX_N, crosscheck, make_field, step
from .gridio import GridSpec, write_box_csv, write_field_csv, \
    write_json_report
from .residual import DEFAULT_H, DEFAULT_TOL_REL, MAX_POINTS, ORDER, verify
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
            "beta": <time function>}
   variants: eps1=+1 only; eps2=+1 (forced by the existence condition).
C  travelling line profile over one of eight shapes.
   params: {"kind": one of rational|tan|sec|coth|csch|sn|cn|dn,
            "m": <modulus in [0,1), elliptic kinds only>,
            "ell": <real>, "ell1": <real>, "beta": <time function>}
   variants: both eps1 branches; the instance exists where the matched
   amplitude is real.
Transforms: {"kind": "T1", "alpha": f, "beta": f, "gamma": f} shifts space
by time-dependent amounts with a compensating phase; {"kind": "T2",
"b": <real != 0>} is the parabolic scaling.  Time functions use the grammar:
numbers, t, + - * / ^, parentheses, exp, ln, sin, cos, sinh, cosh; an
exponent is a whole number from -64 to 64 (x^r is exp(r*ln(x))).
"""


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
        elif isinstance(node, list) and key.isdigit():
            node = node[int(key)]
        else:
            node = None
    if node is not None:
        return node
    if default is ...:
        raise ConfigError(f"{pointer}: missing required field")
    return default


def _number(cfg, pointer, default=..., *bounds, integer=False):
    value = _get(cfg, pointer, default)
    return None if value is None else real(value, pointer, *bounds,
                                           integer=integer)


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


def _list(cfg, pointer, read, length=None):
    """Each entry of the nonempty list at ``pointer`` (of ``length`` entries
    if given), read by ``read`` through its own pointer."""
    value = _get(cfg, pointer)
    if not isinstance(value, list) or not value \
            or length not in (None, len(value)):
        shape = f"a list of {length} entries" if length else "a nonempty list"
        raise ConfigError(f"{pointer}: expected {shape}, got {value!r}")
    return [read(cfg, f"{pointer}/{i}") for i in range(len(value))]


def _timefn(cfg, pointer, default=...):
    text = _string(cfg, pointer, default)
    try:
        return parse_timefn(text)
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
    except (ValueError, RecursionError) as err:  # JSON, UTF-8, digits, nesting
        raise ConfigError(f"config is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("/: config must be a JSON object")
    return cfg


def build_solution(cfg: dict) -> Solution:
    variant = Variant(_choice(cfg, "/variant/eps1", (1, -1)),
                      _choice(cfg, "/variant/eps2", (1, -1)))
    family = _choice(cfg, "/family", ("A", "B", "C"))
    # B's existence condition and C's cubic match force these constants.
    forced = {"B": ("im",), "C": ("amplitude", "v_constant", "v_quad_coeff")}
    for key in forced.get(family, ()):
        if _get(cfg, f"/params/{key}", None) is not None:
            raise ConfigError(f"/params/{key}: family {family} takes no "
                              f"constant overrides; its constants are forced")
    if family == "A":
        return family_a(variant, _timefn(cfg, "/params/Im"),
                        _number(cfg, "/params/c"))
    if family == "B":
        return family_b(variant, _number(cfg, "/params/a"),
                        _number(cfg, "/params/b"), _number(cfg, "/params/c"),
                        _timefn(cfg, "/params/beta", "0"))
    kind = _choice(cfg, "/params/kind", PROFILE_KINDS)
    m = _number(cfg, "/params/m", None)
    try:  # the modulus domain is make_profile's; the config names the key
        make_profile(kind, m)
    except ConfigError as exc:
        raise ConfigError(f"/params/m: {exc}") from None
    return family_c(variant, kind, m, _number(cfg, "/params/ell"),
                    _number(cfg, "/params/ell1", 0.0),
                    _timefn(cfg, "/params/beta", "0"))


def _transform(cfg, pointer) -> TransformSpec:
    if _choice(cfg, f"{pointer}/kind", ("T1", "T2")) == "T2":
        return TransformSpec("T2", b=_number(cfg, f"{pointer}/b"))
    return TransformSpec("T1", alpha=_timefn(cfg, f"{pointer}/alpha"),
                         beta=_timefn(cfg, f"{pointer}/beta"),
                         gamma=_timefn(cfg, f"{pointer}/gamma"))


def build_transforms(cfg: dict) -> list:
    return _list(cfg, "/transforms", _transform)


def _solution(cfg) -> Solution:
    """The solution a config names: its base, then any ``/transforms``."""
    sol = build_solution(cfg)
    chain = _get(cfg, "/transforms", None) is not None
    return compose(build_transforms(cfg), sol) if chain else sol


def build_grid(cfg: dict) -> GridSpec:
    return GridSpec(*(tuple(_list(cfg, f"/grid/{axis}", _get, length))
                      for axis, length in (("t", None), ("x", 3), ("y", 3))))


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def _cmd_families(cfg, args) -> int:
    print(_FAMILIES_TEXT, end="")
    return 0


def _cmd_eval(cfg, args) -> int:
    sol = _solution(cfg)
    out = _out(cfg, args, "field.csv")
    write_field_csv(out, sol, *build_grid(cfg).axes(seed=args.seed))
    print(f"wrote {out}")
    return 0


def verify_report(cfg, seed=None):
    """The ``verify`` report of a config, its grid jittered by ``seed``."""
    sol = _solution(cfg)
    grid = build_grid(cfg)
    size = len(grid.t_values) * grid.x_range[2] * grid.y_range[2]
    if size > MAX_POINTS:
        raise ConfigError(f"/grid: {size} sample points, more than the "
                          f"{MAX_POINTS} that verify holds")
    points = grid.points(seed=seed)
    h = _number(cfg, "/verify/h", DEFAULT_H)
    _choice(cfg, "/verify/order", (ORDER,), ORDER)  # refuses other orders
    tol = _number(cfg, "/verify/tol_rel", DEFAULT_TOL_REL, 0.0)
    return verify(sol, points, h=h, tol_rel=tol)


def _cmd_verify(cfg, args) -> int:
    out = _out(cfg, args, "report.json")
    report = verify_report(cfg, args.seed)
    write_json_report(out, report.to_json_dict())
    print(f"{'pass' if report.passed else 'FAIL'}  rms1={report.rms1:.3e} "
          f"rms2={report.rms2:.3e} order1={report.order1:.2f} "
          f"order2={report.order2:.2f} n={report.n_points} -> {out}")
    return 0 if report.passed else 1


def _cmd_transform(cfg, args) -> int:
    _get(cfg, "/transforms")  # required here; _solution applies it
    _choice(cfg, "/then", ("eval",), "eval")  # verify checks a chain
    return _cmd_eval(cfg, args)


def evolve_report(cfg):
    """The ``evolve`` cross-check of a config: its report and end field."""
    sol = _solution(cfg)
    lx, ly = _list(cfg, "/evolve/box", _number, 2)
    n = _number(cfg, "/evolve/n", 64, 2, MAX_BOX_N, integer=True)
    t_final, dt = _number(cfg, "/evolve/T"), _number(cfg, "/evolve/dt")
    tol = _number(cfg, "/evolve/tol", ..., 0.0)
    return crosscheck(sol, lx, ly, n, t_final, dt, tol=tol)


def _cmd_evolve(cfg, args) -> int:
    snapshot = _string(cfg, "/evolve/snapshot_out", None)
    out = _out(cfg, args, "evolve.json")
    report, field = evolve_report(cfg)
    if snapshot is not None:
        write_box_csv(snapshot, field)
        report["snapshot"] = snapshot
    write_json_report(out, report)
    print(f"{'pass' if report['pass'] else 'FAIL'}  max_dev="
          f"{report['max_dev']:.3e} l2_dev={report['l2_dev']:.3e} "
          f"mass_drift={report['mass_drift']:.3e} -> {out}")
    return 0 if report["pass"] else 1


def _cmd_selftest(cfg, args) -> int:
    from .selftest import run_selftest  # selftest imports cli, not back
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
    "transform": (_cmd_transform, "sample a chain to CSV", ("out", "seed")),
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
    except Exception as err:  # not a DSError: an internal error, exit 4
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return err.exit_code if isinstance(err, DSError) else 4
