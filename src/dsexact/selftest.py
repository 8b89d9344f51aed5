"""The certificates of record as one table of configs, and ``selftest``.

``CERTIFICATES`` maps each check to its rows ``(name, command, config)``:
a ``dsexact`` command and the JSON-ready config it runs.  The catalog rows
are the default verification matrix, one instance per family, kind and
variant with a real amplitude, on grids that keep stencils off the poles.
``selftest`` runs each row through the code its command runs, as
``tests/record.py`` runs the command and ``default_verification_matrix``
reads the config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import cli
from .catalog import Solution
from .elliptic import ellipk
from .errors import DSError
from .gridio import GridSpec

__all__ = ["CERTIFICATES", "MatrixEntry", "default_verification_matrix",
           "run_selftest"]


def _line(eps1, eps2, family, params, ts=None, half=None, **rest) -> dict:
    """A config of ``family``, on the 5 x 5 grid of [-half, half] at ts."""
    cfg = {"variant": {"eps1": eps1, "eps2": eps2}, "family": family,
           "params": params, **rest}
    if ts is not None:
        cfg["grid"] = {"t": list(ts), **{k: [-half, half, 5] for k in "xy"}}
    return cfg


def _certificates() -> dict:
    catalog = []
    # Family A over several driving functions and both sign branches.
    for im, ts, signs in (
            ("t", (0.3, 0.7), ((1, 1), (-1, 1), (1, -1), (-1, -1))),
            ("ln(t)", (0.6, 1.1), ((1, 1), (-1, -1))),
            ("t+0.1*t^2", (0.3, 0.7), ((-1, 1), (1, -1)))):
        for eps1, eps2 in signs:
            catalog.append((
                f"A Im={im} eps1={eps1:+d} eps2={eps2:+d}", "verify",
                _line(eps1, eps2, "A", {"Im": im, "c": 1.0}, ts, 1.0)))

    # Family B (eps1=+1, eps2=+1 forced by the existence condition).
    for a, b, c, beta in ((1.0, 1.0, 0.5, "0.1*t"), (2.0, -1.0, 1.0, "0")):
        catalog.append((
            f"B a={a:g} b={b:g}", "verify",
            _line(1, 1, "B", {"a": a, "b": b, "c": c, "beta": beta},
                  (0.2, 0.5), 1.0)))

    # Family C: every profile kind on both sign branches, with (eps2, ell)
    # chosen so the amplitude is real and ell1 keeping poles off the grid.
    def add_c(eps1, eps2, kind, m, ell, ell1):
        params = {"kind": kind, "ell": ell, "ell1": ell1, "beta": "0.1*t"}
        label = f"C {kind}"
        if m is not None:
            params["m"], label = m, f"{label} m={m}"
        catalog.append((f"{label} eps1={eps1:+d} eps2={eps2:+d} ell={ell:g}",
                        "verify", _line(eps1, eps2, "C", params, (0.2,), 0.8)))

    for kind in ("rational", "coth", "csch"):
        add_c(1, 1, kind, None, 0.3, 2.5)
        add_c(-1, 1, kind, None, 0.4, 2.5)
    for kind in ("tan", "sec"):
        add_c(1, 1, kind, None, 0.3, 0.0)
        add_c(-1, 1, kind, None, 0.4, 0.0)
    for m in (0.3, 0.7):
        add_c(1, 1, "sn", m, 0.3, 0.3)
        add_c(-1, 1, "sn", m, 0.4, 0.3)
        add_c(1, 1, "cn", m, 1.0, 0.3)
        add_c(-1, -1, "cn", m, 0.2, 0.3)
        add_c(1, 1, "dn", m, 1.0, 0.3)
        add_c(-1, -1, "dn", m, 0.2, 0.3)

    # alpha and beta have nonzero second derivatives, so the a'' x and b'' y
    # mean-flow terms of T1 are in play; b != 1 makes T2 act.
    chain = ("T1 then T2 over C sn", "verify", _line(
        -1, 1, "C", {"kind": "sn", "m": 0.7, "ell": 0.4, "ell1": 0.3,
                     "beta": "0.1*t"}, (0.2, 0.5), 0.8,
        transforms=[{"kind": "T1", "alpha": "0.3*sin(t)", "beta": "0.2*t^2",
                     "gamma": "t^2"}, {"kind": "T2", "b": 2.0}]))

    # An oblique line, so both the kx^2 and the ky^2 propagator terms act
    # (ell = pi/4 is degenerate for eps2 = +1), on its natural period box.
    m, ell = 0.5, math.pi / 3.0
    box = [4.0 * ellipk(m) / f(ell) for f in (math.sin, math.cos)]
    crosscheck = ("oblique C sn", "evolve", _line(-1, 1, "C", {
        "kind": "sn", "m": m, "ell": ell, "ell1": 0.0, "beta": "0"},
        evolve={"box": box, "n": 32, "T": 0.05, "dt": 1e-3, "tol": 1e-5}))
    return {"catalog certificates": catalog,
            "transform certificates": [chain],
            "dynamical cross-check": [crosscheck]}


CERTIFICATES = _certificates()


@dataclass(frozen=True)
class MatrixEntry:
    name: str
    solution: Solution
    grid: GridSpec


def default_verification_matrix() -> list:
    """Catalog instances expected to pass default-tolerance verification:
    the catalog rows of the table, read as ``dsexact verify`` reads them."""
    return [MatrixEntry(name, cli._solution(cfg), cli.build_grid(cfg))
            for name, _, cfg in CERTIFICATES["catalog certificates"]]


def _problem(command, cfg) -> str | None:
    """What fails the certificate that runs ``cfg``, or None."""
    if command == "verify":
        report = cli.verify_report(cfg)
        return None if report.passed else (
            f"rms1={report.rms1:g} rms2={report.rms2:g} "
            f"orders=({report.order1:.2f}, {report.order2:.2f})")
    report, _ = cli.evolve_report(cfg)
    return None if report["pass"] else (
        f"max_dev={report['max_dev']:g} tol={report['tol']:g} mass_drift="
        f"{report['mass_drift']:g} mass={report['mass_initial']:g}")


def run_selftest() -> int:
    """Run the certificates; print one line per check, a failed one with
    the config that fails; return the failure count."""
    failures = 0
    for check, rows in CERTIFICATES.items():
        problem = None
        for name, command, cfg in rows:
            try:
                problem = _problem(command, cfg)
            except DSError as err:
                problem = f"{type(err).__name__}: {err}"
            if problem is not None:
                problem = (f"{name}: {problem}; {command} config "
                           f"{json.dumps(cfg, sort_keys=True)}")
                break
        if problem is None:
            print(f"ok   {check}")
        else:
            failures += 1
            print(f"FAIL {check}: {problem}")
    return failures
