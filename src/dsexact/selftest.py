"""The default verification matrix and the ``selftest`` certificates.

The matrix enumerates one representative instance per family/kind/variant
combination for which a real amplitude exists, each with a sample grid that
keeps finite-difference stencils away from profile poles.  ``selftest``
certifies the package's three claims through the entry points the commands
use: ``verify`` over the whole matrix, ``verify`` of a T1-then-T2 chain
built by ``compose``, and ``crosscheck`` of an oblique e1=-1 ``sn`` line.
Unit checks of the building blocks are in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import Solution, Variant, family_a, family_b, family_c
from .elliptic import ellipk
from .errors import DSError
from .evolve import crosscheck
from .gridio import GridSpec
from .residual import verify
from .symmetry import TransformSpec, compose
from .timefn import parse_timefn

__all__ = ["MatrixEntry", "default_verification_matrix", "run_selftest"]


@dataclass(frozen=True)
class MatrixEntry:
    name: str
    solution: Solution
    grid: GridSpec


def _grid(ts, lo, hi, n) -> GridSpec:
    return GridSpec(tuple(ts), (lo, hi, n), (lo, hi, n))


def default_verification_matrix() -> list:
    """Catalog instances expected to pass default-tolerance verification."""
    entries = []

    # Family A over several driving functions and both sign branches.
    for im, ts, signs in (
            ("t", (0.3, 0.7), ((1, 1), (-1, 1), (1, -1), (-1, -1))),
            ("ln(t)", (0.6, 1.1), ((1, 1), (-1, -1))),
            ("t+0.1*t^2", (0.3, 0.7), ((-1, 1), (1, -1)))):
        for eps1, eps2 in signs:
            entries.append(MatrixEntry(
                f"A Im={im} eps1={eps1:+d} eps2={eps2:+d}",
                family_a(Variant(eps1, eps2), parse_timefn(im), 1.0),
                _grid(ts, -1.0, 1.0, 5)))

    # Family B (eps1=+1, eps2=+1 forced by the existence condition).
    entries.append(MatrixEntry(
        "B a=1 b=1",
        family_b(Variant(1, 1), 1.0, 1.0, 0.5, parse_timefn("0.1*t")),
        _grid((0.2, 0.5), -1.0, 1.0, 5)))
    entries.append(MatrixEntry(
        "B a=2 b=-1",
        family_b(Variant(1, 1), 2.0, -1.0, 1.0, parse_timefn("0")),
        _grid((0.2, 0.5), -1.0, 1.0, 5)))

    # Family C: every profile kind on both sign branches, with (eps2, ell)
    # chosen so the amplitude is real and ell1 keeping poles off the grid.
    beta_src = "0.1*t"
    c_grid = _grid((0.2,), -0.8, 0.8, 5)

    def add_c(eps1, eps2, kind, m, ell, ell1):
        sol = family_c(Variant(eps1, eps2), kind, m, ell, ell1,
                       parse_timefn(beta_src))
        label = f"C {kind}" + (f" m={m}" if m is not None else "")
        entries.append(MatrixEntry(
            f"{label} eps1={eps1:+d} eps2={eps2:+d} ell={ell:g}",
            sol, c_grid))

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
    return entries


# ---------------------------------------------------------------------------
# Certificates.
# ---------------------------------------------------------------------------

def _failed(name, report) -> str | None:
    if report.passed:
        return None
    return (f"{name}: rms1={report.rms1:g} rms2={report.rms2:g} "
            f"orders=({report.order1:.2f}, {report.order2:.2f})")


def _catalog_certificates() -> str | None:
    for entry in default_verification_matrix():
        problem = _failed(entry.name, verify(entry.solution,
                                             entry.grid.points()))
        if problem:
            return problem
    return None


def _transform_certificates() -> str | None:
    # alpha and beta have nonzero second derivatives, so the a'' x and b'' y
    # mean-flow terms of T1 are in play; b != 1 makes T2 act.
    base = family_c(Variant(-1, 1), "sn", 0.7, 0.4, 0.3,
                    parse_timefn("0.1*t"))
    chain = [TransformSpec("T1", alpha=parse_timefn("0.3*sin(t)"),
                           beta=parse_timefn("0.2*t^2"),
                           gamma=parse_timefn("t^2")),
             TransformSpec("T2", b=2.0)]
    sol = compose(chain, base)
    return _failed("T1 then T2 over C sn",
                   verify(sol, _grid((0.2, 0.5), -0.8, 0.8, 5).points()))


def _dynamical_crosscheck() -> str | None:
    # An oblique line, so both the kx^2 and the ky^2 propagator terms act
    # (ell = pi/4 is degenerate for eps2 = +1), on its natural period box.
    m, ell = 0.5, math.pi / 3.0
    sol = family_c(Variant(-1, 1), "sn", m, ell, 0.0, parse_timefn("0"))
    lx, ly = (4.0 * ellipk(m) / f(ell) for f in (math.sin, math.cos))
    report, _ = crosscheck(sol, lx, ly, 32, 0.05, 1e-3, tol=1e-5)
    if not report["pass"]:
        return f"max_dev {report['max_dev']:g} > 1e-5"
    if report["mass_drift"] > 1e-10 * report["mass_initial"]:
        return f"mass drift {report['mass_drift']:g} > 1e-10 * mass"
    return None


_CHECKS = (
    ("catalog certificates", _catalog_certificates),
    ("transform certificates", _transform_certificates),
    ("dynamical cross-check", _dynamical_crosscheck),
)


def run_selftest() -> int:
    """Run the certificates; print one line each; return the failure
    count."""
    failures = 0
    for name, check in _CHECKS:
        try:
            problem = check()
        except DSError as err:
            problem = f"{type(err).__name__}: {err}"
        if problem is None:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {problem}")
    return failures
