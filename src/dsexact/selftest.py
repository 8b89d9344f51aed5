"""Built-in invariant suites and the default verification matrix.

The matrix enumerates one representative instance per family/kind/variant
combination for which a real amplitude exists, each with a sample grid that
keeps finite-difference stencils away from profile poles.  It is what the
acceptance suite and the ``selftest`` command run through the residual
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import frame
from .catalog import Solution, Variant, eval_solution, family_a, family_b, \
    family_c
from .elliptic import PROFILE_KINDS, ellipk, jacobi_sn_cn_dn, make_profile
from .errors import DSError
from .evolve import advance, make_field, mass, poisson_v
from .gridio import GridSpec
from .residual import _D2, verify
from .symmetry import apply_t2
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
    for eps1, eps2 in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        entries.append(MatrixEntry(
            f"A Im=t eps1={eps1:+d} eps2={eps2:+d}",
            family_a(Variant(eps1, eps2), parse_timefn("t"), 1.0),
            _grid((0.3, 0.7), -1.0, 1.0, 5)))
    for eps1, eps2 in ((1, 1), (-1, -1)):
        entries.append(MatrixEntry(
            f"A Im=ln(t) eps1={eps1:+d} eps2={eps2:+d}",
            family_a(Variant(eps1, eps2), parse_timefn("ln(t)"), 1.0),
            _grid((0.6, 1.1), -1.0, 1.0, 5)))
    for eps1, eps2 in ((-1, 1), (1, -1)):
        entries.append(MatrixEntry(
            f"A Im=t+0.1*t^2 eps1={eps1:+d} eps2={eps2:+d}",
            family_a(Variant(eps1, eps2), parse_timefn("t+0.1*t^2"), 1.0),
            _grid((0.3, 0.7), -1.0, 1.0, 5)))

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
# Self-test battery.
# ---------------------------------------------------------------------------

def _check_elliptic_identities() -> str | None:
    s = 0.5 * np.arange(-10, 11)
    for m in (0.0, 0.3, 0.6, 0.9, 0.99):
        sn, cn, dn = jacobi_sn_cn_dn(s, m)
        err = np.maximum(np.abs(sn * sn + cn * cn - 1.0),
                         np.abs(dn * dn + m * m * sn * sn - 1.0))
        if np.max(err) > 1e-12:
            return f"identity error {np.max(err):g} at m={m}"
    if abs(ellipk(0.0) - math.pi / 2.0) > 1e-15:
        return "K(0) != pi/2"
    return None


def _check_profile_signatures() -> str | None:
    # f'' from a sixth-order second difference of the profile values,
    # independent of the signature it is checked against.
    h = 2e-3
    for kind in PROFILE_KINDS:
        prof = make_profile(kind, 0.7 if kind in ("sn", "cn", "dn") else None)
        samples = (0.7, 1.1, -0.9) if prof.singularities else (0.0, 1.3, -2.1)
        for s in samples:
            f = prof.value(s)
            d2 = sum(c * prof.value(s + k * h) for k, c in _D2[6]) / (h * h)
            err = abs(d2 - (prof.p * f ** 3 + prof.q * f))
            if err > 1e-9 * (1.0 + abs(f) ** 3):
                return f"signature violation for {kind} at s={s}: {err:g}"
    return None


def _check_jets() -> str | None:
    j = parse_timefn("t^2").jet(3.0)
    if (j.f, j.d1, j.d2, j.d3) != (9.0, 6.0, 2.0, 0.0):
        return f"t^2 jet wrong: {j}"
    j = parse_timefn("exp(2*t)").jet(0.0)
    expect = (1.0, 2.0, 4.0, 8.0)
    if max(abs(a - b) for a, b in zip((j.f, j.d1, j.d2, j.d3), expect)) > 1e-12:
        return f"exp(2t) jet wrong: {j}"
    return None


def _check_frames() -> str | None:
    for eps1 in (1, -1):
        for i in range(-6, 7):
            fr = frame(eps1, 0.37 * i)
            err = abs(fr.eta ** 2 - eps1 * fr.zeta ** 2 - 1.0)
            if err > 1e-14:
                return f"frame identity error {err:g} at eps1={eps1}"
    return None


def _check_closed_form() -> str | None:
    sol = family_a(Variant(-1, 1), parse_timefn("t"), 1.0)
    t, x, y = np.array([[0.0, 0.3, -0.7], [1.4, -1.1, 0.2]]).T
    u, v, _ = eval_solution(sol, t, x, y)
    err = np.maximum(np.abs(u - np.exp(0.5j * (x * x + y * y))),
                     np.abs(v - (-(-x * x + y * y) / 2.0 - 1.0)))
    if not np.all(err <= 1e-12):
        return f"closed form mismatch {np.max(err):g}"
    return None


def _check_scaling_group() -> str | None:
    sol = family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0,
                   parse_timefn("0"))
    once = apply_t2(apply_t2(sol, 2.0), 3.0)
    direct = apply_t2(sol, 6.0)
    points = np.array([[0.1, 0.4, -0.9], [0.7, -1.3, 2.2]]).T
    u_once, _, _ = eval_solution(once, *points)
    u_direct, _, _ = eval_solution(direct, *points)
    if not np.all(np.abs(u_once - u_direct) <= 1e-12):
        return "scaling composition mismatch"
    return None


def _check_poisson() -> str | None:
    n = 32
    lx = ly = 2.0 * math.pi
    xs = np.arange(n) * (lx / n)
    g = np.cos(xs)[:, None] * np.ones((1, n))
    v = poisson_v(g, lx, ly, Variant(-1, 1), 0.0)
    err = float(np.max(np.abs(v - (-2.0 * np.cos(xs)[:, None]))))
    if err > 1e-12:
        return f"poisson inversion error {err:g}"
    return None


def _check_mass_conservation() -> str | None:
    n = 32
    m = 0.5
    lx = ly = 4.0 * ellipk(m)
    variant = Variant(-1, 1)
    sol = family_c(variant, "sn", m, math.pi / 2.0, 0.0, parse_timefn("0"))
    field = make_field(sol, lx, ly, n)
    m0 = mass(field)
    field = advance(field, variant, 1e-3, 50)
    drift = abs(mass(field) - m0)
    if drift > 1e-10 * max(1.0, m0):
        return f"mass drift {drift:g}"
    return None


def _check_matrix_sample() -> str | None:
    matrix = default_verification_matrix()
    picks = [matrix[1], matrix[4], matrix[8]]
    # One line instance per branch.
    picks += [e for e in matrix if e.name.startswith("C sn m=0.7")]
    for entry in picks:
        report = verify(entry.solution, entry.grid.points())
        if not report.passed:
            return f"verification failed for {entry.name}: " \
                   f"rms1={report.rms1:g} rms2={report.rms2:g} " \
                   f"orders=({report.order1:.2f}, {report.order2:.2f})"
    return None


_CHECKS = (
    ("elliptic identities", _check_elliptic_identities),
    ("profile signatures", _check_profile_signatures),
    ("derivative jets", _check_jets),
    ("line frames", _check_frames),
    ("closed-form fields", _check_closed_form),
    ("scaling group law", _check_scaling_group),
    ("spectral inversion", _check_poisson),
    ("mass conservation", _check_mass_conservation),
    ("residual matrix sample", _check_matrix_sample),
)


def run_selftest(write=print) -> int:
    """Run the battery; print one line per check; return failure count."""
    failures = 0
    for name, check in _CHECKS:
        try:
            problem = check()
        except DSError as err:
            problem = f"{type(err).__name__}: {err}"
        if problem is None:
            write(f"ok   {name}")
        else:
            failures += 1
            write(f"FAIL {name}: {problem}")
    return failures
