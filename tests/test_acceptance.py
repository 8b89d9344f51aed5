"""Acceptance suite: one test per criterion, each printing a pass line.

Run with  pytest tests/test_acceptance.py -v  (add -s to see the lines).
"""

import cmath
import json
import math
import random

import numpy as np
import pytest

from conftest import fd2, mutant, published_constants, transformed
from dsexact import TransformSpec, Variant, compose, crosscheck, ellipk, \
    family_a, family_c, parse_timefn, verify
from dsexact.cli import main
from dsexact.elliptic import PROFILE_KINDS, jacobi_sn_cn_dn, make_profile
from dsexact.residual import ORDER, _residual_terms
from dsexact.selftest import default_verification_matrix

H = 1e-3
TOL_REL = 1e-7


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS  {text}")


# ---------------------------------------------------------------------------
# 1. Elliptic identities and profile signatures.
# ---------------------------------------------------------------------------

def test_criterion_1_elliptic_identities():
    ms = [0.1 * k for k in range(10)] + [0.99]
    worst = 0.0
    for m in ms:
        for i in range(-50, 51):
            s = 0.1 * i
            sn, cn, dn = jacobi_sn_cn_dn(s, m)
            worst = max(worst,
                        abs(sn * sn + cn * cn - 1.0),
                        abs(dn * dn + m * m * sn * sn - 1.0))
    assert worst <= 1e-12

    samples = {"rational": (0.6, 1.5, -2.0), "tan": (0.0, 0.8, -0.9),
               "sec": (0.0, 0.8, -0.9), "coth": (0.6, 1.5, -2.2),
               "csch": (0.6, 1.5, -2.2), "sn": (0.0, 0.9, -1.8, 3.1),
               "cn": (0.0, 0.9, -1.8, 3.1), "dn": (0.0, 0.9, -1.8, 3.1)}
    worst_sig = 0.0
    for kind in PROFILE_KINDS:
        ms_for_kind = (0.3, 0.7) if kind in ("sn", "cn", "dn") else (None,)
        for m in ms_for_kind:
            prof = make_profile(kind, m)
            for s in samples[kind]:
                f = prof.value(s)
                d2 = fd2(prof.value, s, 2e-3)  # independent second derivative
                err = abs(d2 - (prof.p * f ** 3 + prof.q * f)) \
                    / (1.0 + abs(f) ** 3)
                worst_sig = max(worst_sig, err)
    assert worst_sig <= 1e-9
    _report(1, f"identity defect {worst:.2e}, signature defect "
               f"{worst_sig:.2e}")


# ---------------------------------------------------------------------------
# 2. Exact-solution certification over the default matrix.
# ---------------------------------------------------------------------------

def test_criterion_2_catalog_certification():
    matrix = default_verification_matrix()
    failed = []
    for entry in matrix:
        report = verify(entry.solution, entry.grid.points(),
                        h=H, tol_rel=TOL_REL)
        if not report.passed:
            failed.append((entry.name, report))
    assert not failed, failed
    _report(2, f"{len(matrix)} catalog instances verified "
               f"(order-4 differences, h={H}, tol={TOL_REL})")


# ---------------------------------------------------------------------------
# 3. Errata detection: the published constant set must fail loudly.
# ---------------------------------------------------------------------------

def test_criterion_3_errata_detection():
    cases = [(-1, 1, "sn", 0.7, 0.4, 0.3), (1, 1, "tan", None, 0.3, 0.0)]
    pts = [(0.2, 0.3 * i, 0.3 * j) for i in range(-2, 3) for j in range(-2, 3)]
    for eps1, eps2, kind, m, ell, ell1 in cases:
        # published set: nu^2 coefficient +zeta^2, linear constant E*q (twice
        # the matched value), amplitude matched against kappa=+zeta^2
        sol = mutant(family_c(Variant(eps1, eps2), kind, m, ell, ell1,
                              parse_timefn("0.1*t")),
                     **published_constants(kind, m, eps1, ell, eps2))
        report = verify(sol, pts, h=H, tol_rel=TOL_REL)
        assert not report.passed
        # h-independent: observed order ~ 0 at both steps
        assert abs(report.order1) <= 0.5 and abs(report.order2) <= 0.5
        # magnitude at least 1e-2 of the PDE term scale
        scales1, scales2 = _residual_terms(
            sol, np.array(pts), H)[:, 4:].T
        assert len(scales1) == len(pts)
        s1 = 1.0 + math.sqrt(sum(v * v for v in scales1) / len(scales1))
        s2 = 1.0 + math.sqrt(sum(v * v for v in scales2) / len(scales2))
        assert report.rms1 >= 1e-2 * s1 or report.rms2 >= 1e-2 * s2
    _report(3, "published constants rejected with h-independent O(1) residual")


# ---------------------------------------------------------------------------
# 4. Symmetry closure under randomized transform chains.
# ---------------------------------------------------------------------------

def _random_bounded_tree(rng):
    def coeff(lo=0.05, hi=0.5):
        return f"{rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)):.3f}"
    pieces = [f"{coeff()}*sin({coeff(0.3, 1.2)}*t)",
              f"{coeff()}*cos({coeff(0.3, 1.2)}*t)",
              f"{coeff(0.05, 0.4)}*t", f"{coeff(0.0, 0.3)}"]
    return parse_timefn("+".join(rng.choice(pieces)
                                 for _ in range(rng.randint(2, 3))))


def _random_chain(rng):
    while True:
        specs = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                specs.append(TransformSpec(
                    "T1", alpha=_random_bounded_tree(rng),
                    beta=_random_bounded_tree(rng),
                    gamma=_random_bounded_tree(rng)))
            else:
                b = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0)
                specs.append(TransformSpec("T2", b=b))
        # keep the composed dilation of the time/space axes moderate so the
        # sample grid stays well inside every base solution's useful range
        t_scale = x_scale = 1.0
        worst_t = worst_x = 1.0
        for spec in reversed(specs):
            if spec.kind == "T2":
                t_scale /= spec.b * spec.b
                x_scale /= abs(spec.b)
            worst_t = max(worst_t, t_scale)
            worst_x = max(worst_x, x_scale)
        if worst_t * 0.2 <= 6.0 and worst_x <= 8.0:
            return specs


def test_criterion_4_symmetry_closure():
    rng = random.Random(20250810)
    bases = [
        family_a(Variant(-1, 1), parse_timefn("t"), 1.0),
        family_a(Variant(1, 1), parse_timefn("t+0.1*t^2"), 0.8),
        family_c(Variant(-1, 1), "sn", 0.5, 0.4, 0.3, parse_timefn("0.1*t")),
        family_c(Variant(1, 1), "cn", 0.6, 1.0, 0.3, parse_timefn("0")),
        family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0,
                 parse_timefn("0")),
    ]
    pts = [(0.2, -0.6 + 0.4 * i, -0.6 + 0.4 * j)
           for i in range(4) for j in range(4)]
    for k in range(50):
        base = bases[k % len(bases)]
        specs = _random_chain(rng)
        sol = compose(specs, base)
        report = verify(sol, pts, h=H, tol_rel=TOL_REL)
        chain_desc = [s.kind for s in specs]
        assert report.passed, (k, chain_desc, report)

    # group law and identity, pointwise to 1e-12
    base = bases[2]
    probe = [(0.2, 0.5, -0.3), (0.7, -0.4, 0.6), (1.1, 0.2, 0.9)]
    for _ in range(10):
        b1 = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0)
        b2 = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0)
        lhs = transformed(transformed(base, "T2", b=b1), "T2", b=b2)
        rhs = transformed(base, "T2", b=b1 * b2)
        for (t, x, y) in probe:
            assert abs(lhs.u(t, x, y) - rhs.u(t, x, y)) <= 1e-12
            assert abs(lhs.v(t, x, y) - rhs.v(t, x, y)) <= 1e-12
    zero = parse_timefn("0")
    ident = transformed(base, "T1", alpha=zero, beta=zero, gamma=zero)
    for (t, x, y) in probe:
        assert abs(ident.u(t, x, y) - base.u(t, x, y)) <= 1e-12
        assert abs(ident.v(t, x, y) - base.v(t, x, y)) <= 1e-12
    _report(4, "50 random transform chains verified; group laws hold")


# ---------------------------------------------------------------------------
# 5. Dynamical cross-check of the stationary line solution.
# ---------------------------------------------------------------------------

def test_criterion_5_dynamical_crosscheck():
    m = 0.5
    box = 4.0 * ellipk(m)
    sol = family_c(Variant(-1, 1), "sn", m, math.pi / 2.0, 0.0,
                   parse_timefn("0"))
    rep, _ = crosscheck(sol, box, box, 64, 0.5, 1e-3)
    assert rep["max_dev"] <= 1e-5
    assert rep["mass_drift"] <= 1e-10 * max(1.0, rep["mass_initial"])
    rep_half, _ = crosscheck(sol, box, box, 64, 0.5, 5e-4)
    ratio = rep["max_dev"] / rep_half["max_dev"]
    assert ratio >= 3.5
    _report(5, f"drift {rep['max_dev']:.2e}, dt-halving ratio {ratio:.2f}, "
               f"mass drift {rep['mass_drift']:.2e}")


# ---------------------------------------------------------------------------
# 6. Closed-form spot values.
# ---------------------------------------------------------------------------

def test_criterion_6_closed_form_spot_values():
    rng = random.Random(99)
    c = 1.3
    worst = 0.0
    for eps1, eps2 in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        sol = family_a(Variant(eps1, eps2), parse_timefn("t"), c)
        for _ in range(100):
            t = rng.uniform(-1.0, 2.0)
            x = rng.uniform(-2.0, 2.0)
            y = rng.uniform(-2.0, 2.0)
            u_ref = c * cmath.exp(1j * (x * x - eps1 * y * y) / 2.0)
            v_ref = -(eps1 * x * x + y * y) / 2.0 - eps2 * c * c
            worst = max(worst, abs(sol.u(t, x, y) - u_ref),
                        abs(sol.v(t, x, y) - v_ref))
    assert worst <= 1e-12
    _report(6, f"closed forms reproduced to {worst:.2e} at 100 random points")


# ---------------------------------------------------------------------------
# 7. Determinism of report and field files.
# ---------------------------------------------------------------------------

def test_criterion_7_byte_identical_reports(tmp_path):
    verify_cfg = tmp_path / "verify.json"
    verify_cfg.write_text(json.dumps({
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": math.pi / 2.0,
                   "ell1": 0.0, "beta": "0"},
        "grid": {"t": [0.0], "x": [-0.9, 0.9, 7], "y": [-0.9, 0.9, 7]},
        "verify": {"h": H, "order": ORDER, "tol_rel": TOL_REL},
    }), encoding="utf-8")
    outs = []
    for name in ("v1.json", "v2.json"):
        out = tmp_path / name
        assert main(["verify", "--config", str(verify_cfg),
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    # A field CSV on a grid whose column x = pi/2 is the pole line at t = 0:
    # invalid rows too.
    eval_cfg = tmp_path / "eval.json"
    eval_cfg.write_text(json.dumps({
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "tan", "ell": math.pi / 2.0, "ell1": 0.0,
                   "beta": "0.1*t"},
        "grid": {"t": [0.0, 0.3], "x": [0.0, math.pi, 81],
                 "y": [-1.0, 1.0, 50]},
    }), encoding="utf-8")
    outs = []
    for name in ("f1.csv", "f2.csv"):
        out = tmp_path / name
        assert main(["eval", "--config", str(eval_cfg),
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 1 + 2 * 81 * 50
    assert b",false\n" in outs[0]

    box = 4.0 * ellipk(0.5)
    snapshot = tmp_path / "snap.csv"
    evolve_cfg = tmp_path / "evolve.json"
    evolve_cfg.write_text(json.dumps({
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": math.pi / 2.0,
                   "ell1": 0.0, "beta": "0"},
        "evolve": {"box": [box, box], "n": 32, "T": 0.05, "dt": 1e-3,
                   "tol": 1e-5, "snapshot_out": str(snapshot)},
    }), encoding="utf-8")
    outs = []
    for name in ("e1.json", "e2.json"):
        out = tmp_path / name
        assert main(["evolve", "--config", str(evolve_cfg),
                     "--out", str(out)]) == 0
        outs.append((out.read_bytes(), snapshot.read_bytes()))
        snapshot.unlink()
    assert outs[0] == outs[1]
    assert outs[0][1].count(b"\n") == 1 + 32 * 32
    _report(7, "verify and evolve reports, eval CSV and evolve snapshot "
               "byte-identical across reruns")
