import json
import math
import tracemalloc

import numpy as np
import pytest

import dsexact.residual
from conftest import published_constants
from dsexact import ConfigError, EmptySampleError, Solution, Variant, \
    family_a, family_c, parse_timefn, verify
from dsexact.residual import DEFAULT_H, ORDERS

GRID = [(0.5, 0.3 * i, 0.3 * j) for i in range(-2, 3) for j in range(-2, 3)]


def exact_a(eps1=1, eps2=1, c=1.0):
    return family_a(Variant(eps1, eps2), parse_timefn("t"), c)


def at_point(sol, t, x, y, h=2.0 * DEFAULT_H):
    """The report of a one-point sample: max1, max2 are |R1|, |R2| at the
    fine step h/2 (the default fine step is DEFAULT_H), order 4."""
    return verify(sol, [(t, x, y)], h=h)


def test_exact_solution_has_tiny_residual():
    report = at_point(exact_a(), 0.5, 0.4, -0.7, h=2e-3)
    assert report.max1 <= 1e-8 * 10.0
    assert report.max2 <= 1e-8 * 10.0


def test_zero_solution_residual_is_exactly_zero():
    zero = Solution(Variant(1, 1), lambda t, x, y: 0j,
                    lambda t, x, y: 0.0, lambda t, x, y: True)
    report = at_point(zero, 0.1, 0.2, 0.3)
    assert report.max1 == 0.0 and report.max2 == 0.0


def test_perturbed_mean_flow_shifts_r1_linearly():
    # v -> v + 0.1 changes R1 by -0.2*u and leaves R2 unchanged, so by the
    # triangle inequality |R1| moves from 0.2|u| by at most the base |R1|.
    sol = exact_a()
    bumped = Solution(sol.variant, sol.u,
                      lambda t, x, y: sol.v(t, x, y) + 0.1, sol.valid)
    t, x, y = 0.5, 0.6, -0.4
    base = at_point(sol, t, x, y)
    bump = at_point(bumped, t, x, y)
    assert abs(bump.max1 - 0.2 * abs(sol.u(t, x, y))) <= base.max1 + 1e-9
    assert abs(bump.max2 - base.max2) <= 1e-9


def test_verify_passes_exact_family():
    report = verify(exact_a(-1, 1), GRID)
    assert report.passed
    assert report.n_points == len(GRID)
    assert report.rms1 <= report.max1
    assert report.rms2 <= report.max2


# A step per stencil order at which truncation error dominates roundoff on
# the line below, also at half the step.
TRUNCATION_STEPS = {2: 0.04, 4: 0.08, 6: 0.16}


@pytest.mark.parametrize("order", ORDERS)
def test_nominal_order_convergence_in_truncation_regime(order):
    # Halving h must shrink the R1 and R2 norms by at least 2^(order-0.5),
    # from h to h/2 and again from h/2 to h/4.
    sol = family_c(Variant(-1, 1), "sn", 0.7, 0.4, 0.3,
                   parse_timefn("0.1*t"))
    pts = [(0.8, 0.3 * i, 0.3 * j) for i in range(-2, 3) for j in range(-2, 3)]
    for h in (TRUNCATION_STEPS[order], TRUNCATION_STEPS[order] / 2.0):
        report = verify(sol, pts, h=h, order=order, tol_rel=float("inf"))
        assert report.n_points == len(pts)
        assert report.order1 >= order - 0.5
        assert report.order2 >= order - 0.5


def test_wrong_constants_produce_h_independent_residual():
    # Feeding the alternative constant set (kappa=+zeta^2 and the doubled
    # linear constant) must fail with an O(1) residual at order ~ 0.
    eps1, eps2, m, ell = -1, 1, 0.7, 0.4
    sol = family_c(Variant(eps1, eps2), "sn", m, ell, 0.3,
                   parse_timefn("0.1*t"),
                   **published_constants("sn", m, eps1, ell, eps2))
    pts = [(0.2, 0.3 * i, 0.3 * j) for i in range(-2, 3) for j in range(-2, 3)]
    report = verify(sol, pts)
    assert not report.passed
    assert abs(report.order1) <= 0.5
    assert abs(report.order2) <= 0.5
    assert report.rms1 >= 1e-2
    # vacuous pass when the tolerance is infinite
    assert verify(sol, pts, tol_rel=float("inf")).passed


def test_stencil_error_and_skipping():
    sol = family_c(Variant(-1, 1), "tan", None, math.pi / 2.0, 0.0,
                   parse_timefn("0"))
    with pytest.raises(EmptySampleError):
        at_point(sol, 0.0, math.pi / 2.0 - 5e-4, 0.0, h=2e-3)
    # a grid straddling the pole loses points but still verifies
    xs = [math.pi / 2.0 + 0.22 * i for i in range(-4, 5)]
    pts = [(0.0, x, 0.5) for x in xs]
    report = verify(sol, pts)
    assert report.passed
    assert 0 < report.n_points < len(pts)


def test_empty_sample():
    sol = family_c(Variant(-1, 1), "tan", None, math.pi / 2.0, 0.0,
                   parse_timefn("0"))
    with pytest.raises(EmptySampleError):
        verify(sol, [(0.0, math.pi / 2.0, 0.0)])


def test_blocked_verify_equals_one_block(monkeypatch):
    # 40 points in blocks of 7, the last one short; the points on the pole
    # are skipped.
    sol = family_c(Variant(-1, 1), "tan", None, math.pi / 2.0, 0.0,
                   parse_timefn("0"))
    pts = [(t, math.pi / 2.0 + 0.1 * i, 0.3 * j) for t in (0.1, 0.3)
           for i in range(-5, 5) for j in (-1, 1)]
    whole = verify(sol, pts)
    assert whole.passed and whole.n_points == 36
    monkeypatch.setattr(dsexact.residual, "_BLOCK", 7)
    assert verify(sol, pts) == whole


def test_verify_memory_is_bounded_by_the_block():
    # A 128 x 64 sn grid held about 5.5 KB a point (45 MB) when every
    # stencil was evaluated at once; a block of 4,096 points takes ~23 MB.
    sol = family_c(Variant(-1, 1), "sn", 0.5, 0.4, 0.3, parse_timefn("0.1*t"))
    x, y = np.meshgrid(np.linspace(-0.8, 0.8, 128), np.linspace(-0.8, 0.8, 64))
    pts = np.stack([np.full(x.size, 0.2), x.ravel(), y.ravel()], axis=1)
    tracemalloc.start()
    try:
        report = verify(sol, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.n_points == 8192
    assert peak < 30e6


def test_sign_flip_symmetry():
    base = family_c(Variant(-1, 1), "sn", 0.6, 0.4, 0.3, parse_timefn("0"))
    flipped = family_c(Variant(-1, 1), "sn", 0.6, 0.4, 0.3, parse_timefn("0"),
                       amplitude=-base.provenance["amplitude"])
    # R1 is odd and R2 even in u, and negating u negates every rounded
    # term of R1 exactly, so both magnitudes are equal bit for bit.
    a = at_point(base, 0.0, 0.5, -0.3)
    b = at_point(flipped, 0.0, 0.5, -0.3)
    assert (a.max1, a.max2) == (b.max1, b.max2)


def test_report_json_shape_and_determinism():
    report = verify(exact_a(), GRID)
    doc = report.to_json_dict()
    assert sorted(doc) == ["max1", "max2", "n_points", "order1", "order2",
                           "pass", "rms1", "rms2"]
    again = verify(exact_a(), GRID).to_json_dict()
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_invalid_order_rejected():
    with pytest.raises(ConfigError, match=r"\(2, 4, 6\); got h=0.001, order=3"):
        verify(exact_a(), GRID, order=3)


@pytest.mark.parametrize("tol_rel", [-1.0, -1e-12, math.nan])
def test_negative_or_nan_tolerance_is_config_error(tol_rel):
    # A negative tolerance can never pass; infinity keeps its vacuous pass.
    with pytest.raises(ConfigError, match=f"tol_rel={tol_rel!r}"):
        verify(exact_a(), GRID, tol_rel=tol_rel)
    assert verify(exact_a(), GRID, tol_rel=math.inf).passed


# 1e-300: (h/2)^2 underflows to 0, and the second differences divided by 0.
@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf, 1e-300])
def test_bad_step_is_config_error(h):
    with pytest.raises(ConfigError, match=f"got h={h!r}, order=4"):
        verify(exact_a(), GRID, h=h)


@pytest.mark.parametrize("amplitude", [1e120])
def test_overflowing_fields_fail_with_non_finite_order(amplitude):
    # |u|^2 u overflows at this amplitude.  The certificate must fail, and
    # the order must not be clamped to +-20.
    sol = family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0,
                   parse_timefn("0"), amplitude=amplitude)
    report = verify(sol, GRID)
    assert not report.passed
    assert not math.isfinite(report.rms1)
    assert math.isnan(report.order1)


def test_overflowing_squares_give_finite_rms_and_fail():
    # Every residual is finite at amplitude 1e80 (max1 = 3.5e239), but
    # their squares overflow.  The rms is still the true one, and the
    # h-independent residual (order 0) of this wrong amplitude fails the
    # certificate; an infinite rms once compared below an infinite term
    # scale and passed.
    sol = family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0,
                   parse_timefn("0"), amplitude=1e80)
    report = verify(sol, GRID)
    assert not report.passed
    assert report.max1 == pytest.approx(3.470e239, rel=1e-3)
    assert report.rms1 == pytest.approx(2.218e239, rel=1e-3)
    assert report.order1 == pytest.approx(0.0, abs=1e-6)
