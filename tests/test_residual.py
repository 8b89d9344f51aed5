import json
import math

import pytest

from dsexact import ConfigError, EmptySampleError, Solution, StencilError, \
    Variant, family_a, family_c, parse_timefn, residual_at, verify

GRID = [(0.5, 0.3 * i, 0.3 * j) for i in range(-2, 3) for j in range(-2, 3)]


def exact_a(eps1=1, eps2=1, c=1.0):
    return family_a(Variant(eps1, eps2), parse_timefn("t"), c)


def test_exact_solution_has_tiny_residual():
    sol = exact_a()
    r1, r2 = residual_at(sol, 0.5, 0.4, -0.7, h=1e-3, order=4)
    assert abs(r1) <= 1e-8 * 10.0
    assert abs(r2) <= 1e-8 * 10.0


def test_zero_solution_residual_is_exactly_zero():
    zero = Solution(Variant(1, 1), lambda t, x, y: 0j,
                    lambda t, x, y: 0.0, lambda t, x, y: True)
    r1, r2 = residual_at(zero, 0.1, 0.2, 0.3)
    assert r1 == 0.0 and r2 == 0.0


def test_perturbed_mean_flow_shifts_r1_linearly():
    # v -> v + 0.1 changes R1 by -0.2*u and leaves R2 unchanged.
    sol = exact_a()
    bumped = Solution(sol.variant, sol.u,
                      lambda t, x, y: sol.v(t, x, y) + 0.1, sol.valid)
    t, x, y = 0.5, 0.6, -0.4
    r1_base, r2_base = residual_at(sol, t, x, y)
    r1_bump, r2_bump = residual_at(bumped, t, x, y)
    assert abs((r1_bump - r1_base) + 0.2 * sol.u(t, x, y)) <= 1e-9
    assert abs(r2_bump - r2_base) <= 1e-9


def test_verify_passes_exact_family():
    report = verify(exact_a(-1, 1), GRID)
    assert report.passed
    assert report.n_points == len(GRID)
    assert report.rms1 <= report.max1
    assert report.rms2 <= report.max2


def test_fourth_order_convergence_in_truncation_regime():
    # With h large enough that truncation dominates roundoff, halving h
    # must shrink the R1 norm by at least 2^(order-0.5).
    sol = family_a(Variant(-1, 1), parse_timefn("ln(t)"), 1.0)
    pts = [(0.8, 0.3 * i, 0.3 * j) for i in range(-2, 3) for j in range(-2, 3)]
    report = verify(sol, pts, h=0.08, order=4, tol_rel=float("inf"))
    assert report.order1 >= 3.5
    report2 = verify(sol, pts, h=0.04, order=4, tol_rel=float("inf"))
    assert report.rms1 / report2.rms1 >= 2.0 ** 3.5


def test_wrong_constants_produce_h_independent_residual():
    # Feeding the alternative constant set (kappa=+zeta^2 and the doubled
    # linear constant) must fail with an O(1) residual at order ~ 0.
    from dsexact import frame, make_profile, match_cubic
    eps1, eps2, m, ell = -1, 1, 0.7, 0.4
    fr = frame(eps1, ell)
    prof = make_profile("sn", m)
    alt = match_cubic(prof, fr.E, fr.zeta ** 2, eps2)
    sol = family_c(Variant(eps1, eps2), "sn", m, ell, 0.3,
                   parse_timefn("0.1*t"),
                   amplitude=alt.amplitude, v_constant=fr.E * prof.q,
                   v_quad_coeff=fr.zeta ** 2)
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
    with pytest.raises(StencilError):
        residual_at(sol, 0.0, math.pi / 2.0 - 5e-4, 0.0, h=1e-3, order=4)
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


def test_sign_flip_symmetry():
    base = family_c(Variant(-1, 1), "sn", 0.6, 0.4, 0.3, parse_timefn("0"))
    flipped = family_c(Variant(-1, 1), "sn", 0.6, 0.4, 0.3, parse_timefn("0"),
                       amplitude=-base.provenance["amplitude"])
    t, x, y = 0.0, 0.5, -0.3
    r1a, r2a = residual_at(base, t, x, y)
    r1b, r2b = residual_at(flipped, t, x, y)
    assert abs(r1a + r1b) <= 1e-12  # R1 is odd in u
    assert abs(r2a - r2b) <= 1e-12  # R2 is even in u


def test_report_json_shape_and_determinism():
    report = verify(exact_a(), GRID)
    doc = report.to_json_dict()
    assert sorted(doc) == ["max1", "max2", "n_points", "order1", "order2",
                           "pass", "rms1", "rms2"]
    again = verify(exact_a(), GRID).to_json_dict()
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_invalid_order_rejected():
    with pytest.raises(StencilError):
        residual_at(exact_a(), 0.0, 0.0, 0.0, order=3)


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
def test_bad_step_is_config_error(h):
    with pytest.raises(ConfigError):
        verify(exact_a(), GRID, h=h)
    with pytest.raises(ConfigError):
        residual_at(exact_a(), 0.5, 0.4, -0.7, h=h)


@pytest.mark.parametrize("amplitude", [1e80, 1e120])
def test_overflowing_fields_fail_with_non_finite_order(amplitude):
    # |u|^2 u or the squares summed into the rms overflow at these
    # amplitudes.  The certificate must fail, and the orders must not be
    # clamped to +-20; at 1e80 an infinite rms once compared below an
    # infinite term scale and passed.
    sol = family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0,
                   parse_timefn("0"), amplitude=amplitude)
    report = verify(sol, GRID)
    assert not report.passed
    assert not math.isfinite(report.rms1)
    assert math.isnan(report.order1)
