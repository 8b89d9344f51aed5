import cmath
import math

import pytest

from dsexact import ConfigError, TransformSpec, Variant, compose, family_a, \
    family_c, parse_timefn, verify
from dsexact.symmetry import apply_t1, apply_t2

ZERO = parse_timefn("0")
GRID = [(0.2, 0.3 * i, 0.3 * j) for i in range(-2, 3) for j in range(-2, 3)]


def constant_solution(eps1=1, eps2=1, c=1.0):
    return family_a(Variant(eps1, eps2), parse_timefn("t"), c)


def test_t1_global_phase():
    sol = constant_solution()
    out = apply_t1(sol, ZERO, ZERO, parse_timefn("0.7"))
    for (t, x, y) in ((0.0, 0.5, -0.2), (1.0, -1.1, 0.9)):
        assert out.u(t, x, y) == pytest.approx(
            cmath.exp(-0.7j) * sol.u(t, x, y), abs=1e-14)
        assert out.v(t, x, y) == sol.v(t, x, y)


def test_t1_linear_shift_of_constant_core():
    # Base u=c, v=-e2 c^2 at the spatial origin; alpha = k t produces the
    # plane-phase solution u' = c exp(-i e1 k x), v' = -e2 c^2 - e1 k^2/2.
    k = 0.8
    c = 1.2
    for eps1 in (1, -1):
        sol = family_a(Variant(eps1, 1), parse_timefn("t"), c)
        out = apply_t1(sol, parse_timefn(f"{k}*t"), ZERO, ZERO)
        t = 0.4
        # compare against hand substitution at y=0 where the base phase is flat
        for x in (-0.9, 0.0, 1.3):
            u_ref = c * cmath.exp(-1j * eps1 * k * x) \
                * cmath.exp(1j * ((x + k * t) ** 2) / 2.0)
            v_ref = -c * c - (eps1 * (x + k * t) ** 2) / 2.0 - eps1 * k * k / 2.0
            assert out.u(t, x, 0.0) == pytest.approx(u_ref, abs=1e-13)
            assert out.v(t, x, 0.0) == pytest.approx(v_ref, abs=1e-13)
        assert verify(out, GRID).passed


def test_t1_boost_of_flat_solution():
    # u=c, v=-e2 c^2 is the flat solution; boosting with alpha = k t gives
    # the plane wave u' = c exp(-i e1 k x), v' = -e2 c^2 - e1 k^2/2.
    from dsexact import Solution
    k, c = 0.8, 1.2
    for eps1 in (1, -1):
        variant = Variant(eps1, 1)
        flat = Solution(variant, lambda t, x, y: complex(c),
                        lambda t, x, y: -c * c,
                        lambda t, x, y: True)
        out = apply_t1(flat, parse_timefn(f"{k}*t"), ZERO, ZERO)
        for (t, x, y) in GRID:
            assert out.u(t, x, y) == pytest.approx(
                c * cmath.exp(-1j * eps1 * k * x), abs=1e-14)
            assert out.v(t, x, y) == pytest.approx(
                -c * c - eps1 * k * k / 2.0, abs=1e-14)
        assert verify(out, GRID).passed


def test_t1_identity():
    sol = family_c(Variant(-1, 1), "sn", 0.5, 0.4, 0.3, parse_timefn("0.1*t"))
    out = apply_t1(sol, ZERO, ZERO, ZERO)
    for (t, x, y) in GRID:
        assert abs(out.u(t, x, y) - sol.u(t, x, y)) <= 1e-12
        assert abs(out.v(t, x, y) - sol.v(t, x, y)) <= 1e-12


def test_t1_modulus_is_pure_shift():
    sol = family_c(Variant(-1, 1), "sn", 0.6, 0.4, 0.0, parse_timefn("0"))
    alpha = parse_timefn("0.3*sin(t)")
    beta = parse_timefn("0.2*t")
    out = apply_t1(sol, alpha, beta, parse_timefn("t^2"))
    for (t, x, y) in GRID:
        a0 = alpha.jet(t).f
        b0 = beta.jet(t).f
        # the unit phase factor costs at most one ulp on the modulus
        assert abs(out.u(t, x, y)) == pytest.approx(
            abs(sol.u(t, x + a0, y + b0)), rel=5e-16)


def test_t1_preserves_solutions():
    base = family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0, ZERO)
    out = apply_t1(base, parse_timefn("0.3*sin(t)"), parse_timefn("0.2*t"),
                   parse_timefn("t^2"))
    report = verify(out, GRID)
    assert report.passed


def test_t1_on_zero_base_gives_linear_mean_flow():
    sol = family_a(Variant(1, 1), parse_timefn("t"), 0.0)
    alpha = parse_timefn("0.5*t^2")
    gamma = parse_timefn("0.3*t")
    out = apply_t1(sol, alpha, ZERO, gamma)
    t, x, y = 0.7, 1.1, -0.4
    # v' = v(shift) + e1 a'' x - (e1 a'^2)/2 + g'
    expect = sol.v(t, x + alpha.jet(t).f, y) + 1.0 * x \
        - (0.7 ** 2) / 2.0 + 0.3
    assert out.v(t, x, y) == pytest.approx(expect, rel=1e-13)
    assert out.u(t, x, y) == 0.0


def test_t2_identity_and_constant_family_closure():
    sol = constant_solution(eps2=1, c=1.0)
    ident = apply_t2(sol, 1.0)
    for (t, x, y) in GRID:
        assert ident.u(t, x, y) == sol.u(t, x, y)
    halved = apply_t2(sol, 2.0)
    assert halved.u(0.0, 0.0, 0.0) == pytest.approx(0.5)
    assert halved.v(0.0, 0.0, 0.0) == pytest.approx(-0.25)


def test_t2_parity():
    sol = family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.3, ZERO)
    out = apply_t2(sol, -1.0)
    for (t, x, y) in GRID:
        assert out.u(t, x, y) == pytest.approx(-sol.u(t, -x, -y), abs=1e-14)
        assert out.v(t, x, y) == pytest.approx(sol.v(t, -x, -y), abs=1e-14)
    assert verify(out, GRID).passed


def test_t2_preserves_solutions():
    base = family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0, ZERO)
    for b in (0.4, 1.7, -2.3):
        assert verify(apply_t2(base, b), GRID).passed


def test_t2_group_law():
    sol = family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0, ZERO)
    chained = compose([TransformSpec("T2", b=2.0), TransformSpec("T2", b=3.0)],
                      sol)
    direct = apply_t2(sol, 6.0)
    for (t, x, y) in GRID:
        assert abs(chained.u(t, x, y) - direct.u(t, x, y)) <= 1e-12
        assert abs(chained.v(t, x, y) - direct.v(t, x, y)) <= 1e-12


def test_t2_inverse_pair():
    sol = family_c(Variant(-1, 1), "sn", 0.5, 0.4, 0.3, parse_timefn("0.1*t"))
    b = 1.9
    round_trip = compose([TransformSpec("T2", b=b),
                          TransformSpec("T2", b=1.0 / b)], sol)
    for (t, x, y) in GRID:
        assert abs(round_trip.u(t, x, y) - sol.u(t, x, y)) <= 1e-14
        assert abs(round_trip.v(t, x, y) - sol.v(t, x, y)) <= 1e-14


def test_t2_rejects_zero():
    with pytest.raises(ConfigError):
        apply_t2(constant_solution(), 0.0)
    with pytest.raises(ConfigError):
        TransformSpec("T2", b=0.0)
    with pytest.raises(ConfigError):
        TransformSpec("T1", alpha=ZERO, beta=ZERO)  # gamma missing
    with pytest.raises(ConfigError):
        compose([], constant_solution())


def test_unknown_transform_kind():
    with pytest.raises(ConfigError, match="unknown transform kind 'T3'"):
        TransformSpec("T3")


def test_dressed_rational_closed_form():
    # T1 applied to the axis-aligned rational line solution must reproduce
    # the three-parameter dressed form written out by hand below.
    eps1, eps2 = -1, 1
    beta = parse_timefn("0.05*t")
    base = family_c(Variant(eps1, eps2), "rational", None, 0.0, 2.0, beta)
    alpha1 = parse_timefn("0.4*sin(t)")
    beta1 = parse_timefn("0.3*t")
    gamma1 = parse_timefn("t^2")  # gamma' = 2t != gamma distinguishes them
    out = apply_t1(base, alpha1, beta1, gamma1)

    for (t, x, y) in ((0.3, 0.7, -0.2), (0.9, -0.4, 0.8)):
        bj = beta.jet(t)
        a1 = alpha1.jet(t)
        b1 = beta1.jet(t)
        g1 = gamma1.jet(t)
        e2b = math.exp(-2.0 * bj.f)
        w = e2b * (y + b1.f) + 2.0
        phase = (eps1 * (x + a1.f) ** 2 + (y + b1.f) ** 2) * bj.d1 \
            - eps1 * a1.d1 * x - b1.d1 * y - g1.f
        u_ref = (e2b / w) * cmath.exp(1j * phase)
        v_ref = -(bj.d2 + 2.0 * bj.d1 ** 2) \
            * (eps1 * (x + a1.f) ** 2 + (y + b1.f) ** 2) \
            + eps1 * a1.d2 * x + b1.d2 * y \
            - (eps1 * a1.d1 ** 2 + b1.d1 ** 2) / 2.0 + g1.d1
        assert out.u(t, x, y) == pytest.approx(u_ref, abs=1e-13)
        assert out.v(t, x, y) == pytest.approx(v_ref, abs=1e-13)

    pts = [(0.3, 0.4 * i, 0.4 * j) for i in range(-2, 3) for j in range(-2, 3)]
    assert verify(out, pts).passed


def test_provenance_chain():
    sol = family_c(Variant(-1, 1), "sn", 0.5, 0.4, 0.0, ZERO)
    out = compose([TransformSpec("T1", alpha=ZERO, beta=ZERO, gamma=ZERO),
                   TransformSpec("T2", b=2.0)], sol)
    kinds = [item["kind"] for item in out.provenance["transforms"]]
    assert kinds == ["T1", "T2"]
