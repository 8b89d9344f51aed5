"""Family C's line direction and cubic match, read from the constants that
``family_c`` records in its ``derived``."""

import math

import pytest

from conftest import fd2
from dsexact import ConfigError, Variant, family_c, parse_timefn, verify
from dsexact.elliptic import make_profile


def constants(kind, m, eps1, ell, eps2):
    """(amplitude, v_constant, v_quad_coeff) of a family C line."""
    sol = family_c(Variant(eps1, eps2), kind, m, ell, 0.0, parse_timefn("0"))
    return tuple(sol.derived[key]
                 for key in ("amplitude", "v_constant", "v_quad_coeff"))


def test_frame_trivial():
    # ell = 0 is (zeta, eta, E) = (0, 1, 1) on both branches: kappa = 0,
    # the unit-frame constant E q / 2, and u constant along x.
    q = make_profile("sn", 0.7).q
    for eps1 in (1, -1):
        assert constants("sn", 0.7, eps1, 0.0, 1)[1:] == (q / 2.0, 0.0)
        sol = family_c(Variant(eps1, 1), "sn", 0.7, 0.0, 0.3,
                       parse_timefn("0"))
        for y in (-1.1, 0.4, 2.0):
            assert sol.u(0.0, 1.7, y) == sol.u(0.0, -0.8, y)
    # eps1 = -1, ell = pi/2 is (1, 0, -1): kappa = -2, constant -q/2, and
    # u constant along y.
    _, c_v, kappa = constants("sn", 0.7, -1, math.pi / 2.0, 1)
    assert kappa == pytest.approx(-2.0, abs=1e-15)
    assert c_v == pytest.approx(-q / 2.0, abs=1e-15)
    sol = family_c(Variant(-1, 1), "sn", 0.7, math.pi / 2.0, 0.3,
                   parse_timefn("0"))
    for x in (-1.1, 0.4, 2.0):
        assert sol.u(0.0, x, 1.7) == pytest.approx(sol.u(0.0, x, -0.8),
                                                   abs=1e-15)


def test_frame_identity_sweep():
    # eta^2 - eps1 zeta^2 = 1 and E = eta^2 + eps1 zeta^2 give
    # E = 1 + 2 eps1 zeta^2, read back as zeta^2 = -kappa/2, E = 2 c_v / q.
    for eps1 in (1, -1):
        for i in range(-8, 9):
            ell = 0.41 * i
            for kind in ("sn", "dn"):  # one of them has a real amplitude
                try:
                    _, c_v, kappa = constants(kind, 0.7, eps1, ell, 1)
                    break
                except ConfigError as err:
                    assert str(err).startswith("amplitude^2 = ")
                    continue
            else:
                pytest.fail(f"no real amplitude at eps1={eps1}, ell={ell}")
            E = 2.0 * c_v / make_profile(kind, 0.7).q
            zeta2 = -kappa / 2.0
            # roundoff grows with the squares
            tol = 1e-14 * (1.0 + abs(E) + 2.0 * zeta2)
            assert abs(E - 2.0 * eps1 * zeta2 - 1.0) <= tol, (eps1, ell)


def test_line_direction_sweep():
    # sn lines along both branches of the direction (zeta, eta): the
    # residual oracle certifies the matched constants at every ell.
    pts = [(0.2, 0.3 * i, 0.3 * j) for i in range(-2, 3) for j in range(-2, 3)]
    cases = [(-1, 0.41 * i) for i in range(-8, 9)] \
        + [(1, 0.15 * i) for i in range(-4, 5)]
    for eps1, ell in cases:
        sol = family_c(Variant(eps1, 1), "sn", 0.7, ell, 0.3,
                       parse_timefn("0.1*t"))
        assert verify(sol, pts).passed, (eps1, ell)


def test_match_sn_at_unit_frame():
    # nu = m*sn solves -nu'' + 2c nu + 2 nu^3 = 0 with c = -(1+m^2)/2.
    m = 0.7
    for eps1 in (1, -1):
        amplitude, c_v, kappa = constants("sn", m, eps1, 0.0, 1)
        assert amplitude == pytest.approx(m, rel=1e-14)
        assert c_v == pytest.approx(-(1.0 + m * m) / 2.0, rel=1e-14)
        assert kappa == 0.0


def test_match_rational():
    assert constants("rational", None, 1, 0.0, 1) == (1.0, 0.0, 0.0)


def test_match_dn_needs_negative_divisor():
    with pytest.raises(ConfigError, match=r"^amplitude\^2 = .* < 0"):
        constants("dn", 0.5, 1, 0.0, 1)


def test_match_degenerate():
    # e1 = -1, ell = pi/4: kappa = -2 sin^2(pi/4) = -1 cancels e2 = +1.
    with pytest.raises(ConfigError,
                       match=r"^cubic coefficient eps2\+kappa vanishes"):
        constants("tan", None, -1, math.pi / 4.0, 1)


def test_v_profile_coefficient():
    assert constants("sn", 0.5, -1, 0.0, 1)[2] == 0.0
    assert constants("tan", None, -1, math.pi / 2.0, 1)[2] == -2.0
    assert constants("dn", 0.5, -1, math.pi / 4.0, -1)[2] == \
        pytest.approx(-1.0, rel=1e-14)


def _admissible_cases():
    # (kind, m, eps1, ell) with a real amplitude under kappa = -2 zeta^2.
    yield "rational", None, 1, 0.3, 1
    yield "tan", None, -1, 0.4, 1
    yield "sec", None, 1, 0.3, 1
    yield "coth", None, -1, 0.4, 1
    yield "csch", None, 1, 0.3, 1
    yield "sn", 0.65, -1, 0.4, 1
    yield "cn", 0.65, 1, 1.0, 1
    yield "dn", 0.65, -1, 0.2, -1


def test_matched_ode_with_independent_second_derivative():
    # -E nu'' + 2 c nu + 2 (eps2+kappa) nu^3 must vanish pointwise, with
    # E = eta(2 ell) and nu'' taken from finite differences rather than the
    # signature.
    h = 2e-3
    samples = {"rational": (0.7, 1.8), "tan": (0.2, -0.8), "sec": (0.3, 0.9),
               "coth": (0.8, -1.6), "csch": (0.8, 2.2),
               "sn": (0.5, -1.9), "cn": (0.0, 1.2), "dn": (0.4, 2.8)}
    for kind, m, eps1, ell, eps2 in _admissible_cases():
        E = (math.cosh if eps1 == 1 else math.cos)(2.0 * ell)
        prof = make_profile(kind, m)
        A, c_ode, kappa = constants(kind, m, eps1, ell, eps2)
        for s in samples[kind]:
            nu = A * prof.value(s)
            nu2 = A * fd2(prof.value, s, h)
            resid = -E * nu2 + 2.0 * c_ode * nu \
                + 2.0 * (eps2 + kappa) * nu ** 3
            assert abs(resid) <= 1e-9 * (1.0 + abs(nu) ** 3), (kind, s)
