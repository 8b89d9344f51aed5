import math

import pytest

from conftest import fd2
from dsexact import DegenerateMatch, NoRealAmplitude, frame, make_profile, \
    match_cubic, v_profile_coefficient


def test_frame_trivial():
    for eps1 in (1, -1):
        fr = frame(eps1, 0.0)
        assert (fr.zeta, fr.eta, fr.E) == (0.0, 1.0, 1.0)
    fr = frame(-1, math.pi / 2.0)
    assert fr.zeta == pytest.approx(1.0, abs=1e-15)
    assert fr.eta == pytest.approx(0.0, abs=1e-15)
    assert fr.E == pytest.approx(-1.0, abs=1e-15)


def test_frame_identity_sweep():
    for eps1 in (1, -1):
        for i in range(-8, 9):
            fr = frame(eps1, 0.41 * i)
            # roundoff in eta^2 - eps1 zeta^2 grows with the squares
            tol = 1e-14 * (1.0 + fr.eta ** 2 + abs(fr.zeta) ** 2)
            assert abs(fr.eta ** 2 - eps1 * fr.zeta ** 2 - 1.0) <= tol


def test_match_sn_at_unit_frame():
    # nu = m*sn solves -nu'' + 2c nu + 2 nu^3 = 0 with c = -(1+m^2)/2.
    m = 0.7
    match = match_cubic(make_profile("sn", m), 1.0, 0.0, 1)
    assert match.amplitude == pytest.approx(m, rel=1e-14)
    assert match.c_ode == pytest.approx(-(1.0 + m * m) / 2.0, rel=1e-14)


def test_match_rational():
    match = match_cubic(make_profile("rational"), 1.0, 0.0, 1)
    assert match.amplitude == 1.0
    assert match.c_ode == 0.0


def test_match_dn_needs_negative_divisor():
    with pytest.raises(NoRealAmplitude):
        match_cubic(make_profile("dn", 0.5), 1.0, 0.0, 1)


def test_match_degenerate():
    with pytest.raises(DegenerateMatch):
        match_cubic(make_profile("tan"), 1.0, -1.0, 1)


def test_v_profile_coefficient():
    assert v_profile_coefficient(0.0) == 0.0
    assert v_profile_coefficient(1.0) == -2.0
    assert v_profile_coefficient(math.sin(math.pi / 4.0)) == \
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
    # nu'' taken from finite differences rather than the signature.
    h = 2e-3
    samples = {"rational": (0.7, 1.8), "tan": (0.2, -0.8), "sec": (0.3, 0.9),
               "coth": (0.8, -1.6), "csch": (0.8, 2.2),
               "sn": (0.5, -1.9), "cn": (0.0, 1.2), "dn": (0.4, 2.8)}
    for kind, m, eps1, ell, eps2 in _admissible_cases():
        fr = frame(eps1, ell)
        prof = make_profile(kind, m)
        kappa = v_profile_coefficient(fr.zeta)
        match = match_cubic(prof, fr.E, kappa, eps2)
        A = match.amplitude
        for s in samples[kind]:
            nu = A * prof.value(s)
            nu2 = A * fd2(prof.value, s, h)
            resid = -fr.E * nu2 + 2.0 * match.c_ode * nu \
                + 2.0 * (eps2 + kappa) * nu ** 3
            assert abs(resid) <= 1e-9 * (1.0 + abs(nu) ** 3), (kind, s)
