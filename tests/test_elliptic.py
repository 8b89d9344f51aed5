import math

import numpy as np
import pytest
from scipy import integrate, special

from conftest import fd2
from dsexact import ConfigError, DomainError, PROFILE_KINDS, ellipk, \
    jacobi_sn_cn_dn, make_profile

# Frozen from adaptive quadrature of the defining integral (see the oracle
# test below, which recomputes it).
K_08_QUADRATURE = 1.9953027776647294


def _k_integral(m):
    val, _ = integrate.quad(
        lambda th: 1.0 / math.sqrt(1.0 - (m * m) * math.sin(th) ** 2),
        0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
    return val


def test_ellipk_at_zero():
    assert ellipk(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)


def test_ellipk_frozen_value():
    assert ellipk(0.8) == pytest.approx(K_08_QUADRATURE, abs=1e-12)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
@pytest.mark.parametrize("m", [0.1, 0.35, 0.5, 0.8, 0.95, 0.999])
def test_ellipk_against_quadrature(m):
    assert ellipk(m) == pytest.approx(_k_integral(m), rel=1e-12)


@pytest.mark.parametrize("m", [1.0, 1.5, -0.2])
def test_ellipk_domain(m):
    with pytest.raises(DomainError):
        ellipk(m)


def test_jacobi_origin():
    for m in (0.0, 0.3, 0.9, 1.0):
        assert jacobi_sn_cn_dn(0.0, m) == (0.0, 1.0, 1.0)


def test_jacobi_degenerate_modulus():
    # m=1 collapses to hyperbolic functions.
    for s in (-2.0, -0.3, 0.0, 0.7, 3.1):
        sn, cn, dn = jacobi_sn_cn_dn(s, 1.0)
        assert sn == pytest.approx(math.tanh(s), abs=1e-15)
        assert cn == pytest.approx(1.0 / math.cosh(s), abs=1e-15)
        assert dn == cn
    # m=0 collapses to trigonometric functions.
    for s in (-1.1, 0.4, 2.8):
        sn, cn, dn = jacobi_sn_cn_dn(s, 0.0)
        assert sn == pytest.approx(math.sin(s), abs=1e-14)
        assert cn == pytest.approx(math.cos(s), abs=1e-14)
        assert dn == 1.0


def test_jacobi_identities_sweep():
    ms = [0.1 * k for k in range(10)] + [0.99]
    for m in ms:
        for i in range(-50, 51):
            s = 0.1 * i
            sn, cn, dn = jacobi_sn_cn_dn(s, m)
            assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
            assert abs(dn * dn + m * m * sn * sn - 1.0) <= 1e-12


def test_jacobi_against_scipy():
    for m in (0.2, 0.5, 0.7, 0.95):
        for s in (-3.7, -1.0, 0.3, 1.9, 4.2):
            sn, cn, dn = jacobi_sn_cn_dn(s, m)
            sn_r, cn_r, dn_r, _ = special.ellipj(s, m * m)
            assert sn == pytest.approx(sn_r, abs=1e-12)
            assert cn == pytest.approx(cn_r, abs=1e-12)
            assert dn == pytest.approx(dn_r, abs=1e-12)


def test_jacobi_spot_value():
    sn, cn, dn = jacobi_sn_cn_dn(1.0, 0.7)
    # Cross-checked against an independent implementation in
    # test_jacobi_against_scipy; identities pin the triple to 1e-12.
    assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
    assert abs(dn * dn + 0.49 * sn * sn - 1.0) <= 1e-12


def test_sn_periodicity():
    for m in (0.3, 0.7, 0.95):
        period = 4.0 * ellipk(m)
        for s in (-2.2, 0.0, 0.9, 3.3):
            sn0, _, _ = jacobi_sn_cn_dn(s, m)
            sn1, _, _ = jacobi_sn_cn_dn(s + period, m)
            assert sn1 == pytest.approx(sn0, abs=1e-10)


def test_sn_limit_to_tanh_monotone():
    for s in (0.4, 1.1, 2.5):
        errs = [abs(jacobi_sn_cn_dn(s, m)[0] - math.tanh(s))
                for m in (0.9, 0.99, 0.999)]
        assert errs[0] > errs[1] > errs[2]


def test_jacobi_domain():
    with pytest.raises(DomainError):
        jacobi_sn_cn_dn(1.0, 1.2)
    with pytest.raises(DomainError):
        jacobi_sn_cn_dn(1.0, -0.1)


# ---------------------------------------------------------------------------
# Profiles.
# ---------------------------------------------------------------------------

SIGNATURES = {
    "rational": (2.0, 0.0),
    "tan": (2.0, 2.0),
    "sec": (2.0, -1.0),
    "coth": (2.0, -2.0),
    "csch": (2.0, 1.0),
}

SAMPLES = {
    "rational": (0.6, 1.4, -2.0),
    "tan": (0.0, 0.7, -0.9),
    "sec": (0.0, 0.7, -0.9),
    "coth": (0.6, 1.5, -2.2),
    "csch": (0.6, 1.5, -2.2),
    "sn": (0.0, 0.8, -1.7, 3.0),
    "cn": (0.0, 0.8, -1.7, 3.0),
    "dn": (0.0, 0.8, -1.7, 3.0),
}


def _profiles():
    for kind in PROFILE_KINDS:
        m = 0.6 if kind in ("sn", "cn", "dn") else None
        yield make_profile(kind, m)


def test_signature_table():
    for kind, (p, q) in SIGNATURES.items():
        prof = make_profile(kind)
        assert (prof.p, prof.q) == (p, q)
    m = 0.6
    assert make_profile("sn", m).p == pytest.approx(2.0 * m * m)
    assert make_profile("sn", m).q == pytest.approx(-(1.0 + m * m))
    assert make_profile("cn", m).p == pytest.approx(-2.0 * m * m)
    assert make_profile("cn", m).q == pytest.approx(2.0 * m * m - 1.0)
    assert make_profile("dn", m).p == -2.0
    assert make_profile("dn", m).q == pytest.approx(2.0 - m * m)


def test_cubic_signature_with_independent_second_derivative():
    h = 2e-3
    for prof in _profiles():
        for s in SAMPLES[prof.kind]:
            f = prof.value(s)
            d2 = fd2(prof.value, s, h)
            err = abs(d2 - (prof.p * f ** 3 + prof.q * f))
            assert err <= 1e-9 * (1.0 + abs(f) ** 3), (prof.kind, s, err)


def test_singularities_and_guard():
    tan = make_profile("tan")
    assert tan.pole_distance(math.pi / 2.0) <= 1e-12
    assert tan.pole_distance(0.0) == pytest.approx(math.pi / 2.0)
    assert tan.pole_distance(-3.0 * math.pi / 2.0) <= 1e-12
    coth = make_profile("coth")
    assert coth.pole_distance(0.0) == 0.0
    assert coth.pole_distance(5.0) == 5.0
    sn = make_profile("sn", 0.5)
    assert sn.pole_distance(123.4) == math.inf


def test_pole_distance_matches_ieee_remainder():
    # Nearest-pole distance on the lattice pi/2 + pi*Z, at negative
    # arguments and within a few ulps of half a spacing from a pole, where
    # a floor-mod would measure to the wrong pole.
    tan = make_profile("tan")
    offset, spacing = tan.singularities[0]
    near_half = [math.pi, -math.pi, 0.0, 2.0 * math.pi]
    s = [-7.3, -2.0, -1e-9, -3.0 * math.pi / 2.0 + 1e-6, 4.4]
    s += [math.nextafter(v, d) for v in near_half for d in (-math.inf,
                                                            math.inf)]
    s += near_half
    expect = [abs(math.remainder(v - offset, spacing)) for v in s]
    assert tan.pole_distance(np.array(s)).tolist() == expect
    assert [tan.pole_distance(v) for v in s] == expect


def test_periods():
    assert make_profile("tan").period() == pytest.approx(math.pi)
    assert make_profile("sec").period() == pytest.approx(2.0 * math.pi)
    m = 0.4
    assert make_profile("sn", m).period() == pytest.approx(4.0 * ellipk(m))
    assert make_profile("cn", m).period() == pytest.approx(4.0 * ellipk(m))
    assert make_profile("dn", m).period() == pytest.approx(2.0 * ellipk(m))
    assert make_profile("rational").period() is None
    assert make_profile("coth").period() is None


def test_make_profile_errors():
    with pytest.raises(ConfigError):
        make_profile("gaussian")
    with pytest.raises(DomainError):
        make_profile("sn", 1.0)
    with pytest.raises(DomainError):
        make_profile("cn", -0.2)
    with pytest.raises(DomainError):
        make_profile("dn")
