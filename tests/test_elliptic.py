import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from conftest import dispatch_target, fd2
from dsexact import ConfigError, ellipk
from dsexact.elliptic import ELLIPTIC_KINDS, PROFILE_KINDS, \
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
    with pytest.raises(ConfigError, match=r"^ellipk requires 0 <= m < 1"):
        ellipk(m)


def test_jacobi_origin():
    for m in (0.0, 0.3, 0.9):
        assert jacobi_sn_cn_dn(0.0, m) == (0.0, 1.0, 1.0)


@pytest.mark.parametrize("m", [0.0, 0.3, 0.6, 0.99, 1.0 - 1e-12])
def test_jacobi_tiny_arguments_are_exact(m):
    # (s, 1, 1) is exact below about 1e-153; the Landen unwinding divided
    # cn by sn there and returned NaN, or sn = 0 where c*s underflowed.
    tiny = [1e-155, 1e-200, 1e-300, 5e-324]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for s in tiny + [-s for s in tiny]:
            assert jacobi_sn_cn_dn(s, m) == (s, 1.0, 1.0)
        sn, cn, dn = jacobi_sn_cn_dn(np.array(tiny), m)
    assert sn.tolist() == tiny and cn.tolist() == dn.tolist() == [1.0] * 4


def test_jacobi_degenerate_modulus():
    # m=0 collapses to trigonometric functions.
    for s in (-1.1, 0.4, 2.8):
        sn, cn, dn = jacobi_sn_cn_dn(s, 0.0)
        assert sn == pytest.approx(math.sin(s), abs=1e-14)
        assert cn == pytest.approx(math.cos(s), abs=1e-14)
        assert dn == 1.0


def test_jacobi_identities_sweep():
    # nextafter(1, 0) takes the longest Landen descent, 8 steps.
    ms = [0.1 * k for k in range(10)] + [0.99, math.nextafter(1.0, 0.0)]
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


def test_jacobi_takes_a_list():
    s = [-1.0, 0.3, 2.0 ** -600, 4.2]
    for got, want in zip(jacobi_sn_cn_dn(s, 0.7),
                         jacobi_sn_cn_dn(np.array(s), 0.7)):
        assert np.array_equal(got, want)


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


# Each entry point that takes a modulus, and the name its ConfigError gives.
MODULUS_ENTRIES = {
    "ellipk": (ellipk, "ellipk"),
    "jacobi_sn_cn_dn": (lambda m: jacobi_sn_cn_dn(0.3, m), "jacobi_sn_cn_dn"),
    "make_profile": (lambda m: make_profile("cn", m), "profile 'cn'"),
}


@pytest.mark.parametrize("m", [1.0, 1.2, 1.5, -0.1, -0.2, math.nan, None])
@pytest.mark.parametrize("entry", MODULUS_ENTRIES)
def test_modulus_outside_its_domain_is_named(entry, m):
    # One domain, 0 <= m < 1, for every entry point: m = 1 (where K is
    # infinite) is refused, and so are NaN and a missing modulus.
    call, name = MODULUS_ENTRIES[entry]
    with pytest.raises(ConfigError, match=rf"^{re.escape(name)} requires "):
        call(m)


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
    offset, spacing = tan.pole
    near_half = [math.pi, -math.pi, 0.0, 2.0 * math.pi]
    s = [-7.3, -2.0, -1e-9, -3.0 * math.pi / 2.0 + 1e-6, 4.4]
    s += [math.nextafter(v, d) for v in near_half for d in (-math.inf,
                                                            math.inf)]
    s += near_half
    expect = [abs(math.remainder(v - offset, spacing)) for v in s]
    assert tan.pole_distance(np.array(s)).tolist() == expect
    assert [tan.pole_distance(v) for v in s] == expect


def test_make_profile_errors():
    with pytest.raises(ConfigError):
        make_profile("gaussian")
    with pytest.raises(ConfigError, match=r"^profile 'sn' requires 0 <= m"):
        make_profile("sn", 1.0)
    with pytest.raises(ConfigError, match=r"^profile 'cn' requires 0 <= m"):
        make_profile("cn", -0.2)
    with pytest.raises(ConfigError, match=r"^profile 'dn' requires 0 <= m"):
        make_profile("dn")


# Arguments for the pinned profile values: negative, large, near the pole
# at 0 (not nearer than 2^-500: below about 1e-154 jacobi_sn_cn_dn gives
# NaN), and within an ulp of the poles +-pi/2 and of +-pi, half a spacing
# from them.
PIN_S = [-40.0, -7.3, -2.0 ** -500, 2.0 ** -500, 0.5, 3.0, 700.0,
         math.nextafter(math.pi / 2.0, 0.0),
         math.nextafter(math.pi / 2.0, 4.0),
         math.nextafter(-math.pi / 2.0, 0.0), math.nextafter(math.pi, 0.0),
         math.nextafter(-math.pi, 0.0)]
# f(PIN_S) of each kind (m = 0.6 for the elliptic kinds), as float.hex,
# recorded before the kinds moved into one table.
PINNED_VALUES = {
    "rational": (
        "-0x1.999999999999ap-6", "-0x1.188c46231188cp-3",
        "-0x1.0000000000000p+500", "0x1.0000000000000p+500",
        "0x1.0000000000000p+1", "0x1.5555555555555p-2",
        "0x1.767dce434a9b1p-10", "0x1.45f306dc9c884p-1",
        "0x1.45f306dc9c882p-1", "-0x1.45f306dc9c884p-1",
        "0x1.45f306dc9c884p-2", "-0x1.45f306dc9c884p-2"),
    "tan": (
        "0x1.1e01cc36ebc8cp+0", "-0x1.9dd6f83006fb1p+0",
        "-0x1.0000000000000p-500", "0x1.0000000000000p-500",
        "0x1.17b4f5bf3474ap-1", "-0x1.23ef71254b86fp-3",
        "-0x1.4beaba1020051p-1", "0x1.9153d9443ed0bp+51",
        "-0x1.617a15494767ap+52", "-0x1.9153d9443ed0bp+51",
        "-0x1.469898cc51702p-51", "0x1.469898cc51702p-51"),
    "sec": (
        "-0x1.7fd7ff59ea164p+0", "0x1.e69ecc10697bfp+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.23b5dfbfd97b6p+0",
        "-0x1.02967b457b246p+0", "-0x1.311653935b2e4p+0",
        "0x1.9153d9443ed0bp+51", "-0x1.617a15494767bp+52",
        "0x1.9153d9443ed0bp+51", "-0x1.0000000000000p+0",
        "-0x1.0000000000000p+0"),
    "coth": (
        "-0x1.0000000000000p+0", "-0x1.00000f500a84ep+0",
        "-0x1.0000000000000p+500", "0x1.0000000000000p+500",
        "0x1.14fc6ceb099bep+1", "0x1.0145b3cc9964bp+0", "0x1.0000000000000p+0",
        "0x1.171ff596e026bp+0", "0x1.171ff596e026bp+0",
        "-0x1.171ff596e026bp+0", "0x1.00f53a37021e4p+0",
        "-0x1.00f53a37021e4p+0"),
    "csch": (
        "-0x1.39792499b1a24p-57", "-0x1.622d522a689bap-10",
        "-0x1.0000000000000p+500", "0x1.0000000000000p+500",
        "0x1.eb45dc88defedp+0", "0x1.98de80929b901p-4",
        "0x1.14f2b0fb9307fp-1009", "0x1.bcf75266a5c01p-2",
        "0x1.bcf75266a5bfep-2", "-0x1.bcf75266a5c01p-2",
        "0x1.62abb5fde0874p-4", "-0x1.62abb5fde0874p-4"),
    "sn": (
        "0x1.f43c672a5e53ap-1", "-0x1.2a26ca2764b43p-2",
        "-0x1.0000000000000p-500", "0x1.0000000000000p-500",
        "0x1.e4881698b5453p-2", "0x1.e5d5c29cf593ep-2",
        "-0x1.2e85ee4fe777dp-2", "0x1.faaec90732de0p-1",
        "0x1.faaec90732de0p-1", "-0x1.faaec90732de0p-1",
        "0x1.6609fe8b57e50p-2", "-0x1.6609fe8b57e50p-2"),
    "cn": (
        "-0x1.b47ebb1f620acp-3", "0x1.e9d11472435d4p-1",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.c30e452e8b93fp-1",
        "-0x1.c2b4817e771c1p-1", "0x1.e925688f35b33p-1",
        "0x1.2663cc0f3c071p-3", "0x1.2663cc0f3c062p-3", "0x1.2663cc0f3c071p-3",
        "-0x1.dfaee8dcc92f6p-1", "-0x1.dfaee8dcc92f6p-1"),
    "dn": (
        "0x1.9ecccca9788e5p-1", "0x1.f82061270b4c9p-1", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.eaeeb1cf72544p-1", "0x1.ead10323e04fep-1",
        "0x1.f7e45bf3fe5a7p-1", "0x1.9bf9349b8c46bp-1", "0x1.9bf9349b8c469p-1",
        "0x1.9bf9349b8c46bp-1", "0x1.f49b3a2cf141fp-1",
        "0x1.f49b3a2cf141fp-1"),
}
# The coth and csch rows where numpy runs cosh and sinh at their baseline
# loop: at s = -7.3 each value lies 1 ulp below the X86_V4 loop's.  A
# target without a table of its own reads PINNED_VALUES.
PINNED_VALUES_AT = {"baseline(X86_V2)": {
    "coth": (
        "-0x1.0000000000000p+0", "-0x1.00000f500a84dp+0",
        "-0x1.0000000000000p+500", "0x1.0000000000000p+500",
        "0x1.14fc6ceb099bep+1", "0x1.0145b3cc9964bp+0", "0x1.0000000000000p+0",
        "0x1.171ff596e026bp+0", "0x1.171ff596e026bp+0",
        "-0x1.171ff596e026bp+0", "0x1.00f53a37021e4p+0",
        "-0x1.00f53a37021e4p+0"),
    "csch": (
        "-0x1.39792499b1a24p-57", "-0x1.622d522a689b9p-10",
        "-0x1.0000000000000p+500", "0x1.0000000000000p+500",
        "0x1.eb45dc88defedp+0", "0x1.98de80929b901p-4",
        "0x1.14f2b0fb9307fp-1009", "0x1.bcf75266a5c01p-2",
        "0x1.bcf75266a5bfep-2", "-0x1.bcf75266a5c01p-2",
        "0x1.62abb5fde0874p-4", "-0x1.62abb5fde0874p-4"),
}}
# Distance to the nearest pole, for the single pole at 0 and for the
# lattice pi/2 + pi*Z.
PINNED_DISTANCES = {
    "0": (
        "0x1.4000000000000p+5", "0x1.d333333333333p+2",
        "0x1.0000000000000p-500", "0x1.0000000000000p-500",
        "0x1.0000000000000p-1", "0x1.8000000000000p+1", "0x1.5e00000000000p+9",
        "0x1.921fb54442d17p+0", "0x1.921fb54442d19p+0", "0x1.921fb54442d17p+0",
        "0x1.921fb54442d17p+1", "0x1.921fb54442d17p+1"),
    "pi/2+pi*Z": (
        "0x1.75ce98aaf3160p-1", "0x1.1ba37b1102960p-1", "0x1.921fb54442d18p+0",
        "0x1.921fb54442d18p+0", "0x1.121fb54442d18p+0", "0x1.6de04abbbd2e8p+0",
        "0x1.fdc3d0afb38c0p-1", "0x1.0000000000000p-52",
        "0x1.0000000000000p-52", "0x0.0p+0", "0x1.921fb54442d16p+0",
        "0x1.921fb54442d18p+0"),
}
POLES = {"rational": "0", "coth": "0", "csch": "0",
         "tan": "pi/2+pi*Z", "sec": "pi/2+pi*Z"}


@pytest.mark.parametrize("kind", PROFILE_KINDS)
def test_profile_values_and_pole_distances_are_pinned(kind):
    prof = make_profile(kind, 0.6 if kind in ELLIPTIC_KINDS else None)
    s = np.array(PIN_S)
    values = list(PINNED_VALUES_AT.get(dispatch_target("cosh"), {}).get(
        kind, PINNED_VALUES[kind]))
    assert [v.hex() for v in prof.value(s).tolist()] == values
    assert [float(prof.value(v)).hex() for v in PIN_S] == values
    distances = PINNED_DISTANCES.get(POLES.get(kind), ("inf",) * len(PIN_S))
    assert [v.hex() for v in prof.pole_distance(s).tolist()] == \
        list(distances)
    assert [float(prof.pole_distance(v)).hex() for v in PIN_S] == \
        list(distances)


# Exact algebra: a polynomial is {exponents: Fraction}, one exponent per
# symbol.  A proof names each symbol's primitive derivative rule (symbols
# past the rules, such as m, are constants) and the squares it rewrites.


def _add(*polys):
    out = {}
    for poly in polys:
        for e, c in poly.items():
            out[e] = out.get(e, 0) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def _mul(a, b):
    return _add(*({tuple(map(sum, zip(ea, eb))): ca * cb}
                  for ea, ca in a.items() for eb, cb in b.items()))


def _derivative(poly, rules):
    terms = []
    for e, c in poly.items():
        for i, rule in enumerate(rules):
            if e[i]:
                lower = tuple(k - (j == i) for j, k in enumerate(e))
                terms.append(_mul({lower: c * e[i]}, rule))
    return _add(*terms)


def _reduce(poly, squares):
    """Rewrite the square of symbol i as ``squares[i]`` until no such
    symbol is squared."""
    for e, c in poly.items():
        for i, square in squares.items():
            if e[i] >= 2:
                rest = {tuple(k - 2 * (j == i) for j, k in enumerate(e)): c}
                others = {k: v for k, v in poly.items() if k != e}
                return _reduce(_add(others, _mul(rest, square)), squares)
    return poly


def _remainder(f, p, q, rules, squares):
    """f'' - p f^3 - q f, reduced."""
    minus = {(0,) * len(next(iter(f))): -1}
    return _reduce(_add(_derivative(_derivative(f, rules), rules),
                        _mul(minus, _mul(p, _mul(f, _mul(f, f)))),
                        _mul(minus, _mul(q, f))), squares)


# Polynomials in (sn, cn, dn, m).
ONE, SN, CN, DN = (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)
# The primitive rules sn' = cn dn, cn' = -sn dn, dn' = -m^2 sn cn.
RULES = ({(0, 1, 1, 0): 1}, {(1, 0, 1, 0): -1}, {(1, 1, 0, 2): -1})
# cn^2 = 1 - sn^2 and dn^2 = 1 - m^2 sn^2.
SQUARES = {1: {ONE: 1, (2, 0, 0, 0): -1}, 2: {ONE: 1, (2, 0, 0, 2): -1}}
# f'' = p f^3 + q f with (p, q) polynomials in m, as elliptic's docstring.
EXACT_SIGNATURES = {
    "sn": (SN, {(0, 0, 0, 2): 2}, {ONE: -1, (0, 0, 0, 2): -1}),
    "cn": (CN, {(0, 0, 0, 2): -2}, {ONE: -1, (0, 0, 0, 2): 2}),
    "dn": (DN, {ONE: -2}, {ONE: 2, (0, 0, 0, 2): -1}),
}


def _elliptic_remainder(kind, rules=RULES):
    f, p, q = EXACT_SIGNATURES[kind]
    return _remainder({f: 1}, p, q, rules, SQUARES)


@pytest.mark.parametrize("kind", ELLIPTIC_KINDS)
def test_elliptic_signatures_are_exact_identities(kind):
    assert _elliptic_remainder(kind) == {}
    _, p, q = EXACT_SIGNATURES[kind]
    for m in (0.0, 0.3, 0.6, 0.9):
        prof = make_profile(kind, m)
        for got, poly in ((prof.p, p), (prof.q, q)):
            want = sum(c * Fraction(m) ** e[3] for e, c in poly.items())
            assert got == pytest.approx(float(want), rel=1e-15, abs=1e-15)


def test_a_slipped_dn_rule_leaves_a_remainder():
    # dn' = -m sn cn leaves m (m - 1) dn (1 - 2 sn^2).
    slipped = RULES[:2] + ({(1, 1, 0, 1): -1},)
    assert _elliptic_remainder("dn", slipped) == {
        (0, 0, 1, 2): 1, (0, 0, 1, 1): -1, (2, 0, 1, 1): 2, (2, 0, 1, 2): -2}


# The pole-bearing kinds: f's exponents, the primitive rules, the squares
# rewritten and the signature (p, q) proved; then a wrong rule set.
POLE_PROOFS = {
    # 1/s, f' = -f^2.  (f' = +f^2 gives the same f'', so f' = -2 f^2.)
    "rational": ((1,), ({(2,): -1},), {}, (2, 0), ({(2,): -2},)),
    # tan' = 1 + tan^2; wrong: 1 - tan^2.
    "tan": ((1,), ({(0,): 1, (2,): 1},), {}, (2, 2),
            ({(0,): 1, (2,): -1},)),
    # (sec, tan): sec' = sec tan, tan' = 1 + tan^2 with tan^2 = sec^2 - 1;
    # wrong: sec' = -sec tan.
    "sec": ((1, 0), ({(1, 1): 1}, {(0, 0): 1, (0, 2): 1}),
            {1: {(0, 0): -1, (2, 0): 1}}, (2, -1),
            ({(1, 1): -1}, {(0, 0): 1, (0, 2): 1})),
    # coth' = 1 - coth^2; wrong: 1 + coth^2.
    "coth": ((1,), ({(0,): 1, (2,): -1},), {}, (2, -2),
             ({(0,): 1, (2,): 1},)),
    # (csch, coth): csch' = -csch coth, coth' = 1 - coth^2 with
    # coth^2 = 1 + csch^2; wrong: csch' = csch coth.
    "csch": ((1, 0), ({(1, 1): -1}, {(0, 0): 1, (0, 2): -1}),
             {1: {(0, 0): 1, (2, 0): 1}}, (2, 1),
             ({(1, 1): 1}, {(0, 0): 1, (0, 2): -1})),
}


@pytest.mark.parametrize("kind", POLE_PROOFS)
def test_pole_signatures_are_exact_identities(kind):
    f, rules, squares, (p, q), wrong = POLE_PROOFS[kind]
    one = (0,) * len(f)
    signature = ({f: 1}, {one: p}, {one: q})
    assert _remainder(*signature, rules, squares) == {}
    assert _remainder(*signature, wrong, squares) != {}
    prof = make_profile(kind)
    assert (prof.p, prof.q) == (p, q)
