import math
import random

import pytest

from conftest import fd1_o2, random_timefn
from dsexact import DomainError, Jet, ParseError, constant, parse_timefn


def jet_tuple(j):
    return (j.f, j.d1, j.d2, j.d3)


def test_identity():
    f = parse_timefn("t")
    assert jet_tuple(f.jet(3.5)) == (3.5, 1.0, 0.0, 0.0)


def test_exp_2t_jet_at_zero():
    j = parse_timefn("exp(2*t)").jet(0.0)
    assert jet_tuple(j) == pytest.approx((1.0, 2.0, 4.0, 8.0), abs=1e-14)


def test_square_jet():
    assert jet_tuple(parse_timefn("t^2").jet(3.0)) == (9.0, 6.0, 2.0, 0.0)


def test_sin_jet_at_zero():
    j = parse_timefn("sin(t)").jet(0.0)
    assert jet_tuple(j) == pytest.approx((0.0, 1.0, 0.0, -1.0), abs=1e-15)


def test_ln_jet():
    # Hand differentiation: (ln t)' = 1/t, '' = -1/t^2, ''' = 2/t^3.
    j = parse_timefn("ln(t)").jet(2.0)
    assert jet_tuple(j) == pytest.approx(
        (math.log(2.0), 0.5, -0.25, 0.25), abs=1e-15)


def test_half_integer_power():
    j = parse_timefn("t^(1/2)").jet(4.0)
    assert jet_tuple(j) == pytest.approx(
        (2.0, 0.25, -1.0 / 32.0, 3.0 / 256.0), rel=1e-14)
    j = parse_timefn("t^1.5").jet(4.0)
    assert j.f == pytest.approx(8.0)
    assert j.d1 == pytest.approx(3.0)


def test_negative_power():
    j = parse_timefn("t^-2").jet(2.0)
    assert jet_tuple(j) == pytest.approx(
        (0.25, -0.25, 0.375, -0.75), rel=1e-14)


def test_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_timefn("ln(")
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse_timefn("2*+")
    with pytest.raises(ParseError):
        parse_timefn("theta(t)")
    with pytest.raises(ParseError):
        parse_timefn("tanh(t)")
    with pytest.raises(ParseError):
        parse_timefn("t^0.3")
    with pytest.raises(ParseError):
        parse_timefn("t^t")
    with pytest.raises(ParseError):
        parse_timefn("(1+2")


def test_whitespace_insensitive():
    a = parse_timefn("1+2*t^2")
    b = parse_timefn("  1 + 2 * t ^ 2 ")
    for t in (-1.0, 0.0, 2.5):
        assert a.jet(t) == b.jet(t)


def test_domain_errors_carry_subexpression():
    with pytest.raises(DomainError) as err:
        parse_timefn("ln(t-3)").jet(1.0)
    assert "ln" in str(err.value)
    with pytest.raises(DomainError):
        parse_timefn("1/(t-2)").jet(2.0)
    with pytest.raises(DomainError):
        parse_timefn("(t-5)^(1/2)").jet(1.0)


def test_validity_interval():
    f = parse_timefn("t^2", domain=(0.0, 1.0))
    assert f.jet(0.5).f == 0.25
    with pytest.raises(DomainError):
        f.jet(2.0)
    with pytest.raises(DomainError):
        f.jet(-0.1)


def test_combinators():
    f = parse_timefn("sin(t)")
    g = 2.0 * f + constant(1.0)
    t = 0.7
    assert g.jet(t).f == pytest.approx(2.0 * math.sin(t) + 1.0)
    assert g.jet(t).d1 == pytest.approx(2.0 * math.cos(t))
    assert constant(3.0).is_constant()
    assert not g.is_constant()


def test_product_rule_is_exact_at_representation_level():
    lhs = parse_timefn("(1+t^2)*sin(t)")
    f = parse_timefn("1+t^2")
    g = parse_timefn("sin(t)")
    for t in (-2.0, 0.0, 0.9, 3.7):
        jf, jg = f.jet(t), g.jet(t)
        leibniz = Jet(
            jf.f * jg.f,
            jf.d1 * jg.f + jf.f * jg.d1,
            jf.d2 * jg.f + 2.0 * jf.d1 * jg.d1 + jf.f * jg.d2,
            jf.d3 * jg.f + 3.0 * jf.d2 * jg.d1 + 3.0 * jf.d1 * jg.d2
            + jf.f * jg.d3)
        assert lhs.jet(t) == leibniz  # bitwise, not approximate


def test_random_trees_against_finite_differences():
    # Each jet entry must match a central difference of the entry above it.
    rng = random.Random(20260810)
    h = 1e-5
    checked = 0
    for _ in range(40):
        f = random_timefn(rng)
        for t in (-1.3, 0.2, 1.1):
            j = f.jet(t)
            levels = ((lambda s: f.jet(s).f, j.d1),
                      (lambda s: f.jet(s).d1, j.d2),
                      (lambda s: f.jet(s).d2, j.d3))
            for func, expect in levels:
                approx = fd1_o2(func, t, h)
                assert abs(approx - expect) <= 1e-6 * (1.0 + abs(expect))
                checked += 1
    assert checked == 360
