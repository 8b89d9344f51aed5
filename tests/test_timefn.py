import math
import random
import warnings

import numpy as np
import pytest

from conftest import fd1_o2, random_timefn
from dsexact import ConfigError, Jet, ParseError, parse_timefn
from dsexact.timefn import jet_arrays


def jet_tuple(j):
    return (j.f, j.d1, j.d2, j.d3)


# The refusal of every exponent but a whole number from -64 to 64.
EXPONENT_RULE = ("exponent must be a whole number from -64 to 64 "
                 "(write x^r for other r as exp(r*ln(x)))")


def test_identity():
    f = parse_timefn("t")
    assert jet_tuple(f.jet(3.5)) == (3.5, 1.0, 0.0, 0.0)


def test_exp_2t_jet_at_zero():
    j = parse_timefn("exp(2*t)").jet(0.0)
    assert jet_tuple(j) == pytest.approx((1.0, 2.0, 4.0, 8.0), abs=1e-14)


def test_square_jet():
    assert jet_tuple(parse_timefn("t^2").jet(3.0)) == (9.0, 6.0, 2.0, 0.0)


@pytest.mark.parametrize("expr, jet", [("t^3 - t^2", (0.0, 1.0, 4.0, 6.0)),
                                       ("t^2 - t^3", (0.0, -1.0, -4.0, -6.0))])
def test_difference_jet(expr, jet):
    # Each order of Jet.__sub__ subtracts, which kills its sign mutants: at
    # t = 1, d2 = 6 - 2, not 6 + 2, and d3 = 0 - 6 (t^3 - t^2 alone has a
    # d3 of 6 - 0 = 6 + 0).
    assert jet_tuple(parse_timefn(expr).jet(1.0)) == jet


def test_sin_jet_at_zero():
    j = parse_timefn("sin(t)").jet(0.0)
    assert jet_tuple(j) == pytest.approx((0.0, 1.0, 0.0, -1.0), abs=1e-15)


def test_ln_jet():
    # Hand differentiation: (ln t)' = 1/t, '' = -1/t^2, ''' = 2/t^3.
    j = parse_timefn("ln(t)").jet(2.0)
    assert jet_tuple(j) == pytest.approx(
        (math.log(2.0), 0.5, -0.25, 0.25), abs=1e-15)


def test_half_integer_power():
    # A power that is not whole is written exp(r*ln(x)).
    j = parse_timefn("exp(0.5*ln(t))").jet(4.0)
    assert jet_tuple(j) == pytest.approx(
        (2.0, 0.25, -1.0 / 32.0, 3.0 / 256.0), rel=1e-14)
    j = parse_timefn("exp(1.5*ln(t))").jet(4.0)
    assert j.f == pytest.approx(8.0)
    assert j.d1 == pytest.approx(3.0)


def test_half_integer_power_of_a_base_below_one():
    # Only a base <= 0 is outside ln's domain, not a base <= 1.
    j, ok = jet_arrays(parse_timefn("exp(0.5*ln(t))"), [0.25, 1.0])
    assert ok.tolist() == [True, True]
    assert np.stack(jet_tuple(j)) == pytest.approx(np.array(
        [[0.5, 1.0], [1.0, 0.5], [-2.0, -0.25], [12.0, 0.375]]), rel=1e-14)


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
    # An exponent is one number token after at most one minus sign.
    for refused in ("t^(1/0)", "t^ln(0-1)", "t^0.5", "t^(1/2)", "t^(2*3)",
                    "t^+2", "t^--2"):
        with pytest.raises(ParseError) as err:
            parse_timefn(refused)
        assert err.value.position == 1


# Scanner edge cases: the jet at t = 2 (every entry exact), or the
# ParseError text and position.  A valid row's id spells its parse as a
# tree.  An exponent is one number token, so a chain such as 2^3^2 is
# refused at its first '^'.
# A number is digits and dots with an exponent only where digits follow it;
# '²' and '½' are numeric but not decimal digits, so they scan as names.
SCANNER_CASES = [
    pytest.param("1.", (1.0, 0.0, 0.0, 0.0), id="1.-1.0"),
    pytest.param(".5", (0.5, 0.0, 0.0, 0.0), id=".5-0.5"),
    ("1e", ("unexpected 'e' at position 1", 1)),
    ("1e+", ("unexpected 'e' at position 1", 1)),
    pytest.param("1e+5", (1e5, 0.0, 0.0, 0.0), id="1e+5-100000.0"),
    ("1.2.3", ("bad number '1.2.3' at position 0", 0)),
    ("1e5e5", ("unexpected 'e5' at position 3", 3)),
    ("2t", ("unexpected 't' at position 1", 1)),
    ("t2", ("unknown identifier 't2' at position 0", 0)),
    ("_t", ("unknown identifier '_t' at position 0", 0)),
    pytest.param("\tt *\n2 ", (4.0, 2.0, 0.0, 0.0), id="\tt *\n2 -(t*2.0)"),
    ("$", ("unexpected character '$' at position 0", 0)),
    ("tanh(t)", ("unknown identifier 'tanh' at position 0", 0)),
    pytest.param("t^ -2", (0.25, -0.25, 0.375, -0.75), id="t^ -2-(t^-2)"),
    ("2^3^2", (f"{EXPONENT_RULE} at position 1", 1)),
    ("t^t", (f"{EXPONENT_RULE} at position 1", 1)),
    ("\u00b2", ("unknown identifier '\u00b2' at position 0", 0)),
    ("1\u00b2", ("unexpected '\u00b2' at position 1", 1)),
    ("\u00bd", ("unknown identifier '\u00bd' at position 0", 0)),
    pytest.param("-t", (-2.0, -1.0, 0.0, 0.0), id="-t--(t)"),
    (")", ("unexpected ')' at position 0", 0)),
    ("t+)", ("unexpected ')' at position 2", 2)),
    # The text past the last token is named, not printed as its value.
    ("sin(t", ("expected ')', found end of input at position 5", 5)),
    pytest.param("+t", (2.0, 1.0, 0.0, 0.0), id="+t-t"),
    pytest.param("2*+t", (4.0, 2.0, 0.0, 0.0), id="2*+t-(2.0*t)"),
    ("2*", ("unexpected end of input at position 2", 2)),
    # A number past the double range is refused where it stands; one that
    # underflows is 0, as in JSON.  An exponent keeps its own message.
    ("1e400*t", ("number past the double range at position 0", 0)),
    ("t-2*1e309", ("number past the double range at position 4", 4)),
    pytest.param("1e-400*t", (0.0, 0.0, 0.0, 0.0), id="1e-400*t-(0.0*t)"),
]


@pytest.mark.parametrize("text, expect", SCANNER_CASES)
def test_scanner_edge_cases(text, expect):
    try:
        got = jet_tuple(parse_timefn(text).jet(2.0))
    except ParseError as err:
        got = (str(err), err.position)
    assert got == expect


def test_exponent_magnitude_is_bounded():
    # A power is |n| jet products: unbounded, t^1e9 would not finish.  An
    # exponent is one number token, so a computed one is refused unread.
    assert jet_tuple(parse_timefn("t^-64").jet(2.0)) == (
        2.0 ** -64, -64 * 2.0 ** -65, 64 * 65 * 2.0 ** -66,
        -64 * 65 * 66 * 2.0 ** -67)
    cases = [("t^65", 1), ("t^-64.5", 1), ("t^1e6", 1), ("2^(10^9)", 1),
             ("t^(2^100)", 1), ("sin(t)^ -65", 6)]
    for text, position in cases:
        with pytest.raises(ParseError) as err:
            parse_timefn(text)
        assert str(err.value) == f"{EXPONENT_RULE} at position {position}"


def test_whitespace_insensitive():
    a = parse_timefn("1+2*t^2")
    b = parse_timefn("  1 + 2 * t ^ 2 ")
    for t in (-1.0, 0.0, 2.5):
        assert a.jet(t) == b.jet(t)


def test_domain_errors_carry_subexpression():
    # The failing subexpression is named as it is written in the source.
    cases = [
        ("ln(t-3)", 1.0, "ln of non-positive value in 'ln(t-3)' at t=1.0"),
        ("1/(t-2)", 2.0, "division by zero in '1/(t-2)' at t=2.0"),
        ("exp(0.5*ln(t-5))", 1.0, "ln of non-positive value in "
                                  "'ln(t-5)' at t=1.0"),
        ("1 + 3*t^-2", 0.0, "division by zero in 't^-2' at t=0.0"),
        ("2 * ln( t-3 ) ", 1.0,
         "ln of non-positive value in 'ln( t-3 )' at t=1.0"),
    ]
    for text, t, message in cases:
        with pytest.raises(ConfigError) as err:
            parse_timefn(text).jet(t)
        assert str(err.value) == message


# Expressions of more than 200 tokens, each deep enough, unbounded, to
# exhaust Python's recursion limit: nested parentheses, a '+' chain
# (iterative to parse but left-deep to walk), unary minuses and a '^1'
# chain.  The 201st token is at character 200 in each.
TOO_LONG = ["(" * 2000 + "t" + ")" * 2000, "+".join(["t"] * 20000),
            "-" * 5000 + "t", "t" + "^1" * 3000]


@pytest.mark.parametrize("text", TOO_LONG, ids=["paren", "plus", "neg", "pow"])
def test_expression_length_is_bounded(text):
    with pytest.raises(ParseError, match="longer than 200 tokens") as err:
        parse_timefn(text)
    assert err.value.position == 200


def _deep(depth, f, *args):
    """f(*args) called from ``depth`` extra stack frames."""
    return f(*args) if depth == 0 else _deep(depth - 1, f, *args)


# 200-token worst cases of each nesting, and the value of each at t = 2.
# A power's base is an atom, so powers nest through parentheses.
LONGEST = [("(" * 99 + "-t" + ")" * 99, -2.0),
           ("-" + "+".join(["t"] * 100), 196.0),
           ("-" * 199 + "t", -2.0),
           ("-" + "sin(" * 66 + "t" + ")" * 66, None),
           ("(" * 49 + "-t" + "^1)" * 49, -2.0)]


@pytest.mark.parametrize("text, value", LONGEST,
                         ids=["paren", "plus", "neg", "sin", "pow"])
def test_longest_expressions_parse_and_walk_on_a_deep_stack(text, value):
    f = _deep(400, parse_timefn, text)
    j, ok = _deep(400, jet_arrays, f, np.array([2.0]))
    assert ok.all()
    if value is not None:
        assert j.f[0] == value


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


# ---------------------------------------------------------------------------
# Array jets against the scalar jet, point by point.
# ---------------------------------------------------------------------------

# Trees of + - * / and integer powers only: their array jets must equal the
# scalar jets bit for bit.
ALGEBRAIC = ["1/(t-2)", "t^-2+3*t", "(1+t^2)/(t-0.5)", "t^3-2*t*t+0.25",
             "-(t-1)^4/(t+3)"]
# Hand trees that fail somewhere on the test points, by name: a power
# that is not whole is named as a power and written exp(r*ln(x)).
FAILING = {"ln(t-3)": "ln(t-3)", "1/(t-2)": "1/(t-2)",
           "(t-5)^(1/2)": "exp(0.5*ln(t-5))",
           "sin(t)/(t-0.5)": "sin(t)/(t-0.5)",
           "t^(3/2)+ln(t)": "exp(1.5*ln(t))+ln(t)"}
# A tree that fails on both sides of the test points: at t <= -0.1 and at
# t >= 2.1.
BOUNDED = "ln(t+0.1)+ln(2.1-t)"
T_POINTS = np.array([-1.3, 0.0, 0.2, 0.5, 1.1, 2.0, 3.0, 3.5, 5.0, 6.25])


def _scalar_reference(f, t):
    """Per-point scalar jets: (values, ok) with NaN where f.jet raises."""
    flat = np.ravel(t)
    values = np.full((4, flat.size), np.nan)
    ok = np.zeros(flat.size, dtype=bool)
    for i, ti in enumerate(flat.tolist()):
        try:
            values[:, i] = jet_tuple(f.jet(ti))
        except ConfigError as err:
            assert str(err).endswith(f" at t={ti}")
            continue
        ok[i] = True
    return values.reshape((4,) + np.shape(t)), ok.reshape(np.shape(t))


def _array_cases():
    rng = random.Random(20261018)
    trees = [(src, parse_timefn(src)) for src in ALGEBRAIC]
    trees += [(name, parse_timefn(src)) for name, src in FAILING.items()]
    trees.append((BOUNDED, parse_timefn(BOUNDED)))
    trees += [(f"random {k}", random_timefn(rng)) for k in range(12)]
    return trees


@pytest.mark.parametrize("name, f", _array_cases())
@pytest.mark.parametrize("shape", [(), (10,), (2, 5)])
def test_array_jets_match_scalar_jets(name, f, shape):
    t = T_POINTS[:1].reshape(()) if shape == () else T_POINTS.reshape(shape)
    if shape == () and name in FAILING:
        t = np.array(2.0 if name == "1/(t-2)" else 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j, ok = jet_arrays(f, t)
    values, expect_ok = _scalar_reference(f, t)
    assert ok.shape == np.shape(t) and ok.dtype == bool
    assert np.array_equal(ok, expect_ok), name
    got = np.stack([j.f, j.d1, j.d2, j.d3])
    assert got.shape == (4,) + np.shape(t)
    assert np.isnan(got[:, ~ok]).all()
    if name in ALGEBRAIC:
        assert np.array_equal(got, values, equal_nan=True), name
    else:
        scale = np.maximum(np.abs(values[:, ok]), 1e-300)
        assert (np.abs(got[:, ok] - values[:, ok]) <= 1e-15 * scale).all()


@pytest.mark.parametrize("name, f", _array_cases())
def test_array_jets_at_one_repeated_time(name, f):
    # A grid sampled at one time: every entry equals the scalar jet there.
    for t0 in T_POINTS.tolist():
        j, ok = jet_arrays(f, np.full((2, 3), t0))
        values, expect_ok = _scalar_reference(f, np.array([t0]))
        assert ok.shape == (2, 3) and (ok == expect_ok[0]).all(), (name, t0)
        got = np.stack([j.f, j.d1, j.d2, j.d3]).reshape(4, -1)
        assert np.array_equal(got, np.repeat(values, 6, axis=1),
                              equal_nan=True), (name, t0)


def test_failing_points_are_where_the_scalar_jet_raises():
    # The fixtures above must actually fail somewhere, and pass elsewhere.
    for src in FAILING.values():
        _, ok = jet_arrays(parse_timefn(src), T_POINTS)
        assert ok.any() and not ok.all(), src
    _, ok = jet_arrays(parse_timefn(BOUNDED), T_POINTS)
    assert ok.tolist() == [(-0.1 < t < 2.1) for t in T_POINTS.tolist()]


def test_overflowing_jet_is_invalid_not_an_error():
    f = parse_timefn("0.1*exp(t)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j, ok = jet_arrays(f, np.array([0.2, 800.0]))
    assert ok.tolist() == [True, False]
    assert math.isfinite(j.f[0]) and math.isnan(j.f[1])
    assert f.jet(800.0).f == math.inf  # the scalar jet reports the overflow


def test_overflowing_exponent_is_a_parse_error():
    for text in ("t^(2^2000)", "t^exp(1000)", "t^1e999"):
        with pytest.raises(ParseError) as err:
            parse_timefn(text)
        assert str(err.value) == f"{EXPONENT_RULE} at position 1"


def test_array_jets_are_read_only():
    j, ok = jet_arrays(parse_timefn("t^2"), np.array([0.5, 1.5]))
    for a in (j.f, j.d1, j.d2, j.d3, ok):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
