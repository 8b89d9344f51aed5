import cmath
import dataclasses
import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from conftest import mutant
from dsexact import ConfigError, EmptySampleError, TransformSpec, \
    TimeFunction, Variant, catalog, compose, ellipk, eval_solution, \
    family_a, family_b, family_c, parse_timefn, verify
from dsexact.elliptic import Profile, jacobi_sn_cn_dn
from dsexact.evolve import make_field
from dsexact.selftest import default_verification_matrix


def test_variant_validation():
    Variant(1, -1)
    with pytest.raises(ConfigError):
        Variant(0, 1)
    with pytest.raises(ConfigError):
        Variant(1, 2)
    # A float sign once passed and then broke family C's own error text
    # (":+d" of a float) with a ValueError.
    for signs in [(1.0, 1), (-1, -1.0), (True, 1), (1, np.True_), ("1", 1)]:
        with pytest.raises(ConfigError, match="integers"):
            Variant(*signs)
    assert Variant(np.int64(-1), np.int8(1)) == Variant(-1, 1)


# ---------------------------------------------------------------------------
# Family A.
# ---------------------------------------------------------------------------

def test_family_a_linear_im_closed_form():
    # Im = t gives u = c exp(i (x^2 - e1 y^2)/2), v = -(e1 x^2+y^2)/2 - e2 c^2.
    rng = random.Random(5)
    c = 1.3
    for eps1 in (1, -1):
        for eps2 in (1, -1):
            sol = family_a(Variant(eps1, eps2), parse_timefn("t"), c)
            for _ in range(20):
                t = rng.uniform(-1.0, 2.0)
                x = rng.uniform(-2.0, 2.0)
                y = rng.uniform(-2.0, 2.0)
                u_ref = c * cmath.exp(1j * (x * x - eps1 * y * y) / 2.0)
                v_ref = -(eps1 * x * x + y * y) / 2.0 - eps2 * c * c
                assert abs(sol.u(t, x, y) - u_ref) <= 1e-12
                assert abs(sol.v(t, x, y) - v_ref) <= 1e-12


def test_family_a_log_im_spot_values():
    sol = family_a(Variant(1, 1), parse_timefn("ln(t)"), 1.0)
    # amplitude c*sqrt(Im') = 1/sqrt(2) at t=2
    assert abs(sol.u(2.0, 0.7, -0.4)) == pytest.approx(1.0 / math.sqrt(2.0),
                                                       rel=1e-13)
    # quadratic coefficient of v is -3/32 at t=2
    quad = sol.v(2.0, 1.0, 0.0) - sol.v(2.0, 0.0, 0.0)
    assert quad == pytest.approx(-3.0 / 32.0, rel=1e-12)


def test_family_a_phase_matches_closed_form():
    # The phase must equal [(2 Im'^2 - e1 Im'') x^2 - (2 e1 Im'^2 + Im'') y^2]
    # / (4 Im') for any driving function; checked for three of them.
    for src, ts in (("t", (0.5, 1.2)), ("ln(t)", (0.7, 1.6)),
                    ("exp(t)", (-0.5, 0.4))):
        im = parse_timefn(src)
        for eps1 in (1, -1):
            sol = family_a(Variant(eps1, 1), im, 1.0)
            for t in ts:
                j = im.jet(t)
                for (x, y) in ((0.8, -0.6), (1.5, 0.9)):
                    phase_ref = ((2.0 * j.d1 ** 2 - eps1 * j.d2) * x * x
                                 - (2.0 * eps1 * j.d1 ** 2 + j.d2) * y * y) \
                        / (4.0 * j.d1)
                    u = sol.u(t, x, y)
                    expect = abs(u) * cmath.exp(1j * phase_ref)
                    assert abs(u - expect) <= 1e-12 * (1.0 + abs(u))


def test_family_a_zero_amplitude():
    sol = family_a(Variant(-1, 1), parse_timefn("t"), 0.0)
    assert sol.u(0.3, 1.0, 2.0) == 0.0
    assert sol.v(0.3, 1.0, 2.0) == pytest.approx(-(-1.0 + 4.0) / 2.0)


def test_family_a_validity():
    sol = family_a(Variant(1, 1), parse_timefn("ln(t)"), 1.0)
    assert sol.valid(1.0, 0.0, 0.0)
    assert not sol.valid(-1.0, 0.0, 0.0)  # ln undefined
    u, v, ok = eval_solution(sol, -1.0, 0.0, 0.0)
    assert not ok and math.isnan(v)
    # decreasing Im: slope negative everywhere
    falling = family_a(Variant(1, 1), parse_timefn("0-t"), 1.0)
    assert not falling.valid(0.5, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Family B.
# ---------------------------------------------------------------------------

def test_family_b_preconditions():
    beta = parse_timefn("0")
    with pytest.raises(ConfigError, match=r"^family B requires eps1 = \+1"):
        family_b(Variant(-1, 1), 1.0, 1.0, 0.0, beta)
    with pytest.raises(ConfigError, match=r"^family B needs a\*b != 0"):
        family_b(Variant(1, 1), 0.0, 1.0, 0.0, beta)
    with pytest.raises(ConfigError, match=r"^family B needs a\*b != 0"):
        family_b(Variant(1, 1), 1.0, 0.0, 0.0, beta)
    with pytest.raises(ConfigError, match=r"^family B existence condition "
                                          r"requires eps2 = \+1"):
        family_b(Variant(1, -1), 1.0, 1.0, 0.0, beta)


def test_family_b_existence_constant():
    # Im is forced, so it is derived, not a parameter of the config.
    sol = family_b(Variant(1, 1), 1.0, 1.0, 0.5, parse_timefn("0"))
    assert sol.derived == {"Im": pytest.approx(math.log(3.0) / 4.0)}
    sol2 = family_b(Variant(1, 1), 2.0, -1.0, 0.0, parse_timefn("0"))
    assert sol2.derived == {"Im": pytest.approx(math.log(12.0) / 4.0)}
    assert sol2.provenance["params"] == {"a": 2.0, "b": -1.0, "c": 0.0,
                                         "beta": "0"}


@pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.5, 0.3)])
def test_family_b_passes_at_b_not_one(a, b):
    # At |b| = 1, 3 a^2 / b^2 equals 3 a^2 * b^2 and v_yy's b * b equals
    # b / b; here both mutants fail (3 a^2 * b^2 with rms2 1.8 and 72).
    sol = family_b(Variant(1, 1), a, b, 0.5, parse_timefn("0.1*t"))
    pts = [(0.2, 0.3 * i, 0.3 * j) for i in range(-2, 3) for j in range(-2, 3)]
    assert verify(sol, pts).passed


def test_family_b_zero_offset_has_zero_at_origin():
    sol = family_b(Variant(1, 1), 1.5, -0.7, 0.0, parse_timefn("0.2*t"))
    for t in (0.0, 0.4, 1.1):
        assert abs(sol.u(t, 0.0, 0.0)) == 0.0


def test_family_b_linear_in_space():
    # u / exp(i*phase) is affine in (x, y) at fixed t.
    sol = family_b(Variant(1, 1), 1.0, 2.0, 0.3, parse_timefn("0.1*t"))
    t = 0.5
    u00 = sol.u(t, 0.0, 0.0)
    ux = sol.u(t, 1.0, 0.0)
    uy = sol.u(t, 0.0, 1.0)
    uxy = sol.u(t, 1.0, 1.0)
    # strip the quadratic phase before testing affinity
    bp = parse_timefn("0.1*t").jet(t).d1
    def strip(u, x, y):
        return u * cmath.exp(-1j * bp * (x * x + y * y))
    lhs = strip(uxy, 1.0, 1.0) - strip(ux, 1.0, 0.0) \
        - strip(uy, 0.0, 1.0) + strip(u00, 0.0, 0.0)
    assert abs(lhs) <= 1e-13


# ---------------------------------------------------------------------------
# Family C.
# ---------------------------------------------------------------------------

def test_family_c_sn_line_at_quarter_turn():
    # eps1=-1, ell=pi/2: u = m sn(x), v = (1+m^2)/2 - 2 m^2 sn(x)^2.
    m = 0.5
    sol = family_c(Variant(-1, 1), "sn", m, math.pi / 2.0, 0.0,
                   parse_timefn("0"))
    for x in (-2.0, -0.3, 0.0, 0.9, 2.7):
        for y in (-1.0, 0.5):
            sn = jacobi_sn_cn_dn(x, m)[0]
            assert sol.u(0.0, x, y) == pytest.approx(m * sn, abs=1e-12)
            assert sol.v(0.0, x, y) == pytest.approx(
                (1.0 + m * m) / 2.0 - 2.0 * m * m * sn * sn, abs=1e-12)
    u, v, ok = eval_solution(sol, 0.0, 0.0, 1.3)
    assert ok
    assert abs(u) <= 1e-12  # sn(0) = 0 up to the float cos(pi/2)
    assert v == pytest.approx((1.0 + m * m) / 2.0, abs=1e-12)


def test_family_c_sn_line_axis_aligned():
    # eps1=-1, ell=0: u = m sn(y), v = -(1+m^2)/2, stationary, x-independent.
    m = 0.7
    sol = family_c(Variant(-1, 1), "sn", m, 0.0, 0.0, parse_timefn("0"))
    for y in (-1.1, 0.4, 2.0):
        sn = jacobi_sn_cn_dn(y, m)[0]
        assert sol.u(0.0, -0.8, y) == pytest.approx(m * sn, abs=1e-12)
        assert sol.u(0.0, 1.7, y) == sol.u(0.0, -0.8, y)
        assert sol.v(0.3, 0.0, y) == pytest.approx(-(1.0 + m * m) / 2.0)


def test_family_c_dn_no_real_amplitude():
    with pytest.raises(ConfigError, match=r"^amplitude\^2 = .* < 0"):
        family_c(Variant(-1, 1), "dn", 0.5, 0.0, 0.0, parse_timefn("0"))


def test_family_c_pole_guard():
    sol = family_c(Variant(-1, 1), "tan", None, math.pi / 2.0, 0.0,
                   parse_timefn("0"))
    # ell=pi/2 puts the argument at x; the pole sits at x = pi/2
    assert not sol.valid(0.0, math.pi / 2.0, 0.0)
    assert sol.valid(0.0, 0.3, 0.0)
    u, v, ok = eval_solution(sol, 0.0, math.pi / 2.0, 0.0)
    assert not ok and math.isnan(v)


def test_family_c_time_independent_when_beta_constant():
    sol = family_c(Variant(-1, -1), "cn", 0.4, 0.2, 0.1, parse_timefn("2"))
    for (x, y) in ((0.3, -0.9), (1.4, 0.2)):
        assert sol.u(0.0, x, y) == sol.u(5.0, x, y)
        assert sol.v(0.0, x, y) == sol.v(5.0, x, y)


def test_family_c_negated_amplitude_is_still_exact():
    # u -> -u is a symmetry; the sign of the matched root is a convention.
    from dsexact import verify
    base = family_c(Variant(-1, 1), "sn", 0.6, 0.4, 0.3, parse_timefn("0.1*t"))
    flipped = mutant(base, amplitude=-base.derived["amplitude"])
    pts = [(0.2, 0.3 * i, 0.3 * j) for i in range(-2, 3) for j in range(-2, 3)]
    assert verify(base, pts).passed
    assert verify(flipped, pts).passed


@pytest.mark.parametrize("family, keys", [
    (lambda: family_a(Variant(np.int64(1), 1), parse_timefn("t"),
                      np.int64(2)), ["c"]),
    (lambda: family_b(Variant(1, 1), np.int64(1), 2, np.int64(0),
                      parse_timefn("0")), ["a", "b", "c"]),
    (lambda: family_c(Variant(-1, 1), "sn", 0.5, np.int64(0), 1,
                      parse_timefn("0")), ["ell", "ell1"]),
], ids=["A", "B", "C"])
def test_provenance_numbers_are_floats(family, keys):
    # Integer parameters, numpy's too, are recorded as Python floats, and
    # signs as Python ints, so a provenance is JSON as it stands.
    sol = family()
    params = sol.provenance["params"]
    assert all(type(params[key]) is float for key in keys)
    assert all(type(e) is int for e in sol.provenance["variant"].values())
    assert all(type(value) is float for value in sol.derived.values())
    json.dumps(sol.provenance)
    json.dumps(sol.derived)


def test_provenance_records_parameters():
    # The provenance is the config that names the solution, as cli reads
    # it: the signs under "variant", the parameters under "params", an m
    # for the elliptic kinds alone, and no constant that a family computes.
    zero = parse_timefn("0")
    assert family_a(Variant(-1, 1), parse_timefn("ln(t)"), 2.0).provenance \
        == {"variant": {"eps1": -1, "eps2": 1}, "family": "A",
            "params": {"Im": "ln(t)", "c": 2.0}}
    assert family_b(Variant(1, 1), 1.0, 2.0, 0.5, zero).provenance == {
        "variant": {"eps1": 1, "eps2": 1}, "family": "B",
        "params": {"a": 1.0, "b": 2.0, "c": 0.5, "beta": "0"}}
    sol = family_c(Variant(1, 1), "csch", None, 0.3, 2.5, zero)
    assert sol.provenance == {
        "variant": {"eps1": 1, "eps2": 1}, "family": "C",
        "params": {"kind": "csch", "ell": 0.3, "ell1": 2.5, "beta": "0"}}
    assert set(sol.derived) == {"amplitude", "v_constant", "v_quad_coeff"}
    sol = family_c(Variant(-1, 1), "sn", 0.5, 0.4, 0.0, zero)
    assert sol.provenance["params"] == {"kind": "sn", "m": 0.5, "ell": 0.4,
                                        "ell1": 0.0, "beta": "0"}
    assert family_a(Variant(1, 1), parse_timefn("t"), 1.0).derived == {}


# ---------------------------------------------------------------------------
# Array contract of eval_solution.
# ---------------------------------------------------------------------------

def _contract_cases():
    """(name, solution, x of a pole on y=0 as a function of t or None,
    a time where a time function of the solution fails: ln(2 - t) at
    t >= 2)."""
    beta = parse_timefn("0.1*ln(2 - t)")
    yield ("A", family_a(Variant(1, 1), parse_timefn("t - ln(2 - t)"), 1.0),
           None, 2.5)
    yield "B", family_b(Variant(1, 1), 1.0, 1.0, 0.5, beta), None, 2.5
    yield "C-sn", family_c(Variant(-1, 1), "sn", 0.5, 0.4, 0.3, beta), \
        None, 2.5
    yield ("C-tan",
           family_c(Variant(-1, 1), "tan", None, math.pi / 2.0, 0.0, beta),
           lambda t: math.pi / 2.0 * abs(2.0 - t) ** 0.2, 2.5)  # abs: t_out
    yield ("C-rational",
           family_c(Variant(1, 1), "rational", None, 0.3, 0.0, beta),
           lambda t: 0.0, 2.5)
    # T1 then T2 (b=1.5) over a tan line: the T1 phase fails at t >= 2,
    # reached at t = 4.5 after the scaling.
    chain = compose(
        [TransformSpec("T1", alpha=parse_timefn("0.3*sin(t)"),
                       beta=parse_timefn("0.1*t"),
                       gamma=parse_timefn("t^2 + ln(2 - t)")),
         TransformSpec("T2", b=1.5)],
        family_c(Variant(-1, 1), "tan", None, math.pi / 2.0, 0.0,
                 parse_timefn("0")))
    yield ("T1-T2-chain", chain,
           lambda t: 1.5 * (math.pi / 2.0 - 0.3 * math.sin(t / 2.25)), 5.0)


@pytest.mark.parametrize("name, sol, pole_x, t_out",
                         [pytest.param(*case, id=case[0])
                          for case in _contract_cases()])
def test_eval_solution_broadcasts_like_pointwise_calls(name, sol, pole_x,
                                                       t_out):
    ts = np.array([0.2, 0.7, t_out])
    xy = [(x, y) for x in (-0.9, -0.3, 0.4) for y in (-0.5, 0.0, 0.6)]
    # One extra column per time: a point 2e-4 from a pole (inside the
    # guard), or a plain point for pole-free solutions.
    x = np.array([[p[0] for p in xy]
                  + [pole_x(t) + 2e-4 if pole_x else 0.9] for t in ts])
    y = np.array([[p[1] for p in xy] + [0.0 if pole_x else 0.2]
                  for _ in ts])
    u, v, ok = eval_solution(sol, ts[:, None], x, y)
    assert u.shape == v.shape == ok.shape == x.shape

    expect_ok = np.ones(x.shape, dtype=bool)
    expect_ok[2, :] = False  # a time function fails at t_out
    if pole_x:
        expect_ok[:, -1] = False
    assert np.array_equal(ok, expect_ok), name
    assert np.array_equal(np.isnan(u), ~ok)
    assert np.array_equal(np.isnan(v), ~ok)

    for i, t in enumerate(ts):
        for j in range(x.shape[1]):
            up, vp, okp = eval_solution(sol, t, x[i, j], y[i, j])
            assert bool(okp) == ok[i, j]
            if okp:
                assert abs(u[i, j] - up) <= 1e-14 * abs(up), (name, i, j)
                assert abs(v[i, j] - vp) <= 1e-14 * abs(vp), (name, i, j)

    # Bitwise what direct calls outside eval_solution give, on the valid
    # points alone and on an all-valid grid.
    t = np.broadcast_to(ts[:, None], x.shape)
    assert np.array_equal(u[ok], sol.u(t[ok], x[ok], y[ok]))
    assert np.array_equal(v[ok], sol.v(t[ok], x[ok], y[ok]))
    t, x, y = t[:2, :-1], x[:2, :-1], y[:2, :-1]
    u, v, ok = eval_solution(sol, t, x, y)
    assert ok.all()
    assert np.array_equal(u, sol.u(t, x, y))
    assert np.array_equal(v, sol.v(t, x, y))


def test_overflowing_time_function_makes_points_invalid():
    sol = family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0,
                   parse_timefn("0.1*exp(t)"))
    u, v, ok = eval_solution(sol, np.array([0.2, 800.0]), 0.3, 0.1)
    assert ok.tolist() == [True, False]
    assert np.isfinite(u[0]) and np.isfinite(v[0])
    assert np.isnan(u[1]) and np.isnan(v[1])


def test_overflowing_stretched_coordinate_makes_points_invalid():
    # The jets of 0.1*t are finite at t = -1e4 and -1e200, but the stretch
    # exp(-2 beta) overflows, so the line coordinate is not finite.
    beta = parse_timefn("0.1*t")
    line = family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0, beta)
    linear = family_b(Variant(1, 1), 1.0, 1.0, 0.5, beta)
    for sol in (line, linear):
        u, v, ok = eval_solution(sol, np.array([0.2, -1e4, -1e200]), 0.3,
                                 0.1)
        assert ok.tolist() == [True, False, False]
        assert np.isfinite(u[0]) and np.isnan(u[1:]).all()
    # Every stencil reaches t - 1e200: no point is left to verify.
    with pytest.raises(EmptySampleError):
        verify(line, [(0.2, 0.3, 0.1), (0.5, -0.2, 0.4)], h=1e200)
    # Finite jets and line coordinates, but fields that are not finite: the
    # sn argument at x = 1.7e308, the phase of family A at x = 1e200, and
    # every pole-bearing line at (x, y) = (-1.7e308, 1.7e308).
    zero = parse_timefn("0")
    cases = [(family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0, zero),
              0.0, 1.7e308, 0.0),
             (family_a(Variant(1, 1), parse_timefn("t"), 1.0),
              0.5, 1e200, 0.0)]
    cases += [(family_c(Variant(eps1, 1), kind, None, 0.3, 0.0, zero),
               0.0, -1.7e308, 1.7e308)
              for kind in ("rational", "tan", "sec", "coth", "csch")
              for eps1 in (1, -1)]
    for sol, t, x, y in cases:
        u, v, ok = eval_solution(sol, t, np.array([0.3, x]),
                                 np.array([0.1, y]))
        assert ok.tolist() == [True, False], sol.provenance
        assert np.isfinite(u[0]) and np.isnan(u[1]) and np.isnan(v[1])


# ---------------------------------------------------------------------------
# Wrapping from outside the package: the benchmark's tracing hashes the
# argument of TimeFunction.jet and wraps u, v and valid with
# dataclasses.replace.
# ---------------------------------------------------------------------------

def _t1_t2_chain(base):
    return compose([TransformSpec("T1", alpha=parse_timefn("0.3*sin(t)"),
                                  beta=parse_timefn("0.2*t^2"),
                                  gamma=parse_timefn("t^2")),
                    TransformSpec("T2", b=2.0)], base)


def test_evaluation_never_passes_an_array_to_timefunction_jet(monkeypatch):
    jet = TimeFunction.jet
    seen = []

    def hashing(self, t):
        seen.append(hash(t))  # TypeError for an ndarray
        return jet(self, t)

    monkeypatch.setattr(TimeFunction, "jet", hashing)
    solutions = [entry.solution for entry in default_verification_matrix()]
    solutions.append(_t1_t2_chain(family_c(Variant(-1, 1), "sn", 0.7, 0.4,
                                           0.0, parse_timefn("0.1*t"))))
    for sol in solutions:
        _, _, ok = eval_solution(sol, np.array([[0.3], [0.6]]),
                                 np.linspace(-0.5, 0.5, 5), 0.2)
        assert ok.shape == (2, 5) and ok.any()


def test_replaced_fields_route_evaluation_through_wrappers():
    calls = Counter()

    def wrapped(sol, layer):
        def wrap(name, fn):
            def counting(*args):
                calls[f"{layer}.{name}"] += 1
                return fn(*args)
            return counting
        return dataclasses.replace(sol, **{
            name: wrap(name, getattr(sol, name))
            for name in ("u", "v", "valid")})

    base = family_c(Variant(-1, 1), "sn", 0.7, 0.4, 0.0,
                    parse_timefn("0.1*t"))
    chain = wrapped(_t1_t2_chain(wrapped(base, "catalog")), "symmetry")
    t, x, y = 0.3, np.linspace(-0.5, 0.5, 5), 0.2
    u, v, ok = eval_solution(chain, t, x, y)
    assert calls == {f"{layer}.{name}": 1 for layer in ("catalog", "symmetry")
                     for name in ("u", "v", "valid")}
    u0, v0, ok0 = eval_solution(_t1_t2_chain(base), t, x, y)
    assert np.array_equal(ok, ok0) and ok.all()
    assert np.array_equal(u, u0) and np.array_equal(v, v0)


# ---------------------------------------------------------------------------
# The evaluation scope of eval_solution: each layer's fields computed once
# per call, shared by valid, u and v, and never kept across calls.
# ---------------------------------------------------------------------------

def _count_walks_and_profiles(monkeypatch, sizes=None):
    """Counters of time-function walks and profile evaluations by id; with
    a dict ``sizes``, each walk also appends the size of its t there."""
    walks, profiles = Counter(), Counter()
    walk, value = TimeFunction._walk, Profile.value

    def counting_walk(self, t):
        walks[id(self)] += 1
        if sizes is not None:
            sizes.setdefault(id(self), []).append(t.size)
        return walk(self, t)

    def counting_value(self, s):
        profiles[id(self)] += 1
        return value(self, s)

    monkeypatch.setattr(TimeFunction, "_walk", counting_walk)
    monkeypatch.setattr(Profile, "value", counting_value)
    return walks, profiles


def test_eval_solution_walks_each_time_function_once_per_call(monkeypatch):
    beta = parse_timefn("0.1*t")
    line = family_c(Variant(-1, 1), "sn", 0.7, 0.4, 0.0, beta)
    shift = [parse_timefn("0.3*sin(t)"), parse_timefn("0.2*t^2"),
             parse_timefn("t^2")]
    chain = compose([TransformSpec("T1", alpha=shift[0], beta=shift[1],
                                   gamma=shift[2]),
                     TransformSpec("T2", b=2.0)], line)
    # A tan line with its pole at x = pi/2 when t = 0: the last point is
    # inside the guard, so some points are invalid.
    tan = family_c(Variant(-1, 1), "tan", None, math.pi / 2.0, 0.0, beta)
    t = np.array([[0.3], [0.6]])
    x, y = np.linspace(-0.5, 0.5, 5), 0.2
    walks, profiles = _count_walks_and_profiles(monkeypatch)
    for sol, fns, args in ((line, [beta], (t, x, y)),
                           (chain, [beta, *shift], (t, x, y)),
                           (tan, [beta], (0.0, [0.3, math.pi / 2.0], 0.0))):
        walks.clear()
        profiles.clear()
        # A second call walks again: nothing is reused across calls.
        for calls in (1, 2):
            ok = eval_solution(sol, *args)[2]
            assert ok.all() == (sol is not tan) and ok.any()
            assert walks == {id(f): calls for f in fns}
            assert list(profiles.values()) == [calls]


def test_direct_selector_call_evaluates_each_layer_once(monkeypatch):
    # A transform reads the layer below with one eval_solution call, so a
    # selector called outside eval_solution runs each layer beneath once,
    # not once per selector of the layer above (3^k times for k transforms).
    beta = parse_timefn("0.1*t")
    line = family_c(Variant(-1, 1), "sn", 0.7, 0.4, 0.0, beta)
    specs, fns = [], [beta]
    for _ in range(3):
        shift = [parse_timefn("0.3*sin(t)"), parse_timefn("0.2*t^2"),
                 parse_timefn("t^2")]
        specs += [TransformSpec("T2", b=2.0),
                  TransformSpec("T1", alpha=shift[0], beta=shift[1],
                                gamma=shift[2])]
        fns += shift
    chain = compose(specs, line)
    t, x, y = np.array([[0.3], [0.6]]), np.linspace(-0.5, 0.5, 5), 0.2
    u, v, ok = eval_solution(chain, t, x, y)
    assert ok.all()
    walks, profiles = _count_walks_and_profiles(monkeypatch)
    for select, want in ((chain.u, u), (chain.v, v), (chain.valid, ok),
                         (lambda *a: eval_solution(chain, *a)[0], u)):
        walks.clear()
        profiles.clear()
        assert np.array_equal(np.broadcast_to(select(t, x, y), ok.shape),
                              want)
        assert walks == {id(f): 1 for f in fns}
        assert list(profiles.values()) == [1]


def test_raising_valid_leaves_no_scope_behind():
    line = family_c(Variant(-1, 1), "sn", 0.7, 0.4, 0.0,
                    parse_timefn("0.1*t"))

    def boom(t, x, y):
        line.u(t, x, y)  # fills the scope
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        eval_solution(dataclasses.replace(line, valid=boom), 0.3, 0.1, 0.2)
    assert catalog._scope.get() is None


def test_scope_keys_on_argument_identity(monkeypatch):
    # One time function at two different t of one shape: the shift's alpha
    # is the base's beta, which the scaling hands t/4.
    beta = parse_timefn("0.1*t + 0.05*t^2")
    line = family_c(Variant(-1, 1), "sn", 0.7, 0.4, 0.0, beta)
    chain = compose([TransformSpec("T2", b=2.0),
                     TransformSpec("T1", alpha=beta, beta=parse_timefn("0"),
                                   gamma=parse_timefn("0"))], line)
    t, x, y = np.broadcast_arrays(np.array([[0.3], [0.6]]),
                                  np.linspace(-0.5, 0.5, 3), 0.2)
    u, v, ok = eval_solution(chain, t, x, y)
    assert ok.all()
    assert np.array_equal(u, chain.u(t, x, y))
    assert np.array_equal(v, chain.v(t, x, y))

    # The same arrays share one evaluation; a new array of equal content is
    # a new entry.  eval_solution's own u and v then share the first.
    walks, _ = _count_walks_and_profiles(monkeypatch)
    seen = []

    def valid(t, x, y):
        seen.extend([line.u(t, x, y), line.u(t, x, y),
                     line.u(t.copy(), x, y)])
        return True

    u, _, _ = eval_solution(dataclasses.replace(line, valid=valid), t, x, y)
    assert seen[1] is seen[0] and seen[2] is not seen[0]
    assert np.array_equal(seen[2], seen[0]) and np.array_equal(u, seen[0])
    assert walks == {id(beta): 2}


def test_scalar_time_walks_each_time_function_once_over_one_element(
        monkeypatch):
    # eval_solution hands t, x and y on as passed: at one scalar time the
    # jets are walked once, at shape (), and broadcast against the grid.
    beta = parse_timefn("0.1*t + 0.05*t^2")
    line = family_c(Variant(-1, 1), "sn", 0.7, 0.4, 0.0, beta)
    shift = [parse_timefn("0.3*sin(t)"), parse_timefn("0.2*t^2"),
             parse_timefn("t^2")]
    chain = compose([TransformSpec("T1", alpha=shift[0], beta=shift[1],
                                   gamma=shift[2]),
                     TransformSpec("T2", b=2.0)], line)
    n = 6
    x = np.linspace(-0.5, 0.5, n)[:, None]
    y = np.linspace(-0.4, 0.6, n)[None, :]
    for sol, fns in ((line, [beta]), (chain, [beta, *shift])):
        sizes = {}
        _count_walks_and_profiles(monkeypatch, sizes)
        u, v, ok = eval_solution(sol, 0.3, x, y)
        assert sizes == {id(f): [1] for f in fns}
        assert u.shape == v.shape == ok.shape == (n, n) and ok.all()
        monkeypatch.undo()
        # The same bits as on arrays broadcast up front.
        full = eval_solution(sol, *np.broadcast_arrays(0.3, x, y))
        assert all(np.array_equal(a, b) for a, b in zip((u, v, ok), full))
        # numpy's one-element loops may round a last bit differently.
        for i, xi in enumerate(x[:, 0]):
            for j, yj in enumerate(y[0]):
                up, vp, okp = eval_solution(sol, 0.3, xi, yj)
                assert okp and abs(u[i, j] - up) <= 1e-14 * abs(up)
                assert abs(v[i, j] - vp) <= 1e-14 * abs(vp)


def test_family_a_below_the_slope_cutoff_is_invalid_on_the_full_shape():
    # Im = t^3 has Im'(0) = 0: the time-only mask is one False, broadcast.
    sol = family_a(Variant(1, 1), parse_timefn("t^3"), 1.0)
    u, v, ok = eval_solution(sol, 0.0, np.linspace(-1.0, 1.0, 4)[:, None],
                             np.linspace(-1.0, 1.0, 5)[None, :])
    assert ok.shape == u.shape == v.shape == (4, 5)
    assert not ok.any() and np.isnan(u).all() and np.isnan(v).all()


def test_make_field_walks_the_line_beta_once_over_one_element(monkeypatch):
    beta = parse_timefn("0")
    line = family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0, beta)
    L = 4.0 * ellipk(0.5)
    sizes = {}
    _count_walks_and_profiles(monkeypatch, sizes)
    field = make_field(line, L, L, 32)
    assert sizes == {id(beta): [1]} and field.u.shape == (32, 32)


def test_shapes_that_do_not_broadcast_fail_before_any_layer_runs(
        monkeypatch):
    line = family_c(Variant(-1, 1), "sn", 0.7, 0.4, 0.0,
                    parse_timefn("0.1*t"))
    walks, profiles = _count_walks_and_profiles(monkeypatch)
    with pytest.raises(ConfigError, match=r"^t, x and y do not broadcast: "
                       r"shapes \(2,\), \(3,\) and \(\)$"):
        eval_solution(line, np.zeros(2), np.zeros(3), 0.0)
    assert not walks and not profiles


def test_matrix_verify_gets_each_layers_own_arrays(monkeypatch):
    # Every matrix point is valid and each layer's ok has its fields' shape,
    # one-time blocks of sn, cn and dn included, so eval_solution copies
    # nothing: np.broadcast_to, the first call of its copy path, never runs.
    shapes = []
    broadcast_to = np.broadcast_to

    def spy(array, shape, **kwargs):
        shapes.append(shape)
        return broadcast_to(array, shape, **kwargs)

    monkeypatch.setattr(np, "broadcast_to", spy)
    for entry in default_verification_matrix():
        verify(entry.solution, entry.grid.points(seed=1))
    assert shapes == []
    # The spy sees the copy path where an invalid point takes it.
    log_a = family_a(Variant(1, 1), parse_timefn("ln(t)"), 1.0)
    eval_solution(log_a, np.array([-1.0, 1.0]), 0.0, np.zeros((3, 1)))
    assert shapes == [(3, 2)]


@pytest.mark.parametrize("kind", ["rational", "tan", "sec", "coth", "csch"])
@pytest.mark.parametrize("m", [0.0, 0.5])
def test_family_c_refuses_a_modulus_on_a_kind_without_one(kind, m):
    # The modulus was dropped and the provenance recorded m: 0.0; now the
    # provenance records no m on these kinds.
    with pytest.raises(ConfigError, match=re.escape(
            f"profile '{kind}' takes no modulus, got m={m!r}")):
        family_c(Variant(1, 1), kind, m, 0.3, 0.0, parse_timefn("0"))
