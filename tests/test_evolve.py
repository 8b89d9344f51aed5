import dataclasses
import json
import math
import re

import numpy as np
import pytest

from conftest import transformed
from dsexact import BlowupError, ConfigError, Field, PeriodicityError, \
    TransformSpec, Variant, advance, cli, compose, crosscheck, ellipk, \
    evolve, family_a, family_c, mass, parse_timefn
from dsexact.evolve import MAX_BOX_N, make_field, poisson_v, step
from dsexact.gridio import write_json_report

DS2 = Variant(-1, 1)
ZERO = parse_timefn("0")


def box_fault(lx, ly):
    """The text that names a box fault: ``errors.real``'s for a length that
    is not a real number, the step check's for a step that is not > 0."""
    for name, length in (("lx", lx), ("ly", ly)):
        if not math.isfinite(length):
            return f"^{name}: expected a real number, got {length!r}$"
    return f"got lx={lx}, ly={ly}"


def sn_line(m=0.5):
    return family_c(DS2, "sn", m, math.pi / 2.0, 0.0, parse_timefn("0"))


def test_poisson_v_takes_a_nested_list():
    n, lx = 8, 2.0 * math.pi
    g = np.cos(np.arange(n) * (lx / n))[:, None] * np.ones((1, n))
    assert np.array_equal(poisson_v(g.tolist(), lx, lx, DS2, 0.0),
                          poisson_v(g, lx, lx, DS2, 0.0))


def test_poisson_cosine():
    n = 32
    lx = ly = 2.0 * math.pi
    xs = np.arange(n) * (lx / n)
    g = np.cos(xs)[:, None] * np.ones((1, n))
    v = poisson_v(g, lx, ly, DS2, 0.0)
    assert np.max(np.abs(v - (-2.0 * np.cos(xs)[:, None]))) <= 1e-12


def test_poisson_y_only_source_gives_constant():
    n = 32
    lx = ly = 2.0 * math.pi
    ys = np.arange(n) * (ly / n)
    g = np.ones((n, 1)) * np.sin(2.0 * ys)[None, :]
    v = poisson_v(g, lx, ly, DS2, -0.7)
    assert np.max(np.abs(v + 0.7)) <= 1e-13


def test_poisson_matches_exact_mean_flow_of_line_solution():
    m = 0.5
    L = 4.0 * ellipk(m)
    sol = sn_line(m)
    field = make_field(sol, L, L, 64)
    v = poisson_v(np.abs(field.u) ** 2, L, L, DS2, float(np.mean(field.v)))
    assert np.max(np.abs(v - field.v)) <= 1e-11


def test_poisson_spectral_constraint_and_mean():
    n = 32
    lx, ly = 5.0, 7.0
    rng = np.random.default_rng(3)
    g = rng.standard_normal((n, n))
    v_mean = 0.37
    v = poisson_v(g, lx, ly, DS2, v_mean)
    assert float(np.mean(v)) == pytest.approx(v_mean, abs=1e-13)
    kx = 2.0 * math.pi * np.fft.fftfreq(n, d=lx / n)[:, None]
    ky = 2.0 * math.pi * np.fft.fftfreq(n, d=ly / n)[None, :]
    vhat = np.fft.fft2(v)
    ghat = np.fft.fft2(g)
    # Laplacian(v) + 2 g_xx = 0 mode by mode (k=0 excluded: gauge)
    resid = -(kx ** 2 + ky ** 2) * vhat + 2.0 * (-kx ** 2) * ghat
    resid[0, 0] = 0.0
    assert np.max(np.abs(resid)) / (n * n) <= 1e-12 * np.max(np.abs(ghat))


def test_poisson_rejects_plus_branch():
    with pytest.raises(ConfigError, match="hyperbolic on a periodic"):
        poisson_v(np.zeros((8, 8)), 1.0, 1.0, Variant(1, 1), 0.0)


@pytest.mark.parametrize("lx, ly", [(-1.0, 1.0), (1.0, 0.0),
                                    (math.inf, 1.0), (1.0, math.nan),
                                    (5e-324, 1.0)])
def test_poisson_refuses_a_box_that_is_not_finite_and_positive(lx, ly):
    # Never a v on a mirrored or empty box.  5e-324 / 8 rounds to a step of
    # 0, which fftfreq divided by.
    with pytest.raises(ConfigError, match=box_fault(lx, ly)):
        poisson_v(np.ones((8, 8)), lx, ly, DS2, 0.0)


def test_field_takes_any_grid_and_advance_checks_it():
    # The step's one check refuses an axis of fewer than 2 points, also for
    # zero steps, and steps a 12 x 16 grid; a box length that is not
    # positive is refused as the Field is built.
    def field(shape, ly=1.0):
        return Field(1.0, ly, np.zeros(shape, complex), np.zeros(shape), 0.0)

    assert advance(field((12, 16)), DS2, 1e-3, 1).u.shape == (12, 16)
    for n_steps in (1, 0):
        with pytest.raises(ConfigError, match="1 x 8 grid"):
            advance(field((1, 8)), DS2, 1e-3, n_steps)
        with pytest.raises(ConfigError, match="lx=1.0, ly=-1.0"):
            advance(field((8, 8), ly=-1.0), DS2, 1e-3, n_steps)


def test_poisson_on_a_one_point_axis_is_config_error():
    # Never a ZeroDivisionError or an empty spectrum.
    with pytest.raises(ConfigError, match="1 x 8 grid"):
        poisson_v(np.ones((1, 8)), 1.0, 1.0, DS2, 0.0)


@pytest.mark.parametrize("shape, name", [((8,), "8"),
                                         ((2, 2, 2), "2 x 2 x 2")],
                         ids=["1-D", "3-D"])
def test_poisson_on_a_grid_that_is_not_2d_is_config_error(shape, name):
    # Never a ValueError from unpacking the shape.
    with pytest.raises(ConfigError, match=f"the {name} grid is not 2-D"):
        poisson_v(np.ones(shape), 1.0, 1.0, DS2, 0.0)


@pytest.mark.parametrize("lx, ly, shape", [
    (-1.0, 1.0, (8, 8)),  # mass read -1.0
    (1.0, 1.0, (0, 8)),  # mass divided by zero
    (5e-324, 1.0, (16, 16)),  # the step rounds to 0
    (1.0, math.inf, (8, 8)),
    (math.nan, 1.0, (8, 8)),
])
def test_field_refuses_steps_that_are_not_finite_and_positive(lx, ly, shape):
    # Every Field has steps that mass, write_box_csv and advance can use.
    with pytest.raises(ConfigError, match=box_fault(lx, ly)):
        Field(lx, ly, np.zeros(shape, complex), np.zeros(shape), 0.0)


@pytest.mark.parametrize("dt, n_steps", [
    (math.nan, 1),  # was a BlowupError
    (-1e-3, 1),  # stepped back to t = -0.001
    (math.inf, 0),  # refused before the zero-step return
    (1e-3, 2.5),  # was a bare TypeError
    (1e-3, -1),  # returned the field unchanged
    (1e-3, "1"),
    (1e-3, True),  # ran one step
    (1e-3, evolve._MAX_STEPS + 1),  # started stepping
    (True, 1),  # ran one step of dt = 1
])
def test_advance_refuses_a_step_that_is_not_finite_and_positive(dt, n_steps):
    field = Field(1.0, 1.0, np.ones((8, 8), complex), np.zeros((8, 8)), 0.0)
    named = (f"n_steps: expected an integer from 0 to {evolve._MAX_STEPS}, "
             f"got {n_steps!r}" if type(dt) is float and 0.0 < dt < math.inf
             else f"dt: expected a real number >= 5e-324, got {dt!r}")
    with pytest.raises(ConfigError, match=f"^{re.escape(named)}$"):
        advance(field, DS2, dt, n_steps)


@pytest.mark.parametrize("name, value", [("u", np.ones(4)), ("lx", -1.0)],
                         ids=["u", "lx"])
def test_field_is_frozen(name, value):
    # mass, advance and write_box_csv rely on the checks the Field was
    # built with; an assignment would bypass them.
    field = Field(1.0, 1.0, np.ones((8, 8), complex), np.zeros((8, 8)), 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(field, name, value)
    assert mass(field) == 1.0


def test_field_requires_a_2d_grid():
    # A 1-D Field would reach mass and advance, which unpack a 2-D shape.
    with pytest.raises(ConfigError, match=r"same 2-D shape, got \(8,\)"):
        Field(1.0, 1.0, np.zeros(8, complex), np.zeros(8), 0.0)


def test_field_requires_equal_grids():
    with pytest.raises(ConfigError, match="u and v grids must have the same"):
        Field(1.0, 1.0, np.zeros((4, 4), complex), np.zeros((4, 8)), 0.0)


@pytest.mark.parametrize("u_dtype, v_dtype", [
    pytest.param(complex, complex, id="complex"),
    pytest.param(complex, np.float32, id="float32"),
    pytest.param(np.complex64, float, id="u-complex64"),
    pytest.param(np.float32, float, id="u-float32"),
    pytest.param(float, float, id="u-float64"),
])
def test_field_requires_a_float64_v(u_dtype, v_dtype):
    # A complex v reached write_box_csv's bare "ufunc 'signbit' not
    # supported", and a float32 v its IndexError; the gauge, np.mean(v),
    # of a complex v is complex.  A complex64 or float32 u overflowed in a
    # cast in write_box_csv's _spell.  u must be complex128, v float64.
    named = (rf"of {np.dtype(u_dtype)} and \(4, 4\) of {np.dtype(v_dtype)} "
             r"\(u must be complex128, v float64\)")
    with pytest.raises(ConfigError, match=named):
        Field(1.0, 1.0, np.ones((4, 4), u_dtype),
              np.ones((4, 4), v_dtype), 0.0)


def test_advance_rejects_plus_branch():
    field = Field(1.0, 1.0, np.zeros((4, 4), complex), np.zeros((4, 4)), 0.0)
    for n_steps in (1, 0):
        with pytest.raises(ConfigError, match="hyperbolic on a"):
            advance(field, Variant(1, 1), 1e-3, n_steps)


def test_zero_field_stays_zero():
    n = 16
    field = Field(2.0 * math.pi, 2.0 * math.pi, np.zeros((n, n), complex),
                  np.zeros((n, n)), 0.0)
    out = step(field, DS2, 1e-2)
    assert np.all(out.u == 0.0)


def test_flat_field_is_stationary():
    # u = c with v = -e2 c^2, whose mean is the gauge: the nonlinear phase
    # cancels exactly.
    n = 16
    c = 0.8
    field = Field(2.0 * math.pi, 2.0 * math.pi,
                  np.full((n, n), c, dtype=complex), np.full((n, n), -c * c),
                  0.0)
    out = field
    for _ in range(20):
        out = step(out, DS2, 1e-2)
    assert np.max(np.abs(out.u - c)) <= 1e-13


@pytest.mark.parametrize("eps2", [1, -1])
@pytest.mark.parametrize("g0", [0.0, 0.45])
def test_flat_field_turns_at_the_rate_of_its_gauge(eps2, g0):
    # u = c with v = g0: v is g0 at every step, so u turns by
    # exp(-i (e2 c^2 + g0) T) and the final v keeps the mean g0.
    n, c, dt, n_steps = 16, 0.8, 1e-2, 20
    field = Field(2.0 * math.pi, 2.0 * math.pi,
                  np.full((n, n), c, dtype=complex), np.full((n, n), g0), 0.0)
    out = advance(field, Variant(-1, eps2), dt, n_steps)
    expect = c * np.exp(-1j * (eps2 * c * c + g0) * n_steps * dt)
    assert np.max(np.abs(out.u - expect)) <= 1e-13
    assert np.max(np.abs(out.v - g0)) <= 1e-13


def test_linear_step_phase_of_plane_wave():
    # One tiny step of a plane wave picks up the linear dispersion phase
    # exp(-i (e1 kx^2 + ky^2) dt/2); amplitude is preserved exactly.
    n = 32
    lx = ly = 2.0 * math.pi
    xs = np.arange(n) * (lx / n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    kx, ky = 1.0, 2.0
    amp = 1e-3  # keep the nonlinear phase negligible
    field = Field(lx, ly, amp * np.exp(1j * (kx * X + ky * Y)),
                  np.zeros((n, n)), 0.0)
    dt = 1e-3
    out = step(field, DS2, dt)
    expect = field.u * np.exp(-1j * (-kx ** 2 + ky ** 2) * dt / 2.0)
    assert np.max(np.abs(out.u - expect)) <= 1e-8 * amp


def test_mass_conservation():
    m = 0.5
    L = 4.0 * ellipk(m)
    field = make_field(sn_line(m), L, L, 32)
    m0 = mass(field)
    out = field
    for _ in range(200):
        out = step(out, DS2, 1e-3)
    assert abs(mass(out) - m0) <= 1e-10 * max(1.0, m0)


@pytest.mark.parametrize("n_steps", [0, 1, 2, 37])
def test_advance_matches_repeated_steps(n_steps):
    # The fused loop must keep exactly one linear half step at each end,
    # and a numpy integer counts steps as an int does.
    L = 4.0 * ellipk(0.5)
    w = 2.0 * math.pi / L
    boosted = transformed(sn_line(0.5), "T1", alpha=parse_timefn(f"{w!r}*t"),
                          beta=ZERO, gamma=ZERO)
    field = make_field(boosted, L, L, 32)
    stepwise = field
    for _ in range(n_steps):
        stepwise = step(stepwise, DS2, 1e-3)
    fused = advance(field, DS2, 1e-3, np.int64(n_steps))
    for got, want in ((fused.u, stepwise.u), (fused.v, stepwise.v)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_crosscheck_blowup_names_the_step(monkeypatch):
    m = 0.5
    L = 4.0 * ellipk(m)
    sample = evolve.make_field

    def poisoned(*args, **kwargs):
        field = sample(*args, **kwargs)
        field.u[3, 4] = complex("nan")
        return field

    monkeypatch.setattr(evolve, "make_field", poisoned)
    with pytest.raises(BlowupError, match=r"\(step 1 of 5\)"):
        crosscheck(sn_line(m), L, L, 16, 5e-3, 1e-3)


def test_crosscheck_forward_fft_budget(monkeypatch):
    # One forward complex FFT per step plus the initial one; the Poisson
    # solve runs on real transforms.
    m = 0.5
    L = 4.0 * ellipk(m)
    calls = []
    fft2 = np.fft.fft2

    def counting(*args, **kwargs):
        calls.append(1)
        return fft2(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft2", counting)
    rep, _ = crosscheck(sn_line(m), L, L, 16, 0.02, 1e-3)
    assert rep["n_steps"] == 20
    assert len(calls) <= rep["n_steps"] + 1


def test_crosscheck_stationary_line():
    m = 0.5
    L = 4.0 * ellipk(m)
    rep, _ = crosscheck(sn_line(m), L, L, 64, 0.1, 1e-3)
    assert rep["max_dev"] <= 1e-5
    assert rep["mass_drift"] <= 1e-10
    assert rep["n_steps"] == 100


def test_crosscheck_zero_horizon():
    # T = 0 and T = 0.0004 < dt/2 would run no step and report
    # max_dev = 0; the library refuses them before sampling anything.
    L = 4.0 * ellipk(0.5)
    for t_final in (0.0, 4e-4):
        with pytest.raises(ConfigError, match=r"zero steps: T=.* dt="):
            crosscheck(sn_line(0.5), L, L, 16, t_final, 1e-3)


@pytest.mark.parametrize("box", [(1e-300, 1e-300), (1e300, 1e300),
                                 (1e-300, 4.0),
                                 (-4.0 * ellipk(0.5), 4.0 * ellipk(0.5)),
                                 (4.0, 0.0), (5e-324, 4.0 * ellipk(0.5))])
def test_crosscheck_rejects_a_box_out_of_wavenumber_range(monkeypatch, box):
    # A tiny box overflows k^2 and a huge one underflows it to a 0/0
    # Poisson multiplier, and a box length that is not positive, or whose
    # step rounds to 0, has no grid; each is refused before any sampling or
    # step.
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(evolve, "_sample_box", refuse)
    for run in (lambda: make_field(sn_line(0.5), *box, 16),
                lambda: crosscheck(sn_line(0.5), *box, 16, 0.01, 1e-3)):
        with pytest.raises(ConfigError) as err:
            run()
        assert f"lx={box[0]}, ly={box[1]}" in str(err.value)


@pytest.mark.parametrize("n", [0, 1, -3])
def test_grid_below_two_points_is_refused_before_sampling(monkeypatch, n):
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(evolve, "_sample_box", refuse)
    L = 4.0 * ellipk(0.5)
    with pytest.raises(ConfigError, match=f"{n} x {n} grid"):
        make_field(sn_line(0.5), L, L, n)
    with pytest.raises(ConfigError, match=f"{n} x {n} grid"):
        crosscheck(sn_line(0.5), L, L, n, 0.05, 1e-3)


def test_box_cap_is_checked_before_anything_is_allocated(monkeypatch):
    # The cap is evolve's, not only the CLI's: an axis of MAX_BOX_N + 1
    # points is refused before wavenumbers or samples are made.
    def refuse(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(evolve, "_sample_box", refuse)
    monkeypatch.setattr(np.fft, "fftfreq", refuse)
    assert MAX_BOX_N == 2048
    L = 4.0 * ellipk(0.5)
    cap = f"integer counts from 2 to {MAX_BOX_N}"
    with pytest.raises(ConfigError, match=f"2049 x 2049 grid .* {cap}"):
        make_field(sn_line(0.5), L, L, MAX_BOX_N + 1)
    with pytest.raises(ConfigError, match=f"2 x 2049 grid .* {cap}"):
        poisson_v(np.ones((2, MAX_BOX_N + 1)), L, L, DS2, 0.0)


@pytest.mark.parametrize("n", [16.0, 2.5, "16"])
def test_grid_count_that_is_not_an_integer_is_refused_before_sampling(
        monkeypatch, n):
    # Never numpy's bare "n should be an integer" from fftfreq.
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(evolve, "_sample_box", refuse)
    L = 4.0 * ellipk(0.5)
    with pytest.raises(ConfigError, match=f"{n} x {n} grid .* integer"):
        make_field(sn_line(0.5), L, L, n)
    with pytest.raises(ConfigError, match=f"{n} x {n} grid .* integer"):
        crosscheck(sn_line(0.5), L, L, n, 0.01, 1e-3)


def test_numpy_integer_grid_count_is_accepted(tmp_path):
    L = 4.0 * ellipk(0.5)
    field = make_field(sn_line(0.5), L, L, np.int64(16))
    assert field.u.shape == (16, 16)
    # The report's gauge is the mean of the t = 0 field's v, bit for bit.
    rep, _ = crosscheck(sn_line(0.5), L, L, np.int64(16), 5e-3, 1e-3)
    assert rep["v_mean"] == float(np.mean(field.v))
    # Its "n" is a Python int: an np.int64 is no JSON value.
    write_json_report(tmp_path / "report.json", rep)
    assert json.loads((tmp_path / "report.json").read_text())["n"] == 16


@pytest.mark.parametrize("n", [24, 45, 48])
def test_crosscheck_on_a_box_of_any_length(n):
    # numpy's FFT takes any length: boxes that are not powers of two track
    # the stationary line as closely as n = 32 and 64 do (about 1e-9).  The
    # gauge is that of t = 0: at n = 45 and 48 the final v's mean is not.
    L = 4.0 * ellipk(0.5)
    rep, field = crosscheck(sn_line(0.5), L, L, n, 0.05, 1e-3)
    assert rep["max_dev"] <= 1e-8
    assert rep["n_steps"] == 50 and field.u.shape == (n, n)
    assert rep["v_mean"] == float(np.mean(make_field(sn_line(0.5), L, L,
                                                     n).v))


# None too: every cross-check decides a verdict, inf being the default.
@pytest.mark.parametrize("tol", [math.nan, -1.0, "1e-5", True, None])
def test_crosscheck_refuses_a_tol_before_sampling(monkeypatch, tol):
    def refuse(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(evolve, "_sample_box", refuse)
    L = 4.0 * ellipk(0.5)
    with pytest.raises(ConfigError, match=re.escape(f"got {tol!r}")):
        crosscheck(sn_line(0.5), L, L, 16, 0.01, 1e-3, tol=tol)


def test_crosscheck_always_decides_pass(tmp_path):
    # Every report holds "tol" and "pass", and "pass" is max_dev <= tol
    # here (the mass drift is far inside its bound), a JSON bool for a
    # numpy tol too.  The default tol, inf, leaves the drift bound alone,
    # and JSON writes it as null.
    L = 4.0 * ellipk(0.5)
    default, _ = crosscheck(sn_line(0.5), L, L, 16, 5e-3, 1e-3)
    assert default["tol"] == math.inf and default["pass"] is True
    write_json_report(tmp_path / "report.json", default)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["tol"] is None and doc["pass"] is True
    max_dev = default["max_dev"]
    for tol, verdict in ((max_dev, True), (np.float64(max_dev / 2), False),
                         (0, False), (1, True)):
        rep, _ = crosscheck(sn_line(0.5), L, L, 16, 5e-3, 1e-3, tol=tol)
        assert rep == {**default, "tol": tol, "pass": verdict}
        assert type(rep["pass"]) is bool
        write_json_report(tmp_path / "report.json", rep)


def test_crosscheck_pass_bounds_the_mass_drift(monkeypatch):
    # An evolution that scales u by 1 + 1e-9 stays far inside tol but moves
    # the mass by 2e-9 of itself, past the bound of 1e-10.
    L = 4.0 * ellipk(0.5)
    rep, _ = crosscheck(sn_line(0.5), L, L, 16, 5e-3, 1e-3, tol=1e-5)
    assert rep["pass"] is True
    evolved = evolve.advance

    def scaled(*args):
        field = evolved(*args)
        return dataclasses.replace(field, u=field.u * (1.0 + 1e-9))

    monkeypatch.setattr(evolve, "advance", scaled)
    rep, _ = crosscheck(sn_line(0.5), L, L, 16, 5e-3, 1e-3, tol=1e-5)
    assert rep["max_dev"] <= 1e-5
    assert rep["mass_drift"] > evolve._MASS_DRIFT * rep["mass_initial"]
    assert rep["pass"] is False
    # The default tol, inf, leaves the drift bound as the verdict.
    rep, _ = crosscheck(sn_line(0.5), L, L, 16, 5e-3, 1e-3)
    assert rep["pass"] is False


# Every evolvable family C line class: sn with e2 = +1 and -1, cn and dn
# with e2 = -1, each at the angles of ANGLES whose amplitude is real.  The
# box holds one period of the profile along each axis; at ell = pi/2 the
# line varies along x alone.
ANGLES = {"pi/2": math.pi / 2.0, "pi/3": math.pi / 3.0,
          "pi/6": math.pi / 6.0, "0.4": 0.4}
LINE_CLASSES = {("sn", 1): ("pi/2", "pi/3", "pi/6", "0.4"),
                ("sn", -1): ("pi/2", "pi/3"),
                ("cn", -1): ("pi/6", "0.4"),
                ("dn", -1): ("pi/6", "0.4")}
PERIODS = {"sn": 4.0, "cn": 4.0, "dn": 2.0}  # in units of K(m)
# Largest max_dev over the classes: 2.1e-10 at m = 0.3, 2.9e-9 at m = 0.7.
LINE_MAX_DEV = {0.3: 5e-10, 0.7: 5e-9}


def line(kind, eps2, m, angle):
    return family_c(Variant(-1, eps2), kind, m, ANGLES[angle], 0.0,
                    parse_timefn("0"))


@pytest.mark.parametrize("kind, eps2, angle", [
    (kind, eps2, angle) for (kind, eps2), angles in LINE_CLASSES.items()
    for angle in angles])
@pytest.mark.parametrize("m", [0.3, 0.7])
def test_crosscheck_of_every_evolvable_line_class(kind, eps2, m, angle):
    ell = ANGLES[angle]
    period = PERIODS[kind] * ellipk(m)
    ly = period if angle == "pi/2" else period / math.cos(ell)
    rep, _ = crosscheck(line(kind, eps2, m, angle), period / math.sin(ell),
                        ly, 32, 0.05, 1e-3)
    assert rep["max_dev"] <= LINE_MAX_DEV[m]


def test_line_classes_are_every_real_amplitude():
    # The other angles of each class have no real amplitude at either m.
    for (kind, eps2), angles in LINE_CLASSES.items():
        for m in (0.3, 0.7):
            for angle in set(ANGLES) - set(angles):
                with pytest.raises(ConfigError,
                                   match=r"^amplitude\^2 = .* < 0"):
                    line(kind, eps2, m, angle)


def test_crosscheck_second_order_in_dt():
    m = 0.5
    L = 4.0 * ellipk(m)
    sol = sn_line(m)
    coarse = crosscheck(sol, L, L, 32, 0.2, 2e-3)[0]["max_dev"]
    fine = crosscheck(sol, L, L, 32, 0.2, 1e-3)[0]["max_dev"]
    assert coarse / fine >= 3.5


def test_crosscheck_tracks_boosted_profile():
    # A moving frame (alpha linear in t, commensurate phase) is tracked to
    # the same tolerance as the stationary profile, and so is its v (1.1e-8
    # apart here, of a largest |v| of 1.06).  The boost makes u complex, so
    # a final v from u.real ** 2 - u.imag ** 2 in advance is 0.58 off; on
    # the unboosted lines u stays real and that mutant passes.
    m = 0.5
    L = 4.0 * ellipk(m)
    w = 2.0 * math.pi / L
    boosted = transformed(sn_line(m), "T1", alpha=parse_timefn(f"{w!r}*t"),
                          beta=ZERO, gamma=ZERO)
    rep, field = crosscheck(boosted, L, L, 64, 0.5, 1e-3)
    assert rep["max_dev"] <= 1e-5
    _, v_exact = evolve._sample_box(boosted, L, L, 64, rep["t_final"])
    assert np.max(np.abs(field.v - v_exact)) <= 1e-7


@pytest.mark.parametrize("ell1, lx", [
    # The 0.8 L box of test_crosscheck_rejects_aperiodic_and_plus_branch:
    # a periodic profile on an incommensurate box.
    (0.0, 0.8),
    # sn(s + 2K) = -sn(s): u is 0 at both ends of the box and v ~ sn^2 is
    # periodic, so only a second phase sees the sign flip.
    (0.0, 0.5),
    # sn(2K - s) = sn(s): the mirror maps x = 0 onto x = Lx exactly, but
    # not x = dx onto x = Lx + dx.
    (0.4, 0.5 - 0.8 / (4.0 * ellipk(0.5))),
])
def test_make_field_rejects_aperiodic(ell1, lx):
    L = 4.0 * ellipk(0.5)
    sol = family_c(DS2, "sn", 0.5, math.pi / 2.0, ell1, parse_timefn("0"))
    with pytest.raises(PeriodicityError, match="wraparound mismatch"):
        make_field(sol, lx * L, L, 32)
    with pytest.raises(PeriodicityError, match="wraparound mismatch"):
        crosscheck(sol, lx * L, L, 32, 0.1, 1e-3)


def test_crosscheck_samples_the_solution_twice(monkeypatch):
    # One grid sample at t = 0 seeds the field and one at the end
    # time gives the exact u; each also decides validity and wraparound.
    L = 4.0 * ellipk(0.5)
    calls = []
    sample = evolve.eval_solution

    def counting(sol, t, x, y):
        calls.append(t)
        return sample(sol, t, x, y)

    monkeypatch.setattr(evolve, "eval_solution", counting)
    rep, _ = crosscheck(sn_line(0.5), L, L, 16, 5e-3, 1e-3)
    assert rep["n_steps"] == 5
    assert calls == [0.0, rep["t_final"]]


def test_crosscheck_rejects_aperiodic_and_plus_branch():
    m = 0.5
    L = 4.0 * ellipk(m)
    with pytest.raises(PeriodicityError):
        crosscheck(family_a(DS2, parse_timefn("t"), 1.0), L, L, 32, 0.1, 1e-3)
    with pytest.raises(PeriodicityError):
        # periodic profile but an incommensurate box
        crosscheck(sn_line(m), 0.8 * L, L, 32, 0.1, 1e-3)
    # A boost whose compensating phase exp(0.7 i x) does not wrap around
    # the oblique line's period box.
    ell = math.pi / 3.0
    oblique = family_c(DS2, "sn", m, ell, 0.0, parse_timefn("0"))
    boosted = transformed(oblique, "T1", alpha=parse_timefn("0.7*t"),
                          beta=ZERO, gamma=ZERO)
    with pytest.raises(PeriodicityError, match="wraparound mismatch"):
        crosscheck(boosted, L / math.sin(ell), L / math.cos(ell), 32, 0.1,
                   1e-3)
    ds1 = family_c(Variant(1, 1), "sn", m, 0.3, 0.0, parse_timefn("0"))
    with pytest.raises(ConfigError, match="hyperbolic on a periodic"):
        make_field(ds1, L, L, 32)
    with pytest.raises(ConfigError, match="hyperbolic on a periodic"):
        crosscheck(ds1, L, L, 32, 0.1, 1e-3)


@pytest.mark.parametrize("family, params", [
    # Im = ln(t) has no value at t = 0, so no grid point is valid.
    ("A", {"Im": "ln(t)", "c": 1.0}),
    # The pole line y = 0 runs through the first grid point.
    ("C", {"kind": "rational", "ell": math.pi / 2.0, "ell1": 0.0,
           "beta": "0"}),
])
def test_invalid_box_point_is_named(tmp_path, capsys, family, params):
    message = "solution invalid at grid point (0, 0) at t=0"
    cfg = {"variant": {"eps1": -1, "eps2": 1}, "family": family,
           "params": params,
           "evolve": {"box": [4.0, 4.0], "n": 16, "T": 0.01, "dt": 1e-3,
                      "tol": 1e-5},
           "out": str(tmp_path / "report.json")}
    with pytest.raises(PeriodicityError) as err:
        crosscheck(cli.build_solution(cfg), 4.0, 4.0, 16, 0.01, 1e-3)
    assert str(err.value) == message
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["evolve", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"PeriodicityError: {message}\n"


def test_blowup_detection():
    n = 16
    u = np.ones((n, n), dtype=complex)
    u[3, 4] = complex("nan")
    field = Field(1.0, 1.0, u, np.zeros((n, n)), 0.0)
    with pytest.raises(BlowupError, match=r"\(step 1 of 1\)"):
        step(field, DS2, 1e-3)


# Exact relations of the stepper (Hairer, Lubich & Wanner, Geometric
# Numerical Integration, ch. II and V).  T2 at b = 2 maps a solution to
# u(t/4, x/2, y/2) / 2, v(t/4, x/2, y/2) / 4, and every step of advance
# scales by powers of two alone, so the scaled run is the run bit for bit.

def band_limited(seed, n=32, lx=5.0, ly=7.0):
    """A seeded random field of wavenumbers |k| <= 4 per axis, max |u| 0.3,
    with the v of its |u|^2 and gauge 0.1: not a catalog solution."""
    rng = np.random.default_rng(seed)
    low = np.abs(np.fft.fftfreq(n, 1.0 / n)) <= 4
    uhat = rng.standard_normal((n, n, 2)) @ [1.0, 1j] * np.outer(low, low)
    u = np.fft.ifft2(uhat)
    u *= 0.3 / np.max(np.abs(u))
    return Field(lx, ly, u, poisson_v(np.abs(u) ** 2, lx, ly, DS2, 0.1), 0.0)


def test_t2_commutes_with_crosscheck_bit_for_bit():
    # selftest's oblique sn line, 50 steps.
    m, ell = 0.5, math.pi / 3.0
    sol = family_c(DS2, "sn", m, ell, 0.0, parse_timefn("0"))
    lx, ly = 4.0 * ellipk(m) / math.sin(ell), 4.0 * ellipk(m) / math.cos(ell)
    report, field = crosscheck(sol, lx, ly, 32, 0.05, 1e-3)
    scaled_report, scaled = crosscheck(
        compose([TransformSpec("T2", b=2.0)], sol), 2.0 * lx, 2.0 * ly, 32,
        0.2, 4e-3)
    assert report["n_steps"] == scaled_report["n_steps"] == 50
    assert np.array_equal(2.0 * scaled.u, field.u)
    assert np.array_equal(4.0 * scaled.v, field.v)
    assert 2.0 * scaled_report["max_dev"] == report["max_dev"]


def test_advance_is_t2_equivariant_on_random_data():
    field = band_limited(1)
    scaled = Field(2.0 * field.lx, 2.0 * field.ly, field.u / 2.0,
                   field.v / 4.0, 0.0)
    run = advance(field, DS2, 1e-2, 50)
    scaled_run = advance(scaled, DS2, 4e-2, 50)
    assert np.array_equal(2.0 * scaled_run.u, run.u)
    assert np.array_equal(4.0 * scaled_run.v, run.v)


def test_advance_is_time_reversible():
    # Strang splitting is symmetric: conjugation reverses time, so n steps
    # forward, a conjugate and n more steps come back to the start.
    field = band_limited(2)
    there = advance(field, DS2, 1e-2, 200)
    back = advance(dataclasses.replace(there, u=there.u.conj()), DS2, 1e-2,
                   200)
    assert np.max(np.abs(back.u.conj() - field.u)) <= 1e-13
