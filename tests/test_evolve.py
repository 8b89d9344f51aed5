import dataclasses
import json
import math
import re

import numpy as np
import pytest

from dsexact import BlowupError, ConfigError, Field, PeriodicityError, \
    UnsupportedVariant, Variant, advance, cli, crosscheck, ellipk, evolve, \
    family_a, family_c, mass, parse_timefn
from dsexact.evolve import make_field, poisson_v, step
from dsexact.symmetry import apply_t1

DS2 = Variant(-1, 1)


def sn_line(m=0.5):
    return family_c(DS2, "sn", m, math.pi / 2.0, 0.0, parse_timefn("0"))


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
    v = poisson_v(np.abs(field.u) ** 2, L, L, DS2, field.v_mean)
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
    with pytest.raises(UnsupportedVariant, match="hyperbolic on a periodic"):
        poisson_v(np.zeros((8, 8)), 1.0, 1.0, Variant(1, 1), 0.0)


@pytest.mark.parametrize("lx, ly", [(-1.0, 1.0), (1.0, 0.0),
                                    (math.inf, 1.0), (1.0, math.nan),
                                    (5e-324, 1.0)])
def test_poisson_refuses_a_box_that_is_not_finite_and_positive(lx, ly):
    # Never a v on a mirrored or empty box.  5e-324 / 8 rounds to a step of
    # 0, which fftfreq divided by.
    with pytest.raises(ConfigError, match=f"got lx={lx}, ly={ly}"):
        poisson_v(np.ones((8, 8)), lx, ly, DS2, 0.0)


def test_field_takes_any_grid_and_advance_checks_it():
    # The step's one check refuses an axis of fewer than 2 points, also for
    # zero steps, and steps a 12 x 16 grid; a box length that is not
    # positive is refused as the Field is built.
    def field(shape, ly=1.0):
        return Field(1.0, ly, np.zeros(shape, complex), np.zeros(shape),
                     0.0, 0.0)

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
    with pytest.raises(ConfigError, match=f"got lx={lx}, ly={ly}"):
        Field(lx, ly, np.zeros(shape, complex), np.zeros(shape), 0.0, 0.0)


@pytest.mark.parametrize("dt, n_steps", [
    (math.nan, 1),  # was a BlowupError
    (-1e-3, 1),  # stepped back to t = -0.001
    (math.inf, 0),  # refused before the zero-step return
    (1e-3, 2.5),  # was a bare TypeError
    (1e-3, -1),  # returned the field unchanged
    (1e-3, "1"),
])
def test_advance_refuses_a_step_that_is_not_finite_and_positive(dt, n_steps):
    field = Field(1.0, 1.0, np.ones((8, 8), complex), np.zeros((8, 8)),
                  0.0, 0.0)
    with pytest.raises(ConfigError, match=re.escape(
            f"got dt={dt}, n_steps={n_steps!r}")):
        advance(field, DS2, dt, n_steps)


@pytest.mark.parametrize("name, value", [("u", np.ones(4)), ("lx", -1.0)],
                         ids=["u", "lx"])
def test_field_is_frozen(name, value):
    # mass, advance and write_box_csv rely on the checks the Field was
    # built with; an assignment would bypass them.
    field = Field(1.0, 1.0, np.ones((8, 8), complex), np.zeros((8, 8)),
                  0.0, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(field, name, value)
    assert mass(field) == 1.0


def test_field_requires_a_2d_grid():
    # A 1-D Field would reach mass and advance, which unpack a 2-D shape.
    with pytest.raises(ConfigError, match=r"same 2-D shape, got \(8,\)"):
        Field(1.0, 1.0, np.zeros(8, complex), np.zeros(8), 0.0, 0.0)


def test_field_requires_equal_grids():
    with pytest.raises(ConfigError, match="u and v grids must have the same"):
        Field(1.0, 1.0, np.zeros((4, 4), complex), np.zeros((4, 8)),
              0.0, 0.0)


def test_advance_rejects_plus_branch():
    field = Field(1.0, 1.0, np.zeros((4, 4), complex), np.zeros((4, 4)),
                  0.0, 0.0)
    for n_steps in (1, 0):
        with pytest.raises(UnsupportedVariant, match="hyperbolic on a"):
            advance(field, Variant(1, 1), 1e-3, n_steps)


def test_zero_field_stays_zero():
    n = 16
    field = Field(2.0 * math.pi, 2.0 * math.pi, np.zeros((n, n), complex),
                  np.zeros((n, n)), 0.0, 0.0)
    out = step(field, DS2, 1e-2)
    assert np.all(out.u == 0.0)


def test_flat_field_is_stationary():
    # u = c with v_mean = -e2 c^2: the nonlinear phase cancels exactly.
    n = 16
    c = 0.8
    field = Field(2.0 * math.pi, 2.0 * math.pi,
                  np.full((n, n), c, dtype=complex), np.zeros((n, n)),
                  0.0, -c * c)
    out = field
    for _ in range(20):
        out = step(out, DS2, 1e-2)
    assert np.max(np.abs(out.u - c)) <= 1e-13


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
                  np.zeros((n, n)), 0.0, 0.0)
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
    boosted = apply_t1(sn_line(0.5), parse_timefn(f"{w!r}*t"),
                       parse_timefn("0"), parse_timefn("0"))
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


@pytest.mark.parametrize("n", [24, 45, 48])
def test_crosscheck_on_a_box_of_any_length(n):
    # numpy's FFT takes any length: boxes that are not powers of two track
    # the stationary line as closely as n = 32 and 64 do (about 1e-9).
    L = 4.0 * ellipk(0.5)
    rep, field = crosscheck(sn_line(0.5), L, L, n, 0.05, 1e-3)
    assert rep["max_dev"] <= 1e-8
    assert rep["n_steps"] == 50 and field.u.shape == (n, n)


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
    boosted = apply_t1(sn_line(m), parse_timefn(f"{w!r}*t"),
                       parse_timefn("0"), parse_timefn("0"))
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
    boosted = apply_t1(oblique, parse_timefn("0.7*t"), parse_timefn("0"),
                       parse_timefn("0"))
    with pytest.raises(PeriodicityError, match="wraparound mismatch"):
        crosscheck(boosted, L / math.sin(ell), L / math.cos(ell), 32, 0.1,
                   1e-3)
    ds1 = family_c(Variant(1, 1), "sn", m, 0.3, 0.0, parse_timefn("0"))
    with pytest.raises(UnsupportedVariant, match="hyperbolic on a periodic"):
        make_field(ds1, L, L, 32)
    with pytest.raises(UnsupportedVariant, match="hyperbolic on a periodic"):
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
           "evolve": {"box": [4.0, 4.0], "n": 16, "T": 0.01, "dt": 1e-3},
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
    field = Field(1.0, 1.0, u, np.zeros((n, n)), 0.0, 0.0)
    with pytest.raises(BlowupError, match=r"\(step 1 of 1\)"):
        step(field, DS2, 1e-3)
