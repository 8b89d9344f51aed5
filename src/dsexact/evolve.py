"""Independent dynamical cross-check: split-step Fourier evolution of the
e1=-1 variant on a periodic box.

The evolution equation splits into an exactly solvable linear part,

    2i u_t + e1 u_xx + u_yy = 0   ->   uhat *= exp(-i (e1 kx^2 + ky^2) dt / 2),

and an exactly solvable nonlinear part,

    2i u_t = 2 e2 |u|^2 u + 2 u v   ->   u *= exp(-i (e2 |u|^2 + v) dt),

where v comes from the spectral inversion of the mean-flow constraint
(e1=-1 makes it elliptic):

    vhat(k) = -2 kx^2 / (kx^2 + ky^2) * ghat(k),   g = |u|^2,  k != 0.

|u| is pointwise invariant under the nonlinear phase rotation, so v is
frozen during that substep and the rotation is exact.  The k=0 mode of v is
a free gauge constant; it feeds a uniform phase into u, and ``advance``
keeps it at the mean of the given field's v.

A Strang step is half linear, full nonlinear, half linear; over n steps the
adjacent halves compose into full linear steps (Strang 1968).  A step of
``advance`` runs one complex FFT pair and one real pair for v, as 1-D FFTs
axis by axis into buffers made once per call, and builds its rotation
exp(-i theta) = (1 - tau^2 - 2i tau) / (1 + tau^2) from one vectorised
tau = tan(theta / 2), where numpy's sin and cos run scalar loops.  v is
recomputed only for the final field, and ``crosscheck`` returns that field,
the one checked, as its snapshot.  Whether a solution fits the box is
decided numerically, by sampling its fields one grid step past each edge.

The e1=+1 variant is excluded on purpose: its constraint is a wave operator,
resonant on kx^2 = ky^2 under periodic conditions.  Solutions of that
variant are still verified by the residual oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .catalog import Solution, Variant, eval_solution
from .errors import BlowupError, ConfigError, PeriodicityError, real

__all__ = ["Field", "make_field", "poisson_v", "advance", "step", "mass",
           "crosscheck", "MAX_BOX_N"]

# Wraparound mismatch (relative to the field scale) beyond which a solution
# is rejected as aperiodic on the requested box.
_PERIODICITY_TOL = 1e-9
# Largest mass drift, relative to the initial mass, that a cross-check
# passes: each substep conserves the mass, so only roundoff moves it.
_MASS_DRIFT = 1e-10
# Most steps a cross-check takes: about twenty minutes at n = 128, where a
# step takes about 1.1 ms on a 2-core x86-64 VM (numpy 2.4).
_MAX_STEPS = 10 ** 6
# Largest count of a box grid axis: an evolution holds about 204 bytes a grid
# point, 860 MB at 2048 x 2048 (tracemalloc, n = 512 scaled, numpy 2.4).
MAX_BOX_N = 2048


@dataclass(frozen=True)
class Field:
    """Uniform-grid samples of (u, v) on a periodic box at one time.

    u[ix, iy] lives at (ix * (lx / nx), iy * (ly / ny)); the mean of v is
    the gauge of the mean flow.  A u or v not a numpy array, a u not
    complex128, a v not float64, u and v not of one 2-D shape, steps that
    ``_steps`` refuses or a t not real are a ConfigError; the Field is
    frozen, so that check holds for its life.
    """

    lx: float
    ly: float
    u: np.ndarray
    v: np.ndarray
    t: float

    def __post_init__(self):
        for name, grid in (("u", self.u), ("v", self.v)):
            if not isinstance(grid, np.ndarray):
                raise ConfigError(f"{name}: expected a numpy array, got a "
                                  f"{type(grid).__name__}")
        if (self.u.ndim != 2 or self.v.shape != self.u.shape
                or self.u.dtype != complex or self.v.dtype != float):
            raise ConfigError(f"u and v grids must have the same 2-D shape, "
                              f"got {self.u.shape} of {self.u.dtype} and "
                              f"{self.v.shape} of {self.v.dtype} (u must be "
                              f"complex128, v float64)")
        _steps(self.lx, self.ly, self.u.shape)
        object.__setattr__(self, "t", real(self.t, "t"))

    def axes(self):
        """The coordinates (xs, ys) of u's rows and columns."""
        steps = _steps(self.lx, self.ly, self.u.shape)
        return tuple(np.arange(n) * d for n, d in zip(self.u.shape, steps))


def _steps(lx: float, ly: float, shape):
    """The box grid's steps (lx / nx, ly / ny), computed here alone: a
    ConfigError unless lx and ly are real numbers and both steps are > 0."""
    dx, dy = (real(length, name) / (n or math.nan)
              for length, name, n in zip((lx, ly), ("lx", "ly"), shape))
    if not (0.0 < dx and 0.0 < dy):
        raise ConfigError(f"the {shape[0]} x {shape[1]} grid needs finite "
                          f"steps lx/nx, ly/ny > 0, got lx={lx}, ly={ly}")
    return dx, dy


def _wavenumbers(shape, lx: float, ly: float, variant: Variant):
    """kx^2 (column) and ky^2 (row) of the box grid, and the Poisson
    multiplier vhat/ghat = -2 kx^2 / (kx^2 + ky^2) on the rfft2
    half-spectrum (0 at k=0, whose gauge is set separately).  The one check
    of an evolve problem: eps1 != -1, a grid not 2-D with integer counts 2
    to MAX_BOX_N, steps that ``_steps`` refuses, or a k^2 that overflows or
    underflows to a 0/0 multiplier is a ConfigError."""
    if variant.eps1 != -1:
        raise ConfigError(
            "spectral inversion of the mean-flow constraint needs eps1=-1; "
            "the eps1=+1 constraint is hyperbolic on a periodic box")
    if len(shape) != 2 or not all(hasattr(n, "__index__")
                                  and 2 <= n <= MAX_BOX_N for n in shape):
        raise ConfigError(f"the {' x '.join(map(str, shape))} grid is not "
                          f"2-D with integer counts from 2 to {MAX_BOX_N}")
    (nx, ny), (dx, dy) = shape, _steps(lx, ly, shape)
    with np.errstate(all="ignore"):
        kx2 = (2.0 * math.pi * np.fft.fftfreq(nx, d=dx))[:, None] ** 2
        ky2 = (2.0 * math.pi * np.fft.fftfreq(ny, d=dy))[None, :] ** 2
        k2 = kx2 + ky2[:, :ny // 2 + 1]
        k2[0, 0] = 1.0
        multiplier = -2.0 * kx2 / k2
    if not all(np.isfinite(a).all() for a in (kx2, ky2, multiplier)):
        raise ConfigError(f"the {nx} x {ny} box of lx={lx}, ly={ly} has "
                          f"wavenumbers out of the double range")
    return kx2, ky2, multiplier


def _invert(g, multiplier, v_mean, out=None, work=(None, None)):
    """v of g = |u|^2, by real FFTs per axis into ``work`` and ``out``."""
    ghat = np.fft.fft(np.fft.rfft(g, axis=1, out=work[0]), axis=0,
                      out=work[1])
    ghat *= multiplier
    ghat[0, 0] = v_mean * g.size
    return np.fft.irfft(np.fft.ifft(ghat, axis=0, out=work[0]),
                        n=g.shape[1], axis=1, out=out)


def poisson_v(g: np.ndarray, lx: float, ly: float, variant: Variant,
              v_mean: float) -> np.ndarray:
    """Invert the mean-flow constraint for v given g = |u|^2 (e1=-1 only)."""
    g = np.asarray(g, dtype=float)
    return _invert(g, _wavenumbers(g.shape, lx, ly, variant)[2], v_mean)


def mass(field: Field) -> float:
    """Discrete |u|^2 mass, sum |u|^2 dx dy, on the steps ``Field`` checked."""
    dx, dy = _steps(field.lx, field.ly, field.u.shape)
    return float(np.sum(np.abs(field.u) ** 2)) * dx * dy


@np.errstate(over="ignore", invalid="ignore")  # a non-finite u: BlowupError
def advance(field: Field, variant: Variant, dt: float,
            n_steps: int) -> Field:
    """``n_steps`` Strang steps of size dt with the adjacent linear halves
    fused into full steps; v keeps the mean of field.v (the gauge) and is
    recomputed only for the final field.  Zero steps return ``field``,
    after ``_wavenumbers``'s checks and a ConfigError unless dt is a real
    number > 0 and n_steps an integer 0 to _MAX_STEPS; a non-finite u,
    BlowupError."""
    kx2, ky2, multiplier = _wavenumbers(field.u.shape, field.lx, field.ly,
                                        variant)
    dt = real(dt, "dt", math.ulp(0.0))
    n_steps = real(n_steps, "n_steps", 0, _MAX_STEPS, integer=True)
    if n_steps < 1:
        return field
    v_mean = float(np.mean(field.v))
    phase = -1j * (variant.eps1 * kx2 + ky2) * dt
    half, full = np.exp(phase / 4.0), np.exp(phase / 2.0)
    # u and its spectrum share one buffer, and each FFT runs through
    # ``rotation``: axis 1, then axis 0, the 2-D wrappers' order and bits.
    u = np.fft.fft2(field.u) * half
    rotation, (g, theta, v) = np.empty_like(u), np.empty((3, *u.shape))
    work = np.empty((2, u.shape[0], u.shape[1] // 2 + 1), complex)
    for i in range(n_steps):
        np.fft.ifft(np.fft.ifft(u, axis=1, out=rotation), axis=0, out=u)
        np.square(u.real, out=g)
        g += np.square(u.imag, out=theta)
        _invert(g, multiplier, v_mean, v, work)
        np.add(np.multiply(g, variant.eps2, out=theta), v, out=theta)
        theta *= dt
        # A non-finite u makes theta non-finite, and a finite theta keeps
        # |u| finite through the rotation.
        if not np.all(np.isfinite(theta)):
            raise BlowupError(f"NaN or overflow in u during time step "
                              f"(step {i + 1} of {n_steps})")
        # Halved after the check: theta alone may overflow.  q = 2/(1+tau^2),
        # and the real part 1 - tau (tau q) rounds against 1, not q ~ 2.
        tau = np.tan(np.multiply(theta, 0.5, out=theta), out=theta)
        q = np.divide(2.0, np.add(np.square(tau, out=g), 1.0, out=g), out=g)
        np.multiply(np.negative(tau, out=tau), q, out=rotation.imag)
        np.subtract(1.0, np.multiply(tau, rotation.imag, out=g),
                    out=rotation.real)
        u *= rotation
        np.fft.fft(np.fft.fft(u, axis=1, out=rotation), axis=0, out=u)
        u *= full if i + 1 < n_steps else half
    u = np.fft.ifft2(u)
    v = _invert(u.real ** 2 + u.imag ** 2, multiplier, v_mean)
    return replace(field, u=u, v=v, t=field.t + n_steps * dt)


def step(field: Field, variant: Variant, dt: float) -> Field:
    """One Strang step: half linear, full nonlinear, half linear."""
    return advance(field, variant, dt, 1)


def _sample_box(sol: Solution, lx: float, ly: float, n: int, t: float):
    """u and v on the n x n box grid at time t, from one sample of the grid
    extended one step past the box: each point must be valid and rows and
    columns n, n+1 must repeat 0, 1, or PeriodicityError is raised."""
    xs, ys = (np.arange(n + 2) * d for d in _steps(lx, ly, (n, n)))
    u, v, ok = eval_solution(sol, t, xs[:, None], ys[None, :])
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        raise PeriodicityError(
            f"solution invalid at grid point ({xs[i]:g}, {ys[j]:g}) at "
            f"t={t:g}")
    scale = max(1.0, np.max(np.abs(u)), np.max(np.abs(v)))
    # Two phases per axis: one alone passes sn on a 2K box (antiperiodic).
    err = max(np.max(np.abs(f[n:] - f[:2])) for f in (u, u.T, v, v.T))
    if err > _PERIODICITY_TOL * scale:
        raise PeriodicityError(
            f"fields not periodic on the {lx:g} x {ly:g} box at t={t:g} "
            f"(wraparound mismatch {err:g})")
    # Copies, not strided views, keep np.mean's summation order (the gauge).
    return np.ascontiguousarray(u[:n, :n]), np.ascontiguousarray(v[:n, :n])


def make_field(sol: Solution, lx: float, ly: float, n: int) -> Field:
    """Sample a Solution on an n x n periodic box grid at t = 0.

    The gauge that ``advance`` keeps is the grid mean of the exact v.  A
    variant, box or grid that ``_wavenumbers`` refuses is a ConfigError
    before any sampling; an invalid or aperiodic solution, PeriodicityError.
    """
    _wavenumbers((n, n), lx, ly, sol.variant)
    u, v = _sample_box(sol, lx, ly, n, 0.0)
    return Field(lx, ly, u, v, 0.0)


def crosscheck(sol: Solution, lx: float, ly: float, n: int, t_final: float,
               dt: float, tol: float = math.inf):
    """Evolve a sampled catalog solution and report its drift.

    The fields must wrap around the given box: the extended grid is sampled
    at the start and end times, both before any step, and PeriodicityError
    is raised otherwise.  Returns ``(report, field)``: a JSON-ready report
    with max/L2 deviations of u from the exact solution at the end time,
    the mass drift, the gauge v_mean (the mean of v at t = 0), ``tol`` and
    the verdict ``"pass"``: max_dev <= tol and mass drift <= _MASS_DRIFT *
    mass_initial (the drift bound alone at the default inf), and the
    evolved Field.  Unless ``dt`` > 0 and ``t_final`` >= 0 are real
    numbers, the step count ``t_final / dt`` rounds to 1 to _MAX_STEPS,
    ``tol`` is a real number >= 0 (inf too) and ``make_field`` takes the
    variant, box and grid, ConfigError is raised before any sampling.
    """
    t_final, dt = real(t_final, "t_final", 0.0), real(dt, "dt", math.ulp(0.0))
    tol = real(tol, "tol", 0.0, math.inf)
    n_steps = round(min(t_final / dt, 2.0 * _MAX_STEPS))  # inf: over the cap
    if n_steps == 0:
        raise ConfigError(f"evolve would run zero steps: T={t_final} is "
                          f"less than half a step dt={dt}")
    if n_steps > _MAX_STEPS:
        raise ConfigError(f"evolve would run {t_final / dt:.3g} steps: "
                          f"T={t_final} and dt={dt} exceed the cap of "
                          f"{_MAX_STEPS} steps")
    t_end = n_steps * dt
    start = make_field(sol, lx, ly, n)
    u_exact, _ = _sample_box(sol, lx, ly, n, t_end)
    field = advance(start, sol.variant, dt, n_steps)
    diff = field.u - u_exact
    max_dev = float(np.max(np.abs(diff)))
    mass0, mass1 = mass(start), mass(field)
    drift = abs(mass1 - mass0)
    return {
        "max_dev": max_dev,
        "l2_dev": math.sqrt(mass(replace(field, u=diff))),
        "mass_initial": mass0,
        "mass_final": mass1,
        "mass_drift": drift,
        "n_steps": n_steps,
        "t_final": t_end,
        "dt": dt,
        "n": int(n),
        "box": [lx, ly],
        "v_mean": float(np.mean(start.v)),
        "tol": tol,
        "pass": bool(max_dev <= tol and drift <= _MASS_DRIFT * mass0),
    }, field
