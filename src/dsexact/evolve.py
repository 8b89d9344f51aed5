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
a free gauge constant; it feeds a uniform phase into u, so cross-checks pin
it to the box mean of the exact solution's v.

A Strang step is half linear, full nonlinear, half linear; over n steps the
adjacent halves compose into full linear steps (Strang 1968).  ``advance``
makes one complex FFT pair per step and one real pair for v, recomputes v
only for the final field, and ``crosscheck`` returns that field: a snapshot
is the field that was checked.  Whether a solution fits the box is decided
numerically, by sampling its fields one grid step past each box edge.

The e1=+1 variant is excluded on purpose: its constraint is a wave operator,
resonant on kx^2 = ky^2 under periodic conditions.  Solutions of that
variant are still verified by the residual oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .catalog import Solution, Variant, eval_solution
from .errors import BlowupError, ConfigError, PeriodicityError, \
    UnsupportedVariant

__all__ = ["Field", "make_field", "poisson_v", "advance", "step", "mass",
           "crosscheck"]

# Wraparound mismatch (relative to the field scale) beyond which a solution
# is rejected as aperiodic on the requested box.
_PERIODICITY_TOL = 1e-9
# Most steps a cross-check takes: about half an hour at n = 128, where a step
# takes about 1.6 ms on a 2-core x86-64 VM.
_MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class Field:
    """Uniform-grid samples of (u, v) on a periodic box at one time.

    u[ix, iy] lives at (ix * (lx / nx), iy * (ly / ny)); ``v_mean`` records
    the gauge constant used when reconstructing v from |u|^2.  u and v not
    of one 2-D shape, or steps that ``_steps`` refuses, are a ConfigError;
    the Field is frozen, so that check holds for its life.
    """

    lx: float
    ly: float
    u: np.ndarray
    v: np.ndarray
    t: float
    v_mean: float

    def __post_init__(self):
        if self.u.ndim != 2 or self.v.shape != self.u.shape:
            raise ConfigError(f"u and v grids must have the same 2-D shape, "
                              f"got {self.u.shape} and {self.v.shape}")
        _steps(self.lx, self.ly, self.u.shape)

    def axes(self):
        """The coordinates (xs, ys) of u's rows and columns."""
        steps = _steps(self.lx, self.ly, self.u.shape)
        return tuple(np.arange(n) * d for n, d in zip(self.u.shape, steps))


def _steps(lx: float, ly: float, shape):
    """The box grid's steps (lx / nx, ly / ny), computed here alone: a
    ConfigError unless both are finite and > 0 (an empty axis too)."""
    dx, dy = (length / (n or math.nan) for length, n in zip((lx, ly), shape))
    if not (0.0 < dx < math.inf and 0.0 < dy < math.inf):
        raise ConfigError(f"the {shape[0]} x {shape[1]} grid needs finite "
                          f"steps lx/nx, ly/ny > 0, got lx={lx}, ly={ly}")
    return dx, dy


def _wavenumbers(shape, lx: float, ly: float, variant: Variant):
    """kx^2 (column) and ky^2 (row) of the box grid, and the Poisson
    multiplier vhat/ghat = -2 kx^2 / (kx^2 + ky^2) on the rfft2
    half-spectrum (0 at k=0, whose gauge is set separately).  The one check
    of an evolve problem: eps1 != -1 is UnsupportedVariant, and a grid not
    2-D with 2 or more points an axis, steps that ``_steps`` refuses, or a
    k^2 that overflows or underflows to a 0/0 multiplier a ConfigError."""
    if variant.eps1 != -1:
        raise UnsupportedVariant(
            "spectral inversion of the mean-flow constraint needs eps1=-1; "
            "the eps1=+1 constraint is hyperbolic on a periodic box")
    if len(shape) != 2 or min(shape) < 2:
        raise ConfigError(f"the {' x '.join(map(str, shape))} grid is not "
                          f"2-D with 2 or more points an axis")
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


def _invert(g, multiplier, v_mean):
    vhat = np.fft.rfft2(g) * multiplier
    vhat[0, 0] = v_mean * g.size
    return np.fft.irfft2(vhat, s=g.shape)


def poisson_v(g: np.ndarray, lx: float, ly: float, variant: Variant,
              v_mean: float) -> np.ndarray:
    """Invert the mean-flow constraint for v given g = |u|^2 (e1=-1 only)."""
    g = np.asarray(g, dtype=float)
    return _invert(g, _wavenumbers(g.shape, lx, ly, variant)[2], v_mean)


def mass(field: Field) -> float:
    """Discrete |u|^2 mass, sum |u|^2 dx dy.  It raises nothing: ``Field``
    checks the steps as it is built."""
    dx, dy = _steps(field.lx, field.ly, field.u.shape)
    return float(np.sum(np.abs(field.u) ** 2)) * dx * dy


def advance(field: Field, variant: Variant, dt: float,
            n_steps: int) -> Field:
    """``n_steps`` Strang steps of size dt with the adjacent linear halves
    fused into full steps; v is recomputed only for the final field.  Zero
    steps return ``field`` itself, after the same checks as any other call:
    ``_wavenumbers``'s, and a ConfigError unless dt is finite and > 0 and
    n_steps an integer >= 0.  A u that is not finite raises BlowupError."""
    kx2, ky2, multiplier = _wavenumbers(field.u.shape, field.lx, field.ly,
                                        variant)
    if not (0.0 < dt < math.inf and hasattr(n_steps, "__index__")
            and n_steps >= 0):
        raise ConfigError(f"advance needs a finite dt > 0 and an integer "
                          f"n_steps >= 0, got dt={dt}, n_steps={n_steps!r}")
    if n_steps < 1:
        return field
    phase = -1j * (variant.eps1 * kx2 + ky2) * dt
    half, full = np.exp(phase / 4.0), np.exp(phase / 2.0)
    uhat = np.fft.fft2(field.u)
    uhat *= half
    rotation = np.empty_like(uhat)
    for i in range(n_steps):
        u = np.fft.ifft2(uhat)
        g = u.real ** 2 + u.imag ** 2
        v = _invert(g, multiplier, field.v_mean)
        theta = (variant.eps2 * g + v) * dt
        # A non-finite u makes theta non-finite, and a finite theta keeps
        # |u| finite through the rotation.
        if not np.all(np.isfinite(theta)):
            raise BlowupError(f"NaN or overflow in u during time step "
                              f"(step {i + 1} of {n_steps})")
        # exp(-i theta), built from the cosine and sine of the real theta.
        np.cos(theta, out=rotation.real)
        np.negative(np.sin(theta, out=rotation.imag), out=rotation.imag)
        u *= rotation
        uhat = np.fft.fft2(u)
        uhat *= full if i + 1 < n_steps else half
    u = np.fft.ifft2(uhat)
    v = _invert(u.real ** 2 + u.imag ** 2, multiplier, field.v_mean)
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
    # Copies, not strided views, keep np.mean's summation order (v_mean).
    return np.ascontiguousarray(u[:n, :n]), np.ascontiguousarray(v[:n, :n])


def make_field(sol: Solution, lx: float, ly: float, n: int,
               v_mean=None) -> Field:
    """Sample a Solution on an n x n periodic box grid at t = 0.

    ``v_mean`` None takes the grid mean of the exact v (the gauge that keeps
    the reconstructed v aligned with the exact one).  A variant, box or
    grid that ``_wavenumbers`` refuses is a ConfigError before any sampling,
    and an invalid or aperiodic solution raises PeriodicityError.
    """
    _wavenumbers((n, n), lx, ly, sol.variant)
    u, v = _sample_box(sol, lx, ly, n, 0.0)
    if v_mean is None:
        v_mean = float(np.mean(v))
    return Field(lx, ly, u, v, 0.0, float(v_mean))


def crosscheck(sol: Solution, lx: float, ly: float, n: int, t_final: float,
               dt: float, v_mean=None):
    """Evolve a sampled catalog solution and report its drift.

    The fields must wrap around the given box: the extended grid is sampled
    at the start and end times, both before any step, and PeriodicityError
    is raised otherwise.  Returns ``(report, field)``: a JSON-ready report
    with max/L2 deviations of u from the exact solution at the end time and
    the mass drift, and the evolved Field.  ``dt`` must be positive and
    ``t_final`` non-negative, both finite, ``t_final / dt`` must round to 1
    to _MAX_STEPS steps, and the variant, box and grid must pass
    ``make_field``'s check, or ConfigError is raised before any sampling.
    """
    if not (0.0 < dt < math.inf and 0.0 <= t_final < math.inf
            and t_final / dt < math.inf):
        raise ConfigError(f"evolve needs finite dt > 0, T >= 0 and T/dt, "
                          f"got T={t_final}, dt={dt}")
    n_steps = int(round(t_final / dt))
    if n_steps == 0:
        raise ConfigError(f"evolve would run zero steps: T={t_final} is "
                          f"less than half a step dt={dt}")
    if n_steps > _MAX_STEPS:
        raise ConfigError(f"evolve would run {t_final / dt:.3g} steps: "
                          f"T={t_final} and dt={dt} exceed the cap of "
                          f"{_MAX_STEPS} steps")
    t_end = n_steps * dt
    field = make_field(sol, lx, ly, n, v_mean=v_mean)
    u_exact, _ = _sample_box(sol, lx, ly, n, t_end)
    mass0 = mass(field)
    field = advance(field, sol.variant, dt, n_steps)
    diff = field.u - u_exact
    mass1 = mass(field)
    return {
        "max_dev": float(np.max(np.abs(diff))),
        "l2_dev": math.sqrt(mass(replace(field, u=diff))),
        "mass_initial": mass0,
        "mass_final": mass1,
        "mass_drift": abs(mass1 - mass0),
        "n_steps": n_steps,
        "t_final": t_end,
        "dt": dt,
        "n": n,
        "box": [lx, ly],
        "v_mean": field.v_mean,
    }, field
