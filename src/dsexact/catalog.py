"""Concrete solution families of the governing system

    2i u_t + e1 u_xx + u_yy - 2 e2 |u|^2 u - 2 u v = 0,
    v_xx - e1 (v_yy + 2 (|u|^2)_xx) = 0,

with e1, e2 = +-1 (e1=+1 and e1=-1 select the two variants).  Families are
built from the constructive quadratic-phase pipeline, not from transcribed
closed forms, so each returned Solution is exact by construction and is
certified downstream by the finite-difference residual oracle.

family_a   separable amplitude, Gaussian-free: driven by one increasing
           function Im(t).  With b' = -Im''/(4 Im') - e1 Im'/2 and
           a' = e1 b' + Im', the amplitude is c*sqrt(Im') and

               v = (e1 x^2 + y^2) * [Im'''/(4 Im') - 3 Im''^2/(8 Im'^2)
                                     - Im'^2/2] - e2 c^2 Im'.

family_b   profile linear in the stretched coordinates (e1=+1 only).  The
           mean-flow constraint, including its (|u|^2)_xx source term,
           forces e2=+1 and exp(4*Im) = 3 a^2/b^2.

family_c   travelling-line profiles over the eight profile kinds.  With
           the phase a'(t) x^2 + b'(t) y^2, the modulus equation becomes a
           transport equation solved exactly by

               xi = exp(-e1 a - b) theta(w1, w2),
               w1 = exp(-2 e1 a) x,  w2 = exp(-2 b) y,

           for any two-variable theta.  The line takes theta = nu(w) along
           w = zeta w1 + eta w2 + l1, with (zeta, eta) = (sinh, cosh)(l)
           for e1=+1 and (sin, cos)(l) for e1=-1, so eta^2 - e1 zeta^2 = 1.
           A profile nu = A f with f'' = p f^3 + q f reduces everything to

               -E nu'' + 2 c nu + 2 (e2 + kappa) nu^3 = 0,  E = eta(2l),

           solved by c = E q/2 and A = sqrt(E p / (2 (e2 + kappa))).  The
           mean-flow constraint fixes the nu^2 coefficient in v to
           kappa = -2 zeta^2: (d_xx - e1 d_yy) on functions of w gives
           -e1 exp(-4b) (.)'' and the 2 (xi^2)_xx source gives
           2 zeta^2 exp(-8b) (nu^2)'', so the constraint leaves
           -e1 (kappa + 2 zeta^2) exp(-8b) (nu^2)'' and only that kappa
           cancels it.  The residual oracle is the arbiter of record.

Each family, like each transform in ``symmetry``, is one closure
``fields(t, x, y) -> (u, v, ok)`` that computes its jets, profile and both
fields once; a transform reads the layer below with ``eval_solution``.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .elliptic import SINGULARITY_GUARD, make_profile
from .errors import ConfigError, real, real_array
from .timefn import TimeFunction, jet_arrays

__all__ = ["Variant", "Solution", "family_a", "family_b", "family_c",
           "eval_solution", "IM_SLOPE_CUTOFF"]

# Below this slope the family-A construction is treated as degenerate.
IM_SLOPE_CUTOFF = 1e-8

# Below this |e2 + kappa| the family-C cubic match is degenerate.
_DEGENERATE_TOL = 1e-14


@dataclass(frozen=True)
class Variant:
    """Sign pair selecting the variant: eps1, eps2 = +1 or -1, as integers."""

    eps1: int
    eps2: int

    def __post_init__(self):
        if any(isinstance(e, bool) or not hasattr(e, "__index__")
               or e not in (1, -1) for e in (self.eps1, self.eps2)):
            raise ConfigError(f"variant signs must be the integers +-1, "
                              f"got ({self.eps1!r}, {self.eps2!r})")


@dataclass(frozen=True)
class Solution:
    """An evaluable exact solution pair (u complex, v real).

    ``u``, ``v`` and ``valid`` take floats or numpy arrays ``t, x, y`` that
    broadcast together; time-only factors take the shape of ``t``.
    ``valid`` is a bool mask, False inside the guard radius of any profile
    pole, wherever a family constraint fails, where a coefficient jet is
    undefined or overflows (see ``jet_arrays``), and where ``u`` or ``v``
    is not finite; ``u`` and ``v`` are only meaningful where it is True.
    Each layer selects all three from one ``fields`` that reads any layer
    below through ``eval_solution`` (see ``solution``).  ``provenance`` is
    the config ``cli`` rebuilds it from; ``derived``, the forced constants."""

    variant: Variant
    u: Callable
    v: Callable
    valid: Callable
    provenance: dict = field(default_factory=dict)
    derived: dict = field(default_factory=dict)


# Each layer's fields within the eval_solution call in progress, or None.
_scope = ContextVar("dsexact_eval_scope", default=None)


def solution(variant: Variant, fields, provenance, derived=None) -> Solution:
    """The Solution whose ``u``, ``v`` and ``valid`` select from one layer's
    ``fields(t, x, y) -> (u, v, ok)``, run under ``np.errstate(all=
    "ignore")``, with ``ok`` False where ``u`` or ``v`` is not finite, and
    whose provenance is ``provenance`` under ``variant``'s signs, as the
    ints JSON takes.  Within an ``eval_solution`` call ``fields`` runs once
    per identity of ``t``, ``x`` and ``y``, so the three selectors share
    it; outside a call each selector runs it afresh.  A transform's
    ``fields`` reads the layer below with one ``eval_solution`` call, a
    scope of its own, so any call runs each layer beneath once."""
    def run(t, x, y):
        memo = _scope.get()
        if memo is None:
            memo = {}
        key = (fields, id(t), id(x), id(y))
        if key not in memo:
            with np.errstate(all="ignore"):
                u, v, ok = fields(t, x, y)
                ok = ok & np.isfinite(u) & np.isfinite(v)
            # The entry keeps its arguments: no id is reused meanwhile.
            memo[key] = (u, v, ok), (t, x, y)
        return memo[key][0]

    signs = {"eps1": int(variant.eps1), "eps2": int(variant.eps2)}
    return Solution(variant, lambda t, x, y: run(t, x, y)[0],
                    lambda t, x, y: run(t, x, y)[1],
                    lambda t, x, y: run(t, x, y)[2],
                    {"variant": signs, **provenance}, derived or {})


def eval_solution(sol: Solution, t, x, y):
    """Evaluate (u, v, valid) at broadcastable points t, x, y.

    ``valid``, ``u`` and ``v`` are called once each, on t, x and y as float
    arrays of the shapes passed; ``u`` and ``v`` are NaN where ``valid``,
    broadcast to the common shape, is False.  Each layer computes its fields
    once per call (see ``solution``).  Returns arrays of the broadcast shape
    (numpy scalars for scalar input): where ``valid`` is True throughout and
    the three already have that shape and dtype, the layer's own arrays,
    not copies.  A t, x or y not of real numbers, or shapes that do not
    broadcast, is a ConfigError.
    """
    t, x, y = (real_array(a, name) for a, name in zip((t, x, y), "txy"))
    try:
        shape = np.broadcast(t, x, y).shape
    except ValueError:
        raise ConfigError(f"t, x and y do not broadcast: shapes {t.shape}, "
                          f"{x.shape} and {y.shape}") from None
    token = _scope.set({})
    try:
        ok = np.asarray(sol.valid(t, x, y), bool)
        u, v = np.asarray(sol.u(t, x, y)), np.asarray(sol.v(t, x, y))
        if not (ok.shape == u.shape == v.shape == shape and ok.all()
                and u.dtype == complex and v.dtype == float):
            ok = np.broadcast_to(ok, shape)
            u = np.where(ok, u, complex("nan"))
            v = np.where(ok, v, math.nan)
    finally:
        _scope.reset(token)
    return u[()], v[()], ok[()]


# ---------------------------------------------------------------------------
# Family A.
# ---------------------------------------------------------------------------

def family_a(variant: Variant, im: TimeFunction, c: float) -> Solution:
    """Separable family driven by an increasing function Im(t).

    ``valid`` is False where Im'(t) is not above ``IM_SLOPE_CUTOFF``; ``u``
    and ``v`` are meaningless there.
    """
    eps1, eps2 = variant.eps1, variant.eps2
    c = real(c, "c")

    def fields(t, x, y):
        j, ok = jet_arrays(im, t)
        alpha_p = 0.5 * j.d1 - eps1 * j.d2 / (4.0 * j.d1)
        beta_p = -j.d2 / (4.0 * j.d1) - eps1 * j.d1 / 2.0
        u = c * np.sqrt(j.d1) * np.exp(
            1j * (alpha_p * x * x + beta_p * y * y))
        quad = (j.d3 / (4.0 * j.d1)
                - 3.0 * j.d2 * j.d2 / (8.0 * j.d1 * j.d1)
                - j.d1 * j.d1 / 2.0)
        v = quad * (eps1 * x * x + y * y) - eps2 * c * c * j.d1
        return u, v, ok & (j.d1 > IM_SLOPE_CUTOFF)

    return solution(variant, fields, {"family": "A",
                                      "params": {"Im": im.source, "c": c}})


# ---------------------------------------------------------------------------
# Family B.
# ---------------------------------------------------------------------------

def family_b(variant: Variant, a: float, b: float, c: float,
             beta: TimeFunction) -> Solution:
    """Linear-profile family, e1=+1 only, with the Im forced by the
    mean-flow constraint, Im = (1/4) ln(3 a^2/b^2), which exists only for
    e2=+1."""
    if variant.eps1 != 1:
        raise ConfigError("family B requires eps1 = +1")
    a, b, c = (real(x, name) for x, name in zip((a, b, c), "abc"))
    if a == 0.0 or b == 0.0:
        raise ConfigError("family B needs a*b != 0; use family A for a=b=0")
    if variant.eps2 != 1:
        raise ConfigError("family B existence condition requires eps2 = +1")
    ratio = 3.0 * a * a / (b * b) if b * b else math.inf
    if not 0.0 < ratio < math.inf:
        raise ConfigError(f"family B: a={a!r}, b={b!r} give 3 a^2/b^2 "
                          f"outside the floating-point range")
    im_value = 0.25 * math.log(ratio)
    e2i = math.exp(-2.0 * im_value)

    def fields(t, x, y):
        # Transport amplitude exp(-alpha - beta) * theta(w1, w2) with
        # alpha = beta + Im and theta = a*w1 + b*w2 + c in the stretched
        # coordinates w1 = exp(-2 alpha) x, w2 = exp(-2 beta) y, times the
        # quadratic phase beta' (x^2 + y^2).
        j, ok = jet_arrays(beta, t)
        alpha = j.f + im_value
        e2b = np.exp(-2.0 * j.f)
        w1 = np.exp(-2.0 * alpha) * x
        w2 = e2b * y
        amp = np.exp(-alpha - j.f) * (a * w1 + b * w2 + c)
        u = amp * np.exp(1j * (j.d1 * x * x + j.d1 * y * y))
        quad = j.d2 + 2.0 * j.d1 * j.d1
        e8b = e2b ** 4
        vxx = quad + a * a * e2i ** 3 * e8b
        vyy = quad + b * b * e2i * e8b
        cross = 2.0 * a * b * e2i ** 2 * e8b
        linear = c * e2i * e2b ** 2 * (
            2.0 * a * e2i * e2b * x + 2.0 * b * e2b * y + c)
        v = -vxx * x * x - vyy * y * y - cross * x * y - linear
        return u, v, ok

    return solution(variant, fields, {"family": "B", "params": {
        "a": a, "b": b, "c": c, "beta": beta.source}}, {"Im": im_value})


# ---------------------------------------------------------------------------
# Family C.
# ---------------------------------------------------------------------------

def family_c(variant: Variant, kind: str, m: float | None, ell: float,
             ell1: float, beta: TimeFunction) -> Solution:
    """Travelling-line family over the profile zoo.

    Raises ConfigError where the line direction (zeta, eta, E) is not
    finite (cosh(2 ell) overflows above ell ~ 355, and 2 ell itself above
    ~9e307), where the modulus of an elliptic kind is outside [0, 1), and
    where the cubic match against the forced kappa = -2 zeta^2 fails:
    e2 + kappa vanishes, or A^2 < 0.
    """
    eps1, eps2 = variant.eps1, variant.eps2
    ell, ell1 = real(ell, "ell"), real(ell1, "ell1")
    odd, even = (math.sinh, math.cosh) if eps1 == 1 else (math.sin, math.cos)
    try:
        zeta, eta, E = odd(ell), even(ell), even(2.0 * ell)
    except (OverflowError, ValueError):
        zeta = eta = E = math.nan
    if not all(map(math.isfinite, (zeta, eta, E))):
        raise ConfigError(f"ell={ell!r}: the line direction of the eps1="
                          f"{eps1:+d} branch is not finite")
    profile = make_profile(kind, m)
    kappa = -2.0 * zeta * zeta
    if abs(eps2 + kappa) < _DEGENERATE_TOL:
        raise ConfigError(f"cubic coefficient eps2+kappa vanishes "
                          f"(eps2={eps2}, kappa={kappa})")
    a2 = E * profile.p / (2.0 * (eps2 + kappa))
    if a2 < 0.0:
        raise ConfigError(
            f"amplitude^2 = {a2:g} < 0 for kind '{profile.kind}' "
            f"(E={E:g}, kappa={kappa:g}, eps2={eps2})")
    amp, c_v = math.sqrt(a2), E * profile.q / 2.0

    def fields(t, x, y):
        j, ok = jet_arrays(beta, t)
        stretch = np.exp(-2.0 * j.f)
        w = stretch * (zeta * x + eta * y) + ell1
        value = profile.value(w)
        quad = eps1 * x * x + y * y
        u = amp * stretch * value * np.exp(1j * j.d1 * quad)
        nu = amp * value
        gamma = -(j.d2 + 2.0 * j.d1 * j.d1)
        v = gamma * quad + stretch * stretch * (c_v + kappa * nu * nu)
        return u, v, ok & (profile.pole_distance(w) > SINGULARITY_GUARD)

    return solution(variant, fields, {"family": "C", "params": {
        "kind": kind, **({} if m is None else {"m": profile.m}), "ell": ell,
        "ell1": ell1, "beta": beta.source}}, {
        "amplitude": amp, "v_constant": c_v, "v_quad_coeff": kappa})
