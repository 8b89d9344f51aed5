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

family_c   travelling-line profiles nu(w) over the eight profile kinds,
           with amplitude and constants from the cubic match and the
           nu^2 coefficient kappa = -2 zeta^2 in v.

Each family, like each transform in ``symmetry``, is one closure
``fields(t, x, y) -> (u, v, ok)`` that computes its jets, profile and both
fields once; ``eval_solution`` runs it once per layer and call.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ansatz import frame, match_cubic, v_profile_coefficient
from .elliptic import SINGULARITY_GUARD, make_profile
from .errors import ConfigError, MixedCaseUnsupported, NoRealSolution, \
    UnsupportedVariant
from .timefn import TimeFunction, jet_arrays

__all__ = ["Variant", "Solution", "family_a", "family_b", "family_c",
           "eval_solution", "IM_SLOPE_CUTOFF"]

# Below this slope the family-A construction is treated as degenerate.
IM_SLOPE_CUTOFF = 1e-8


@dataclass(frozen=True)
class Variant:
    """Sign pair selecting the variant: eps1 = +1 or -1, eps2 = +1 or -1."""

    eps1: int
    eps2: int

    def __post_init__(self):
        if self.eps1 not in (1, -1) or self.eps2 not in (1, -1):
            raise ConfigError(
                f"variant signs must be +-1, got ({self.eps1}, {self.eps2})")


@dataclass(frozen=True)
class Solution:
    """An evaluable exact solution pair (u complex, v real).

    ``u``, ``v`` and ``valid`` take floats or numpy arrays ``t, x, y`` that
    broadcast together, and return values that broadcast against them.
    ``valid`` is a bool mask, False inside the guard radius of any profile
    pole, wherever a family constraint fails, and where a coefficient jet or
    a stretched coordinate is undefined or overflows (see ``jet_arrays``);
    ``u`` and ``v`` are only meaningful where it is True; families and
    transforms select all three from one ``fields`` (see ``solution``).
    ``provenance`` records family, parameters, and the transform chain.
    """

    variant: Variant
    u: Callable
    v: Callable
    valid: Callable
    provenance: dict = field(default_factory=dict)


# Each layer's fields within the eval_solution call in progress, or None.
_scope = ContextVar("dsexact_eval_scope", default=None)


def solution(variant: Variant, fields, provenance: dict) -> Solution:
    """The Solution whose ``u``, ``v`` and ``valid`` select from one layer's
    ``fields(t, x, y) -> (u, v, ok)``, run under ``np.errstate(all=
    "ignore")``.  Within an ``eval_solution`` call ``fields`` runs once per
    identity of ``t``, ``x`` and ``y``, so the three selectors share it;
    outside a call each selector runs it afresh."""
    def run(t, x, y):
        memo = _scope.get()
        if memo is None:
            memo = {}
        key = (fields, id(t), id(x), id(y))
        if key not in memo:
            with np.errstate(all="ignore"):
                # The entry keeps its arguments: no id is reused meanwhile.
                memo[key] = fields(t, x, y), (t, x, y)
        return memo[key][0]

    return Solution(variant, lambda t, x, y: run(t, x, y)[0],
                    lambda t, x, y: run(t, x, y)[1],
                    lambda t, x, y: run(t, x, y)[2], provenance)


def eval_solution(sol: Solution, t, x, y):
    """Evaluate (u, v, valid) at broadcastable points t, x, y.

    ``valid``, ``u`` and ``v`` are called once each, on the same broadcast
    arrays; ``u`` and ``v`` are NaN where ``valid`` is False.  Within the
    call each layer computes its fields once (see ``solution``); nothing is
    kept from one call to the next.  Returns arrays of the broadcast shape
    (numpy scalars for scalar input).
    """
    t, x, y = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                    for a in (t, x, y)))
    token = _scope.set({})
    try:
        ok = np.broadcast_to(np.asarray(sol.valid(t, x, y), bool), t.shape)
        u = np.where(ok, sol.u(t, x, y), complex("nan"))
        v = np.where(ok, sol.v(t, x, y), math.nan)
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
    c = float(c)

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

    return solution(variant, fields, {"family": "A", "eps1": eps1,
                                      "eps2": eps2, "Im": im.source, "c": c})


# ---------------------------------------------------------------------------
# Family B.
# ---------------------------------------------------------------------------

def family_b(variant: Variant, a: float, b: float, c: float,
             beta: TimeFunction, *, im: float | None = None) -> Solution:
    """Linear-profile family, e1=+1 only.

    The default Im is the value forced by the mean-flow constraint,
    Im = (1/4) ln(3 a^2/b^2), which exists only for e2=+1.  Passing ``im``
    overrides it (useful for demonstrating that other choices fail the
    residual oracle); the override does not change the e1 restriction.
    """
    if variant.eps1 != 1:
        raise UnsupportedVariant("family B requires eps1 = +1")
    a = float(a)
    b = float(b)
    c = float(c)
    if a == 0.0 or b == 0.0:
        raise MixedCaseUnsupported(
            "family B needs a*b != 0; use family A for a=b=0")
    if im is None:
        if variant.eps2 != 1:
            raise NoRealSolution(
                "family B existence condition requires eps2 = +1")
        ratio = 3.0 * a * a / (b * b) if b * b else math.inf
        if not 0.0 < ratio < math.inf:
            raise ConfigError(f"family B: a={a!r}, b={b!r} give 3 a^2/b^2 "
                              f"outside the floating-point range")
        im_value = 0.25 * math.log(ratio)
    else:
        im_value = float(im)
    eps2 = variant.eps2
    e2i = math.exp(-2.0 * im_value)

    def fields(t, x, y):
        # Transport amplitude exp(-alpha - beta) * theta(w1, w2) with
        # alpha = beta + Im and theta = a*w1 + b*w2 + c in the stretched
        # coordinates w1 = exp(-2 alpha) x, w2 = exp(-2 beta) y, times the
        # quadratic phase beta' (x^2 + y^2).
        j, ok = jet_arrays(beta, t)
        alpha = j.f + im_value
        w1 = np.exp(-2.0 * alpha) * x
        w2 = np.exp(-2.0 * j.f) * y
        amp = np.exp(-alpha - j.f) * (a * w1 + b * w2 + c)
        u = amp * np.exp(1j * (j.d1 * x * x + j.d1 * y * y))
        quad = j.d2 + 2.0 * j.d1 * j.d1
        e2b = np.exp(-2.0 * j.f)
        e8b = e2b ** 4
        vxx = quad + eps2 * a * a * e2i ** 3 * e8b
        vyy = quad + eps2 * b * b * e2i * e8b
        cross = 2.0 * a * b * eps2 * e2i ** 2 * e8b
        linear = eps2 * c * e2i * e2b ** 2 * (
            2.0 * a * e2i * e2b * x + 2.0 * b * e2b * y + c)
        v = -vxx * x * x - vyy * y * y - cross * x * y - linear
        return u, v, ok & np.isfinite(w1) & np.isfinite(w2)

    return solution(variant, fields, {"family": "B", "eps1": 1, "eps2": eps2,
                                      "a": a, "b": b, "c": c, "Im": im_value,
                                      "beta": beta.source})


# ---------------------------------------------------------------------------
# Family C.
# ---------------------------------------------------------------------------

def family_c(variant: Variant, kind: str, m: float | None, ell: float,
             ell1: float, beta: TimeFunction, *,
             amplitude: float | None = None,
             v_constant: float | None = None,
             v_quad_coeff: float | None = None) -> Solution:
    """Travelling-line family over the profile zoo.

    Defaults derive amplitude A, the v constant, and the nu^2 coefficient
    from the self-consistent cubic match (kappa = -2 zeta^2).  The keyword
    overrides substitute raw numbers for individual constants; they exist so
    alternative constant sets can be fed to the residual oracle and are
    expected to break exactness.
    """
    eps1, eps2 = variant.eps1, variant.eps2
    fr = frame(eps1, ell, ell1)
    profile = make_profile(kind, m)
    kappa = v_profile_coefficient(fr.zeta) if v_quad_coeff is None \
        else float(v_quad_coeff)
    if amplitude is None or v_constant is None:
        matched = match_cubic(profile, fr.E,
                              v_profile_coefficient(fr.zeta), eps2)
        amp = matched.amplitude if amplitude is None else float(amplitude)
        c_v = matched.c_ode if v_constant is None else float(v_constant)
    else:
        amp = float(amplitude)
        c_v = float(v_constant)
    zeta, eta, ell1 = fr.zeta, fr.eta, fr.ell1

    def fields(t, x, y):
        j, ok = jet_arrays(beta, t)
        stretch = np.exp(-2.0 * j.f)
        w = stretch * (zeta * x + eta * y) + ell1
        value = profile.value(w)
        u = amp * stretch * value * np.exp(
            1j * j.d1 * (eps1 * x * x + y * y))
        nu = amp * value
        gamma = -(j.d2 + 2.0 * j.d1 * j.d1)
        v = gamma * (eps1 * x * x + y * y) \
            + stretch * stretch * (c_v + kappa * nu * nu)
        return u, v, ok & np.isfinite(w) \
            & (profile.pole_distance(w) > SINGULARITY_GUARD)

    return solution(variant, fields, {
        "family": "C", "eps1": eps1, "eps2": eps2, "kind": kind,
        "m": profile.m, "ell": fr.ell, "ell1": ell1, "beta": beta.source,
        "amplitude": amp, "v_constant": c_v, "v_quad_coeff": kappa})
