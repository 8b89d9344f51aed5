"""Shared helpers: independent finite-difference derivatives, the published
family C constant set, family C lines with other constants, lines with a
scaled amplitude, one transform of a solution, bounded random expression
trees for property sweeps, and numpy's dispatch target."""

import math
import random

import numpy as np

from dsexact import TransformSpec, compose, eval_solution, parse_timefn
from dsexact.catalog import solution
from dsexact.elliptic import make_profile
from dsexact.timefn import jet_arrays

# 6th-order central stencil, independent of the ones inside the package.
_D2_6 = ((-3, 1.0 / 90.0), (-2, -3.0 / 20.0), (-1, 3.0 / 2.0),
         (0, -49.0 / 18.0), (1, 3.0 / 2.0), (2, -3.0 / 20.0), (3, 1.0 / 90.0))


def fd2(f, x, h):
    """Second derivative of f at x, 6th-order central differences."""
    return sum(c * f(x + k * h) for k, c in _D2_6) / (h * h)


def fd1_o2(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def published_constants(kind, m, eps1, ell, eps2):
    """The family C constants as published: nu^2 coefficient +zeta^2 in v,
    linear constant E*q (twice the matched value), and the amplitude matched
    against that kappa.  Applies the formulas directly, with the profile's
    cubic signature f'' = p f^3 + q f as the only input from the package.
    """
    odd, even = (math.sinh, math.cosh) if eps1 == 1 else (math.sin, math.cos)
    zeta, E = odd(ell), even(2.0 * ell)
    prof = make_profile(kind, m)
    kappa = zeta ** 2
    amplitude = math.sqrt(E * prof.p / (2.0 * (eps2 + kappa)))
    return {"amplitude": amplitude, "v_constant": E * prof.q,
            "v_quad_coeff": kappa}


def mutant(sol, amplitude=None, v_constant=None, v_quad_coeff=None):
    """The family C line ``sol`` with the given constants in place of its
    matched ones: the amplitude A', the constant C' and the nu^2
    coefficient K' of v.  With s = A'/A, u' = s u and

        v' = v + exp(-4 beta) (C' - C) + (K' s^2 - K) |u|^2,

    since |u|^2 = exp(-4 beta) nu^2.  Exact only for the matched set, so
    a mutant feeds the residual oracle a wrong solution.  Its ``derived``
    holds the constants given, and its provenance is ``sol``'s."""
    p = sol.derived
    amp = p["amplitude"] if amplitude is None else float(amplitude)
    c_v = p["v_constant"] if v_constant is None else float(v_constant)
    kappa = p["v_quad_coeff"] if v_quad_coeff is None else float(v_quad_coeff)
    s = amp / p["amplitude"]
    beta = parse_timefn(sol.provenance["params"]["beta"])

    def fields(t, x, y):
        u, v, ok = eval_solution(sol, t, x, y)
        stretch2 = np.exp(-4.0 * jet_arrays(beta, t)[0].f)
        v = v + stretch2 * (c_v - p["v_constant"]) \
            + (kappa * s * s - p["v_quad_coeff"]) * (u.real ** 2 + u.imag ** 2)
        return s * u, v, ok

    return solution(sol.variant, fields, sol.provenance, {
        "amplitude": amp, "v_constant": c_v, "v_quad_coeff": kappa})


def scaled(sol, s):
    """``sol`` with ``u`` scaled by ``s`` and ``v`` kept: for s != 1 not a
    solution, since the cubic term and the |u|^2 source of the mean flow
    scale as s^3 and s^2.  The wrong line of a family without other
    constants to vary, such as family B, whose Im is forced.  Its
    ``derived`` adds ``"scale": s`` to ``sol``'s."""
    def fields(t, x, y):
        u, v, ok = eval_solution(sol, t, x, y)
        return s * u, v, ok

    return solution(sol.variant, fields, sol.provenance,
                    {**sol.derived, "scale": s})


def transformed(sol, kind, **fields):
    """``sol`` under the one transform ``TransformSpec(kind, **fields)``."""
    return compose([TransformSpec(kind, **fields)], sol)


def dispatch_target(ufunc):
    """The target numpy runs the float64 loop of ``ufunc`` at, as numpy
    names it: "X86_V4" (AVX-512) or "baseline(X86_V2)" on x86-64 with
    numpy 2.4, set by the CPU and ``NPY_DISABLE_CPU_FEATURES``.  None
    where numpy does not say (numpy 1.x has no ``numpy.lib.introspect``)."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    info = opt_func_info(func_name=f"^{ufunc}$", signature="float64")
    return info.get(ufunc, {}).get("dd", {}).get("current")


def random_smooth_tree(rng: random.Random, bounded=False) -> str:
    """Random expression text, smooth on the whole line.

    With ``bounded`` the first derivative stays O(1) for arbitrarily large
    arguments (trig and affine pieces only), which keeps transformed
    solutions well-scaled when scaling maps dilate the time axis.
    """
    def coeff(lo=0.05, hi=0.6):
        return f"{rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)):.3f}"

    pieces = [f"{coeff()}*sin({coeff(0.3, 1.4)}*t)",
              f"{coeff()}*cos({coeff(0.3, 1.4)}*t)",
              f"{coeff()}*t",
              f"{coeff(0.0, 0.4)}"]
    if not bounded:
        pieces += [f"{coeff(0.02, 0.2)}*t^2",
                   f"{coeff()}*exp({coeff(0.05, 0.3)}*t)",
                   f"{coeff(0.05, 0.3)}*sinh({coeff(0.1, 0.5)}*t)",
                   f"{coeff()}/(2+cos(t))"]
    k = rng.randint(2, 3)
    return "+".join(rng.choice(pieces) for _ in range(k))


def random_timefn(rng: random.Random, bounded=False):
    return parse_timefn(random_smooth_tree(rng, bounded=bounded))
