"""Shared helpers: independent finite-difference derivatives, the published
family C constant set, and bounded random expression trees for property
sweeps."""

import math
import random

from dsexact import parse_timefn
from dsexact.elliptic import make_profile

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
