"""Quadratic-argument machinery shared by the solution families.

The complex field is written as xi * exp(i*phi) with a phase quadratic in
the spatial variables,

    phi(t, x, y) = a'(t) x^2 + b'(t) y^2,

which turns the modulus equation into a transport equation solved exactly by

    xi = exp(-e1*a - b) * theta(w1, w2),   w1 = exp(-2*e1*a) x,  w2 = exp(-2*b) y

for an arbitrary two-variable function theta (e1 is the +-1 sign selecting
the variant).  The travelling-line families take theta = nu(w) along

    w = zeta*w1 + eta*w2 + l1,

with (zeta, eta) = (sinh, cosh)(l) for e1=+1 and (sin, cos)(l) for e1=-1,
so that eta^2 - e1*zeta^2 = 1.  Substituting a profile nu = A*f with cubic
signature f'' = p f^3 + q f reduces everything to the constant match

    -E * nu'' + 2*c * nu + 2*(e2 + kappa) * nu^3 = 0,
    E = eta_{e1}(2l),

solved by c = E*q/2 and A = sqrt(E*p / (2*(e2+kappa))).  The mean-flow
constraint fixes the nu^2 coefficient in v to kappa = -2*zeta^2: acting with
(d_xx - e1*d_yy) on functions of w gives -e1*exp(-4b)*(.)'' while the
2*(xi^2)_xx source gives 2*zeta^2*exp(-8b)*(nu^2)'', so the residual of the
constraint is -e1*(kappa + 2*zeta^2)*exp(-8b)*(nu^2)'' and only that kappa
cancels it.  The finite-difference oracle in the residual module is the
arbiter of record for this value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elliptic import Profile
from .errors import DegenerateMatch, NoRealAmplitude

__all__ = ["LinePhaseFrame", "frame", "CubicMatch", "match_cubic",
           "v_profile_coefficient"]

_DEGENERATE_TOL = 1e-14


@dataclass(frozen=True)
class LinePhaseFrame:
    """Direction data for a line profile: zeta, eta, and E = eta(2l)."""

    eps1: int
    ell: float
    ell1: float
    zeta: float
    eta: float
    E: float


def frame(variant, ell: float, ell1: float = 0.0) -> LinePhaseFrame:
    """Populate the (zeta, eta, E) triple for the given sign branch.

    ``variant`` may be a Variant or the bare eps1 sign.
    """
    eps1 = int(getattr(variant, "eps1", variant))
    ell = float(ell)
    if eps1 == 1:
        zeta, eta, E = math.sinh(ell), math.cosh(ell), math.cosh(2.0 * ell)
    elif eps1 == -1:
        zeta, eta, E = math.sin(ell), math.cos(ell), math.cos(2.0 * ell)
    else:
        raise DegenerateMatch(f"eps1 must be +1 or -1, got {eps1}")
    return LinePhaseFrame(eps1, ell, float(ell1), zeta, eta, E)


@dataclass(frozen=True)
class CubicMatch:
    """Amplitude and constants matching a profile to the reduced equation."""

    amplitude: float   # A in nu = A*f
    c_ode: float       # constant multiplying nu


def match_cubic(profile: Profile, E: float, kappa: float,
                eps2: int) -> CubicMatch:
    """Match nu = A*f against  -E nu'' + 2 c nu + 2 (eps2+kappa) nu^3 = 0.

    With f'' = p f^3 + q f the match is unique up to the sign of A:
    c = E*q/2 and A^2 = E*p / (2*(eps2+kappa)).  Raises DegenerateMatch when
    the cubic divisor vanishes and NoRealAmplitude when A^2 < 0 (the instance
    exists only where the amplitude makes sense as a real number).
    """
    S = eps2 + kappa
    if abs(S) < _DEGENERATE_TOL:
        raise DegenerateMatch(
            f"cubic coefficient eps2+kappa vanishes (eps2={eps2}, kappa={kappa})")
    a2 = E * profile.p / (2.0 * S)
    if a2 < 0.0:
        raise NoRealAmplitude(
            f"amplitude^2 = {a2:g} < 0 for kind '{profile.kind}' "
            f"(E={E:g}, kappa={kappa:g}, eps2={eps2})")
    return CubicMatch(math.sqrt(a2), E * profile.q / 2.0)


def v_profile_coefficient(zeta: float) -> float:
    """nu^2 coefficient in the mean-flow field forced by its constraint.

    Direct substitution of the line ansatz leaves the residual
    -e1*(kappa + 2*zeta^2)*(nu^2)'', so kappa = -2*zeta^2.
    """
    return -2.0 * zeta * zeta
