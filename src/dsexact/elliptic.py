"""Jacobi elliptic functions, the complete elliptic integral, and the
profile zoo.

Every shape function used by the travelling-line solution family satisfies a
pure two-term cubic identity

    f''(s) = p f(s)^3 + q f(s)

with constant (p, q).  The eight admitted profiles and their signatures:

    1/s      (2, 0)          tan s    (2, 2)         sec s   (2, -1)
    coth s   (2, -2)         csch s   (2, 1)
    sn(s|m)  (2m^2, -(1+m^2))
    cn(s|m)  (-2m^2, 2m^2-1)
    dn(s|m)  (-2, 2-m^2)

m is the elliptic modulus (not the squared parameter), so sn(s|0) = sin s
and sn(s|1) = tanh s.  K(m) is the quarter period of sn along the real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

__all__ = ["ellipk", "jacobi_sn_cn_dn", "Profile", "make_profile",
           "PROFILE_KINDS", "SINGULARITY_GUARD"]

PROFILE_KINDS = ("rational", "tan", "sec", "coth", "csch", "sn", "cn", "dn")

_ELLIPTIC_KINDS = ("sn", "cn", "dn")

# Successive AGM means agree to this relative tolerance before stopping;
# convergence is quadratic so this saturates double precision.
_AGM_TOL = 1e-15

# Callers evaluating a profile should stay at least this far (in argument
# units) from any pole; residual sampling relies on it.
SINGULARITY_GUARD = 1e-3


def ellipk(m: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    K(m) = integral over [0, pi/2] of dtheta / sqrt(1 - m^2 sin^2 theta),
    computed by the arithmetic-geometric mean: K = pi / (2 agm(1, sqrt(1-m^2))).
    """
    m = float(m)
    if not 0.0 <= m < 1.0:
        raise DomainError(f"ellipk requires 0 <= m < 1, got m={m}")
    a = 1.0
    g = math.sqrt(1.0 - m * m)
    while abs(a - g) > _AGM_TOL * a:
        a, g = 0.5 * (a + g), math.sqrt(a * g)
    return math.pi / (2.0 * a)


def jacobi_sn_cn_dn(s, m: float) -> tuple:
    """The triple (sn, cn, dn)(s | m) by the descending Landen recursion
    (DLMF 22.20); s is a float or an array, m a float.

    The scale chain depends only on m, so it is built once per call and
    unwound over every s together.  At m=0 this reduces to
    (sin s, cos s, 1); at m=1 to (tanh s, sech s, sech s).  Total for finite
    s and m in [0, 1].
    """
    s = np.asarray(s, dtype=float)
    m = float(m)
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"jacobi_sn_cn_dn requires 0 <= m <= 1, got m={m}")
    mc = (1.0 - m) * (1.0 + m)  # complementary parameter 1 - m^2
    if mc == 0.0:
        cn = 1.0 / np.cosh(s)
        return np.tanh(s)[()], cn[()], cn[()]

    # Descend: replace the modulus by its Landen image until the scale
    # chain has converged, then unwind with the backward recurrences.
    a = 1.0
    scales = []
    roots = []
    c = a
    for _ in range(16):
        scales.append(a)
        mc = math.sqrt(mc)
        roots.append(mc)
        c = 0.5 * (a + mc)
        if abs(a - mc) <= 1e-8 * a:  # error after unwinding ~ tol^2
            break
        mc = a * mc
        a = c
    else:
        raise DomainError(f"Landen recursion failed to converge for m={m}")

    u = c * s
    sn = np.sin(u)
    cn = np.cos(u)
    # sin(u) is exactly 0 only at u = 0, where (sin, cos, 1) is already the
    # answer; a stand-in divisor keeps the unwinding finite there.
    moving = sn != 0.0
    ratio = cn / np.where(moving, sn, 1.0)
    c = ratio * c
    dn = 1.0
    for scale, root in zip(reversed(scales), reversed(roots)):
        ratio = c * ratio
        c = dn * c
        dn = (root + ratio) / (scale + ratio)
        ratio = c / scale
    mag = 1.0 / np.sqrt(c * c + 1.0)
    unwound = np.where(sn >= 0.0, mag, -mag)
    return (np.where(moving, unwound, sn)[()],
            np.where(moving, c * unwound, cn)[()],
            np.where(moving, dn, 1.0)[()])


# ---------------------------------------------------------------------------
# Profiles.
# ---------------------------------------------------------------------------

def _signature(kind: str, m: float) -> tuple:
    if kind == "rational":
        return 2.0, 0.0
    if kind == "tan":
        return 2.0, 2.0
    if kind == "sec":
        return 2.0, -1.0
    if kind == "coth":
        return 2.0, -2.0
    if kind == "csch":
        return 2.0, 1.0
    if kind == "sn":
        return 2.0 * m * m, -(1.0 + m * m)
    if kind == "cn":
        return -2.0 * m * m, 2.0 * m * m - 1.0
    if kind == "dn":
        return -2.0, 2.0 - m * m
    raise ConfigError(f"unknown profile kind '{kind}'")


@dataclass(frozen=True)
class Profile:
    """A shape function and its cubic signature (p, q).

    ``singularities`` lists the real poles as (offset, spacing) pairs:
    spacing None marks a single pole, otherwise the pole set is
    offset + spacing*Z.  Elliptic kinds have no real poles.
    """

    kind: str
    m: float
    p: float
    q: float
    singularities: tuple

    def value(self, s):
        """f(s) for a float or an array of arguments."""
        k = self.kind
        if k == "rational":
            return 1.0 / s
        if k == "tan":
            return np.tan(s)
        if k == "sec":
            return 1.0 / np.cos(s)
        if k == "coth":
            return np.cosh(s) / np.sinh(s)
        if k == "csch":
            return 1.0 / np.sinh(s)
        return jacobi_sn_cn_dn(s, self.m)[_ELLIPTIC_KINDS.index(k)]

    def pole_distance(self, s):
        """Distance from s (a float or an array) to the nearest real pole,
        inf if there is none.

        For a pole lattice this is |remainder(s - offset, spacing)| with the
        IEEE nearest-multiple remainder, taken exactly from fmod.
        """
        best = np.full(np.shape(s), np.inf)
        for offset, spacing in self.singularities:
            if spacing is None:
                best = np.minimum(best, np.abs(s - offset))
            else:
                r = np.abs(np.fmod(s - offset, spacing))
                best = np.minimum(best, np.minimum(r, spacing - r))
        return best[()]

    def period(self):
        """Real period of the profile, or None if aperiodic."""
        k = self.kind
        if k == "tan":
            return math.pi
        if k == "sec":
            return 2.0 * math.pi
        if k == "sn" or k == "cn":
            return 4.0 * ellipk(self.m)
        if k == "dn":
            return 2.0 * ellipk(self.m)
        return None


def make_profile(kind: str, m: float | None = None) -> Profile:
    """Build a Profile; elliptic kinds require a modulus m in [0, 1)."""
    if kind not in PROFILE_KINDS:
        raise ConfigError(f"unknown profile kind '{kind}'; "
                          f"expected one of {PROFILE_KINDS}")
    if kind in _ELLIPTIC_KINDS:
        if m is None:
            raise DomainError(f"profile '{kind}' requires a modulus m")
        m = float(m)
        if not 0.0 <= m < 1.0:
            raise DomainError(f"profile '{kind}' requires 0 <= m < 1, got {m}")
    else:
        m = 0.0
    p, q = _signature(kind, m)
    if kind in ("tan", "sec"):
        singularities = ((math.pi / 2.0, math.pi),)
    elif kind in ("rational", "coth", "csch"):
        singularities = ((0.0, None),)
    else:
        singularities = ()
    return Profile(kind, m, p, q, singularities)
