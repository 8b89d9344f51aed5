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

m is the elliptic modulus (not the squared parameter), 0 <= m < 1, so
sn(s|0) = sin s.  K(m) is the quarter period of sn along the real line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

__all__ = ["ellipk", "jacobi_sn_cn_dn", "Profile", "make_profile",
           "PROFILE_KINDS", "ELLIPTIC_KINDS", "SINGULARITY_GUARD"]

# The kinds that take a modulus m.
ELLIPTIC_KINDS = ("sn", "cn", "dn")

# Successive AGM means agree to this relative tolerance before stopping;
# convergence is quadratic so this saturates double precision.
_AGM_TOL = 1e-15

# Callers evaluating a profile should stay at least this far (in argument
# units) from any pole; residual sampling relies on it.
SINGULARITY_GUARD = 1e-3

# Below this |s|, (sn, cn, dn) = (s, 1, 1) exactly in double precision
# (the next terms are O(s^3) and O(s^2)), while the Landen unwinding, which
# divides by sn, overflows below about 3e-154.
_TINY = 2.0 ** -510


def _modulus(m, what: str) -> float:
    """``float(m)`` for m in [0, 1); otherwise (None and NaN included) a
    DomainError naming ``what``."""
    if m is None:
        raise DomainError(f"{what} requires a modulus m")
    if not 0.0 <= float(m) < 1.0:
        raise DomainError(f"{what} requires 0 <= m < 1, got m={float(m)}")
    return float(m)


def ellipk(m: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    K(m) = integral over [0, pi/2] of dtheta / sqrt(1 - m^2 sin^2 theta),
    computed by the arithmetic-geometric mean: K = pi / (2 agm(1, sqrt(1-m^2))).
    """
    m = _modulus(m, "ellipk")
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
    (sin s, cos s, 1); at |s| < 2^-510 to (s, 1, 1).  Total for finite s
    and m in [0, 1).
    """
    s = np.asarray(s, dtype=float)
    m = _modulus(m, "jacobi_sn_cn_dn")
    mc = (1.0 - m) * (1.0 + m)  # complementary parameter 1 - m^2

    # Descend by Landen images until the scale chain converges (8 steps at
    # most, at m = nextafter(1, 0)), then unwind by the backward recurrences.
    a = 1.0
    scales = []
    roots = []
    while True:
        scales.append(a)
        mc = math.sqrt(mc)
        roots.append(mc)
        c = 0.5 * (a + mc)
        if abs(a - mc) <= 1e-8 * a:  # error after unwinding ~ tol^2
            break
        mc = a * mc
        a = c

    u = c * s
    sn = np.sin(u)
    cn = np.cos(u)
    # Tiny arguments (NaN is not tiny) take (s, 1, 1); a stand-in divisor
    # keeps the unwinding finite there.
    moving = ~(np.abs(s) < _TINY)
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
    return (np.where(moving, unwound, s)[()],
            np.where(moving, c * unwound, 1.0)[()],
            np.where(moving, dn, 1.0)[()])


# ---------------------------------------------------------------------------
# Profiles.
# ---------------------------------------------------------------------------

# One row per kind: the signature (p, q) as a function of m, the shape
# f(s, m), and the real poles as (offset, spacing), where spacing None marks
# a single pole and a number the lattice offset + spacing*Z; None when there
# are none.  The elliptic shapes look ``jacobi_sn_cn_dn`` up when they run.
_KINDS = {
    "rational": (lambda m: (2.0, 0.0), lambda s, m: 1.0 / s, (0.0, None)),
    "tan": (lambda m: (2.0, 2.0), lambda s, m: np.tan(s),
            (math.pi / 2.0, math.pi)),
    "sec": (lambda m: (2.0, -1.0), lambda s, m: 1.0 / np.cos(s),
            (math.pi / 2.0, math.pi)),
    "coth": (lambda m: (2.0, -2.0),
             lambda s, m: np.cosh(s) / np.sinh(s), (0.0, None)),
    "csch": (lambda m: (2.0, 1.0), lambda s, m: 1.0 / np.sinh(s),
             (0.0, None)),
    "sn": (lambda m: (2.0 * m * m, -(1.0 + m * m)),
           lambda s, m: jacobi_sn_cn_dn(s, m)[0], None),
    "cn": (lambda m: (-2.0 * m * m, 2.0 * m * m - 1.0),
           lambda s, m: jacobi_sn_cn_dn(s, m)[1], None),
    "dn": (lambda m: (-2.0, 2.0 - m * m),
           lambda s, m: jacobi_sn_cn_dn(s, m)[2], None),
}

PROFILE_KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class Profile:
    """A shape function, its cubic signature (p, q) and its real poles,
    ``pole``: the (offset, spacing) of the kind table, or None."""

    kind: str
    m: float
    p: float
    q: float
    pole: tuple | None

    def value(self, s):
        """f(s) for a float or an array of arguments."""
        return _KINDS[self.kind][1](s, self.m)

    def pole_distance(self, s):
        """Distance from s (a float or an array) to the nearest real pole,
        inf if there is none.

        For a pole lattice this is |remainder(s - offset, spacing)| with the
        IEEE nearest-multiple remainder, taken exactly from fmod.
        """
        if self.pole is None:
            return np.full(np.shape(s), np.inf)[()]
        offset, spacing = self.pole
        if spacing is None:
            return np.abs(s - offset)[()]
        r = np.abs(np.fmod(s - offset, spacing))
        return np.minimum(r, spacing - r)[()]


def make_profile(kind: str, m: float | None = None) -> Profile:
    """Build a Profile; elliptic kinds require a modulus m in [0, 1)."""
    if kind not in _KINDS:
        raise ConfigError(f"unknown profile kind '{kind}'; "
                          f"expected one of {PROFILE_KINDS}")
    m = _modulus(m, f"profile '{kind}'") if kind in ELLIPTIC_KINDS else 0.0
    signature, _, pole = _KINDS[kind]
    return Profile(kind, m, *signature(m), pole)
