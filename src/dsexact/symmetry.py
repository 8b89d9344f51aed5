"""Solution-to-solution maps: the shift-and-phase map and parabolic scaling.

shift map (three free functions of t):

    u'(t,x,y) = exp(-i (e1 a'(t) x + b'(t) y + g(t))) * u(t, x+a, y+b)
    v'(t,x,y) = v(t, x+a, y+b) + e1 a'' x + b'' y
                - (e1 a'^2 + b'^2)/2 + g'

scaling map (one nonzero real b):

    u'(t,x,y) = u(t/b^2, x/b, y/b) / b
    v'(t,x,y) = v(t/b^2, x/b, y/b) / b^2

Both carry exact solutions to exact solutions; the residual suite is the
check of record.  The scaling argument runs opposite to the prefactor so
that the cubic term and the second derivatives scale together (b^{-3} on
both sides); with the arguments scaled the other way the two sides scale as
b and b^{-3} and the map only preserves solutions for b^4 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import Solution, solution
from .errors import ConfigError
from .timefn import TimeFunction, jet_arrays

__all__ = ["TransformSpec", "apply_t1", "apply_t2", "compose"]


@dataclass(frozen=True)
class TransformSpec:
    """One transform in a chain: kind "T1" (shift) or "T2" (scaling)."""

    kind: str
    alpha: Optional[TimeFunction] = None
    beta: Optional[TimeFunction] = None
    gamma: Optional[TimeFunction] = None
    b: Optional[float] = None

    def __post_init__(self):
        if self.kind == "T1":
            if self.alpha is None or self.beta is None or self.gamma is None:
                raise ConfigError("T1 needs alpha, beta, gamma")
        elif self.kind == "T2":
            if self.b is None or self.b == 0.0:
                raise ConfigError("T2 needs a nonzero real b")
        else:
            raise ConfigError(f"unknown transform kind '{self.kind}'")


def _extend(sol: Solution, fields, transform: dict) -> Solution:
    """The transformed solution with the given ``fields``, and ``transform``
    appended to the provenance chain of ``sol``."""
    provenance = dict(sol.provenance)
    provenance["transforms"] = [*sol.provenance.get("transforms", []),
                                transform]
    return solution(sol.variant, fields, provenance)


def apply_t1(sol: Solution, alpha: TimeFunction, beta: TimeFunction,
             gamma: TimeFunction) -> Solution:
    """Shift space by (alpha, beta)(t) with the compensating linear phase."""
    eps1 = sol.variant.eps1

    def fields(t, x, y):
        (aj, ok_a), (bj, ok_b), (gj, ok_g) = (jet_arrays(f, t)
                                              for f in (alpha, beta, gamma))
        xs, ys = x + aj.f, y + bj.f
        ok = ok_a & ok_b & ok_g & sol.valid(t, xs, ys)
        phase = -(eps1 * aj.d1 * x + bj.d1 * y + gj.f)
        u = np.exp(1j * phase) * sol.u(t, xs, ys)
        v = (sol.v(t, xs, ys)
             + eps1 * aj.d2 * x + bj.d2 * y
             - (eps1 * aj.d1 ** 2 + bj.d1 ** 2) / 2.0
             + gj.d1)
        return u, v, ok

    return _extend(sol, fields,
                   {"kind": "T1", "alpha": alpha.source, "beta": beta.source,
                    "gamma": gamma.source})


def apply_t2(sol: Solution, b: float) -> Solution:
    """Parabolic scaling by a nonzero real b."""
    b = float(b)
    if b == 0.0:
        raise ConfigError("scaling parameter b must be nonzero")
    b2 = b * b

    def fields(t, x, y):
        ts, xs, ys = t / b2, x / b, y / b
        ok = sol.valid(ts, xs, ys)
        return sol.u(ts, xs, ys) / b, sol.v(ts, xs, ys) / b2, ok

    return _extend(sol, fields, {"kind": "T2", "b": b})


def compose(specs, sol: Solution) -> Solution:
    """Apply a nonempty list of TransformSpec left to right."""
    specs = list(specs)
    if not specs:
        raise ConfigError("transform chain must be nonempty")
    out = sol
    for spec in specs:
        if spec.kind == "T1":
            out = apply_t1(out, spec.alpha, spec.beta, spec.gamma)
        else:
            out = apply_t2(out, spec.b)
    return out
