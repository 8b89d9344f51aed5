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
b and b^{-3} and the map only preserves solutions for b^4 = 1.  ``compose``
is the one builder: a layer a map, whose ``fields`` reads the layer below
with one ``eval_solution`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import Solution, eval_solution, solution
from .errors import ConfigError, real
from .timefn import TimeFunction, jet_arrays

__all__ = ["TransformSpec", "compose"]


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
            object.__setattr__(self, "b", real(self.b, "b"))
            if not self.b:
                raise ConfigError(f"b: expected a nonzero real number, "
                                  f"got {self.b!r}")
        else:
            raise ConfigError(f"unknown transform kind '{self.kind}'")
        stray = ("b",) if self.kind == "T1" else ("alpha", "beta", "gamma")
        if any(getattr(self, name) is not None for name in stray):
            raise ConfigError(f"{self.kind} takes no {', '.join(stray)}")


def _layer(sol: Solution, spec: TransformSpec) -> Solution:
    """One layer: ``sol`` under ``spec``, which joins its ``transforms``."""
    if spec.kind == "T1":
        alpha, beta, gamma = spec.alpha, spec.beta, spec.gamma
        eps1 = sol.variant.eps1

        def fields(t, x, y):
            (aj, ok_a), (bj, ok_b), (gj, ok_g) = (
                jet_arrays(f, t) for f in (alpha, beta, gamma))
            u0, v0, ok0 = eval_solution(sol, t, x + aj.f, y + bj.f)
            phase = -(eps1 * aj.d1 * x + bj.d1 * y + gj.f)
            u = np.exp(1j * phase) * u0
            v = (v0 + eps1 * aj.d2 * x + bj.d2 * y
                 - (eps1 * aj.d1 ** 2 + bj.d1 ** 2) / 2.0 + gj.d1)
            return u, v, ok_a & ok_b & ok_g & ok0

        transform = {"kind": "T1", "alpha": alpha.source,
                     "beta": beta.source, "gamma": gamma.source}
    else:
        b, b2 = spec.b, spec.b * spec.b

        def fields(t, x, y):
            u0, v0, ok0 = eval_solution(sol, t / b2, x / b, y / b)
            return u0 / b, v0 / b2, ok0

        transform = {"kind": "T2", "b": b}
    return solution(sol.variant, fields, {**sol.provenance, "transforms": [
        *sol.provenance.get("transforms", []), transform]}, sol.derived)


def compose(specs, sol: Solution) -> Solution:
    """Apply a nonempty list of TransformSpec left to right."""
    specs = list(specs)
    if not specs:
        raise ConfigError("transform chain must be nonempty")
    for spec in specs:
        sol = _layer(sol, spec)
    return sol
