"""Ground-truth oracle: substitute a candidate (u, v) into the governing
system by high-order central finite differences.

At each sample point the two residuals are

    R1 = 2i D_t u + e1 D_xx u + D_yy u - 2 e2 |u|^2 u - 2 u v,
    R2 = D_xx v - e1 (D_yy v + 2 D_xx |u|^2),

with central differences of order 2, 4 or 6.  ``verify`` evaluates them at
steps h and h/2, reports the observed convergence order, and normalizes the
tolerance by the root-mean-square magnitude of the individual PDE terms, so
quadratically growing fields are judged on the same footing as bounded ones.
An exact solution shows residuals that shrink at the nominal order until the
roundoff floor; a wrong constant in the fields shows an O(1) residual that
does not move with h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import Solution, eval_solution
from .errors import ConfigError, EmptySampleError

__all__ = ["ResidualReport", "verify", "ORDERS",
           "DEFAULT_H", "DEFAULT_ORDER", "DEFAULT_TOL_REL", "DEFAULT_FLOOR_REL"]

DEFAULT_H = 1e-3
DEFAULT_ORDER = 4
DEFAULT_TOL_REL = 1e-7
# Residual-to-scale ratio below which a sample is considered to sit on the
# roundoff floor, where the observed order is no longer meaningful.
DEFAULT_FLOOR_REL = 1e-8
# verify evaluates the stencils of this many points at a time: a point
# holds about 5.5 KB while its stencils are evaluated, so about 23 MB.
_BLOCK = 4096

# offset: coefficient maps; apply as sum(c * f(x0 + k*h)) / h**deriv_order.
_D1 = {
    2: ((-1, -0.5), (1, 0.5)),
    4: ((-2, 1.0 / 12.0), (-1, -2.0 / 3.0), (1, 2.0 / 3.0), (2, -1.0 / 12.0)),
    6: ((-3, -1.0 / 60.0), (-2, 3.0 / 20.0), (-1, -3.0 / 4.0),
        (1, 3.0 / 4.0), (2, -3.0 / 20.0), (3, 1.0 / 60.0)),
}
_D2 = {
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    4: ((-2, -1.0 / 12.0), (-1, 4.0 / 3.0), (0, -5.0 / 2.0),
        (1, 4.0 / 3.0), (2, -1.0 / 12.0)),
    6: ((-3, 1.0 / 90.0), (-2, -3.0 / 20.0), (-1, 3.0 / 2.0),
        (0, -49.0 / 18.0), (1, 3.0 / 2.0), (2, -3.0 / 20.0), (3, 1.0 / 90.0)),
}
ORDERS = tuple(_D1)  # the stencil orders verify accepts


@dataclass(frozen=True)
class ResidualReport:
    """Aggregated residual magnitudes with observed convergence orders.

    ``max*``/``rms*`` are taken at the finer step h/2; ``order*`` compare
    the rms at h against h/2; ``n_points`` counts the samples whose stencils
    stayed inside the valid region.
    """

    max1: float
    rms1: float
    max2: float
    rms2: float
    order1: float
    order2: float
    n_points: int
    passed: bool

    def to_json_dict(self) -> dict:
        return {"max1": self.max1, "rms1": self.rms1,
                "max2": self.max2, "rms2": self.rms2,
                "order1": self.order1, "order2": self.order2,
                "n_points": self.n_points, "pass": self.passed}


def _stencil(order: int):
    """Node offsets (in steps) along t, x, y, and a map (axis, k) -> node.

    Node 0 is the centre; the others lie on one axis each.
    """
    reach = [k for k in range(-(order // 2), order // 2 + 1) if k != 0]
    offsets = [(0, 0, 0)]
    index = {(axis, 0): 0 for axis in range(3)}
    for axis in range(3):
        for k in reach:
            index[axis, k] = len(offsets)
            offsets.append(tuple(k if a == axis else 0 for a in range(3)))
    return np.array(offsets, dtype=float).T, index


_STENCILS = {order: _stencil(order) for order in _D1}


def _residual_terms(sol: Solution, t, x, y, h, order):
    """R1, R2, their summed term magnitudes, and stencil validity.

    ``t, x, y`` are arrays of one shape and ``h`` an array of steps; every
    result has shape ``shape(t) + shape(h)``.  All stencil nodes of all
    points and steps are evaluated in one call; ``ok`` is False where any
    node is invalid, and the other results are NaN there.
    """
    eps1, eps2 = sol.variant.eps1, sol.variant.eps2
    offsets, index = _STENCILS[order]
    u, v, ok = eval_solution(
        sol, *(np.add.outer(c, np.multiply.outer(h, k))
               for c, k in zip((t, x, y), offsets)))
    ok = ok.all(axis=-1)

    def diff(f, axis, table):
        return sum(c * f[..., index[axis, k]] for k, c in table)

    with np.errstate(over="ignore", invalid="ignore"):
        h2 = h * h  # inf above h ~ 1e154
        g = np.abs(u) ** 2
        u0 = u[..., 0]
        v0 = v[..., 0]
        du_dt = diff(u, 0, _D1[order]) / h
        du_xx = diff(u, 1, _D2[order]) / h2
        du_yy = diff(u, 2, _D2[order]) / h2
        dv_xx = diff(v, 1, _D2[order]) / h2
        dv_yy = diff(v, 2, _D2[order]) / h2
        dg_xx = diff(g, 1, _D2[order]) / h2

        cubic = 2.0 * eps2 * (u0.real ** 2 + u0.imag ** 2) * u0
        coupling = 2.0 * u0 * v0
        r1 = 2j * du_dt + eps1 * du_xx + du_yy - cubic - coupling
        r2 = dv_xx - eps1 * (dv_yy + 2.0 * dg_xx)
        scale1 = (2.0 * np.abs(du_dt) + np.abs(du_xx) + np.abs(du_yy)
                  + np.abs(cubic) + np.abs(coupling))
        scale2 = np.abs(dv_xx) + np.abs(dv_yy) + 2.0 * np.abs(dg_xx)
    return r1, r2, scale1, scale2, ok


def _rms(values) -> float:
    """Root mean square of non-negative values.  Only where the squares of
    finite values overflow is the sum rescaled by the largest value, so
    every other rms is the plain one, bit for bit."""
    with np.errstate(over="ignore"):
        squares = (values * values).tolist()
    try:
        total = math.fsum(squares)
    except OverflowError:  # finite squares whose exact sum overflows
        total = math.inf
    values = values.tolist()
    if math.isfinite(total) or not all(map(math.isfinite, values)):
        return math.sqrt(total / len(values))
    big = max(values)
    return big * math.sqrt(math.fsum((v / big) ** 2 for v in values)
                           / len(values))


def _order_of(coarse: float, fine: float) -> float:
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        return math.nan
    tiny = 1e-300
    order = math.log2(max(coarse, tiny) / max(fine, tiny))
    return max(-20.0, min(20.0, order))


def verify(sol: Solution, sample, h: float = DEFAULT_H,
           order: int = DEFAULT_ORDER,
           tol_rel: float = DEFAULT_TOL_REL) -> ResidualReport:
    """Aggregate residuals over sample points at steps h and h/2.

    ``sample`` is an (N, 3) array or a sequence of (t, x, y) points;
    points whose stencil footprint (at either step) leaves the valid region
    are skipped deterministically.  Passing requires, for each equation, a
    finite rms at h/2 within tol_rel of a finite term scale and either the
    nominal convergence order (within 0.5) or a residual already on the
    roundoff floor; a non-finite rms gives a NaN order.  The effective
    floor is max(DEFAULT_FLOOR_REL, tol_rel/10), so an infinite tolerance
    passes vacuously and a loose tolerance does not demand clean convergence
    of residuals it would accept anyway.  Raises ConfigError unless h is
    finite and positive, (h/2)^2 is nonzero, ``order`` is in ``ORDERS`` and
    tol_rel is >= 0 (NaN is not).
    """
    if not (0.0 < h < math.inf and h / 2.0 * (h / 2.0) > 0.0
            and order in ORDERS and tol_rel >= 0.0):
        raise ConfigError(f"verify needs a finite step h > 0 whose half "
                          f"step squares to a nonzero number, a tolerance "
                          f">= 0 and an order in {ORDERS}; got h={h!r}, "
                          f"order={order!r}, tol_rel={tol_rel!r}")
    points = np.asarray(sample, dtype=float).reshape(-1, 3)
    steps = np.array([h, h / 2.0])
    # An empty sample still makes one (empty) block.
    blocks = [_residual_terms(sol, *points[i:i + _BLOCK].T, steps, order)
              for i in range(0, max(len(points), 1), _BLOCK)]
    r1, r2, s1, s2, ok = map(np.concatenate, zip(*blocks))
    keep = ok.all(axis=1)
    if not keep.any():
        raise EmptySampleError("no valid sample points for verification")

    r1_coarse, r1_fine = np.abs(r1[keep]).T
    r2_coarse, r2_fine = np.abs(r2[keep]).T
    rms1 = _rms(r1_fine)
    rms2 = _rms(r2_fine)
    order1 = _order_of(_rms(r1_coarse), rms1)
    order2 = _order_of(_rms(r2_coarse), rms2)
    scale1 = 1.0 + _rms(s1[keep, 1])
    scale2 = 1.0 + _rms(s2[keep, 1])
    floor = max(DEFAULT_FLOOR_REL, 0.1 * tol_rel)
    order_ok1 = order1 >= order - 0.5 or rms1 <= floor * scale1
    order_ok2 = order2 >= order - 0.5 or rms2 <= floor * scale2
    finite = all(map(math.isfinite, (rms1, rms2, scale1, scale2)))
    passed = (finite and rms1 <= tol_rel * scale1
              and rms2 <= tol_rel * scale2 and order_ok1 and order_ok2)
    return ResidualReport(float(np.max(r1_fine)), rms1,
                          float(np.max(r2_fine)), rms2, order1, order2,
                          int(keep.sum()), passed)
