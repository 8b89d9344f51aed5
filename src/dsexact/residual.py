"""Ground-truth oracle: substitute a candidate (u, v) into the governing
system by high-order central finite differences.

At each sample point the two residuals are

    R1 = 2i D_t u + e1 D_xx u + D_yy u - 2 e2 |u|^2 u - 2 u v,
    R2 = D_xx v - e1 (D_yy v + 2 D_xx |u|^2),

with fourth-order central differences.  ``verify`` evaluates them at
steps h and h/2, reports the observed convergence order, and normalizes the
tolerance by the root-mean-square magnitude of the individual PDE terms, so
quadratically growing fields are judged on the same footing as bounded ones.
An exact solution shows residuals that shrink at the nominal order until the
roundoff floor; a wrong constant in the fields shows an O(1) residual that
does not move with h.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .catalog import Solution, eval_solution
from .errors import ConfigError, EmptySampleError, real, real_array

__all__ = ["ResidualReport", "verify", "ORDER", "MAX_POINTS",
           "DEFAULT_H", "DEFAULT_TOL_REL", "DEFAULT_FLOOR_REL"]

ORDER = 4  # the order of the central differences
DEFAULT_H = 1e-3
DEFAULT_TOL_REL = 1e-7
# Residual-to-scale ratio below which a sample is considered to sit on the
# roundoff floor, where the observed order is no longer meaningful.
DEFAULT_FLOOR_REL = 1e-8
# verify evaluates the nodes of this many points at a time (3.3 KB a point,
# so 14 MB) and keeps 48 bytes of each kept point in its block.  With its
# (t, x, y) row, a sample of MAX_POINTS, the most the CLI's verify takes,
# holds 316 MB (tracemalloc, numpy 2.4).
_BLOCK = 4096
MAX_POINTS = 2 ** 22
_MIN_H = math.ldexp(math.sqrt(2.0), -537)  # least h with (h/2)^2 > 0

# Central difference weights at k = -2..2 (0 at the centre of a first
# difference); apply as sum(c_k * f(x0 + k*h)) / h**deriv_order.
_D1 = (1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0)
_D2 = (-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0)


@dataclass(frozen=True)
class ResidualReport:
    """Aggregated residual magnitudes with observed convergence orders.

    ``max*``/``rms*`` are taken at the finer step h/2; ``order*`` compare
    the rms at h against h/2; ``n_points`` counts the samples kept (see
    ``verify``).
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


@functools.lru_cache(maxsize=4)
def _nodes(h):
    """Read-only, for the steps s = h, h/2: node ``offsets`` at (coordinate,
    point, axis, row), c + 0.0 off the axis and c + s*k on it over one
    sorted row of the distinct s*k; each step's ``cols`` in the row; the
    ``divisors`` (s, s*s, s*s) at (step, 1, slot); the ``weights`` of the
    six differences of _residual_terms at (k, slot)."""
    steps = (h, h / 2.0)
    reach = range(-(ORDER // 2), ORDER // 2 + 1)
    row = sorted({s * k for s in steps for k in reach})
    cols = np.array([[row.index(s * k) for k in reach] for s in steps])
    offsets = np.where(np.eye(3, dtype=bool)[:, None, :, None], row, 0.0)
    divisors = np.array([[(s, s * s, s * s)] for s in steps])
    weights = np.array([_D1] + [_D2] * 5).T.copy()
    for a in (offsets, cols, divisors, weights):
        a.flags.writeable = False
    return offsets, cols, divisors, weights


def _residual_terms(sol: Solution, points, h):
    """|R1| and |R2| at both steps and the two term scales at the finer
    step: the columns of an (n, 6) array over the kept points.

    ``points`` holds (t, x, y) rows; the steps are h and h/2.  Every node
    of every point is evaluated in one call at shape (points, 3 axes, row),
    and the six differences (of u along t, x, y, of v along x, y, of |u|^2
    along x) are one sum over k in the tables' order.  A point is kept iff
    every node is valid and its half step moves every coordinate up (t +
    h/2 > t, say): one that rounds away or is NaN is dropped.
    """
    eps1, eps2 = sol.variant.eps1, sol.variant.eps2
    offsets, cols, divisors, weights = _nodes(h)
    t, x, y = points.T[..., None, None] + offsets
    if (points[:, 0] == points[0, 0]).all():
        t = t[:1]  # at (1, 3, row), so each time function walks it once
    u, v, ok = eval_solution(sol, t, x, y)
    size = np.abs(points)
    keep = ok.all(axis=(1, 2)) & (size + h / 2.0 > size).all(axis=1)

    with np.errstate(over="ignore", invalid="ignore"):
        # (k + ORDER/2, step, point, slot)
        f = np.concatenate([u, v[:, 1:], np.abs(u[:, 1:2]) ** 2],
                           axis=1).transpose(2, 0, 1)[cols.T]
        d = weights[0] * f[0]
        for k in range(1, ORDER + 1):
            d += weights[k] * f[k]
        d[..., :3] /= divisors
        d.real[..., 3:] /= divisors[..., 1:2]  # complex division rounds twice
        du_dt, du_xx, du_yy = d[..., 0], d[..., 1], d[..., 2]
        dv_xx, dv_yy, dg_xx = d.real[..., 3], d.real[..., 4], d.real[..., 5]
        u0, v0 = (a[:, 0, cols[1, ORDER // 2]] for a in (u, v))
        cubic = 2.0 * eps2 * (u0.real ** 2 + u0.imag ** 2) * u0
        coupling = 2.0 * u0 * v0
        terms = np.empty((len(points), 6))
        np.abs(2j * du_dt + eps1 * du_xx + du_yy - cubic - coupling,
               out=terms[:, :2].T)
        np.abs(dv_xx - eps1 * (dv_yy + 2.0 * dg_xx), out=terms[:, 2:4].T)
        mu, mv = np.abs(d[1, :, :3]), np.abs(d.real[1, :, 3:])  # at h/2
        terms[:, 4] = (2.0 * mu[:, 0] + mu[:, 1] + mu[:, 2] + np.abs(cubic)
                       + np.abs(coupling))
        terms[:, 5] = mv[:, 0] + mv[:, 1] + 2.0 * mv[:, 2]
    return terms[keep]


def _rms(blocks):
    """Root mean square of each column of the non-negative (k, 6) arrays
    ``blocks``, over all of them.  Only where the squares of finite values
    overflow is the sum rescaled by the largest value, so every other rms
    is the plain one, bit for bit; ``math.fsum`` rounds exactly, so a
    column is read one block at a time."""
    n = sum(map(len, blocks))
    rms = []
    with np.errstate(over="ignore"):
        for col in zip(*(b.T for b in blocks)):
            try:
                total = math.fsum(itertools.chain.from_iterable(
                    (c * c).tolist() for c in col))
            except OverflowError:  # finite squares whose exact sum overflows
                total = math.inf
            if math.isfinite(total) or not all(np.isfinite(c).all()
                                               for c in col):
                rms.append(math.sqrt(total / n))
                continue
            big = max(float(c.max()) for c in col)
            rms.append(big * math.sqrt(math.fsum(
                (v / big) ** 2 for c in col for v in c.tolist()) / n))
    return rms


def _order_of(coarse: float, fine: float) -> float:
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        return math.nan
    tiny = 1e-300
    order = math.log2(max(coarse, tiny) / max(fine, tiny))
    return max(-20.0, min(20.0, order))


def verify(sol: Solution, sample, h: float = DEFAULT_H,
           tol_rel: float = DEFAULT_TOL_REL) -> ResidualReport:
    """Aggregate residuals over sample points at steps h and h/2.

    ``sample`` is an (N, 3) array or a sequence of (t, x, y) points;
    points whose stencil footprint (at either step) leaves the valid region,
    whose half step rounds away on an axis (t + h/2 == t, say) or that have
    a NaN coordinate are skipped deterministically.  Passing requires, for
    each equation, a finite rms at h/2 within tol_rel of a finite term scale
    and either the nominal convergence order (within 0.5) or a residual on
    the roundoff floor; a non-finite rms gives a NaN order.  The effective
    floor is max(DEFAULT_FLOOR_REL, tol_rel/10), so an infinite tolerance
    passes vacuously and a loose tolerance does not demand clean convergence
    of residuals it would accept anyway.  Raises ConfigError unless h is a
    real number from _MIN_H (about 3.1e-162, below which (h/2)^2 is 0),
    tol_rel one >= 0 (inf too) and the sample numbers, (N, 3) if any.
    """
    h, tol_rel = real(h, "h", _MIN_H), real(tol_rel, "tol_rel", 0.0, math.inf)
    points = real_array(sample, "verify: sample")
    if points.size and points.shape[1:] != (3,):
        raise ConfigError(f"verify: sample shape {points.shape} is not (N, 3)")
    points = points.reshape(-1, 3)
    blocks = [b for b in (_residual_terms(sol, points[i:i + _BLOCK], h)
                          for i in range(0, len(points), _BLOCK)) if len(b)]
    if not blocks:
        raise EmptySampleError("no valid sample points for verification")

    coarse1, rms1, coarse2, rms2, s1, s2 = _rms(blocks)
    order1, order2 = _order_of(coarse1, rms1), _order_of(coarse2, rms2)
    scale1, scale2 = 1.0 + s1, 1.0 + s2
    floor = max(DEFAULT_FLOOR_REL, 0.1 * tol_rel)
    order_ok1 = order1 >= ORDER - 0.5 or rms1 <= floor * scale1
    order_ok2 = order2 >= ORDER - 0.5 or rms2 <= floor * scale2
    finite = all(map(math.isfinite, (rms1, rms2, scale1, scale2)))
    passed = (finite and rms1 <= tol_rel * scale1
              and rms2 <= tol_rel * scale2 and order_ok1 and order_ok2)
    # np.maximum, not Python's max, so that a NaN in any block propagates.
    max1, max2 = functools.reduce(
        np.maximum, (b[:, 1:4:2].max(axis=0) for b in blocks)).tolist()
    return ResidualReport(max1, rms1, max2, rms2, order1, order2,
                          sum(map(len, blocks)), passed)
