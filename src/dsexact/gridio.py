"""Sample grids and deterministic file output.

Field files are CSV with the fixed header ``t,x,y,re_u,im_u,abs_u,v,valid``,
x fastest-varying, floats printed with 17 significant digits so repeated
runs are byte-identical.  Reports are strict JSON with sorted keys and
non-finite numbers written as ``null``.  Invalid points are emitted with
``valid=false`` and empty numeric cells.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .catalog import Solution, eval_solution
from .errors import ConfigError

__all__ = ["GridSpec", "fmt_float", "write_field_csv", "write_json_report",
           "FIELD_HEADER"]

FIELD_HEADER = "t,x,y,re_u,im_u,abs_u,v,valid"

# Points evaluated per batch when writing a field: bounds the working memory
# of large grids.
_CHUNK = 4096


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _linspace(lo: float, hi: float, count: int):
    if count < 1:
        raise ConfigError(f"grid count must be >= 1, got {count}")
    if count == 1:
        return [lo]
    span = hi - lo
    return [lo + span * i / (count - 1) for i in range(count)]


@dataclass(frozen=True)
class GridSpec:
    """Cartesian sample grid: a list of times and two coordinate ranges."""

    t_values: tuple
    x_range: tuple  # (lo, hi, count)
    y_range: tuple

    def points(self, seed=None):
        """Ordered (t, x, y) samples, x fastest-varying.

        ``seed`` adds deterministic jitter of up to 30% of the spacing to
        the interior coordinates, to decorrelate samples from grid symmetry.
        """
        xs = _linspace(*self.x_range)
        ys = _linspace(*self.y_range)
        if seed is not None:
            rng = random.Random(seed)
            dx = (self.x_range[1] - self.x_range[0]) / max(1, self.x_range[2] - 1)
            dy = (self.y_range[1] - self.y_range[0]) / max(1, self.y_range[2] - 1)
            xs = [x + 0.3 * dx * (2.0 * rng.random() - 1.0) for x in xs]
            ys = [y + 0.3 * dy * (2.0 * rng.random() - 1.0) for y in ys]
        return [(t, x, y) for t in self.t_values for y in ys for x in xs]


def field_rows(sol: Solution, points):
    """CSV rows for a solution sampled at the given points."""
    points = np.asarray(list(points), dtype=float).reshape(-1, 3)
    rows = []
    for start in range(0, len(points), _CHUNK):
        t, x, y = points[start:start + _CHUNK].T
        u, v, ok = eval_solution(sol, t, x, y)
        for cells in zip(t.tolist(), x.tolist(), y.tolist(), u.real.tolist(),
                         u.imag.tolist(), np.abs(u).tolist(), v.tolist(),
                         ok.tolist()):
            if cells[-1]:
                rows.append(",".join(map(fmt_float, cells[:-1])) + ",true")
            else:
                rows.append(",".join(map(fmt_float, cells[:3]))
                            + ",,,,,false")
    return rows


def write_field_csv(path, sol: Solution, points):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(FIELD_HEADER + "\n")
        for row in field_rows(sol, points):
            fh.write(row + "\n")


def _finite_or_null(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def write_json_report(path, report: dict):
    """Strict JSON (sorted keys); non-finite floats are written as null."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_finite_or_null(report), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
