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

__all__ = ["GridSpec", "write_field_csv", "write_box_csv", "write_json_report",
           "FIELD_HEADER"]

FIELD_HEADER = "t,x,y,re_u,im_u,abs_u,v,valid"

# Points evaluated per batch when writing a field: bounds the working memory
# of large grids.
_CHUNK = 4096

# %.17g prints exactly as format(x, ".17g"), including -0, inf and nan.
_VALID_ROW = ",".join(["%.17g"] * 7) + ",true"
_INVALID_ROW = "%.17g,%.17g,%.17g,,,,,false"


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


def _format_rows(t, x, y, u, v, ok):
    """CSV rows of flat sample arrays, made lazily _CHUNK points at a time
    (bounded temporaries); an invalid point keeps only its t, x, y."""
    for s in range(0, len(ok), _CHUNK):
        c = slice(s, s + _CHUNK)
        cells = zip(t[c], x[c], y[c], u[c].real, u[c].imag, np.abs(u[c]), v[c])
        yield from (_VALID_ROW % cell if good else _INVALID_ROW % cell[:3]
                    for cell, good in zip(cells, ok[c]))


def field_rows(sol: Solution, points):
    """CSV rows for a solution sampled at the given points."""
    points = np.asarray(list(points), dtype=float).reshape(-1, 3)
    rows = []
    for start in range(0, len(points), _CHUNK):
        t, x, y = points[start:start + _CHUNK].T
        rows += _format_rows(t, x, y, *eval_solution(sol, t, x, y))
    return rows


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(FIELD_HEADER + "\n")
        fh.writelines(row + "\n" for row in rows)


def write_field_csv(path, sol: Solution, points):
    _write_rows(path, field_rows(sol, points))


def write_box_csv(path, field):
    """Field CSV of a periodic-box ``evolve.Field``, all points valid, x
    fastest-varying."""
    nx, ny = field.u.shape
    i = np.arange(nx * ny)
    _write_rows(path, _format_rows(
        np.full(i.size, field.t), i % nx * field.lx / nx,
        i // nx * field.ly / ny, field.u.T.ravel(), field.v.T.ravel(),
        np.ones(i.size, bool)))


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
