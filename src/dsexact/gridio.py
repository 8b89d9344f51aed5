"""Sample grids and deterministic file output.

Field files are CSV with the fixed header ``t,x,y,re_u,im_u,abs_u,v,valid``,
x fastest-varying, every float printed as ``%.17g`` (the same text as
``format(x, ".17g")``, ``-0``, ``inf`` and ``nan`` included) so repeated
runs are byte-identical.  Invalid points are emitted with ``valid=false``
and empty numeric cells.  Fields are evaluated, formatted and written
_CHUNK points at a time, never as one whole-file row list.  Reports are
strict JSON with sorted keys and non-finite numbers written as ``null``.
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

# Points evaluated, formatted and written per batch: bounds the working
# memory of large grids.
_CHUNK = 4096

# %.17g prints exactly as format(x, ".17g"), including -0, inf and nan.  The
# t, x, y cells arrive as text (%s): a grid repeats them across rows.
_VALID_ROW = "%s,%s,%s,%.17g,%.17g,%.17g,%.17g,true\n"
_INVALID_ROW = "%s,%s,%s,,,,,false\n"


def _linspace(lo: float, hi: float, count: int):
    if count < 1:
        raise ConfigError(f"grid count must be >= 1, got {count}")
    if count == 1:
        return np.array([lo], dtype=float)
    span = hi - lo
    return lo + span * np.arange(count) / (count - 1)


@dataclass(frozen=True)
class GridSpec:
    """Cartesian sample grid: a list of times and two coordinate ranges."""

    t_values: tuple
    x_range: tuple  # (lo, hi, count)
    y_range: tuple

    def points(self, seed=None) -> np.ndarray:
        """(N, 3) float array of (t, x, y) samples, x fastest-varying.

        ``seed`` jitters every x and y, endpoints included, by up to 0.3 x
        spacing (0.3 x (hi - lo) on a one-point axis) to break grid symmetry.
        """
        xs = _linspace(*self.x_range)
        ys = _linspace(*self.y_range)
        if seed is not None:
            rng = random.Random(seed)
            dx = (self.x_range[1] - self.x_range[0]) / max(1, self.x_range[2] - 1)
            dy = (self.y_range[1] - self.y_range[0]) / max(1, self.y_range[2] - 1)
            rx = np.array([rng.random() for _ in xs])  # x draws before y
            ry = np.array([rng.random() for _ in ys])
            xs = xs + 0.3 * dx * (2.0 * rx - 1.0)
            ys = ys + 0.3 * dy * (2.0 * ry - 1.0)
        t, y, x = np.meshgrid(self.t_values, ys, xs, indexing="ij")
        return np.stack([t.ravel(), x.ravel(), y.ravel()], axis=1)


def _format_rows(t, x, y, u, v, ok):
    """Newline-terminated CSV rows of flat sample arrays, one list entry per
    row; an invalid point keeps only its t, x, y.  Each distinct coordinate
    is formatted once, keyed by its bits so that -0 and 0 stay apart."""
    bits, where = np.unique(np.stack([t, x, y]).view(np.int64),
                            return_inverse=True)
    text = np.array(["%.17g" % c for c in bits.view(np.float64).tolist()],
                    dtype=object)
    tt, xx, yy = text[where.reshape(3, -1)].tolist()
    # Python floats (tolist): numpy scalars are slower to %-format.
    cells = zip(tt, xx, yy, u.real.tolist(), u.imag.tolist(),
                np.abs(u).tolist(), v.tolist())
    return [_VALID_ROW % c if good else _INVALID_ROW % c[:3]
            for c, good in zip(cells, ok.tolist())]


def field_rows(sol: Solution, points):
    """Newline-terminated CSV rows, one list entry per row, of a solution
    sampled at the given points: an (N, 3) array or a sequence of (t, x, y).
    The points are evaluated and formatted in one batch; the writers pass
    _CHUNK at a time."""
    t, x, y = np.asarray(points, dtype=float).reshape(-1, 3).T
    return _format_rows(t, x, y, *eval_solution(sol, t, x, y))


def _open_output(path):
    """``path`` opened for writing; a path that cannot be opened is a
    ConfigError naming it."""
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as err:
        raise ConfigError(f"cannot write {path!r}: {err.strerror}") from None


def _write_chunks(path, n, rows):
    """Header, then ``rows(s)`` for each _CHUNK-point slice ``s`` of ``n``
    points; ``path`` is opened before the first chunk is made."""
    with _open_output(path) as fh:
        fh.write(FIELD_HEADER + "\n")
        for start in range(0, n, _CHUNK):
            fh.writelines(rows(slice(start, start + _CHUNK)))


def write_field_csv(path, sol: Solution, points):
    """Field CSV of ``sol`` at ``points``, opened before any evaluation."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    _write_chunks(path, len(points), lambda s: field_rows(sol, points[s]))


def write_box_csv(path, field):
    """Field CSV of a periodic-box ``evolve.Field``, all points valid, x
    fastest-varying, formatted and written in the same _CHUNK-point batches
    as ``write_field_csv``."""
    nx, ny = field.u.shape
    i = np.arange(nx * ny)
    cols = (np.full(i.size, field.t), i % nx * field.lx / nx,
            i // nx * field.ly / ny, field.u.T.ravel(), field.v.T.ravel(),
            np.ones(i.size, bool))
    _write_chunks(path, i.size,
                  lambda s: _format_rows(*(c[s] for c in cols)))


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
    with _open_output(path) as fh:
        json.dump(_finite_or_null(report), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
