"""Sample grids and deterministic file output.

Field files are CSV with the fixed header ``t,x,y,re_u,im_u,abs_u,v,valid``,
x fastest-varying, every float printed as ``%.17g`` (the same text as
``format(x, ".17g")``, ``-0``, ``inf`` and ``nan`` included) so repeated
runs are byte-identical.  Invalid points are emitted with ``valid=false``
and empty numeric cells.  A field is a grid: each axis is spelled once per
file, and the values are evaluated, spelled column-wise (``_spell``, with
``%`` for the few values it cannot decide) and written _CHUNK points at a
time from one byte matrix per chunk.  Reports are strict JSON with sorted
keys and non-finite numbers written as ``null``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import random
import sys
from dataclasses import dataclass

import numpy as np

from .catalog import Solution, eval_solution
from .errors import ConfigError, real, real_array

__all__ = ["GridSpec", "write_field_csv", "write_box_csv", "write_json_report",
           "FIELD_HEADER"]

FIELD_HEADER = "t,x,y,re_u,im_u,abs_u,v,valid"

# Points evaluated, formatted and written per batch: bounds the working
# memory of large grids.
_CHUNK = 4096
# Largest seeded jitter of a grid coordinate, in spacings of its axis.
_JITTER = 0.3
# Largest count of an axis: its coordinates, jitter and spelled cells take
# about 143 bytes a point, 150 MB at 2**20 (tracemalloc, numpy 2.4).
_MAX_AXIS = 2 ** 20

# Bytes of a %.17g cell: a sign, "0.000", 17 digits and a dot, "e+ddd".
# Unused bytes are NUL and deleted once a chunk's rows are joined.
_CELL = 29
# |x| range of _decimal, where its products neither overflow nor lose bits
# to subnormals, and how close to a rounding tie or to a decade its
# double-double may come before ``%`` decides.
_LIMIT = 1e268
_MARGIN = 1e-9
# Index of the 18 digit-and-dot bytes of a cell, as a column.
_SLOT = np.arange(18, dtype=np.uint8)[:, None]
_MINUS, _ZERO, _DOT = np.frombuffer(b"-0.", np.uint8)
# Row ends indexed by the valid flag; the NUL goes with the padding.
_TAILS = np.frombuffer(b"false\ntrue\n\0", np.uint8).reshape(2, 6)


@dataclass(frozen=True)
class GridSpec:
    """Cartesian sample grid, a config's ``/grid``: times and two ranges
    (lo, hi, count), kept as floats and an int count.  No time, a range not
    of 3 entries, a value that ``errors.real`` refuses (a count: an integer
    from 1 to _MAX_AXIS) or points that, jittered or not, can leave the
    double range are a ConfigError."""

    t_values: tuple
    x_range: tuple  # (lo, hi, count)
    y_range: tuple

    def __post_init__(self):
        for axis, (key, values) in zip("txy", list(vars(self).items())):
            size = len(values) if getattr(values, "ndim", 1) \
                and hasattr(values, "__len__") else 0
            if not (size == 3 or axis == "t" and size):
                raise ConfigError(f"/grid/{axis}: expected " + (
                    "at least one time" if axis == "t" else "(lo, hi, count)")
                    + f", got {values!r}")
            count = () if axis == "t" else (1, _MAX_AXIS, True)
            object.__setattr__(self, key, tuple(
                real(value, f"/grid/{axis}/{i}", *(count if i == 2 else ()))
                for i, value in enumerate(values)))
        for axis, (lo, hi, count) in zip("xy", (self.x_range, self.y_range)):
            # The largest product the points and jitter are built from, and
            # the largest magnitude a jittered point can reach.
            spacing = abs(hi - lo) / max(1, count - 1)
            if not (math.isfinite((hi - lo) * max(1, count - 1)) and
                    math.isfinite(max(abs(lo), abs(hi)) + _JITTER * spacing)):
                raise ConfigError(f"/grid/{axis}: the span from {lo!r} to "
                                  f"{hi!r} over {count} points, or its "
                                  f"jitter, overflows")

    def axes(self, seed=None):
        """(ts, xs, ys) float arrays of the grid's times and coordinates.

        ``seed`` jitters every x and y, endpoints included, by up to 0.3 x
        spacing (0.3 x (hi - lo) on a one-point axis) to break grid symmetry.
        """
        rng = random.Random(seed)
        axes = [np.array(self.t_values, dtype=float)]
        for lo, hi, count in (self.x_range, self.y_range):
            a = np.array([lo], dtype=float) if count == 1 else \
                lo + (hi - lo) * np.arange(count) / (count - 1)
            if seed is not None:  # x draws before y
                r = 2.0 * np.array([rng.random() for _ in a]) - 1.0
                a = a + _JITTER * ((hi - lo) / max(1, count - 1)) * r
            axes.append(a)
        return tuple(axes)

    def points(self, seed=None) -> np.ndarray:
        """(N, 3) float array of the (t, x, y) of ``axes(seed)``, x fastest."""
        ts, xs, ys = self.axes(seed)
        t, y, x = np.meshgrid(ts, ys, xs, indexing="ij")
        return np.stack([t.ravel(), x.ravel(), y.ravel()], axis=1)


def _split(a):
    """Dekker's split of ``a`` into a high and a low half of 26 bits each."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _pow10():
    """(4, 540) array: 10**k for k = -253..286 as hi + lo (hi correctly
    rounded, lo the rounded remainder) and the Dekker halves of hi, in
    column k + 253.  Integer division of Python ints rounds correctly."""
    table = []
    for k in range(-253, 287):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        p, q = (num / den).as_integer_ratio()
        table.append((num / den, (num * q - p * den) / (den * q)))
    hi, lo = np.array(table).T
    return np.stack([hi, lo, *_split(hi)])


@functools.cache
def _affixes():
    """(10, 601) uint8 array: column e + 300 holds the 5 NUL-padded bytes
    %.17g writes before the digits of a value of decimal exponent e ("0.00"
    at e = -3) and the 5 after them ("e+17" at e = 17)."""
    text = b"".join(
        (b"0." + b"0" * (-1 - e) if -4 <= e < 0 else b"").ljust(5, b"\0")
        + (b"" if -4 <= e < 17 else b"e%+03d" % e).ljust(5, b"\0")
        for e in range(-300, 301))
    return np.frombuffer(text, np.uint8).reshape(-1, 10).T.copy()


def _decimal(x):
    """``(m, e, slow)``: |x| rounded half-even to 17 digits is ``m *
    10**(e - 16)``, 10**16 <= m < 10**17, except at the indices ``slow``.

    With e = floor(log10 |x|), ``|x| * 10**(16 - e)`` is the double-double
    ``ph + pl`` (Dekker's exact product with hi, plus ``|x| * lo``), whose
    ph >= 2**53 is an integer, so rounding pl rounds m.  Slow are 0, inf,
    nan, |x| beyond _LIMIT, an e that log10 rounded across a decade (then
    ``ph + pl`` falls outside [1e16, 1e17)) and values within _MARGIN of
    1e16 or of a rounding tie."""
    a = np.abs(x)
    fast = (a >= 1 / _LIMIT) & (a <= _LIMIT)  # false for 0, inf and nan
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo, hh, hl = _pow10().take(269 - e, axis=1)
    ah, al = _split(a)
    ph = a * hi
    pl = ((ah * hh - ph) + ah * hl + al * hh) + al * hl + a * lo
    slow = np.flatnonzero(~fast | ((ph - 1e16) + pl < _MARGIN)
                          | (ph + pl >= 1e17)
                          | (np.abs(pl - np.floor(pl) - 0.5) < _MARGIN))
    return ph.astype(np.int64) + np.rint(pl).astype(np.int64), e, slow


def _spell(x):
    """(_CELL, n) uint8 array whose column j is ``format(x[j], ".17g")``,
    NUL-padded: the digits of _decimal laid out as %.17g lays them out, and
    ``%`` for the values _decimal leaves."""
    m, e, slow = _decimal(x)
    out = np.zeros((_CELL, x.size), np.uint8)
    out[0] = np.signbit(x) * _MINUS
    for rows, affix in zip((out[1:6], out[24:]), np.split(_affixes(), 2)):
        affix.take(e + 300, axis=1, out=rows, mode="clip")
    # d[i]: digit i of the 9- and of the 8-digit half of m.
    hi = m // 10 ** 8
    q = np.stack([hi, m - hi * 10 ** 8]).astype(np.uint32)
    d = np.empty((9, 2, x.size), np.uint8)
    for i in range(8, -1, -1):
        r = q // 10
        d[i] = q - r * 10
        q = r
    d = np.concatenate([d[:, 0], d[1:, 1]])
    last = (_SLOT[:17] * (d != 0)).max(axis=0)  # the last nonzero digit
    # Digits are kept up to the units (0 where a suffix holds the exponent)
    # and then up to the last nonzero one; the dot follows the units if a
    # digit is kept after them, unless the prefix ("0.", "0.00") holds it.
    units = np.where((out[24] == 0) & (e > 0), e, 0).astype(np.uint8)
    dot = np.where((last <= units) | (out[1] != 0), 18, units + 1)
    digits = (d + _ZERO) * (_SLOT[:17] <= np.maximum(last, units))
    # Digits before the dot, the dot, digits after it.
    body = out[6:24]
    np.multiply(digits, _SLOT[:17] < dot, out=body[:17])
    body[1:] += digits * (_SLOT[1:] > dot)
    body += (_SLOT == dot) * _DOT
    if slow.size:
        text = np.array(["%.17g" % c for c in x[slow].tolist()],
                        dtype=f"S{_CELL}")
        out[:, slow] = text.view(np.uint8).reshape(-1, _CELL).T
    return out


def _rows(rows, cells, index, u, v, ok):
    """``rows``, a uint8 matrix, filled with the NUL-padded records, one a
    row, of the grid points ``index`` = (it, ix, iy), coordinates gathered
    from the spelled axes ``cells``; an invalid point keeps only t, x, y."""
    cols = rows[:, :-6].reshape(-1, 7, _CELL + 1)
    for k, (table, i) in enumerate(zip(cells, index)):
        table.take(i, axis=0, out=cols[:, k, :-1])
    # Invalid cells are spelled from a finite stand-in, then blanked.
    for k, column in enumerate((u.real, u.imag, np.abs(u), v), 3):
        cols[:, k, :-1] = (_spell(np.where(ok, column, 1.0)) * ok).T
    cols[:, :, -1] = ord(",")
    rows[:, -6:] = _TAILS[ok.astype(np.intp)]
    return rows


def field_rows(sol: Solution, axes, rows, cells, index):
    """``rows`` filled as by _rows with ``sol`` at the grid points ``index``
    of ``axes`` = (ts, xs, ys), spelled as ``cells``; the writer calls it
    once per chunk of _CHUNK points."""
    t, x, y = (a[i] for a, i in zip(axes, index))
    return _rows(rows, cells, index, *eval_solution(sol, t, x, y))


def _stdout_buffer(path):
    """``sys.stdout.buffer`` if ``path`` is the file the process's stdout
    writes to, else None, as for a stdout with no descriptor (under
    ``contextlib.redirect_stdout``)."""
    try:
        if os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno())):
            return sys.stdout.buffer
    except (AttributeError, OSError, ValueError):
        pass
    return None


@contextlib.contextmanager
def open_output(path):
    """``path`` (an open file as it is) open for writing bytes: a path that
    is missing or a regular file gets a new file beside it, which replaces
    it once the block ends (umask's mode, hard links broken) or is removed
    if the block raises; any other path (a symlink, a device, a pipe) is
    written in place, through ``sys.stdout.buffer`` (flushed, not closed)
    where it is the process's stdout.  A ConfigError names a path that is
    not a str or os.PathLike, or that cannot be opened, before the block
    runs."""
    if hasattr(path, "write"):
        yield path
        return
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"cannot write {path!r}: not a str or os.PathLike")
    swap = not os.path.lexists(path or ".") or (
        os.path.isfile(path) and not os.path.islink(path))
    # Opened again, stdout's file would be written from offset 0, where
    # what stdout prints next lands on top of it.
    stdout = None if swap else _stdout_buffer(path)
    if stdout is not None:
        sys.stdout.flush()
        yield stdout
        stdout.flush()
        return
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp" if swap else path
    try:  # "x": a name made meanwhile is refused
        fh = open(tmp, "xb" if swap else "wb")
    except OSError as err:
        raise ConfigError(f"cannot write {path!r}: {err.strerror}") from None
    try:
        with fh:
            yield fh
        if swap:
            os.replace(tmp, path)
    finally:
        if swap and os.path.exists(tmp):
            os.remove(tmp)


def _write_grid(path, axes, rows):
    """Header, then ``rows(out[:len(index[0])], cells, index)`` without its
    NULs for each _CHUNK-point slice ``index`` of the grid over ``axes``, x
    fastest; ``cells`` and ``out`` are made once, after ``path`` is opened."""
    with open_output(path) as fh:
        fh.write(FIELD_HEADER.encode() + b"\n")
        cells = [_spell(a).T.copy() for a in axes]
        buf = bytearray(_CHUNK * (7 * (_CELL + 1) + 6))
        out = np.frombuffer(buf, np.uint8).reshape(_CHUNK, -1)
        shape = [len(axes[k]) for k in (0, 2, 1)]
        for start in range(0, math.prod(shape), _CHUNK):
            it, iy, ix = np.unravel_index(
                np.arange(start, min(start + _CHUNK, math.prod(shape))), shape)
            n = rows(out[:it.size], cells, (it, ix, iy)).nbytes
            fh.write((buf if n == len(buf) else buf[:n])
                     .translate(None, b"\0"))


def write_field_csv(path, sol: Solution, ts, xs, ys):
    """Field CSV of ``sol`` on the grid over the real axes ``ts``, ``xs``
    and ``ys`` (else a ConfigError); ``path`` is opened before evaluating."""
    axes = [real_array(a, name).ravel()
            for a, name in zip((ts, xs, ys), ("ts", "xs", "ys"))]
    _write_grid(path, axes, functools.partial(field_rows, sol, axes))


def write_box_csv(path, field):
    """Field CSV of an ``evolve.Field`` on its ``axes()``, all points valid."""
    axes = (np.array([field.t]), *field.axes())
    _write_grid(path, axes, lambda rows, cells, index: _rows(
        rows, cells, index, field.u[index[1:]], field.v[index[1:]],
        np.ones(index[0].size, bool)))


def _finite_or_null(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def write_json_report(path, report: dict):
    """Strict sorted JSON, null for non-finite floats, built before opening."""
    data = json.dumps(_finite_or_null(report), indent=2, sort_keys=True,
                      allow_nan=False).encode() + b"\n"
    with open_output(path) as fh:
        fh.write(data)
