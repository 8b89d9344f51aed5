"""Field CSV bytes against an independent formatter: every float cell is
``format(c, ".17g")``, rows are joined with ``,`` and end in ``,true`` or,
for an invalid point, ``,,,,,false``."""

import io
import json
import math
import os
import re
import stat

import numpy as np
import pytest

from dsexact import ConfigError, Field, GridSpec, Variant, write_field_csv
from dsexact.catalog import Solution, solution
from dsexact.gridio import _CHUNK, _MAX_AXIS, FIELD_HEADER, _decimal, \
    _spell, write_box_csv, write_json_report

INF, NAN = math.inf, math.nan
# Both sides of the fixed/exponent switch of %.17g, signed zeros, the
# smallest subnormal and the non-finite values.
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e17, 1e-4, 1e-5, -1e16,
            1.0 / 3.0, INF, -INF, NAN, 123456789012345678.0, 0.1]


def reference_csv(rows):
    """CSV text of (t, x, y, u, v, ok) tuples, cell by cell.  |u| is taken
    from ``np.abs``, as the writer takes it: its last bit can differ from
    Python's ``abs``, and the formatting is what is under test."""
    lines = [FIELD_HEADER]
    moduli = np.abs(np.array([r[3] for r in rows], dtype=complex)).tolist()
    for (t, x, y, u, v, ok), modulus in zip(rows, moduli):
        cells = [t, x, y]
        if ok:
            cells += [u.real, u.imag, modulus, v]
        text = ",".join(format(c, ".17g") for c in cells)
        lines.append(text + (",true" if ok else ",,,,,false"))
    return "\n".join(lines) + "\n"


def table_solution(values):
    """A Solution that returns the given (u, v, ok) at each (t, x, y) key;
    keys are bit patterns, so -0.0 and 0.0 are different points."""
    def lookup(t, x, y):
        keys = np.stack([t, x, y], axis=-1).reshape(-1, 3)
        return [values[k.tobytes()] for k in keys]

    def column(i, dtype):
        return lambda t, x, y: np.array([r[i] for r in lookup(t, x, y)],
                                        dtype=dtype)

    return Solution(Variant(-1, 1), column(0, complex), column(1, float),
                    column(2, bool))


def write_table(tmp_path, axes, draw):
    """Write a field on the grid over ``axes`` = (ts, xs, ys) whose point k,
    x fastest, gets ``draw(k)`` = (u, v, ok); returns (file text, reference
    text)."""
    ts, xs, ys = (np.asarray(a, dtype=float).tolist() for a in axes)
    points = np.array([(t, x, y) for t in ts for y in ys for x in xs])
    rows = [(*p, *draw(k)) for k, p in enumerate(points.tolist())]
    values = {points[k].tobytes(): r[3:] for k, r in enumerate(rows)}
    path = tmp_path / "field.csv"
    write_field_csv(path, table_solution(values), *axes)
    return path.read_text(encoding="utf-8"), reference_csv(rows)


def special_value(k):
    a, b, c = (SPECIALS[(k * s) % len(SPECIALS)] for s in (1, 3, 7))
    return complex(a, b), c, k % 5 != 2


def test_special_floats_in_every_column(tmp_path):
    coords = [0.0, -0.0, 5e-324, 1e16, 1e17, 1e-4, 1e-5, INF, -INF, NAN]
    # The t and y axes hold -0.0 and 0.0 side by side, the x axis too.
    axes = ([0.0, -0.0, 1e-5], coords, [-0.0, 0.0, 2.5])
    got, want = write_table(tmp_path, axes, special_value)
    assert got == want
    assert ",-0,0," in got and "inf" in got and "nan" in got
    assert "4.9406564584124654e-324" in got and "1e+17" in got
    assert "10000000000000000" in got and "1.0000000000000001e-05" in got
    assert ",,,,,false\n" in got


# (times, nx, ny): a chunk ends inside grid row 13; an x axis longer than a
# chunk; a chunk ends inside a row of t = -0.
GRIDS = [((0.25,), 300, 15), ((0.5, -1.0), _CHUNK + 300, 2),
         ((0.1, -0.0, 2.0), 300, 7)]


def test_chunk_boundary_inside_a_grid_row(tmp_path):
    for ts, nx, ny in GRIDS:
        n = len(ts) * nx * ny
        assert any(k % nx for k in range(_CHUNK, n, _CHUNK))
        axes = GridSpec(ts, (-3.0, 3.0, nx), (-0.0, 2.0, ny)).axes(seed=4)
        rng = np.random.default_rng(11)
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = rng.normal(size=n) * 1e8
        ok = rng.random(n) > 0.1
        got, want = write_table(tmp_path, axes,
                                lambda k: (u[k], v[k], ok[k]))
        assert got == want
        assert got.count("\n") == 1 + n


def test_one_point_grid(tmp_path):
    axes = GridSpec((-0.0,), (0.5, 0.5, 1), (-1e-5, -1e-5, 1)).axes()
    got, want = write_table(tmp_path, axes,
                            lambda k: (complex(-0.0, 1e16), 5e-324, True))
    assert got == want == (
        FIELD_HEADER + "\n-0,0.5,-1.0000000000000001e-05,-0,"
        "10000000000000000,10000000000000000,4.9406564584124654e-324,true\n")


COUNT = f"expected an integer from 1 to {_MAX_AXIS}, got"


def test_empty_axis_is_config_error():
    with pytest.raises(ConfigError, match=f"/grid/x/2: {COUNT} 0$"):
        GridSpec((0.0,), (0.0, 1.0, 0), (0.0, 1.0, 2)).axes()


def test_axis_count_cap_holds_for_library_callers():
    # The cap is GridSpec's, not only the CLI's: no config reader is needed.
    assert _MAX_AXIS == 2 ** 20
    for x, y, named in (((0.0, 1.0, 2 ** 20 + 1), (0.0, 1.0, 2), "/grid/x/2"),
                        ((0.0, 1.0, 2), (0.0, 1.0, 10 ** 12), "/grid/y/2")):
        with pytest.raises(ConfigError, match=f"{named}: {COUNT}"):
            GridSpec((0.0,), x, y)
    grid = GridSpec((0.0,), (0.0, 1.0, 2 ** 20), (0.0, 1.0, float(2 ** 20)))
    assert grid.x_range[2] == grid.y_range[2] == 2 ** 20
    assert type(grid.y_range[2]) is int  # a whole float count is kept as int


@pytest.mark.parametrize("x, y, named", [
    ((-1.0, 1.0, 1.5), (0.0, 1.0, 2), "/grid/x"),  # built x = [-1, 3]
    ((-1.0, 1.0, NAN), (0.0, 1.0, 2), "/grid/x"),  # failed in axes()
    ((0.0, 1.0, 2), (0.0, 1.0, -1.0), "/grid/y"),
    ((0.0, 1.0, 2), (0.0, 1.0, INF), "/grid/y"),
])
def test_count_not_a_whole_number_of_points_is_config_error(x, y, named):
    with pytest.raises(ConfigError, match=f"{named}/2: {COUNT}"):
        GridSpec((0.0,), x, y)


@pytest.mark.parametrize("t, x, y, named", [
    ((0.0,), (0.0, 1.0, True), (0.0, 1.0, 2), "/grid/x/2"),  # one point
    ((0.0,), (0.0, 1.0, "5"), (0.0, 1.0, 2), "/grid/x/2"),  # a TypeError
    ((0.0,), (0.0, 1.0, 2), (0.0, 1.0, None), "/grid/y/2"),
    ((0.0,), (0.0, 1.0, 1 + 0j), (0.0, 1.0, 2), "/grid/x/2"),
    ((0.0,), ("a", 1.0, 2), (0.0, 1.0, 2), "/grid/x/0"),
    ((0.0,), (0.0, 1.0, 2), (0.0, None, 2), "/grid/y/1"),
    ((0.0, "a"), (0.0, 1.0, 2), (0.0, 1.0, 2), "/grid/t/1"),  # in axes()
    ((False,), (0.0, 1.0, 2), (0.0, 1.0, 2), "/grid/t/0"),
])
def test_value_that_is_not_a_real_number_is_config_error(t, x, y, named):
    # The CLI passes the config's values as they are; GridSpec checks them.
    value = {"t": t, "x": x, "y": y}[named[6]][int(named[-1])]
    kind = "a real number" if "/t/" in named or not named.endswith("2") \
        else f"an integer from 1 to {_MAX_AXIS}"
    with pytest.raises(ConfigError, match=re.escape(
            f"{named}: expected {kind}, got {value!r}")):
        GridSpec(t, x, y)


@pytest.mark.parametrize("t, x, y, named", [
    ((0.0,), (0.0, 1.0), (0.0, 1.0, 2), "/grid/x"),  # a ValueError
    ((0.0,), (0.0, 1.0, 2, 3), (0.0, 1.0, 2), "/grid/x"),
    ((0.0,), (0.0, 1.0, 2), 5, "/grid/y"),  # a TypeError
    (0.5, (0.0, 1.0, 2), (0.0, 1.0, 2), "/grid/t"),
    (np.array(0.5), (0.0, 1.0, 2), (0.0, 1.0, 2), "/grid/t"),  # a TypeError
])
def test_axis_that_is_not_a_sequence_of_its_length_is_config_error(
        t, x, y, named):
    # Library callers only: the CLI's _list checks each length.
    with pytest.raises(ConfigError, match=f"^{named}: expected "):
        GridSpec(t, x, y)


def test_numpy_reals_are_grid_values():
    grid = GridSpec(np.array([0.5]), (np.float32(-1.0), np.float64(1.0),
                                      np.int64(3)), (0, 1, np.float64(2.0)))
    ts, xs, ys = grid.axes()
    assert ts.tolist() == [0.5] and xs.tolist() == [-1.0, 0.0, 1.0]
    assert ys.tolist() == [0.0, 1.0] and type(grid.x_range[2]) is int


def test_grid_without_a_time_is_config_error():
    # It built, and its points() had shape (0, 3).
    with pytest.raises(ConfigError, match="/grid/t"):
        GridSpec((), (0.0, 1.0, 2), (0.0, 1.0, 2))


@pytest.mark.parametrize("x, y, named", [
    # 1.79e308 plus 0.3 x 9e306 of jitter leaves the double range.
    ((1.7e308, 1.79e308, 2), (0.0, 1.0, 2), "/grid/x"),
    ((0.0, 1.0, 2), (-1e308, 1e308, 3), "/grid/y"),
])
def test_axis_leaving_the_double_range_is_config_error(x, y, named):
    with pytest.raises(ConfigError, match=f"{named}: the span"):
        GridSpec((0.0,), x, y).axes(1)


@pytest.mark.parametrize("nx, ny", [(128, 64), (2, 2), (4, 2)])
def test_box_csv(tmp_path, nx, ny):
    rng = np.random.default_rng(nx)
    u = np.empty((nx, ny), dtype=complex)
    u.real, u.imag, v = rng.normal(size=(3, nx, ny))
    specials = np.array(SPECIALS)
    k = rng.integers(0, len(specials), size=(nx, ny))
    u.real.flat[::3] = specials[k.flat[::3]]
    u.imag.flat[::3] = specials[k.flat[::3] - 1]
    v.flat[::5] = specials[k.flat[::5]]
    # A box length must be > 0 (Field refuses ly = -3.0), so the -0.0 case
    # is on t alone.
    lx, ly, t = 7.0, 3.0, -0.0
    path = tmp_path / "box.csv"
    write_box_csv(path, Field(lx, ly, u, v, t))
    rows = [(t, ix * lx / nx, iy * ly / ny, complex(u[ix, iy]),
             float(v[ix, iy]), True)
            for iy in range(ny) for ix in range(nx)]
    assert path.read_text(encoding="utf-8") == reference_csv(rows)


def test_json_report_is_serialised_before_its_file_is_opened(tmp_path):
    # A report json cannot take raises and leaves the file it would have
    # replaced as it was (it was left empty).
    path = tmp_path / "report.json"
    write_json_report(path, {"pass": True})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json_report(path, {"pass": object()})
    assert path.read_bytes() == before


def test_an_int_path_is_config_error(tmp_path):
    # open() took the int as a file descriptor: the report went to the
    # descriptor's file, which the writer then closed.
    with open(tmp_path / "other.txt", "wb") as fh:
        with pytest.raises(ConfigError, match=re.escape(
                f"cannot write {fh.fileno()!r}: not a str or os.PathLike")):
            write_json_report(fh.fileno(), {"pass": True})
        os.fstat(fh.fileno())  # still open
    assert (tmp_path / "other.txt").read_bytes() == b""


def test_a_bool_path_is_config_error(tmp_path):
    # True is the descriptor 1: the report went to stdout, which the writer
    # then closed.
    for write in (lambda p: write_json_report(p, {"pass": True}),
                  lambda p: write_field_csv(p, table_solution({}), [0.0],
                                            [0.0], [0.0])):
        with pytest.raises(ConfigError, match=re.escape(
                "cannot write True: not a str or os.PathLike")):
            write(True)
    os.fstat(1)


def neighbours(values, steps):
    """Each value and the ``steps`` doubles on either side of it."""
    out = [values]
    up = down = values
    for _ in range(steps):
        up, down = np.nextafter(up, INF), np.nextafter(down, -INF)
        out += [up, down]
    return np.concatenate(out)


def test_non_finite_numbers_in_report_lists_are_null(tmp_path):
    path = tmp_path / "report.json"
    write_json_report(path, {"box": [NAN, 1.0], "runs": [{"max": INF}]})
    assert json.loads(path.read_text()) == {"box": [None, 1.0],
                                            "runs": [{"max": None}]}


def test_column_formatter_matches_format():
    rng = np.random.default_rng(20)
    # m / 4 with m odd and 16 integer digits: exact ties at the 17th digit.
    ties = (rng.integers(4 * 10 ** 15, 2 ** 53, 50_000) | 1) / 4.0
    decades = np.array([float(f"1e{k}") for k in range(-323, 309)])
    others = np.concatenate([
        # Random bit patterns: both signs, subnormals, inf, nan payloads.
        np.frombuffer(rng.bytes(8 * 60_000), np.float64),
        neighbours(decades, 1),
        # Seventeen nines: at or next to a decade, 1e+17 and the like.
        [float(f"9.9999999999999999e{k}") for k in range(-300, 300)],
        # The fixed/exponent switches of %.17g.
        neighbours(np.array([1e-5, 1e-4, 1e16, 1e17]), 100),
        rng.normal(size=30_000) * 10.0 ** rng.integers(-8, 20, 30_000),
        [0.0, INF, NAN, 99999999999999999.0, 2251799813685247.75]])
    others = np.concatenate([others, -others])
    values = np.concatenate([ties, others])
    assert values.size >= 200_000
    cells = np.vstack([_spell(values), np.full(values.size, ord("\n"))])
    got = cells.T.tobytes().translate(None, b"\0").decode().split("\n")
    assert got[:-1] == [format(c, ".17g") for c in values.tolist()]
    assert "1e+17" in got and "2251799813685247.8" in got
    # Ties are left to %; nearly all other values are formatted column-wise.
    assert _decimal(ties)[2].size == ties.size
    assert _decimal(others)[2].size < 0.2 * others.size


def test_failed_export_leaves_no_partial_file(tmp_path):
    # 100 x 100 points are three chunks; the second one raises.
    calls = []

    def fields(t, x, y):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("second chunk")
        shape = np.broadcast(t, x, y).shape
        return np.ones(shape, complex), np.zeros(shape), np.ones(shape, bool)

    axis = np.linspace(0.0, 1.0, 100)
    with pytest.raises(RuntimeError, match="second chunk"):
        write_field_csv(tmp_path / "field.csv",
                        solution(Variant(-1, 1), fields, {}), [0.0], axis,
                        axis)
    assert list(tmp_path.iterdir()) == []


def test_failed_export_keeps_the_file_it_would_replace(tmp_path):
    # The export goes to a file beside the target, which replaces the
    # target only once the last chunk is written.
    calls = []

    def fields(t, x, y):
        calls.append(1)
        if len(calls) == 3:  # the second chunk of the second export
            raise RuntimeError("second chunk")
        shape = np.broadcast(t, x, y).shape
        return np.ones(shape, complex), np.zeros(shape), np.ones(shape, bool)

    path = tmp_path / "field.csv"
    axis = np.linspace(0.0, 1.0, 100)
    write_field_csv(path, solution(Variant(-1, 1), fields, {}), [0.0], [0.0],
                    [0.0])
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="second chunk"):
        write_field_csv(path, solution(Variant(-1, 1), fields, {}), [0.0],
                        axis, axis)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before


def test_an_unwritable_path_is_config_error(tmp_path):
    for bad, reason in ((tmp_path, "Is a directory"),
                        (tmp_path / "missing" / "r.json",
                         "No such file or directory"),
                        ("", "No such file or directory")):
        with pytest.raises(ConfigError, match=re.escape(
                f"cannot write {bad!r}: {reason}")):
            write_json_report(bad, {"pass": True})
    assert list(tmp_path.iterdir()) == []


def test_a_path_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    # A symlink, a pipe or a device at the path is written through, not
    # replaced by a regular file (the link and the pipe are tried first:
    # /dev/stdout is a link); an open file is written to and left open.
    link, target = tmp_path / "link", tmp_path / "target"
    target.write_bytes(b"old")
    link.symlink_to(target)
    write_json_report(link, {"pass": True})
    assert link.is_symlink()
    assert target.read_bytes() == b'{\n  "pass": true\n}\n'
    link.unlink()
    target.unlink()
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_json_report(fifo, {"pass": True})
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.read(reader, 100) == b'{\n  "pass": true\n}\n'
    finally:
        os.close(reader)
    assert list(tmp_path.iterdir()) == [fifo]
    write_json_report(os.devnull, {"pass": True})
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    with io.BytesIO() as fh:
        write_json_report(fh, {"pass": True})
        assert fh.getvalue() == b'{\n  "pass": true\n}\n'
