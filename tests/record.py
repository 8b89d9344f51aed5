"""Write the outputs of record, or compare two records.

    python tests/record.py OUT
    python tests/record.py --diff A B [--expect FILE]

The first form writes, with every path relative to OUT:

* ``verify/s<seed>-<index>.json``: the verify report of each entry of
  ``default_verification_matrix()`` on the points of its grid jittered by
  seeds 0-3, and ``verify/o<order>-s0-<index>.json`` the same at seed 0
  with the stencil orders 2 and 6;
* ``eval/<kind>.csv`` and ``transform/<kind>.csv``: ``dsexact eval`` and
  ``dsexact transform`` (a T1-then-T2 chain, jittered by seed 1) of a
  family C line of each of the eight profile kinds; the eval grid holds a
  pole of each pole-bearing kind;
* ``transform/verify.json``: ``dsexact transform`` with ``then: verify``;
* ``evolve/<name>.json`` and ``evolve/<name>-snap.csv``: ``dsexact evolve``
  of a stationary and of a T1-boosted ``sn`` line along x, and of the
  oblique ``sn`` line of ``selftest`` on its period box, which varies along
  both axes and has lx != ly;
* ``config/*.json``: the config of each command above;
* ``SHA256SUMS``: the sha256 of every file above, as ``sha256sum`` writes
  it, so ``cd OUT && sha256sum -c SHA256SUMS`` checks the record.

The commands run through ``dsexact.cli.main`` from the ``src/`` beside this
file, with OUT as the working directory.  A run takes well under a second.

The second form names each file that differs between records A and B (or
is in one only), and for each its first difference: the JSON key, or the
CSV row and column, both values and their distance in units in the last
place.  It exits 0 when the records match and 1 otherwise.  With
``--expect FILE`` it exits 0 when the differing files are exactly the ones
FILE declares, and 1 otherwise, naming each undeclared difference and each
declared file that does not differ (FILE may still hold a previous change's
declarations, which the next change clears).  FILE holds one declaration a
line: a record path, then the reason it changes; blank lines and ``#``
lines are skipped.  Standard library and numpy only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dsexact import ellipk, verify  # noqa: E402
from dsexact.cli import main  # noqa: E402
from dsexact.gridio import write_json_report  # noqa: E402
from dsexact.selftest import default_verification_matrix  # noqa: E402

SEEDS = (0, 1, 2, 3)

# One line per profile kind: (eps1, eps2, m, ell, ell1), with real
# amplitudes as in the verification matrix.  ell1 puts a pole of each
# pole-bearing kind at the origin, a point of the unjittered eval grid.
LINES = {
    "rational": (1, 1, None, 0.3, 0.0),
    "tan": (1, 1, None, 0.3, math.pi / 2.0),
    "sec": (-1, 1, None, 0.4, math.pi / 2.0),
    "coth": (1, 1, None, 0.3, 0.0),
    "csch": (-1, 1, None, 0.4, 0.0),
    "sn": (-1, 1, 0.3, 0.4, 0.3),
    "cn": (1, 1, 0.7, 1.0, 0.3),
    "dn": (-1, -1, 0.3, 0.2, 0.3),
}

CHAIN = [{"kind": "T1", "alpha": "0.3*sin(t)", "beta": "0.2*t^2",
          "gamma": "t^2"},
         {"kind": "T2", "b": 1.5}]


def _line(kind):
    eps1, eps2, m, ell, ell1 = LINES[kind]
    params = {"kind": kind, "ell": ell, "ell1": ell1, "beta": "0.1*t"}
    if m is not None:
        params["m"] = m
    return {"variant": {"eps1": eps1, "eps2": eps2}, "family": "C",
            "params": params}


def _run(name, cfg, argv):
    """``dsexact <argv> --config config/<name>.json`` with ``cfg`` written
    there; a run that writes nothing is an error."""
    path = Path("config", f"{name}.json")
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--config", str(path)])
    if code not in (0, 1):
        raise RuntimeError(f"{name}: exit code {code}")


def _commands():
    grid = {"t": [0.0, 0.4], "x": [-2.0, 2.0, 9], "y": [-1.5, 1.5, 7]}
    for kind in LINES:
        _run(f"eval-{kind}", {**_line(kind), "grid": grid,
                              "out": f"eval/{kind}.csv"}, ["eval"])
        _run(f"transform-{kind}", {**_line(kind), "grid": grid,
                                   "transforms": CHAIN,
                                   "out": f"transform/{kind}.csv"},
             ["transform", "--seed", "1"])
    _run("transform-verify", {
        **_line("sn"), "transforms": CHAIN, "then": "verify",
        "grid": {"t": [0.2, 0.5], "x": [-0.8, 0.8, 5], "y": [-0.8, 0.8, 5]},
        "out": "transform/verify.json"}, ["transform", "--seed", "0"])
    box = 4.0 * ellipk(0.5)
    oblique = math.pi / 3.0
    for name, ell, lengths, transforms in (
            ("stationary", math.pi / 2.0, [box, box], None),
            # alpha' = 2 pi / box keeps the compensating phase periodic.
            ("boosted", math.pi / 2.0, [box, box],
             [{"kind": "T1", "alpha": f"{2.0 * math.pi / box!r}*t",
               "beta": "0", "gamma": "0"}]),
            ("oblique", oblique,
             [box / math.sin(oblique), box / math.cos(oblique)], None)):
        cfg = {"variant": {"eps1": -1, "eps2": 1}, "family": "C",
               "params": {"kind": "sn", "m": 0.5, "ell": ell,
                          "ell1": 0.0, "beta": "0"},
               "evolve": {"box": lengths, "n": 16, "T": 0.01, "dt": 1e-3,
                          "snapshot_out": f"evolve/{name}-snap.csv"},
               "out": f"evolve/{name}.json"}
        if transforms:
            cfg["transforms"] = transforms
        _run(f"evolve-{name}", cfg, ["evolve"])


def _files(root) -> list:
    """The recorded files under ``root``, as sorted relative paths."""
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*")
                  if p.is_file() and p.name != "SHA256SUMS")


def record(out) -> str:
    """Write the record into the directory ``out`` (made if missing) and
    return the text of its SHA256SUMS."""
    out = Path(out).resolve()
    for sub in ("config", "verify", "eval", "transform", "evolve"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        matrix = default_verification_matrix()
        for seed in SEEDS:
            for i, entry in enumerate(matrix):
                report = verify(entry.solution, entry.grid.points(seed))
                write_json_report(f"verify/s{seed}-{i:02d}.json",
                                  report.to_json_dict())
        for order in (2, 6):
            for i, entry in enumerate(matrix):
                report = verify(entry.solution, entry.grid.points(0),
                                order=order)
                write_json_report(f"verify/o{order}-s0-{i:02d}.json",
                                  report.to_json_dict())
        _commands()
    finally:
        os.chdir(cwd)
    sums = "".join(f"{hashlib.sha256((out / f).read_bytes()).hexdigest()}  "
                   f"{f}\n" for f in _files(out))
    (out / "SHA256SUMS").write_text(sums, encoding="utf-8")
    return sums


# ---------------------------------------------------------------------------
# Comparing two records.
# ---------------------------------------------------------------------------

def _ulps(a, b):
    """Distance of two finite floats in units in the last place, or None."""
    try:
        a, b = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if not (math.isfinite(a) and math.isfinite(b)):
        return None

    def ordered(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)

    return abs(ordered(a) - ordered(b))


def _first_json(a, b, key=""):
    """(key, a, b) of the first difference of two JSON values, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            found = _first_json(a.get(k), b.get(k), f"{key}/{k}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            found = _first_json(x, y, f"{key}/{i}")
            if found:
                return found
        return None
    return None if a == b and type(a) is type(b) else (key or "/", a, b)


def _first_csv(a, b):
    """(where, a, b) of the first differing cell of two CSV texts."""
    rows_a, rows_b = a.splitlines(), b.splitlines()
    header = rows_a[0].split(",") if rows_a else []
    for n, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if ra != rb:
            ca, cb = ra.split(","), rb.split(",")
            for col, (x, y) in enumerate(zip(ca, cb)):
                if x != y:
                    name = header[col] if col < len(header) else col
                    return f"row {n}, column {name}", x, y
            return f"row {n}", ra, rb
    return f"row {min(len(rows_a), len(rows_b))}", \
        f"{len(rows_a)} rows", f"{len(rows_b)} rows"


def _first_difference(path_a, path_b) -> str:
    """The first difference of two files: by JSON key where both parse
    as JSON and differ as values, else by CSV row and column."""
    a = path_a.read_text(encoding="utf-8")
    b = path_b.read_text(encoding="utf-8")
    found = None
    if path_a.suffix == ".json":
        with contextlib.suppress(ValueError):
            found = _first_json(json.loads(a), json.loads(b))
    where, x, y = (f"key {found[0]}", *found[1:]) if found \
        else _first_csv(a, b)
    ulps = _ulps(x, y)
    return f"{where}: {x!r} vs {y!r}" + \
        ("" if ulps is None else f" ({ulps} ulp)")


def diff(a, b) -> list:
    """One line per file that differs between the records in ``a`` and
    ``b``: its path and its first difference."""
    a, b = Path(a), Path(b)
    in_a, in_b = set(_files(a)), set(_files(b))
    lines = []
    for name in sorted(in_a | in_b):
        if (name in in_a) != (name in in_b):
            lines.append(f"{name}: only in {a if name in in_a else b}")
        elif (a / name).read_bytes() != (b / name).read_bytes():
            lines.append(f"{name}: {_first_difference(a / name, b / name)}")
    return lines


def declared(path) -> dict:
    """The record paths that the file ``path`` declares changed, each with
    its reason.  A declaration without a reason is a ValueError."""
    changes = {}
    for number, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), 1):
        name, _, reason = line.strip().partition(" ")
        if name and not name.startswith("#"):
            if not reason.strip():
                raise ValueError(f"{path}:{number}: {name} gives no reason")
            changes[name] = reason.strip()
    return changes


def unexpected(lines, changes) -> list:
    """The lines of a ``diff`` whose file ``changes`` does not declare, and
    one line for each declared file that does not differ."""
    names = [line.split(": ", 1)[0] for line in lines]
    return [f"undeclared: {line}" for name, line in zip(names, lines)
            if name not in changes] + \
        [f"declared but unchanged: {name} ({reason})"
         for name, reason in changes.items() if name not in names]


def _main(argv) -> int:
    if argv[:1] == ["--diff"] and (
            len(argv) == 3 or len(argv) == 5 and argv[3] == "--expect"):
        lines = diff(argv[1], argv[2])
        print("\n".join(lines) if lines else "records match")
        if len(argv) == 3:
            return 1 if lines else 0
        try:
            problems = unexpected(lines, declared(argv[4]))
        except (OSError, ValueError) as err:
            print(err, file=sys.stderr)
            return 2
        if problems:
            print("\n".join(problems), file=sys.stderr)
            if any(p.startswith("declared but unchanged") for p in problems):
                print(f"{argv[4]} may still hold a previous change's "
                      f"declarations: the change after one that moves the "
                      f"record empties it (README)", file=sys.stderr)
            return 1
        if lines:
            print(f"each difference is declared in {argv[4]}")
        return 0
    if len(argv) == 1 and not argv[0].startswith("-"):
        sums = record(argv[0])
        print(f"recorded {len(sums.splitlines())} files in {argv[0]}")
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
