"""A fixed-seed config fuzzer over ``dsexact.cli.main``.

Each case takes one of the record's configs (``tests/record.py``: a line
of ``_line`` under eval, verify and transform with ``CHAIN``, and the
boosted evolve config) and replaces one or two of its values, or adds one
of the family C constant overrides that the CLI refuses.  Whatever the
config, a run ends in exit 0, in exit 1 for a failed verdict, an
``EmptySampleError`` or a ``PeriodicityError``, or in exit 2 naming a
``DSError`` on stderr; exit 4 is a fault of the program.  An evolve case
whose steps would pass ``CASE_CELL_STEPS`` is stopped before it steps.
"""

import copy
import json
import math
import random

import pytest

import record
from dsexact import Variant, ellipk, errors, evolve, family_c, \
    parse_timefn
from dsexact.cli import main

SEED = 17
CASES = 75  # a command

# The replacement values: zeros and signs, the ends of the double range and
# past it, time functions and kind names, nulls, lists, objects and
# booleans.  Half the draws keep the type of the value they replace.
NUMBERS = [0, 1, -1, 0.5, 2, 1e-3, 64, 1e308, -1e308, 5e-324, 10 ** 400,
           -10 ** 400, math.nan, math.inf]
TEXTS = ["", "x", "1", "t", "0.1*t", "ln(t)", "1/t", "exp(t)^64",
         "sin(t)^-2", "sn", "tan", "dn", "T1", "T2", "A", "B", "C", "eval",
         "verify"]
VALUES = NUMBERS + TEXTS + [
    None, [], [1, 2, 3], [0.5], [[0]], {}, {"expr": "t", "domain": [0, 1]},
    {"kind": "T2", "b": 2}, True, False]
# The constants family C forces, which cli refuses as /params keys.
REFUSED = tuple(family_c(Variant(-1, 1), "sn", 0.5, 0.4, 0.0,
                         parse_timefn("0")).derived)
GRID = {"t": [0.2, 0.5], "x": [-0.8, 0.8, 5], "y": [-0.8, 0.8, 5]}
# The most work one case may do: steps times grid points in its call to
# evolve.advance, 4,096 steps at 16 x 16.  A case that asks for more is
# stopped before its first step and counted as bounded.
CASE_CELL_STEPS = 2 ** 20
# Steps times grid points over the evolve cases' calls to evolve.advance,
# and the cases bounded: 6 cases step, 1,050 steps in all at 16 x 16, and
# case 54 asks for 64,000.  A shift of the seeded draws that moves this
# cost or that count fails here, not unseen.
CELL_STEPS = {"evolve": 268_800}
BOUNDED = {"evolve": 1}


class Bounded(BaseException):
    """A case's work past CASE_CELL_STEPS: not an Exception, so ``main``
    does not report it as an internal error."""


def base(command, rng):
    kind = rng.choice(list(record.LINES))
    if command == "eval":
        return {**record._line(kind), "grid": GRID, "out": "out.csv"}
    if command == "verify":
        return {**record._line(kind), "grid": GRID, "out": "out.json",
                "verify": {"h": 1e-3, "order": 4, "tol_rel": 1e-7}}
    if command == "transform":
        return {**record._line(kind), "grid": GRID, "out": "out.txt",
                "transforms": record.CHAIN, "then": "eval"}
    box = 4.0 * ellipk(0.5)
    cfg = record._evolve("boosted", math.pi / 2.0, [box, box], [
        {"kind": "T1", "alpha": f"{2.0 * math.pi / box!r}*t", "beta": "0",
         "gamma": "0"}])
    cfg["evolve"].update(snapshot_out="snap.csv", tol=1e-5)
    return {**cfg, "out": "out.json"}


def pointers(node, at=""):
    """Every pointer into ``node`` below its root, containers included."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield f"{at}/{key}"
        yield from pointers(child, f"{at}/{key}")


def parent(doc, pointer):
    """The container that holds ``pointer``'s value, and its key there; a
    LookupError or TypeError where the path is gone."""
    *path, last = pointer.split("/")[1:]
    for key in path:
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    if isinstance(doc, list):
        return doc, int(last)
    if isinstance(doc, dict):
        return doc, last
    raise TypeError(f"{pointer}: no container")


def cases(command):
    rng = random.Random(f"{SEED}-{command}")
    for _ in range(CASES):
        cfg = copy.deepcopy(base(command, rng))
        edits = []
        for _ in range(rng.choice((1, 2))):
            if rng.random() < 0.1:
                pointer = f"/params/{rng.choice(REFUSED)}"
            else:
                pointer = rng.choice(list(pointers(cfg)))
            try:
                node, key = parent(cfg, pointer)
            except (LookupError, TypeError, ValueError):
                continue  # the first edit removed the path
            kept = node.get(key) if isinstance(node, dict) else node[key]
            value = rng.choice(rng.choice([VALUES, (
                NUMBERS if type(kept) in (int, float) else
                TEXTS if isinstance(kept, str) else VALUES)]))
            node[key] = copy.deepcopy(value)
            edits.append((pointer, value))
        yield cfg, edits


def verdict(code, err):
    """None if exit ``code`` with stderr ``err`` is a lawful outcome, else
    what is wrong with it."""
    name = err.split(":", 1)[0]
    error = getattr(errors, name, None)
    named = isinstance(error, type) and issubclass(error, errors.DSError)
    if code == 0 or code == 1 and (not err or name in (
            "EmptySampleError", "PeriodicityError")):
        return None
    if code == 2 and named and error.exit_code == 2:
        return None
    return f"exit {code}: {err.strip()}"


@pytest.mark.parametrize("command", ["eval", "verify", "transform",
                                     "evolve"])
def test_no_config_ends_in_an_internal_error(tmp_path, monkeypatch, capsys,
                                              command):
    monkeypatch.chdir(tmp_path)
    cost, advance = [], evolve.advance

    def counted(field, variant, dt, n_steps):
        if n_steps * field.u.size > CASE_CELL_STEPS:
            raise Bounded
        cost.append(n_steps * field.u.size)
        return advance(field, variant, dt, n_steps)

    monkeypatch.setattr(evolve, "advance", counted)
    wrong, refused, bounded = [], 0, 0
    for i, (cfg, edits) in enumerate(cases(command)):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        try:
            code = main([command, "--config", str(path)])
        except Bounded:
            bounded += 1
            continue
        finally:
            err = capsys.readouterr().err
        problem = verdict(code, err)
        if problem:
            wrong.append((edits, problem))
        refused += any(p.split("/")[-1] in REFUSED and v is not None
                       for p, v in edits) and code == 2
    assert not wrong, wrong
    assert refused  # the overrides are drawn, and refused
    assert bounded == BOUNDED.get(command, 0)
    assert sum(cost) == CELL_STEPS.get(command, 0)

