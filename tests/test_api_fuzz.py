"""Every number the library takes goes through one check, ``errors.real``,
and every array of numbers through one other, ``errors.real_array``.

A fixed table holds one valid call of each entry point of README's list
that takes a number.  Each case replaces one numeric argument of one call
by one of VALUES.  The call returns or raises a DSError, and it raises no
warning; a value that is not a real number (or is an integer past the
double range, or NaN) is refused.  The arguments that hold a Solution,
Variant, Field or TimeFunction are not numbers: README states that a wrong
object there is a caller's bug and stays a Python error, so the table
exempts exactly those arguments, by name (EXEMPT).  The other arguments
that are not numbers, a profile kind, an expression text and a Field's
grids, refuse a value of the wrong type with a ConfigError naming them.
An array argument takes what ``np.asarray(value, dtype=float)`` takes
without a warning and refuses the rest with a ConfigError naming it.
"""

import inspect
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import dsexact
from dsexact import ConfigError, DSError, Field, GridSpec, TransformSpec, \
    Variant, advance, crosscheck, ellipk, eval_solution, family_a, \
    family_b, family_c, parse_timefn, verify, write_field_csv
from dsexact.errors import real, real_array
from dsexact.evolve import make_field
from test_api import readme_names

SN = family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0,
              parse_timefn("0"))
L = 4.0 * ellipk(0.5)
FIELD = make_field(SN, L, L, 8)

# Entry point -> (callable, the positional and keyword arguments of one
# valid call, the numeric arguments its cases replace).  An argument
# written "x_range[2]" is an entry of a sequence argument.
CALLS = {
    "family_a": (family_a, (Variant(1, 1), parse_timefn("t"), 1.0), {},
                 ["c"]),
    "family_b": (family_b, (Variant(1, 1), 1.0, 1.0, 0.5, parse_timefn("0")),
                 {}, ["a", "b", "c"]),
    "family_c": (family_c, (Variant(-1, 1), "sn", 0.5, 0.4, 0.3,
                            parse_timefn("0")), {}, ["m", "ell", "ell1"]),
    "Variant": (Variant, (1, -1), {}, ["eps1", "eps2"]),
    "parse_timefn": (parse_timefn, ("t",), {}, []),
    "TimeFunction.jet": (parse_timefn("t").jet, (0.5,), {}, ["t"]),
    "TransformSpec": (TransformSpec, ("T2",), {"b": 2.0}, ["b"]),
    "verify": (verify, (SN, [(0.1, 0.2, 0.3)]),
               {"h": 1e-3, "tol_rel": 1e-7}, ["h", "tol_rel"]),
    "crosscheck": (crosscheck, (SN, L, L, 8, 0.01, 5e-3), {"tol": 1e-5},
                   ["lx", "ly", "n", "t_final", "dt", "tol"]),
    "advance": (advance, (FIELD, Variant(-1, 1), 1e-3, 2), {},
                ["dt", "n_steps"]),
    "Field": (Field, (L, L, FIELD.u, FIELD.v, 0.0), {}, ["lx", "ly", "t"]),
    "ellipk": (ellipk, (0.5,), {}, ["m"]),
    "GridSpec": (GridSpec, ((0.0, 0.5), (-1.0, 1.0, 3), (-1.0, 1.0, 2)), {},
                 ["t_values[0]", "t_values[1]", "x_range[0]", "x_range[1]",
                  "x_range[2]", "y_range[0]", "y_range[1]", "y_range[2]"]),
    "eval_solution": (eval_solution, (SN, 0.2, 0.1, 0.3), {}, []),
    "write_field_csv": (write_field_csv, ("field.csv", SN, [0.2], [0.1],
                                          [0.3]), {}, []),
}

# The arguments that hold a Solution, Variant, Field or TimeFunction.
EXEMPT = {
    "family_a": {"variant", "im"},
    "family_b": {"variant", "beta"},
    "family_c": {"variant", "beta"},
    "Solution": {"variant"},
    "eval_solution": {"sol"},
    "compose": {"sol"},
    "TransformSpec": {"alpha", "beta", "gamma"},
    "verify": {"sol"},
    "crosscheck": {"sol"},
    "advance": {"field", "variant"},
    "mass": {"field"},
    "write_field_csv": {"sol"},
}
# Records the package returns: it builds them, and callers read them.
RESULTS = {"Jet", "ResidualReport"}

NOT_REAL = [None, True, False, math.nan, 10 ** 400, "1", [1.0], (1, 2, 3),
            {}, np.array(0.5), np.array([0.5]), 1 + 0j,
            np.complex128(0.5 + 1j), object()]
VALUES = NOT_REAL + [0, 1, -1, math.inf, -math.inf, 1e308, -1e308, 5e-324,
                     np.float32(0.5), np.int64(2)]


def call(entry, target, value):
    """``entry``'s valid call with ``target`` replaced by ``value``."""
    func, args, kwargs, _ = CALLS[entry]
    bound = inspect.signature(func).bind(*args, **kwargs)
    name, _, index = target.partition("[")
    if index:
        entries = list(bound.arguments[name])
        entries[int(index[:-1])] = value
        value = tuple(entries)
    bound.arguments[name] = value
    return func(*bound.args, **bound.kwargs)


def default(entry, target):
    """The default of ``target`` in ``entry``'s signature, or ``...``."""
    param = inspect.signature(CALLS[entry][0]).parameters.get(target)
    return param.default if param is not None else ...


@pytest.mark.parametrize("entry, target", [
    (entry, target) for entry, row in CALLS.items() for target in row[3]])
def test_a_number_is_checked_or_refused(entry, target):
    func, args, kwargs, _ = CALLS[entry]
    func(*args, **kwargs)  # the valid call runs
    for value in VALUES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(entry, target, value)
            except DSError:
                continue
        refused = any(value is v for v in NOT_REAL)
        if value is None and default(entry, target) is None:
            refused = False  # None is the argument's default
        assert not refused, f"{entry}: {target}={value!r} was taken"


NOT_TEXT = [None, 1, 0.5, True, b"sn", ["sn"], ("sn",), {}, np.array("sn"),
            object()]
NOT_GRID = [None, 1.0, "u", [[1j, 1j], [1j, 1j]], ((1j,),), object(),
            np.zeros(4, complex), np.zeros((8, 8), np.float32)]


@pytest.mark.parametrize("entry, target, values", [
    ("family_c", "kind", NOT_TEXT + ["", "SN", "sn "]),
    ("parse_timefn", "text", NOT_TEXT),
    ("Field", "u", NOT_GRID),
    ("Field", "v", NOT_GRID),
    ("TransformSpec", "kind", NOT_TEXT + ["", "T3", "t2", "T2 "]),
])
def test_a_non_number_of_the_wrong_type_is_refused(entry, target, values):
    for value in values:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=rf"\b{target}\b"):
                call(entry, target, value)


NOT_ARRAY = ["a", [(0.1, 0.2, "a")], [0.1, [0.2]], {}, object(), 10 ** 400,
             1 + 0j, np.complex128(0.5 + 1j), np.zeros(3, complex)]
ARRAYS = NOT_ARRAY + [0.5, "0.5", True, None, [], [0.1, 0.2], (0.1, 0.2),
                      [[0.1, 0.2, 0.3]], np.float32(0.5), np.arange(3),
                      np.zeros((2, 3), np.float32), math.nan, math.inf,
                      1e308]


@pytest.mark.parametrize("entry, target", [
    ("eval_solution", "t"), ("eval_solution", "x"), ("eval_solution", "y"),
    ("write_field_csv", "ts"), ("write_field_csv", "xs"),
    ("write_field_csv", "ys"), ("verify", "sample")])
def test_an_array_is_converted_or_refused(tmp_path, monkeypatch, entry,
                                          target):
    monkeypatch.chdir(tmp_path)  # write_field_csv writes field.csv here
    for value in ARRAYS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if any(value is v for v in NOT_ARRAY):
                with pytest.raises(ConfigError, match=rf"\b{target}\b"):
                    call(entry, target, value)
                continue
            try:
                call(entry, target, value)
            except DSError:
                pass


def annotated(name, pattern):
    """The parameters of the README name ``name`` whose annotation matches
    ``pattern``."""
    obj = getattr(dsexact, name)
    if isinstance(obj, type) and issubclass(obj, Exception):
        return set()
    params = inspect.signature(obj).parameters.values()
    return {p.name for p in params if re.search(pattern, str(p.annotation))}


def test_every_numeric_parameter_has_a_row():
    # A new parameter annotated float or int needs a row, and so a check.
    rows = {(entry, target.partition("[")[0])
            for entry, row in CALLS.items() for target in row[3]}
    for name in readme_names() - RESULTS:
        for param in annotated(name, r"\b(float|int)\b"):
            assert (name, param) in rows, f"{name}: {param} has no row"


def test_exempt_arguments_are_the_objects_of_the_package():
    objects = r"\b(Solution|Variant|Field|TimeFunction)\b"
    assert {name: annotated(name, objects) for name in readme_names()
            if annotated(name, objects)} == EXEMPT
    for entry, row in CALLS.items():
        assert EXEMPT.get(entry, set()).isdisjoint(row[3])


@pytest.mark.parametrize("value, bounds, integer, want", [
    (np.float32(0.5), (), False, 0.5),  # compared as a float, no warning
    (np.int64(3), (), False, 3.0),
    (5.0, (1, 10), True, 5),  # a whole float is an integer
    (math.inf, (0.0, math.inf), False, math.inf),  # a tolerance
    (2 ** 1023, (), False, 2.0 ** 1023),
    (Fraction(1, 4), (), False, 0.25),
])
def test_real_returns_a_float_or_an_int(value, bounds, integer, want):
    got = real(value, "x", *bounds, integer=integer)
    assert got == want and type(got) is (int if integer else float)


@pytest.mark.parametrize("value, bounds, integer, text", [
    (True, (), False, "x: expected a real number, got True"),
    (10 ** 400, (0.0, math.inf), False,
     f"x: expected a real number >= 0.0, got {10 ** 400!r}"),
    (-1e-3, (5e-324,), False, "x: expected a real number >= 5e-324, got "
                             "-0.001"),
    (2.5, (0, 9), True, "x: expected an integer from 0 to 9, got 2.5"),
    (math.nan, (-math.inf, math.inf), False,
     "x: expected a real number, got nan"),
    (Fraction(10 ** 400), (), False,  # float() of it overflows
     f"x: expected a real number, got {Fraction(10 ** 400)!r}"),
])
def test_real_names_the_argument_and_the_value(value, bounds, integer, text):
    with pytest.raises(ConfigError, match=f"^{re.escape(text)}$"):
        real(value, "x", *bounds, integer=integer)


def test_real_array_returns_a_float64_array_as_it_is():
    # np.asarray(value, dtype=float) returns the same object; anything
    # else is still converted, or refused.
    values = np.array([0.5, -1.0, 2.0])
    assert real_array(values, "x") is values
    for other in (values.tolist(), np.array([1, -2, 3]), values.astype(">f8")):
        got = real_array(other, "x")
        assert got is not other and got.dtype == np.float64
        assert got.dtype.isnative and got.tolist() == np.asarray(
            other, dtype=float).tolist()
    with pytest.raises(ConfigError, match="^x is not an array of real"):
        real_array(values + 1j, "x")
