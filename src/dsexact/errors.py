"""Exception types shared across the package.

Every error carries an ``exit_code`` used by the command-line front end:
2 for configuration problems and for inputs outside a family's or an
operation's contract (ConfigError; its message states the reason), 3 for
numerical blow-up, 1 for everything else (verification failures included).
``real`` checks every number the library and a config take.
"""

import math
import numbers
import sys
import warnings

import numpy as np

_MAX = sys.float_info.max


class DSError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(DSError):
    """Malformed configuration, unknown names, structurally bad input, or
    an input outside a family's or an operation's contract."""

    exit_code = 2


class ParseError(ConfigError):
    """Expression text that does not conform to the grammar.

    ``position`` is the 0-based character offset of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} at position {position}")
        self.position = position


class EmptySampleError(DSError):
    """No valid sample points survived filtering."""


class PeriodicityError(DSError):
    """The solution is not periodic on the requested box."""


class BlowupError(DSError):
    """NaN detected during time stepping."""

    exit_code = 3


def real(value, name, lo=-_MAX, hi=_MAX, integer=False):
    """``value`` as a float (an int if ``integer``) if it is a real number,
    not a bool, from ``lo`` to ``hi`` (whole if ``integer``), else a
    ConfigError naming ``name`` with the value's repr.  Ints and fractions
    compare exactly (10**400 is refused), other reals as floats."""
    exact = isinstance(value, numbers.Rational)
    number = math.nan  # what every range refuses
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        number = value if exact else float(value)
    if (not lo <= number <= hi or integer and number % 1
            or exact and not -_MAX <= number <= _MAX):  # past any double
        kind = "an integer" if integer else "a real number"
        span = (f" from {lo!r} to {hi!r}" if hi < _MAX else
                f" >= {lo!r}" if lo > -_MAX else "")
        raise ConfigError(f"{name}: expected {kind}{span}, got {value!r}")
    return int(number) if integer else float(number)


def real_array(value, name):
    """``np.asarray(value, dtype=float)``, or a ConfigError naming ``name``
    where that raises or warns (ragged rows, a non-number, a complex value)."""
    if type(value) is np.ndarray and value.dtype == float:
        return value  # as np.asarray would, without resetting warning filters
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.asarray(value, dtype=float)
    except (ArithmeticError, TypeError, ValueError, Warning) as err:
        raise ConfigError(f"{name} is not an array of real numbers: "
                          f"{err}") from None
