"""Exception types shared across the package.

Every error carries an ``exit_code`` used by the command-line front end:
2 for configuration problems and for inputs outside a family's or an
operation's contract (ConfigError and its subclasses), 3 for numerical
blow-up, 1 for everything else (verification failures included).
"""


class DSError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(DSError):
    """Malformed configuration, unknown names, structurally bad input."""

    exit_code = 2


class ParseError(ConfigError):
    """Expression text that does not conform to the grammar.

    ``position`` is the 0-based character offset of the offending token.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} at position {position}"
        super().__init__(message)
        self.position = position


class DomainError(DSError):
    """A mathematical domain violation (log of a non-positive value,
    elliptic modulus outside [0,1), evaluation outside a declared
    validity interval, ...)."""


class UnsupportedVariant(ConfigError):
    """The requested sign pair is outside the operation's contract."""


class DegenerateMatch(ConfigError):
    """The cubic coefficient match has a vanishing cubic-term divisor."""


class NoRealAmplitude(ConfigError):
    """The matched amplitude would be imaginary; no real solution exists."""


class NoRealSolution(ConfigError):
    """The family's existence condition has no real parameter choice."""


class MixedCaseUnsupported(ConfigError):
    """Linear-profile family with exactly one of a, b zero; not covered."""


class EmptySampleError(DSError):
    """No valid sample points survived filtering."""


class PeriodicityError(DSError):
    """The solution is not periodic on the requested box."""


class BlowupError(DSError):
    """NaN detected during time stepping."""

    exit_code = 3
