"""Exact solutions of the coupled cubic envelope / mean-flow system.  The top
level is the API that README lists; every other name stays in its module."""

from .catalog import Solution, Variant, eval_solution, family_a, family_b, \
    family_c
from .elliptic import ellipk
from .errors import BlowupError, ConfigError, DegenerateMatch, DomainError, \
    DSError, EmptySampleError, MixedCaseUnsupported, NoRealAmplitude, \
    NoRealSolution, ParseError, PeriodicityError, UnsupportedVariant
from .evolve import Field, advance, crosscheck, mass
from .gridio import GridSpec, write_field_csv
from .residual import ResidualReport, verify
from .symmetry import TransformSpec, compose
from .timefn import Jet, TimeFunction, parse_timefn

__version__ = "0.1.0"
