"""Exact solutions of the coupled cubic envelope / mean-flow system, their
symmetry transforms, a finite-difference residual oracle, and a split-step
spectral cross-check."""

from .ansatz import CubicMatch, LinePhaseFrame, frame, match_cubic, \
    v_profile_coefficient
from .catalog import Solution, Variant, eval_solution, family_a, family_b, \
    family_c
from .elliptic import PROFILE_KINDS, Profile, ellipk, jacobi_sn_cn_dn, \
    make_profile
from .errors import BlowupError, ConfigError, DegenerateMatch, DomainError, \
    DSError, EmptySampleError, MixedCaseUnsupported, NoRealAmplitude, \
    NoRealSolution, ParseError, PeriodicityError, UnsupportedVariant
from .evolve import Field, advance, crosscheck, make_field, mass, \
    poisson_v, step
from .gridio import GridSpec, write_field_csv, write_json_report
from .residual import ORDERS, ResidualReport, verify
from .symmetry import TransformSpec, apply_t1, apply_t2, compose
from .timefn import Jet, TimeFunction, parse_timefn

__version__ = "0.1.0"
