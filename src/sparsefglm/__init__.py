"""Change of ordering for zero-dimensional Groebner bases over prime fields.

Converts a degree-reverse-lexicographic Groebner basis to lexicographic
order using sparse multiplication matrices: a probabilistic shape-position
solver, a deterministic variant that also reveals the radical, a
Berlekamp-Massey-Sakata sweep for the general case, and classic FGLM as
the fallback that always works.
"""

from .buchberger import buchberger, gen_random_system
from .bms import bms_change, is_gb
from .field import PrimeField
from .fglm import ConversionResult, classic_fglm, toplevel
from .generic import asymptotic_estimate, density_bound, hilbert_profile
from .poly import Fail, GroebnerBasis, InternalError, MultiPoly, normal_form
from .quotient import (
    QuotientStructure,
    density_stats,
    dump_matrix,
)
from .shape import ShapeBasis, incremental_univariate, shape_det, shape_prob
from .sysio import ParseError, parse_system, poly_str, write_system

__version__ = "0.1.0"

__all__ = [
    "PrimeField",
    "MultiPoly",
    "GroebnerBasis",
    "Fail",
    "InternalError",
    "normal_form",
    "QuotientStructure",
    "density_stats",
    "dump_matrix",
    "ShapeBasis",
    "shape_prob",
    "shape_det",
    "incremental_univariate",
    "bms_change",
    "is_gb",
    "classic_fglm",
    "toplevel",
    "ConversionResult",
    "buchberger",
    "gen_random_system",
    "hilbert_profile",
    "density_bound",
    "asymptotic_estimate",
    "parse_system",
    "write_system",
    "poly_str",
    "ParseError",
    "__version__",
]
