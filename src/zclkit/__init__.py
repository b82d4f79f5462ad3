"""Exact invariants of finite-dimensional graded-commutative algebras.

Computes cup-lengths, zero-divisor cup-lengths over tensor powers with
certified witnesses, and the numerator polynomial of the generating series
the resulting sequences satisfy.  Everything is exact: prime-field residues
and arbitrary-precision rationals, never floating point.
"""

from .algebra import (
    DEFAULT_MAX_DIM,
    Algebra,
    AlgebraPresentation,
    Element,
    TableAlgebra,
    TensorPowerAlgebra,
    mu,
    tensor_product,
    validate_algebra,
)
from .catalog import builtin_algebra, builtin_names, builtin_presentation
from .errors import (
    FieldMismatchError,
    ResourceLimitError,
    ValidationError,
    WitnessInvariantError,
    ZclkitError,
)
from .fields import Field
from .invariants import (
    ClResult,
    Witness,
    WitnessReport,
    ZclResult,
    cup_length,
    verify_witness,
    witness_extend,
    zcl_bounds,
    zcl_exact,
)
from .pipeline import SeriesOutcome, series_pipeline
from .series import (
    IntSequence,
    RationalityReport,
    analyze_sequence,
    polynomial_from_series,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "AlgebraPresentation",
    "ClResult",
    "DEFAULT_MAX_DIM",
    "Element",
    "Field",
    "FieldMismatchError",
    "IntSequence",
    "RationalityReport",
    "ResourceLimitError",
    "SeriesOutcome",
    "TableAlgebra",
    "TensorPowerAlgebra",
    "ValidationError",
    "Witness",
    "WitnessInvariantError",
    "WitnessReport",
    "ZclResult",
    "ZclkitError",
    "analyze_sequence",
    "builtin_algebra",
    "builtin_names",
    "builtin_presentation",
    "cup_length",
    "mu",
    "polynomial_from_series",
    "series_pipeline",
    "tensor_product",
    "validate_algebra",
    "verify_witness",
    "witness_extend",
    "zcl_bounds",
    "zcl_exact",
]
