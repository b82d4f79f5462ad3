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
    kernel_mu,
    mu,
    mu_matrix,
    tensor_power,
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
    cup_length_oracle,
    verify_witness,
    witness_extend,
    zcl_bounds,
    zcl_exact,
    zcl_oracle,
)
from .linalg import Subspace, kernel_basis, subspace_product
from .pipeline import SeriesOutcome, series_pipeline
from .series import (
    IntSequence,
    RationalityReport,
    analyze_sequence,
    polynomial_from_series,
    reconstruct_series,
    sandwich_check,
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
    "Subspace",
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
    "cup_length_oracle",
    "kernel_basis",
    "kernel_mu",
    "mu",
    "mu_matrix",
    "polynomial_from_series",
    "reconstruct_series",
    "sandwich_check",
    "series_pipeline",
    "subspace_product",
    "tensor_power",
    "tensor_product",
    "validate_algebra",
    "verify_witness",
    "witness_extend",
    "zcl_bounds",
    "zcl_exact",
    "zcl_oracle",
]
