"""The public names of the package."""

import zclkit

PUBLIC = [
    "Algebra",
    "AlgebraPresentation",
    "ClResult",
    "DEFAULT_MAX_DIM",
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
    "polynomial_from_series",
    "series_pipeline",
    "tensor_product",
    "validate_algebra",
    "verify_witness",
    "zcl_bounds",
    "zcl_exact",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 30
    assert sorted(zclkit.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(zclkit, name)] == []
