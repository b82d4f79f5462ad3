"""Exact invariants of finite-dimensional graded-commutative algebras.

Computes cup-lengths, zero-divisor cup-lengths over tensor powers with
certified witnesses, and the numerator polynomial of the generating series
the resulting sequences satisfy.  Everything is exact: prime-field residues
and arbitrary-precision rationals, never floating point.

``import zclkit`` loads no submodule: each public name is imported from its
submodule on first use (PEP 562), so a caller, the command line included,
pays only for the modules it runs.
"""

__version__ = "0.1.0"

_SUBMODULE = {
    name: module
    for module, names in (
        ("algebra", "Algebra AlgebraPresentation TableAlgebra validate_algebra"),
        ("catalog", "builtin_algebra builtin_names builtin_presentation"),
        ("errors", "DEFAULT_MAX_DIM FieldMismatchError ResourceLimitError ValidationError "
                   "WitnessInvariantError ZclkitError"),
        ("fields", "Field"),
        ("invariants", "ClResult Witness WitnessReport ZclResult cup_length mu "
                       "verify_witness witness_extend zcl_bounds zcl_exact"),
        ("pipeline", "SeriesOutcome series_pipeline"),
        ("series", "IntSequence RationalityReport analyze_sequence polynomial_from_series"),
        ("tensor", "TensorPowerAlgebra tensor_product"),
    )
    for name in names.split()
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
