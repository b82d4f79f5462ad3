"""Shared exception types."""


class ZclkitError(Exception):
    """Base class for errors raised by this package."""


class FieldMismatchError(ZclkitError, ValueError):
    """An operand is not a canonical element of the field performing the operation."""


class ValidationError(ZclkitError, ValueError):
    """A presentation, file, or argument violates a rule, or a file cannot be read or written."""


class ResourceLimitError(ZclkitError, RuntimeError):
    """A computation would exceed the configured dimension ceiling."""


class WitnessInvariantError(ZclkitError, RuntimeError):
    """A certificate that must hold for valid inputs failed to check out."""
