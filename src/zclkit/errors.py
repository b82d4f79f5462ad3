"""Shared exception types, the default dimension ceiling, and the integer rule.

Every command loads this module, the command line included, so it also
holds what every command reads: the ceiling a command on an algebra
defaults to, how a size is held to it and refused past it, and how an
integer is read.
"""

DEFAULT_MAX_DIM = 4096


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


def power_fits(d: int, r: int, ceiling: "int | None") -> bool:
    """d^r <= ``ceiling`` (None for none), for d, r >= 1; d^r is formed only once its
    lower bound 2^(r (bits(d) - 1)) is under the ceiling, so never when it is huge."""
    return ceiling is None or (
        r * (d.bit_length() - 1) < ceiling.bit_length() and d ** r <= ceiling)


def refuse(what: str, ceiling: int):
    """Raise the one ResourceLimitError: ``what`` names the size, up to "over" or "exceeds"."""
    raise ResourceLimitError(f"{what} the ceiling {ceiling}; raise the ceiling to opt in")


def parse_int(text: str) -> int:
    """``[-]digits`` in ASCII, the integer rule of scalar literals; ValueError otherwise.

    ``int()`` alone would also take ``+``, spaces, ``_`` and non-ASCII digits.
    """
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)
