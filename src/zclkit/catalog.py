"""Built-in algebra presentations.

Catalog names are either fixed (``point``, ``stanley-p3``) or parameterized
with a colon (``sphere-odd:3``, ``sphere-even:2``, ``surface:2``).  Every
entry passes :func:`~zclkit.algebra.validate_algebra`; expected invariant
values for them are derived in the test suite, never hard-coded here.
"""

from __future__ import annotations

from .algebra import AlgebraPresentation, validate_algebra
from .errors import ResourceLimitError, ValidationError
from .fields import Field

_FIXED = ("point", "stanley-p3")
_TEMPLATES = ("sphere-odd:<odd n>", "sphere-even:<even n>", "surface:<genus g>")


def builtin_names() -> tuple:
    return _FIXED + _TEMPLATES


def _point() -> AlgebraPresentation:
    return AlgebraPresentation.from_labels("point", Field.rationals(), [("1", 0)])


def _stanley_p3() -> AlgebraPresentation:
    """Three generators in degrees 2, 3, 11 over F_3; all positive products vanish."""
    return AlgebraPresentation.from_labels(
        "stanley-p3",
        Field.prime(3),
        [("1", 0), ("a2", 2), ("a3", 3), ("a11", 11)],
    )


def _sphere(n: int, even: bool) -> AlgebraPresentation:
    if n < 1:
        raise ValidationError("sphere degree must be positive")
    if even and n % 2:
        raise ValidationError(f"sphere-even needs an even degree, got {n}")
    if not even and n % 2 == 0:
        raise ValidationError(f"sphere-odd needs an odd degree, got {n}")
    name = f"sphere-even:{n}" if even else f"sphere-odd:{n}"
    # a^2 = 0 in both cases: forced by sign for odd n, truncation for even n.
    return AlgebraPresentation.from_labels(
        name, Field.rationals(), [("1", 0), ("a", n)]
    )


def _surface(genus: int, max_dim: int | None) -> AlgebraPresentation:
    if genus < 1:
        raise ValidationError("surface genus must be at least 1")
    if max_dim is not None and 2 * genus + 2 > max_dim:
        raise ResourceLimitError(
            f"algebra dim {2 * genus + 2} exceeds the ceiling {max_dim}; "
            "raise the ceiling to opt in"
        )
    basis = [("1", 0)]
    for i in range(1, genus + 1):
        basis.append((f"a{i}", 1))
        basis.append((f"b{i}", 1))
    basis.append(("c", 2))
    products = {}
    for i in range(1, genus + 1):
        products[(f"a{i}", f"b{i}")] = [(1, "c")]
    return AlgebraPresentation.from_labels(
        f"surface:{genus}", Field.rationals(), basis, products
    )


def builtin_presentation(name: str, max_dim: int | None = None) -> AlgebraPresentation:
    """Presentation for a catalog name; raises with the available names.

    A member of a family whose dimension exceeds ``max_dim`` is refused
    before it is built; None means no ceiling.
    """
    base, _, arg = name.partition(":")
    if name == "point":
        return _point()
    if name == "stanley-p3":
        return _stanley_p3()
    if base in ("sphere-odd", "sphere-even", "surface") and arg:
        try:
            n = int(arg)
        except ValueError:
            raise ValidationError(f"builtin parameter in {name!r} must be an integer") from None
        if base == "surface":
            return _surface(n, max_dim)
        return _sphere(n, even=base == "sphere-even")
    raise ValidationError(
        f"unknown builtin {name!r}; available: " + ", ".join(builtin_names())
    )


def builtin_algebra(name: str):
    return validate_algebra(builtin_presentation(name))
