"""Built-in algebra presentations.

Catalog names are either fixed (``point``, ``stanley-p3``) or parameterized
with a colon (``sphere-odd:3``, ``sphere-even:2``, ``surface:2``).  Every
entry passes :func:`~zclkit.algebra.validate_algebra`; expected invariant
values for them are derived in the test suite, never hard-coded here.  An
entry is plain data until :func:`builtin_presentation` builds it, so listing
the names loads neither ``algebra`` nor ``fields``.
"""

from .errors import ValidationError, parse_int, power_fits, refuse

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .algebra import AlgebraPresentation

_FIXED = ("point", "stanley-p3")
_TEMPLATES = ("sphere-odd:<odd n>", "sphere-even:<even n>", "surface:<genus g>")


def builtin_names() -> tuple:
    return _FIXED + _TEMPLATES


def _sphere(n: int, even: bool) -> tuple:
    if n < 1:
        raise ValidationError("sphere degree must be positive")
    if even and n % 2:
        raise ValidationError(f"sphere-even needs an even degree, got {n}")
    if not even and n % 2 == 0:
        raise ValidationError(f"sphere-odd needs an odd degree, got {n}")
    name = f"sphere-even:{n}" if even else f"sphere-odd:{n}"
    # a^2 = 0 in both cases: forced by sign for odd n, truncation for even n.
    return name, None, [("1", 0), ("a", n)], None


def _surface(genus: int, max_dim: int | None) -> tuple:
    if genus < 1:
        raise ValidationError("surface genus must be at least 1")
    if not power_fits(2 * genus + 2, 1, max_dim):
        refuse(f"algebra dim {2 * genus + 2} exceeds", max_dim)
    basis = [("1", 0)]
    for i in range(1, genus + 1):
        basis.append((f"a{i}", 1))
        basis.append((f"b{i}", 1))
    basis.append(("c", 2))
    products = {}
    for i in range(1, genus + 1):
        products[(f"a{i}", f"b{i}")] = {"c": 1}
    return f"surface:{genus}", None, basis, products


def _entry(name: str, max_dim: int | None) -> tuple:
    """(name, p, basis, products) of a catalog name; p is None over the rationals."""
    if name == "point":
        return name, None, [("1", 0)], None
    if name == "stanley-p3":
        # three generators in degrees 2, 3, 11 over F_3; all positive products vanish
        return name, 3, [("1", 0), ("a2", 2), ("a3", 3), ("a11", 11)], None
    base, _, arg = name.partition(":")
    if base in ("sphere-odd", "sphere-even", "surface") and arg:
        try:
            n = parse_int(arg)
        except ValueError:
            raise ValidationError(f"builtin parameter in {name!r} must be an integer") from None
        if base == "surface":
            return _surface(n, max_dim)
        return _sphere(n, even=base == "sphere-even")
    raise ValidationError(
        f"unknown builtin {name!r}; available: " + ", ".join(builtin_names())
    )


def builtin_presentation(name: str, max_dim: int | None = None) -> "AlgebraPresentation":
    """Presentation for a catalog name; raises with the available names.

    A family's parameter is ``[-]digits`` in ASCII, the integer rule of every
    other input.  A member of a family whose dimension exceeds ``max_dim``
    is refused before it is built; None means no ceiling.
    """
    from .algebra import AlgebraPresentation
    from .fields import Field

    name, p, basis, products = _entry(name, max_dim)
    return AlgebraPresentation.from_labels(name, Field(p), basis, products)


def builtin_algebra(name: str):
    from .algebra import validate_algebra

    return validate_algebra(builtin_presentation(name))
