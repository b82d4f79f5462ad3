"""Exact scalar arithmetic over prime fields F_p and the rationals.

Scalars are plain Python values: residues in ``range(p)`` for a prime
field; for the rationals an ``int`` when the value is integral and a
:class:`fractions.Fraction` with denominator > 1 otherwise, so the +-1
coefficients that fill most tables cost integer arithmetic.  Every
operation returns that canonical form (residues reduced, fractions in
lowest terms, integral values as ints); ``str``, ``==`` and ``hash`` agree
between an int and the equal Fraction.  Keeping scalars unboxed keeps the
row-reduction inner loops fast.  A :class:`Field` carries the one bundle of
scalar arithmetic every other module uses: ``add``, ``sub``, ``mul`` and
``neg`` are chosen once per instance, so no call branches on the modulus.

``fractions`` (which loads ``decimal``) is imported on demand, only where a
non-integral rational is made or tested: ints take the fast path first, so
a run whose scalars are all integral never loads it.  Scalar literals are
read by :func:`~zclkit.reader.parse_scalar`, which only a file needs and
which builds each value with these operations, and written by ``str``.
"""

import operator

from .errors import FieldMismatchError, ValidationError
from .record import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Union

    Scalar = Union[int, Fraction]


def _rational(x: "Scalar") -> "Scalar":
    """The canonical form of a rational: an int when it is integral."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


def _canonical(op):
    """op on rationals, returning the canonical form; _rational inlined, as it is hot."""
    def rational_op(x: "Scalar", y: "Scalar") -> "Scalar":
        z = op(x, y)
        return z if z.__class__ is int or z.denominator != 1 else z.numerator
    return rational_op


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12 = 399165290221 * 798330580441, the least strong pseudoprime to every base above
_MR_EXACT_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..37: exact below _MR_EXACT_BELOW, as Field enforces."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field(Record):
    """F_p when ``p`` is a prime, the rationals when ``p`` is ``None``.

    ``add(x, y)``, ``sub(x, y)``, ``mul(x, y)`` and ``neg(x)`` act on
    canonical operands and are bound per instance in ``__init__``.
    """

    _fields = ("p",)
    zero = 0
    one = 1

    def __init__(self, p: int | None = None) -> None:
        if p is None:
            ops = (*map(_canonical, (operator.add, operator.sub, operator.mul)), operator.neg)
        else:
            if not isinstance(p, int) or isinstance(p, bool):
                raise ValidationError("field modulus must be an integer")
            if p >= _MR_EXACT_BELOW:
                raise ValidationError(
                    f"field modulus {p} is too large: Miller-Rabin to bases 2..37 "
                    f"certifies primality only below {_MR_EXACT_BELOW}"
                )
            if not is_prime(p):
                raise ValidationError(f"field modulus {p} is not prime")
            ops = (
                lambda x, y: (x + y) % p,
                lambda x, y: (x - y) % p,
                lambda x, y: x * y % p,
                lambda x: -x % p,
            )
        super().__init__(p)
        self.__dict__.update(zip(("add", "sub", "mul", "neg"), ops))

    def __reduce__(self):
        # the bound operations are closures; rebuild them from the modulus
        return (Field, (self.p,))

    @property
    def characteristic(self) -> int:
        return self.p if self.p is not None else 0

    def __str__(self) -> str:
        return f"F{self.p}" if self.p is not None else "Q"

    # -- element admission -------------------------------------------------

    def coerce(self, x: "Scalar") -> "Scalar":
        """Normalize an int or Fraction into this field."""
        if isinstance(x, bool):
            raise FieldMismatchError("booleans are not scalars")
        if isinstance(x, int):
            return x % self.p if self.p is not None else x
        from fractions import Fraction

        if isinstance(x, Fraction):
            if self.p is None:
                return _rational(x)
            if x.denominator == 1:
                return x.numerator % self.p
        raise FieldMismatchError(f"cannot coerce {x!r} into {self}")

    # -- arithmetic (operands assumed canonical) ---------------------------

    def inv(self, x: "Scalar") -> "Scalar":
        if not x:
            raise ZeroDivisionError(f"inverse of zero in {self}")
        if self.p is not None:
            return pow(x, -1, self.p)
        if x.__class__ is int and (x == 1 or x == -1):
            return x
        from fractions import Fraction

        return _rational(Fraction(1, x))
