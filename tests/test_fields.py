"""Scalar arithmetic: exactness, normalization, and the field axioms."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dense_reference import GF2, GF3, GF5, QQ, check, div
from zclkit.errors import FieldMismatchError, ValidationError
from zclkit.fields import Field, is_prime
from zclkit.reader import parse_scalar

SMALL_FIELDS = [GF2, GF3, GF5]

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
).map(Fraction)


def test_field_construction_checks_primality():
    assert Field(7919).p == 7919
    with pytest.raises(ValidationError):
        Field(6)
    with pytest.raises(ValidationError):
        Field(1)
    with pytest.raises(ValidationError):
        Field(-3)


PSI_12 = 399165290221 * 798330580441  # least strong pseudoprime to bases 2..37


def test_modulus_beyond_the_certified_range_is_refused():
    # a composite that passes Miller-Rabin to every base 2..37
    assert PSI_12 == 318665857834031151167461
    with pytest.raises(ValidationError, match="certifies primality only below"):
        Field(PSI_12)
    with pytest.raises(ValidationError, match="too large"):
        Field(2**89 - 1)  # a Mersenne prime, but above the bound
    assert Field(PSI_12 - 20).p == PSI_12 - 20  # the largest prime below it


def test_is_prime_spot_values():
    primes = {2, 3, 5, 7, 11, 97, 7919, 2**31 - 1}
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in (0, 1, 4, 9, 91, 561, 2**31))


def test_mul_minus_two_is_one_mod_three():
    # -2 is a unit square coefficient mod 3: the reason stanley-p3 works
    assert GF3.coerce(-2) == 1
    assert GF3.mul(GF3.coerce(-2), 1) == 1


def test_rational_add_halves():
    assert QQ.add(Fraction(1, 2), Fraction(1, 2)) == Fraction(1)


def test_div_mod_five_against_brute_force():
    expected = [z for z in range(5) if (3 * z) % 5 == 2]
    assert expected == [4]
    assert div(GF5, 2, 3) == 4


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        div(GF3, 1, 0)
    with pytest.raises(ZeroDivisionError):
        div(QQ, Fraction(1), Fraction(0))


def test_admission_and_inversion_name_their_faults():
    with pytest.raises(ValidationError, match="field modulus must be an integer"):
        Field("3")
    with pytest.raises(FieldMismatchError, match="booleans are not scalars"):
        GF3.coerce(True)
    assert GF3.coerce(Fraction(8, 2)) == 1  # an integral Fraction is its residue
    with pytest.raises(FieldMismatchError, match=r"cannot coerce Fraction\(1, 2\) into F3"):
        GF3.coerce(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError, match="inverse of zero in Q"):
        QQ.inv(0)
    two = parse_scalar(QQ, "4/2")  # an integral literal is read as an int
    assert two == 2 and type(two) is int


def test_mixed_field_operands_rejected():
    with pytest.raises(FieldMismatchError):
        check(GF3, Fraction(1, 2))  # rational scalar fed to F3
    with pytest.raises(FieldMismatchError):
        check(GF3, 5)  # residue of a larger field, not canonical mod 3
    with pytest.raises(FieldMismatchError):
        check(QQ, Fraction(2))  # an integral rational is canonical only as an int
    assert check(QQ, 1) == 1


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_field_axioms_exhaustive(field):
    elems = list(range(field.p))
    for x, y in product(elems, repeat=2):
        # the bound operations return canonical residues
        assert {field.add(x, y), field.sub(x, y), field.mul(x, y), field.neg(x)} <= set(elems)
        assert field.add(x, y) == field.add(y, x)
        assert field.mul(x, y) == field.mul(y, x)
        if y:
            assert field.mul(div(field, x, y), y) == x
    for x, y, z in product(elems, repeat=3):
        assert field.add(field.add(x, y), z) == field.add(x, field.add(y, z))
        assert field.mul(field.mul(x, y), z) == field.mul(x, field.mul(y, z))
        assert field.mul(x, field.add(y, z)) == field.add(field.mul(x, y), field.mul(x, z))
    for x in elems:
        assert field.add(x, field.zero) == x
        assert field.mul(x, field.one) == x
        assert field.add(x, field.neg(x)) == field.zero
        if x:
            assert field.mul(x, field.inv(x)) == field.one


@given(x=rationals, y=rationals, z=rationals)
def test_field_axioms_rationals(x, y, z):
    assert QQ.add(x, y) == QQ.add(y, x)
    assert QQ.mul(QQ.mul(x, y), z) == QQ.mul(x, QQ.mul(y, z))
    assert QQ.mul(x, QQ.add(y, z)) == QQ.add(QQ.mul(x, y), QQ.mul(x, z))
    assert QQ.add(x, QQ.neg(x)) == QQ.zero
    if y != 0:
        assert QQ.mul(div(QQ, x, y), y) == x


def _canonical(x):
    return isinstance(x, int) if x.denominator == 1 else isinstance(x, Fraction)


@given(x=rationals, y=rationals)
def test_rational_operations_return_canonical_scalars(x, y):
    # exact values, as an int exactly when the denominator is 1, from either
    # form of operand; neg keeps the form, so it is given canonical operands
    for u, v in ((x, y), (QQ.coerce(x), QQ.coerce(y))):
        results = [
            (QQ.add(u, v), x + y),
            (QQ.sub(u, v), x - y),
            (QQ.mul(u, v), x * y),
            (QQ.neg(QQ.coerce(u)), -x),
            (QQ.coerce(u), x),
            (parse_scalar(QQ, str(u)), x),
        ]
        if y:
            results += [(div(QQ, u, v), x / y), (QQ.inv(v), 1 / y)]
        for got, expected in results:
            assert got == expected and _canonical(got), (u, v, got)
            assert check(QQ, got) is got


def test_parse_examples():
    assert parse_scalar(GF3, "-2") == 1
    assert parse_scalar(GF3, "−2") == 1  # unicode minus accepted
    assert parse_scalar(QQ, "3/6") == Fraction(1, 2)
    assert parse_scalar(GF5, "7") == 2
    assert parse_scalar(GF5, "2/3") == 4


PARSE_FIELDS = [GF2, GF3, GF5, Field(7919), QQ]
# a multiple of every modulus above: a denominator that is zero in each prime field
MODULI = 2 * 3 * 5 * 7919


@pytest.mark.parametrize("field", PARSE_FIELDS, ids=str)
@given(
    minus=st.booleans(),
    n=st.integers(0, 10 ** 30),
    d=st.one_of(st.none(), st.integers(0, 10 ** 30), st.integers(0, 10 ** 4).map(MODULI.__mul__)),
)
@example(minus=False, n=1, d=0)
@example(minus=True, n=3, d=MODULI)
@example(minus=True, n=0, d=None)
@example(minus=False, n=6, d=3)
def test_parse_scalar_matches_the_fraction_reference(field, minus, n, d):
    # the reference is Fraction(n, d) reduced into the field, independent of Field
    text = ("-" if minus else "") + str(n) + ("" if d is None else f"/{d}")
    p = field.p
    if d == 0:
        with pytest.raises(ZeroDivisionError) as exc:
            parse_scalar(field, text)
        assert str(exc.value) == f"zero denominator in scalar literal {text!r}"
        return
    if p is not None and d is not None and d % p == 0:
        with pytest.raises(ZeroDivisionError) as exc:
            parse_scalar(field, text)
        assert str(exc.value) == f"denominator of {text!r} is zero in {field}"
        return
    value = Fraction(-n if minus else n, d or 1)
    if p is not None:
        value = value.numerator * pow(value.denominator, -1, p) % p
    got = parse_scalar(field, text)
    assert got == value and check(field, got) is got
    if value.denominator == 1:
        assert type(got) is int


def test_parse_rejects_malformed_text():
    for bad in ("", "x", "1/", "/2", "1/2/3", "1.5", "2/-3"):
        with pytest.raises(ValidationError):
            parse_scalar(QQ, bad)
    # what int() takes but the schema's ^-?[0-9]+(/[0-9]+)?$ does not
    for bad in ("1_000", "+1", " 1 ", "1 /2", "1/ 2", "1/+2", "\u0663", "\uff12", "1/\u0663"):
        for field in (QQ, GF5):
            with pytest.raises(ValidationError):
                parse_scalar(field, bad)


def test_parse_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_scalar(QQ, "1/0")
    with pytest.raises(ZeroDivisionError):
        parse_scalar(GF3, "1/3")  # denominator vanishes mod 3
    assert parse_scalar(GF3, "1/4") == 1


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_parse_format_round_trip_prime(field):
    for x in range(field.p):
        assert parse_scalar(field, str(x)) == x


@given(x=rationals)
def test_parse_format_round_trip_rationals(x):
    assert parse_scalar(QQ, str(x)) == x


def test_rationals_always_reduced():
    x = parse_scalar(QQ, "6/4")
    assert (x.numerator, x.denominator) == (3, 2)
    y = parse_scalar(QQ, "-6/4")
    assert (y.numerator, y.denominator) == (-3, 2)
