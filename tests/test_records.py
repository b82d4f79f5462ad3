"""The record types keep the value behaviour of frozen dataclasses.

Pickling is checked by ``test_fields_and_algebras_survive_pickling`` and
``IntSequence`` validation by ``test_sequence_validation``.
"""

import pytest

from dense_reference import basis_element
from zclkit import (
    ClResult,
    Field,
    IntSequence,
    ValidationError,
    Witness,
    builtin_algebra,
    zcl_exact,
)


def test_fields_compare_and_hash_by_modulus():
    assert Field(3) == Field(3)
    assert hash(Field(3)) == hash(Field(3))
    assert Field(3) != Field(5)
    assert Field() == Field.rationals() != Field(2)
    assert repr(Field(3)) == "Field(p=3)"


def test_records_are_immutable():
    field = Field(3)
    with pytest.raises(AttributeError):
        field.p = 5
    with pytest.raises(AttributeError):
        field.mul = None
    with pytest.raises(AttributeError):
        del field.p
    with pytest.raises(AttributeError):
        IntSequence(0, (1,)).offset = 1
    assert field.p == 3


def test_cl_result_validates_its_chain():
    alg = builtin_algebra("stanley-p3")
    with pytest.raises(ValidationError):
        ClResult(2, (basis_element(alg, 1),))


def test_equal_witnesses_compare_equal():
    alg = builtin_algebra("stanley-p3")
    w = zcl_exact(alg, 2).witness
    assert Witness(w.r, w.factors, w.product) == w == Witness(w.r, w.factors, w.product, 2, ())
    assert Witness(w.r, w.factors, w.product, 2, ({1: 1},)) != w
    assert zcl_exact(alg, 2) == zcl_exact(alg, 2)
