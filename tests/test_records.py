"""Every value type is a ``Record``, with the value behaviour of a frozen dataclass.

Pickling of fields and algebras is also checked by
``test_fields_and_algebras_survive_pickling``, and ``IntSequence``
validation by ``test_sequence_validation``.
"""

import ast
import pickle
from pathlib import Path

import pytest

import zclkit
from dense_reference import basis_element, to_presentation
from zclkit import (
    AlgebraPresentation,
    ClResult,
    Field,
    IntSequence,
    RationalityReport,
    SeriesOutcome,
    ValidationError,
    Witness,
    WitnessReport,
    ZclResult,
    analyze_sequence,
    builtin_algebra,
    cup_length,
    series_pipeline,
    verify_witness,
    zcl_exact,
)
from zclkit.record import Record


def _values():
    """One value of each of the nine types, by type."""
    alg = builtin_algebra("stanley-p3")
    res = zcl_exact(alg, 2)
    outcome = series_pipeline(alg, 3, min_run=2)
    return {
        ClResult: cup_length(alg),
        Witness: res.witness,
        Field: Field(3),
        IntSequence: outcome.sequence,
        ZclResult: res,
        WitnessReport: verify_witness(alg, res.witness),
        RationalityReport: analyze_sequence(outcome.sequence, min_run=2),
        SeriesOutcome: outcome,
        AlgebraPresentation: to_presentation(alg),
    }


VALUES = _values()


@pytest.mark.parametrize("kind", VALUES, ids=lambda kind: kind.__name__)
def test_every_value_type_is_an_immutable_record_and_not_a_tuple(kind):
    value = VALUES[kind]
    assert type(value) is kind and isinstance(value, Record) and not isinstance(value, tuple)
    fields = tuple(getattr(value, name) for name in kind._fields)
    assert value != fields and fields != value
    for bad in (lambda: value[0], lambda: len(value), lambda: tuple(value)):
        with pytest.raises(TypeError):
            bad()
    assert not hasattr(value, "_replace")
    name = kind._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is fields[0]


@pytest.mark.parametrize("kind", VALUES, ids=lambda kind: kind.__name__)
def test_every_value_type_pickles_to_an_equal_value_with_the_same_repr(kind):
    value = VALUES[kind]
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is kind
    assert copy == value
    args = ", ".join(f"{name}={getattr(value, name)!r}" for name in kind._fields)
    assert repr(copy) == repr(value) == f"{kind.__name__}({args})"


def test_a_record_takes_one_value_per_field():
    with pytest.raises(TypeError, match=r"ZclResult: 5 values for \('r', 'value'"):
        ZclResult(2, 2, "exact", 2, 4)
    with pytest.raises(TypeError):
        WitnessReport(True, (), ())


def test_no_module_of_the_library_calls_namedtuple():
    root = Path(zclkit.__file__).parent
    calls = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "namedtuple":
                calls.append(f"{path.relative_to(root)}:{node.lineno}")
    assert calls == []


def test_fields_compare_and_hash_by_modulus():
    assert Field(3) == Field(3)
    assert hash(Field(3)) == hash(Field(3))
    assert Field(3) != Field(5)
    assert Field() == Field(None) != Field(2)
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
    assert Witness(w.r, w.seed, w.product) == w == Witness(w.r, w.seed, w.product, 2, ())
    assert Witness(w.r, w.seed, w.product, 2, ({1: 1},)) != w
    assert zcl_exact(alg, 2) == zcl_exact(alg, 2)
