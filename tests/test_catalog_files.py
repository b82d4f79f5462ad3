"""Builtin catalog entries and the JSON algebra file format."""

import json

import pytest

from dense_reference import element_from_labels, multiply
from zclkit import builtin_algebra, builtin_names, builtin_presentation, validate_algebra
from zclkit.algfile import load_presentation, save_algebra
from zclkit.errors import ResourceLimitError, ValidationError
from zclkit.fields import Field
from zclkit.reader import presentation_from_dict


def test_catalog_minimum_contents():
    names = builtin_names()
    assert "point" in names
    assert "stanley-p3" in names
    assert any(n.startswith("sphere-odd") for n in names)
    assert any(n.startswith("sphere-even") for n in names)
    assert any(n.startswith("surface") for n in names)


def test_stanley_builtin_shape():
    alg = builtin_algebra("stanley-p3")
    assert alg.dim == 4
    assert alg.field == Field(3)
    assert sorted(alg.degrees) == [0, 2, 3, 11]


def test_point_builtin():
    assert builtin_algebra("point").dim == 1


def test_every_builtin_instance_validates():
    for name in ("point", "stanley-p3", "sphere-odd:5", "sphere-even:4", "surface:3"):
        alg = builtin_algebra(name)
        assert alg.dim >= 1


def test_builtin_parameter_validation():
    with pytest.raises(ValidationError, match="sphere-odd needs an odd degree, got 2"):
        builtin_presentation("sphere-odd:2")
    with pytest.raises(ValidationError, match="sphere-even needs an even degree, got 3"):
        builtin_presentation("sphere-even:3")
    with pytest.raises(ValidationError, match="surface genus must be at least 1"):
        builtin_presentation("surface:0")
    with pytest.raises(ValidationError, match="sphere degree must be positive"):
        builtin_presentation("sphere-odd:-1")
    with pytest.raises(ValidationError, match="'sphere-odd:x' must be an integer"):
        builtin_presentation("sphere-odd:x")


def test_builtin_presentation_refuses_a_family_member_above_the_ceiling():
    with pytest.raises(ResourceLimitError, match="dim 2000002 exceeds the ceiling 4096"):
        builtin_presentation("surface:1000000", max_dim=4096)
    assert len(builtin_presentation("surface:2", max_dim=6).basis) == 6


def test_unknown_builtin_lists_catalog():
    with pytest.raises(ValidationError, match="available"):
        builtin_presentation("nope")


# -- file format ------------------------------------------------------------------


def test_presentation_dict_round_trip():
    pres = builtin_presentation("surface:2")
    doc = pres.to_dict()
    back = presentation_from_dict(json.loads(json.dumps(doc)))
    assert back.name == pres.name
    assert back.basis == pres.basis
    assert validate_algebra(back).dim == validate_algebra(pres).dim


def test_save_and_load_algebra(tmp_path):
    alg = builtin_algebra("surface:1")
    path = tmp_path / "torus.json"
    save_algebra(alg, path)
    loaded = validate_algebra(load_presentation(path))
    assert loaded.dim == alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert loaded.basis_product(i, j) == alg.basis_product(i, j)


def _doc():
    return {
        "name": "demo",
        "field": {"kind": "prime", "p": 3},
        "basis": [{"label": "1", "degree": 0}, {"label": "a", "degree": 2}],
        "products": [],
    }


def test_unknown_top_level_key_rejected():
    doc = _doc()
    doc["extra"] = 1
    with pytest.raises(ValidationError, match="unknown keys"):
        presentation_from_dict(doc)


def test_unknown_field_key_rejected():
    doc = _doc()
    doc["field"] = {"kind": "prime", "p": 3, "q": 5}
    with pytest.raises(ValidationError, match="unknown keys"):
        presentation_from_dict(doc)


def test_rational_field_must_not_carry_p():
    doc = _doc()
    doc["field"] = {"kind": "rational", "p": 3}
    with pytest.raises(ValidationError):
        presentation_from_dict(doc)


def test_a_prime_field_with_a_null_p_is_not_the_rationals():
    # Field(None) is Q: the reader refuses a null p before it reaches Field
    doc = _doc()
    doc["field"] = {"kind": "prime", "p": None}
    with pytest.raises(ValidationError, match="^field: prime field needs 'p'$"):
        presentation_from_dict(doc)


def test_nonprime_modulus_rejected():
    doc = _doc()
    doc["field"] = {"kind": "prime", "p": 6}
    with pytest.raises(ValidationError, match="prime"):
        presentation_from_dict(doc)


def test_numeric_coefficients_rejected():
    doc = _doc()
    doc["basis"].append({"label": "b", "degree": 4})
    doc["products"] = [
        {"left": "a", "right": "a", "value": [{"coeff": 1, "basis": "b"}]}
    ]
    with pytest.raises(ValidationError, match="strings"):
        presentation_from_dict(doc)


def test_products_must_follow_basis_order():
    doc = _doc()
    doc["basis"].append({"label": "b", "degree": 2})
    doc["basis"].append({"label": "c", "degree": 4})
    doc["products"] = [
        {"left": "b", "right": "a", "value": [{"coeff": "1", "basis": "c"}]}
    ]
    with pytest.raises(ValidationError, match=r"product \(b, a\) must be listed with the lower"):
        validate_algebra(presentation_from_dict(doc))


def test_duplicate_product_entries_rejected():
    doc = _doc()
    doc["basis"].append({"label": "c", "degree": 4})
    entry = {"left": "a", "right": "a", "value": [{"coeff": "1", "basis": "c"}]}
    doc["products"] = [entry, dict(entry)]
    with pytest.raises(ValidationError, match="duplicate"):
        presentation_from_dict(doc)


@pytest.mark.parametrize("entry_repeat, doc_repeat, key", [
    (', "value": []', "", "value"),
    (', "left": "x"', "", "left"),
    ("", ', "name": "again"', "name"),
])
def test_repeated_keys_rejected(tmp_path, entry_repeat, doc_repeat, key):
    # json keeps the last copy of a repeated key: the first case would read x·x = 0, not 5y
    text = ('{"name": "dup", "field": {"kind": "rational"}, "basis": [{"label": "1", '
            '"degree": 0}, {"label": "x", "degree": 2}, {"label": "y", "degree": 4}], '
            '"products": [{"left": "x", "right": "x", '
            '"value": [{"coeff": "5", "basis": "y"}]%s}]%s}')
    path = tmp_path / "dup.json"
    path.write_text(text % (entry_repeat, doc_repeat))
    with pytest.raises(ValidationError, match=f"repeated key '{key}'"):
        load_presentation(path)
    path.write_text(text % ("", ""))
    assert load_presentation(path).products == {(1, 1): {2: 5}}


def test_unknown_labels_rejected():
    doc = _doc()
    doc["products"] = [{"left": "z", "right": "a", "value": []}]
    with pytest.raises(ValidationError, match="product references unknown label 'z'"):
        validate_algebra(presentation_from_dict(doc))


def test_coefficient_strings_parse_in_the_field(tmp_path):
    doc = _doc()
    doc["basis"].append({"label": "c", "degree": 4})
    doc["products"] = [
        {"left": "a", "right": "a", "value": [{"coeff": "-2", "basis": "c"}]}
    ]
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    alg = validate_algebra(load_presentation(path))
    a = element_from_labels(alg, {"a": 1})
    assert multiply(alg, a, a) == element_from_labels(alg, {"c": 1})  # -2 = 1 mod 3
