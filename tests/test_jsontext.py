"""The JSON writer against ``json.dumps``, in the three forms zclkit writes.

Every form is ``ensure_ascii=False``: reports are ``indent=2``, the builtin
digest hashes the ``sort_keys=True`` form, and a tensor file is the report
form of the algebra's ``to_dict`` plus a newline.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import to_presentation
from zclkit import AlgebraPresentation, builtin_algebra, validate_algebra
from zclkit.catalog import builtin_presentation
from zclkit.algfile import save_algebra
from zclkit.cli import run
from zclkit.fields import Field
from zclkit.jsontext import dumps, quote

REPORT = {"indent": 2}
DIGEST = {"sort_keys": True}


def as_json(value, **form) -> str:
    """``json.dumps`` in the one dialect zclkit writes."""
    return json.dumps(value, ensure_ascii=False, **form)


# what needs an escape in either form, surrogates too, and any other character
SPECIAL = '"\\\x00\x08\t\n\x0c\r\x1f\x7f\x80é ⊗𐏿\U0001f600\U0010ffff'
CHARS = st.one_of(st.sampled_from(SPECIAL), st.characters(exclude_categories=()))
TEXT = st.text(CHARS, max_size=12)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64), TEXT
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_dumps_matches_json_in_the_report_and_digest_forms(value):
    assert dumps(value, **REPORT) == as_json(value, **REPORT)
    assert dumps(value, **DIGEST) == as_json(value, **DIGEST)


@settings(max_examples=300, deadline=None)
@given(TEXT)
def test_quote_matches_json(text):
    assert quote(text) == as_json(text)


@pytest.mark.parametrize("value", [[], {}, [[]], [{}], {"a": []}, {"a": {}, "b": [[], {}]},
                                   ([(), {}],), {"": None}, [True, False, None, -(10**40)]])
def test_empty_and_nested_containers(value):
    assert dumps(value, **REPORT) == as_json(value, **REPORT)
    assert dumps(value, **DIGEST) == as_json(value, **DIGEST)


@pytest.mark.parametrize("name", ["point", "stanley-p3", "sphere-odd:99", "sphere-even:2",
                                  "surface:1", "surface:100"])
def test_the_builtin_digest_hashes_printable_ascii(name):
    # so the digest form is also json.dumps's ASCII form, and pinned digests stay
    doc = builtin_presentation(name).to_dict()
    text = dumps(doc, **DIGEST)
    assert text.isascii() and text.isprintable()
    assert text == json.dumps(doc, **DIGEST)


def test_refuses_what_json_refuses():
    with pytest.raises(TypeError):
        dumps({1: "a"})
    with pytest.raises(TypeError):
        dumps([object()])


# a file is UTF-8, which holds no lone surrogate
FILE_CHARS = st.one_of(st.sampled_from(SPECIAL), st.characters(codec="utf-8"))
LABEL = st.text(FILE_CHARS, min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(
    name=st.text(FILE_CHARS, max_size=12),
    labels=st.lists(LABEL, min_size=6, max_size=6, unique=True),
    p=st.sampled_from([None, 2, 3]),
    coeffs=st.lists(st.one_of(st.integers(), st.integers(min_value=2**70), st.fractions()),
                    min_size=2, max_size=2),
)
def test_a_saved_file_matches_json_in_the_tensor_file_form(tmp_path_factory, name, labels, p,
                                                           coeffs):
    # a genus-2-like table, a_i b_i = coeff_i c over F_p or Q, listed out of order;
    # a zero coeff leaves no product
    field = Field(p)
    if p is not None:
        coeffs = [int(c) % p for c in coeffs]
    one, a1, b1, a2, b2, c = labels
    basis = list(zip(labels, (0, 1, 1, 1, 1, 2)))
    products = {(a2, b2): {c: coeffs[1]}, (a1, b1): {c: coeffs[0]}}
    alg = validate_algebra(AlgebraPresentation.from_labels(name, field, basis, products))
    path = tmp_path_factory.mktemp("file") / "alg.json"
    save_algebra(alg, path)
    text = as_json(to_presentation(alg).to_dict(), **REPORT) + "\n"
    assert path.read_text(encoding="utf-8") == text


def test_every_tensor_file_of_a_builtin_matches_json(tmp_path, builtin_corpus):
    written = 0
    for alg in builtin_corpus:
        for r in range(1, 5):
            if alg.dim ** r > 256:
                break
            path = tmp_path / f"r{r}.json"
            argv = ["tensor", f"builtin:{alg.name}", "--r", str(r), "--out", str(path), "--json"]
            assert run(argv, stdout=io.StringIO()) == 0
            power = builtin_algebra(alg.name).tensor_power(r)  # its pair cache is empty
            text = as_json(to_presentation(power).to_dict(), **REPORT) + "\n"
            assert path.read_text(encoding="utf-8") == text, (alg.name, r)
            # the file is streamed from the core table, past the pair cache
            save_algebra(power, tmp_path / "again.json")
            assert power._pair_cache == {} or r == 1, (alg.name, r)
            written += 1
    assert written == 27
