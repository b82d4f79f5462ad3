"""Command dispatch, exit codes, report shape, and schema conformance."""

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from dense_reference import labels, witness_letters
from zclkit import (
    AlgebraPresentation,
    builtin_algebra,
    cup_length,
    invariants,
    tensor_product,
    validate_algebra,
)
from zclkit.algfile import load_presentation, save_algebra
from zclkit.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    SYNOPSIS,
    run,
)
from zclkit.errors import ValidationError
from zclkit.fields import Field

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "zclkit" / "schemas"
REPORT_SCHEMA = json.loads((SCHEMA_DIR / "report.schema.json").read_text())
ALGEBRA_SCHEMA = json.loads((SCHEMA_DIR / "algebra.schema.json").read_text())


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def cli_json(*argv):
    code, out, err = cli(*argv, "--json")
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report, err


# -- happy paths -------------------------------------------------------------------


def test_cl_stanley():
    code, out, _ = cli("cl", "builtin:stanley-p3")
    assert code == EXIT_OK
    assert "cl(stanley-p3) = 1" in out


def test_cl_json_report():
    code, report, _ = cli_json("cl", "builtin:stanley-p3")
    assert code == EXIT_OK
    assert report["result"]["value"] == 1
    assert report["warnings"] == []
    assert report["input"]["source"] == "builtin:stanley-p3"
    assert len(report["input"]["sha256"]) == 64


def test_zcl_with_witness():
    code, report, _ = cli_json("zcl", "builtin:stanley-p3", "--r", "2")
    assert code == EXIT_OK
    res = report["result"]
    assert (res["value"], res["method"]) == (2, "exact")
    assert res["witness"]["verified"] is True
    assert res["witness"]["length"] == 2


def test_zcl_bounds_method():
    code, report, _ = cli_json("zcl", "builtin:stanley-p3", "--r", "5", "--method", "bounds")
    assert code == EXIT_OK
    res = report["result"]
    assert (res["method"], res["value"], res["lower"], res["upper"]) == ("bounds", 5, 5, 5)


def test_analyze_counterexample_sequence():
    code, report, _ = cli_json("analyze", "--seq", "2,3,4,5", "--offset", "1")
    assert code == EXIT_OK
    res = report["result"]
    assert res["p_coeffs"] == [0, 2, -1]
    assert res["p_text"] == "2x - x^2"
    assert res["p_at_one"] == 1


def test_series_stanley_small_window():
    # rmax=3 keeps this fast; three entries are too few for the default min-run
    code, report, _ = cli_json("series", "builtin:stanley-p3", "--rmax", "3", "--min-run", "2")
    assert code == EXIT_OK
    res = report["result"]
    assert [e["value"] for e in res["entries"]] == [2, 3, 4]
    assert res["analysis"]["p_at_one"] == 1
    assert res["p_at_one_equals_cl"] is True


def test_series_default_min_run_is_inconclusive_on_short_window():
    code, report, _ = cli_json("series", "builtin:stanley-p3", "--rmax", "3")
    assert code == EXIT_INCONCLUSIVE
    assert report["result"]["analysis"]["verdict"] == "inconclusive"


def test_witness_listing():
    code, out, _ = cli("witness", "builtin:stanley-p3", "--r", "2")
    assert code == EXIT_OK
    assert "factor 1: (1·a2)^(2) - (1·a2)^(1)" in out and "product over 2 slots:" in out


def test_witness_on_the_torus_at_the_exact_size():
    # dim 4^5 = 1024 is under the ceiling, so this runs the exact path
    start = time.monotonic()
    code, report, _ = cli_json("witness", "builtin:surface:1", "--r", "5")
    elapsed = time.monotonic() - start
    assert code == EXIT_OK
    res = report["result"]
    assert (res["method"], res["length"]) == ("exact", 8)
    assert res["witness"]["verified"] is True
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


@pytest.mark.parametrize("argv, letters", [
    (("witness", "builtin:surface:1", "--r", "7"), 12),
    (("zcl", "builtin:stanley-p3", "--method", "bounds", "--r", "9"), 9),
])
def test_a_report_builds_each_witness_factor_once(argv, letters, monkeypatch):
    # the checker builds the row of each letter of the seed, once, and no other;
    # the report prints every factor as its letter
    calls = []
    zero_divisor = invariants.zero_divisor

    def counted(power, y, s):
        calls.append(s)
        return zero_divisor(power, y, s)

    monkeypatch.setattr(invariants, "zero_divisor", counted)
    code, report, _ = cli_json(*argv)
    assert code == EXIT_OK
    witness = report["result"]["witness"]
    assert witness["verified"] is True
    assert witness["length"] == len(witness["factors"]) == letters
    # the seed: r = 4 on the torus, where zcl_4 = 6, and r = 2 on stanley-p3
    assert len(calls) == {4: 6, 2: 2}[witness["seed_r"]]
    assert set(calls) <= set(range(2, witness["seed_r"] + 1))


def test_a_deep_report_puts_each_row_into_text_once(monkeypatch):
    # the letters past the seed repeat the rows of the chain: each row of the seed and
    # of the chain is put into text once, the product once more, and the factors read
    # as each letter put into text on its own
    alg = builtin_algebra("surface:2")
    w = invariants.zcl_bounds(alg, 2000, max_dim=10 ** 6).witness
    text = invariants.row_text
    expected = [f"({text(alg, y)})^({s}) - ({text(alg, y)})^(1)" for y, s in witness_letters(w)]
    calls = []

    def counted(a, row):
        calls.append(row)
        return text(a, row)

    monkeypatch.setattr(invariants, "row_text", counted)
    code, report, _ = cli_json("zcl", "builtin:surface:2", "--method", "bounds", "--r", "2000",
                               "--max-dim", "1000000")
    assert code == EXIT_OK
    witness = report["result"]["witness"]
    assert witness["verified"] is True
    assert witness["length"] == w.length == 4 + 1998 * 2
    assert witness["factors"] == expected
    assert len(calls) <= 2 * (len(w.seed) + len(w.chain)) + 1


def test_builtins_listing():
    code, report, _ = cli_json("builtins")
    assert code == EXIT_OK
    assert "stanley-p3" in report["result"]["names"]


def test_every_builtin_passes_check():
    for name in ("point", "stanley-p3", "sphere-odd:3", "sphere-even:2", "surface:2"):
        code, report, _ = cli_json("check", f"builtin:{name}")
        assert code == EXIT_OK
        assert report["warnings"] == []


def test_check_reads_files(tmp_path):
    doc = {
        "name": "demo",
        "field": {"kind": "rational"},
        "basis": [{"label": "1", "degree": 0}, {"label": "t", "degree": 3}],
        "products": [],
    }
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(doc))
    code, report, _ = cli_json("check", str(path))
    assert code == EXIT_OK
    assert report["result"]["dim"] == 2
    assert report["input"]["source"] == str(path)


def test_check_refuses_a_modulus_beyond_the_certified_range(tmp_path):
    doc = {
        "name": "psi12",
        "field": {"kind": "prime", "p": 318665857834031151167461},
        "basis": [{"label": "1", "degree": 0}, {"label": "t", "degree": 3}],
        "products": [],
    }
    path = tmp_path / "psi12.json"
    path.write_text(json.dumps(doc))
    code, out, err = cli("check", str(path))
    assert code == EXIT_INVALID
    assert out == ""
    assert "certifies primality only below" in err


def test_file_digest_is_of_the_bytes_parsed(tmp_path):
    path = tmp_path / "square.json"
    assert cli("tensor", "builtin:stanley-p3", "--r", "2", "--out", str(path))[0] == EXIT_OK
    code, report, _ = cli_json("check", str(path))
    assert code == EXIT_OK
    assert report["input"]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


# -- tensor files ----------------------------------------------------------------------


def test_tensor_r1_round_trip(tmp_path):
    out_path = tmp_path / "power1.json"
    code, _, _ = cli("tensor", "builtin:stanley-p3", "--r", "1", "--out", str(out_path))
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    jsonschema.validate(doc, ALGEBRA_SCHEMA)
    reloaded = validate_algebra(load_presentation(out_path))
    original = builtin_algebra("stanley-p3")
    assert reloaded.dim == original.dim
    assert labels(reloaded) == labels(original)
    for i in range(original.dim):
        for j in range(original.dim):
            assert reloaded.basis_product(i, j) == original.basis_product(i, j)


def test_a_power_whose_labels_collide_is_not_written(tmp_path):
    # every file tensor writes reads back: a basis whose ⊗-joined labels repeat is
    # refused before the file is opened, by the command and by save_algebra alike
    doc = _document(name="clash", basis=_basis("1⊗1", 2))
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    out_path = tmp_path / "square.json"
    code, out, err = cli("tensor", str(path), "--r", "2", "--out", str(out_path))
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "zclkit: error: algebra 'clash^tensor2': duplicate basis label '1⊗1⊗1'\n"
    with pytest.raises(ValidationError, match="duplicate basis label '1⊗1⊗1'"):
        save_algebra(validate_algebra(load_presentation(path)).tensor_power(2), out_path)
    assert not out_path.exists()


def test_tensor_r2_file_validates(tmp_path):
    out_path = tmp_path / "power2.json"
    code, _, _ = cli("tensor", "builtin:sphere-odd:3", "--r", "2", "--out", str(out_path))
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    jsonschema.validate(doc, ALGEBRA_SCHEMA)
    reloaded = validate_algebra(load_presentation(out_path))
    assert reloaded.dim == 4


# -- warnings and determinism ----------------------------------------------------------


def test_char_two_run_is_flagged(tmp_path):
    doc = {
        "name": "mod2",
        "field": {"kind": "prime", "p": 2},
        "basis": [{"label": "1", "degree": 0}, {"label": "a", "degree": 1}],
        "products": [],
    }
    path = tmp_path / "mod2.json"
    path.write_text(json.dumps(doc))
    code, report, _ = cli_json("check", str(path))
    assert code == EXIT_OK
    assert any("characteristic-2" in w for w in report["warnings"])
    assert cli("check", str(path)) == (
        EXIT_OK,
        "mod2: valid; dim 2 over F2; degrees [0, 1]\n"
        "warning: characteristic-2 field: odd-degree squares are not forced to vanish; "
        "only the literal sign rule is enforced\n",
        "",
    )


# -- text reports ------------------------------------------------------------------------

TEXT_REPORTS = [
    (
        ("series", "builtin:stanley-p3", "--rmax", "3", "--min-run", "2"),
        EXIT_OK,
        "stanley-p3: cl = 1\n"
        "  r=2: zcl = 2 (exact)\n"
        "  r=3: zcl = 3 (exact)\n"
        "  r=4: zcl = 4 (exact)\n"
        "sequence t_r = zcl_(r+1), r >= 1: [2, 3, 4]\n"
        "verdict: rational_form_detected (window 3)\n"
        "P(x) = 2x - x^2; P(1) = 1; equals cl: True\n",
    ),
    (
        ("series", "builtin:surface:1", "--rmax", "3", "--max-dim", "16"),
        EXIT_INCONCLUSIVE,
        "surface:1: cl = 2\n"
        "  r=2: zcl = 2 (exact)\n"
        "  r=3: zcl = [4, 6] (bounds)\n"
        "  r=4: zcl = [6, 8] (bounds)\n"
        "analysis skipped: some entries are uncertified bounds\n",
    ),
    (
        ("analyze", "--seq", "2,3,4,5", "--offset", "1"),
        EXIT_OK,
        "verdict: rational_form_detected (window 4)\n"
        "tail: t_r = 1*r + 1 from r = 1 (within window)\n"
        "P(x) = 2x - x^2; P(1) = 1\n",
    ),
    (
        ("builtins",),
        EXIT_OK,
        "point\nstanley-p3\nsphere-odd:<odd n>\nsphere-even:<even n>\nsurface:<genus g>\n",
    ),
    (("witness", "builtin:point", "--r", "2"), EXIT_INCONCLUSIVE, "no witness available\n"),
]


@pytest.mark.parametrize(
    "argv, status, text", TEXT_REPORTS, ids=[" ".join(argv[:3]) for argv, _, _ in TEXT_REPORTS]
)
def test_text_reports_are_pinned(argv, status, text):
    assert cli(*argv) == (status, text, "")


def _fail_every_witness(monkeypatch):
    """A verifier that reports a problem with every witness it checks."""
    report = invariants.WitnessReport(False, ("stored product differs from the recomputed one",))
    monkeypatch.setattr(invariants, "verify_witness", lambda alg, witness: report)


def test_text_report_lists_the_problems_of_a_witness(monkeypatch):
    # a valid witness never fails; a verifier that reports a problem shows the listing
    _fail_every_witness(monkeypatch)
    assert cli("witness", "builtin:stanley-p3", "--r", "2") == (
        EXIT_INCONCLUSIVE,
        "witness for zcl_2(stanley-p3), length 2, verified=False\n"
        "  factor 1: (1·a2)^(2) - (1·a2)^(1)\n"
        "  factor 2: (1·a2)^(2) - (1·a2)^(1)\n"
        "  product over 2 slots: 1·a2⊗a2\n"
        "  problem: stored product differs from the recomputed one\n",
        "",
    )


def test_a_value_whose_witness_fails_verification_is_uncertified(monkeypatch):
    # a zcl value stands on its witness: with a verifier that reports a problem it exits 2
    _fail_every_witness(monkeypatch)
    code, report, err = cli_json("zcl", "builtin:stanley-p3", "--r", "2")
    assert (code, err) == (EXIT_INCONCLUSIVE, "")
    res = report["result"]
    assert (res["value"], res["lower"], res["upper"]) == (2, 2, 2)
    assert res["witness"]["verified"] is False
    assert res["witness"]["problems"] == ["stored product differs from the recomputed one"]


def test_json_reports_are_stable():
    _, first, _ = cli("cl", "builtin:surface:1", "--json")
    _, second, _ = cli("cl", "builtin:surface:1", "--json")
    assert first == second


# -- failure paths -----------------------------------------------------------------------


def test_missing_file_is_a_validation_failure():
    code, out, err = cli("cl", "/nonexistent/thing.json")
    assert code == EXIT_INVALID
    assert "no such algebra file" in err


def test_invalid_algebra_file(tmp_path):
    doc = {
        "name": "bad",
        "field": {"kind": "prime", "p": 3},
        "basis": [
            {"label": "1", "degree": 0},
            {"label": "a2", "degree": 2},
            {"label": "a3", "degree": 3},
        ],
        "products": [
            {"left": "a2", "right": "a2", "value": [{"coeff": "1", "basis": "a3"}]}
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = cli("check", str(path))
    assert code == EXIT_INVALID
    assert "degree" in err


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"name": "caf\xe9"}', "not UTF-8 ("),
        (b"[" * 100000, "JSON nested too deeply to parse\n"),
        (b'{"name": ', "not valid JSON ("),
    ],
    ids=["latin-1", "deeply-nested", "truncated"],
)
def test_malformed_file_is_an_error_not_a_traceback(tmp_path, data, message, child_env):
    path = tmp_path / "malformed.json"
    path.write_bytes(data)
    proc = subprocess.run(
        [sys.executable, "-m", "zclkit.cli", "check", str(path)],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=60,
    )
    assert proc.returncode == EXIT_INVALID
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"zclkit: error: {path}: {message}"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == cli("check", str(path))


@pytest.mark.parametrize(
    "field, coeff",
    [({"kind": "rational"}, "1/0"), ({"kind": "prime", "p": 3}, "1/3"),
     ({"kind": "rational"}, "1_000")],
    ids=["Q", "F3", "Q-malformed"],
)
def test_zero_denominator_is_an_invalid_file(tmp_path, field, coeff):
    doc = {
        "name": "zero-den",
        "field": field,
        "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 2}],
        "products": [{"left": "x", "right": "x", "value": [{"coeff": coeff, "basis": "1"}]}],
    }
    path = tmp_path / "zero-den.json"
    path.write_text(json.dumps(doc))
    code, out, err = cli("check", str(path))
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("zclkit: error: ") and err.count("\n") == 1
    assert "products[0].value[0]" in err and coeff in err


LONG = "7" * 5000  # past the 4300 digits int() reads


@pytest.mark.parametrize(
    "field, coeff, where",
    [
        ('{"kind": "rational"}', LONG, "products[0].value[0]: scalar literal of 5000 characters"),
        ('{"kind": "rational"}', "1/" + LONG, "products[0].value[0]: scalar literal of 5002"),
        ('{"kind": "prime", "p": 3}', LONG, "products[0].value[0]: scalar literal of 5000"),
        ('{"kind": "prime", "p": 3}', "-1/" + LONG, "products[0].value[0]: scalar literal of 5003"),
        ('{"kind": "prime", "p": %s}' % LONG, "1", "line 1 column 50 has 5000 characters"),
    ],
    ids=["Q-numerator", "Q-denominator", "F3-numerator", "F3-denominator", "p"],
)
def test_an_over_long_integer_is_an_invalid_file(tmp_path, field, coeff, where, child_env):
    doc = ('{"name": "long", "field": %s, "basis": [{"label": "1", "degree": 0}, '
           '{"label": "x", "degree": 2}], "products": [{"left": "x", "right": "x", '
           '"value": [{"coeff": "%s", "basis": "1"}]}]}' % (field, coeff))
    path = tmp_path / "long.json"
    path.write_text(doc)
    proc = _main(child_env, ["check", str(path)])
    assert (proc.returncode, proc.stdout) == (EXIT_INVALID, "")
    assert proc.stderr.startswith("zclkit: error: ") and proc.stderr.count("\n") == 1
    assert where in proc.stderr and "too long to read" in proc.stderr, proc.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == cli("check", str(path))


def test_an_over_long_degree_is_an_invalid_file(tmp_path):
    path = tmp_path / "long-degree.json"
    path.write_text(json.dumps(_document(basis=_basis("x", 2)), indent=2)
                    .replace('"degree": 2', f'"degree": {LONG}'))
    code, out, err = cli("check", str(path))
    assert (code, out) == (EXIT_INVALID, "")
    assert err == (f"zclkit: error: {path}: the integer at line 13 column 17 has 5000 "
                   "characters, too long to read\n")


def test_a_repeated_key_is_an_invalid_file(tmp_path):
    # read with the last copy kept, x·x = 0 and cl would be 1
    path = tmp_path / "dup.json"
    path.write_text(
        '{"name": "dup", "field": {"kind": "rational"}, "basis": [{"label": "1", "degree": 0}, '
        '{"label": "x", "degree": 2}, {"label": "y", "degree": 4}], "products": [{"left": "x", '
        '"right": "x", "value": [{"coeff": "5", "basis": "y"}], "value": []}]}')
    code, out, err = cli("cl", str(path))
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("zclkit: error: ") and err.count("\n") == 1
    assert "repeated key 'value'" in err


@pytest.mark.parametrize(
    "entry, where",
    [
        ({"left": ["x"], "right": "x", "value": []}, "products[0]"),
        (
            {"left": "x", "right": "x", "value": [{"coeff": "1", "basis": {"y": 1}}]},
            "products[0].value[0]",
        ),
    ],
    ids=["array-left", "object-term"],
)
def test_non_string_product_label_is_an_invalid_file(tmp_path, entry, where):
    doc = {
        "name": "labels",
        "field": {"kind": "rational"},
        "basis": [
            {"label": "1", "degree": 0},
            {"label": "x", "degree": 2},
            {"label": "y", "degree": 4},
        ],
        "products": [entry],
    }
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    code, out, err = cli("check", str(path))
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith(f"zclkit: error: {where}: unknown basis label") and err.count("\n") == 1


def _document(**changes):
    """A valid algebra file's document over Q, with the top-level keys ``changes`` replaced."""
    doc = {
        "name": "doc",
        "field": {"kind": "rational"},
        "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 2}],
        "products": [],
    }
    doc.update(changes)
    return doc


def _basis(label, degree):
    return [{"label": "1", "degree": 0}, {"label": label, "degree": degree}]


# each fault the reader or the structure check names, with the message it prints
MALFORMED_DOCUMENTS = [
    ([], "algebra file: expected a JSON object"),
    ({}, "algebra file: missing keys ['name', 'field', 'basis', 'products']"),
    (_document(field={"kind": "complex"}), "field: unknown field kind 'complex'"),
    (_document(field={"kind": "prime"}), "field: prime field needs 'p'"),
    (_document(field={"kind": "prime", "p": "3"}), "field modulus must be an integer"),
    (_document(name=7), "algebra file: 'name' must be a string"),
    (_document(basis={}), "algebra file: 'basis' must be an array"),
    (_document(products={}), "algebra file: 'products' must be an array"),
    (
        _document(products=[{"left": "x", "right": "x", "value": {}}]),
        "products[0]: 'value' must be an array",
    ),
    (_document(basis=_basis(2, 2)), "basis[1]: label must be a string"),
    (
        _document(basis=_basis("y", 2.0)),
        "algebra 'doc': degree of 'y' must be a nonnegative integer",
    ),
    (_document(basis=_basis("1", 2)), "algebra 'doc': duplicate basis label '1'"),
    (_document(basis=[]), "algebra 'doc': empty basis"),
    (_document(basis=_basis("", 2)), "algebra 'doc': basis labels must be nonempty strings"),
    (
        _document(basis=_basis("x", -2)),
        "algebra 'doc': degree of 'x' must be a nonnegative integer",
    ),
]


@pytest.mark.parametrize(
    "doc, message", MALFORMED_DOCUMENTS, ids=[m for _, m in MALFORMED_DOCUMENTS]
)
def test_a_malformed_document_names_its_fault(tmp_path, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli("check", str(path)) == (EXIT_INVALID, "", f"zclkit: error: {message}\n")


_DEGREE = "algebra 'doc': degree of 'x' must be a nonnegative integer"

# a fault, as (p, basis, products) in from_labels' terms, and the one message it has
ONE_RULE_FAULTS = [
    ("3", [("1", 0), ("x", 2)], {}, "field modulus must be an integer"),
    (None, [("1", 0), ("x", 2.0)], {}, _DEGREE),
    (None, [("1", 0), ("x", True)], {}, _DEGREE),
    (None, [("1", 0), ("x", "2")], {}, _DEGREE),
    (None, [("1", 0), ("x", 2), ("x", 4)], {}, "algebra 'doc': duplicate basis label 'x'"),
    (
        None, [("1", 0), ("a", 2), ("b", 2), ("c", 4)], {("b", "a"): {"c": 1}},
        "algebra 'doc': product (b, a) must be listed with the lower basis index first",
    ),
    (
        None, [("1", 0), ("x", 2)], {("x", "x"): {"z": 1}},
        "algebra 'doc': product references unknown label 'z'",
    ),
]


@pytest.mark.parametrize(
    "p, basis, products, message",
    ONE_RULE_FAULTS,
    ids=["string-p", "float-degree", "bool-degree", "string-degree", "repeated-label",
         "product-out-of-order", "unknown-term-label"],
)
def test_a_fault_has_one_message_from_a_file_and_from_the_library(
        tmp_path, p, basis, products, message):
    # the reader checks only the JSON form: each rule of the algebra is checked once,
    # by Field or validate_algebra, after from_labels has built the presentation
    with pytest.raises(ValidationError) as exc:
        validate_algebra(AlgebraPresentation.from_labels("doc", Field(p), basis, products))
    assert str(exc.value) == message
    field = {"kind": "rational"} if p is None else {"kind": "prime", "p": p}
    doc = _document(
        field=field,
        basis=[{"label": lbl, "degree": deg} for lbl, deg in basis],
        products=[
            {"left": left, "right": right,
             "value": [{"coeff": str(c), "basis": lbl} for lbl, c in row.items()]}
            for (left, right), row in products.items()
        ],
    )
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli("check", str(path)) == (EXIT_INVALID, "", f"zclkit: error: {message}\n")


def test_a_repeated_term_of_a_product_is_summed(tmp_path):
    # x^2 lists y twice: 1 + 1 = 2 over Q, and 1 + 2 = 0 over F_3, no product at all
    term = {"coeff": "1", "basis": "y"}
    basis = _basis("x", 2) + [{"label": "y", "degree": 4}]
    for field, second, square in (({"kind": "rational"}, "1", {2: 2}),
                                  ({"kind": "prime", "p": 3}, "2", {})):
        value = [term, {"coeff": second, "basis": "y"}]
        doc = _document(field=field, basis=basis,
                        products=[{"left": "x", "right": "x", "value": value}])
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        alg = validate_algebra(load_presentation(path))
        assert alg.basis_product(1, 1) == square


def test_usage_error_exit_code():
    code, _, err = cli("zcl", "builtin:stanley-p3")  # missing --r
    assert code == EXIT_USAGE
    code, _, _ = cli("frobnicate")
    assert code == EXIT_USAGE


def test_resource_ceiling_exit_code():
    code, _, err = cli("zcl", "builtin:stanley-p3", "--r", "4", "--max-dim", "100")
    assert code == EXIT_RESOURCE
    assert "ceiling" in err


def test_bounds_on_the_torus_at_r_65_is_a_verified_sandwich():
    # the witness is the r = 4 seed and the chain's letters: no product of r^2
    # terms is formed, so r = 65 runs at the default ceiling
    code, report, _ = cli_json("zcl", "builtin:surface:1", "--method", "bounds", "--r", "65")
    assert code == EXIT_INCONCLUSIVE
    res = report["result"]
    assert [res["lower"], res["upper"]] == [128, 130]
    assert (res["witness"]["seed_r"], res["witness"]["verified"]) == (4, True)


def test_a_bounds_witness_past_the_ceiling_exits_4():
    # r is the one input the bounds route grows with: a witness of more letters
    # than the ceiling is refused before it is built
    start = time.monotonic()
    code, out, err = cli("zcl", "builtin:stanley-p3", "--method", "bounds", "--r", "5000")
    assert time.monotonic() - start < 1.0
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err.startswith("zclkit: resource ceiling: ") and err.count("\n") == 1
    assert err.endswith("raise the ceiling to opt in\n"), err
    code, report, _ = cli_json(
        "zcl", "builtin:stanley-p3", "--method", "bounds", "--r", "5000", "--max-dim", "5000"
    )
    assert code == EXIT_OK
    assert (report["result"]["value"], report["result"]["witness"]["verified"]) == (5000, True)


def test_series_on_a_saved_tensor_product_reports_every_entry(tmp_path):
    # surface:1 (x) sphere-even:2 (dim 8, cl 3) is exact to r = 4 (d^4 = 4096), and
    # zcl_2 = 4 = cl + 1, so no later entry closes: each is the sandwich
    # [3r - 2, 3r], whose witness is the r = 2 seed and the chain, not a product of
    # (r - 1)^2 terms, so no entry runs into the ceiling
    path = tmp_path / "t.json"
    alg = tensor_product(builtin_algebra("surface:1"), builtin_algebra("sphere-even:2"))
    save_algebra(alg, str(path))
    code, report, _ = cli_json("series", str(path), "--rmax", "200")
    assert code == EXIT_INCONCLUSIVE
    entries = report["result"]["entries"]
    assert [e["r"] for e in entries] == list(range(2, 202))
    assert all((e["lower"], e["upper"]) == (3 * e["r"] - 2, 3 * e["r"]) for e in entries)


def test_bounds_without_seed_is_inconclusive():
    code, report, _ = cli_json(
        "zcl", "builtin:stanley-p3", "--r", "3", "--method", "bounds", "--max-dim", "8"
    )
    assert code == EXIT_INCONCLUSIVE
    assert report["result"]["value"] is None


def test_analyze_non_arithmetic_is_inconclusive_exit():
    code, report, _ = cli_json("analyze", "--seq", "0,1,0,1,0")
    assert code == EXIT_INCONCLUSIVE
    assert report["result"]["verdict"] == "not_arithmetic_in_window"


def test_a_double_dash_before_the_algebra_reads_it_as_the_algebra():
    assert cli("check", "--", "builtin:stanley-p3") == cli("check", "builtin:stanley-p3")
    # as in argparse, every token after -- is a positional
    assert cli("cl", "--", "builtin:surface:1", "--json") == (
        EXIT_USAGE, "", "zclkit: error: unrecognized arguments: --json\n"
    )


def test_env_var_sets_ceiling(monkeypatch):
    monkeypatch.setenv("ZCLKIT_MAX_DIM", "100")
    code, _, err = cli("zcl", "builtin:stanley-p3", "--r", "4")
    assert code == EXIT_RESOURCE
    monkeypatch.setenv("ZCLKIT_MAX_DIM", "not-a-number")
    code, _, err = cli("zcl", "builtin:stanley-p3", "--r", "2")
    assert code == EXIT_INVALID
    monkeypatch.setenv("ZCLKIT_MAX_DIM", "0")
    assert cli("check", "builtin:stanley-p3") == (
        EXIT_INVALID, "", "zclkit: error: ZCLKIT_MAX_DIM must be positive\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("zcl", "builtin:stanley-p3", "--r", "3"),
        ("zcl", "builtin:stanley-p3", "--r", "3", "--method", "bounds"),
        ("series", "builtin:stanley-p3", "--rmax", "3"),
        ("witness", "builtin:stanley-p3", "--r", "3"),
        ("check", "builtin:stanley-p3"),
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[4:]),
)
@pytest.mark.parametrize("max_dim", ["0", "-5", "ten"])
def test_max_dim_below_one_is_a_usage_error(argv, max_dim, capsys):
    code, out, err = cli(*argv, "--max-dim", max_dim)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--max-dim" in err
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("zcl", "builtin:stanley-p3", "--r", "1"),
        ("zcl", "builtin:stanley-p3", "--r", "0"),
        ("witness", "builtin:stanley-p3", "--r", "1"),
        ("witness", "builtin:stanley-p3", "--r", "0"),
        ("tensor", "builtin:stanley-p3", "--r", "0", "--out", "unused.json"),
        ("series", "builtin:stanley-p3", "--rmax", "0"),
        ("series", "builtin:stanley-p3", "--rmax", "2"),
        ("series", "builtin:stanley-p3", "--rmax", "3", "--min-run", "0"),
        ("analyze", "--seq", "1,2,3,4", "--min-run", "1"),
        ("analyze", "--seq", "1,2,3,4", "--offset", "-1"),
    ],
    ids=" ".join,
)
def test_out_of_range_arguments_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = cli(*argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "must be at least" in err
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "unused.json").exists()


ZCL_R3 = ("zcl", "builtin:stanley-p3", "--r", "3")

# each usage error and the one line argparse printed for it
USAGE_ERRORS = [
    (("zcl", "builtin:stanley-p3"),
     "zclkit zcl: error: the following arguments are required: --r"),
    (("frobnicate",),
     "zclkit: error: argument command: invalid choice: 'frobnicate' (choose from "
     "'check', 'cl', 'zcl', 'series', 'witness', 'tensor', 'analyze', 'builtins')"),
    ((), "zclkit: error: the following arguments are required: command"),
    (("zcl", "builtin:stanley-p3", "--r", "x"),
     "zclkit zcl: error: argument --r: invalid int value: 'x'"),
    ((*ZCL_R3, "--method", "fast"),
     "zclkit zcl: error: argument --method: invalid choice: 'fast' "
     "(choose from 'exact', 'bounds')"),
    ((*ZCL_R3, "--bogus"), "zclkit: error: unrecognized arguments: --bogus"),
    ((*ZCL_R3, "extra"), "zclkit: error: unrecognized arguments: extra"),
    (("zcl", "--r", "3"), "zclkit zcl: error: the following arguments are required: algebra"),
    ((*ZCL_R3, "--r"), "zclkit zcl: error: argument --r: expected one argument"),
    ((*ZCL_R3, "--m", "3"),
     "zclkit zcl: error: ambiguous option: --m could match --max-dim, --method"),
    (("analyze", "--seq", "1,2,3,4", "--offset", "-1"),
     "zclkit analyze: error: argument --offset: must be at least 0, got -1"),
]


@pytest.mark.parametrize(
    "argv, line", USAGE_ERRORS, ids=[" ".join(argv) or "nothing" for argv, _ in USAGE_ERRORS]
)
def test_usage_errors_keep_their_wording(argv, line, capsys):
    code, out, err = cli(*argv)
    assert code == EXIT_USAGE
    assert (out, err) == ("", line + "\n")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("zcl", "builtin:stanley-p3", "--r=3", "--meth", "bounds"),
        ("zcl", "--r", "5", "--method=exact", "builtin:stanley-p3", "--r", "3", "--me", "bounds"),
    ],
    ids=["equals-and-prefix", "before-the-positional-last-wins"],
)
def test_options_read_as_before(argv):
    code, report, _ = cli_json(*argv)
    assert code == EXIT_OK
    assert (report["result"]["r"], report["result"]["method"]) == (3, "bounds")
    assert report["command"] == [*argv, "--json"]


@pytest.mark.parametrize(
    "argv", [("--help",), ("-h",), ("zcl", "--help"), ("zcl", "builtin:stanley-p3", "-h")],
    ids=" ".join,
)
def test_help_prints_the_synopsis(argv, capsys):
    code, out, err = cli(*argv)
    assert code == EXIT_OK
    assert (out, err) == (SYNOPSIS, "")
    assert capsys.readouterr() == ("", "")


def test_readme_shows_the_synopsis():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"```\n{SYNOPSIS}```\n" in readme


@pytest.fixture(scope="module")
def stanley_r5_file(tmp_path_factory):
    """The dim-1024 file of ``tensor builtin:stanley-p3 --r 5``."""
    path = tmp_path_factory.mktemp("large") / "stanley-p3-r5.json"
    save_algebra(builtin_algebra("stanley-p3").tensor_power(5), path)
    return path


def test_large_tensor_file_validates_quickly(stanley_r5_file):
    path = stanley_r5_file
    start = time.monotonic()
    alg = validate_algebra(load_presentation(path))
    elapsed = time.monotonic() - start
    assert alg.dim == 1024
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_cup_length_of_a_large_tensor_file_is_quick(stanley_r5_file):
    # the walk's letters are the 15 indecomposables, not the 1023 positive basis elements
    alg = validate_algebra(load_presentation(stanley_r5_file))
    start = time.monotonic()
    res = cup_length(alg)
    elapsed = time.monotonic() - start
    assert res.value == 5
    assert elapsed < 1.0, f"took {elapsed:.1f}s"


# a child's peak resident size over its size once zclkit.cli is imported, in kB
_CHECK_PEAK = """
import io, sys
from zclkit import cli
def status(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(key))
base = status("VmRSS")
code = cli.run(["check", sys.argv[1], "--json"], stdout=io.StringIO(), stderr=sys.stderr)
print(code, status("VmHWM") - base)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's /proc")
def test_check_keeps_neither_the_bytes_nor_the_text_of_a_file_past_its_parse(
        stanley_r5_file, child_env):
    # each is about the size of the file, and each label recurs in many products:
    # kept while the document became a presentation, with a copy of every label
    # per product, the peak grew by more than 8 times the file's size; now by under 6
    proc = subprocess.run([sys.executable, "-c", _CHECK_PEAK, str(stanley_r5_file)],
                          capture_output=True, text=True, env=child_env, timeout=60)
    code, growth_kb = map(int, proc.stdout.split())
    assert code == EXIT_OK, proc.stderr
    size = stanley_r5_file.stat().st_size
    assert growth_kb * 1024 < 7 * size, f"grew by {growth_kb * 1024 / size:.2f} times the file"


def test_builtin_above_the_ceiling_is_refused_before_it_is_built(child_env):
    # surface:100000000 has 2 * 10^8 + 2 basis elements; building or hashing its
    # presentation would run into the address-space cap of the child
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "zclkit.cli", "check", "builtin:surface:100000000"],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == EXIT_RESOURCE, proc.stderr
    assert "resource ceiling" in proc.stderr
    assert elapsed < 2.0, f"took {elapsed:.1f}s"


def test_a_command_out_of_memory_exits_4(child_env, tmp_path):
    # a valid file whose one label is as long as the child's address-space cap:
    # one copy of it does not fit, however many copies the loader keeps
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 64 << 20 if hard == resource.RLIM_INFINITY else min(64 << 20, hard)
    path = tmp_path / "long-label.json"
    with open(path, "w") as file:
        file.write('{"name": "long", "field": {"kind": "rational"}, "basis": [{"label": "')
        for _ in range(cap >> 20):
            file.write("x" * (1 << 20))
        file.write('", "degree": 0}], "products": []}')
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zclkit.cli", "check", str(path)],
            capture_output=True,
            text=True,
            env=child_env,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
    finally:
        path.unlink()
    assert (proc.returncode, proc.stdout) == (EXIT_RESOURCE, ""), proc.stderr
    assert proc.stderr == "zclkit: resource ceiling: out of memory\n"


def test_a_long_series_runs_in_bounded_memory(child_env):
    # each bounds entry stores the seed's letters and the chain, not its r * cl
    # letters: 4000 entries fit a 256 MB address-space cap and a second
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 256 << 20 if hard == resource.RLIM_INFINITY else min(256 << 20, hard)
    argv = ["series", "builtin:stanley-p3", "--rmax", "4000", "--json"]
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "zclkit.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), proc.stderr
    assert elapsed < 1.0, f"took {elapsed:.1f}s"
    entries = json.loads(proc.stdout)["result"]["entries"]
    assert [(e["r"], e["value"]) for e in entries] == [(r, r) for r in range(2, 4002)]


# a typed r past the ceiling: d^r is never formed, whatever the number of its digits
HUGE_R = str(10 ** 41)
CEILINGS = [
    (("zcl", "builtin:surface:1", "--r", "8000"), "dim 4^8000 exceeds the ceiling 4096"),
    (("zcl", "builtin:surface:1", "--r", "3000000"), "dim 4^3000000 exceeds the ceiling 4096"),
    (("zcl", "builtin:surface:1", "--r", HUGE_R), f"dim 4^{HUGE_R} exceeds the ceiling 4096"),
    (("tensor", "builtin:surface:1", "--r", "8000", "--out", "x.json"),
     "dim 4^8000 exceeds the ceiling 4096"),
    (("tensor", "builtin:surface:1", "--r", HUGE_R, "--out", "x.json"),
     f"dim 4^{HUGE_R} exceeds the ceiling 4096"),
    (("witness", "builtin:surface:1", "--r", HUGE_R),
     f"the bounds witness at r = {HUGE_R} has {2 * 10 ** 41 - 2} letters, over the ceiling 4096"),
    # where d^r prints, the message shows it
    (("zcl", "builtin:surface:1", "--r", "7"), "dim 4^7 = 16384 exceeds the ceiling 4096"),
    (("zcl", "builtin:surface:1", "--r", "7000"), f"dim 4^7000 = {4 ** 7000} exceeds the ceiling"),
    # past the ceiling the route yields for ever: the number of series entries is held to it
    (("series", "builtin:point", "--rmax", "3000000"), "rmax 3000000 exceeds the ceiling 4096"),
    (("series", "builtin:point", "--rmax", "4097"), "rmax 4097 exceeds the ceiling 4096"),
]


@pytest.mark.parametrize("argv, message", CEILINGS, ids=[" ".join(a)[:40] for a, _ in CEILINGS])
def test_a_power_past_the_ceiling_is_refused_without_forming_it(argv, message, child_env, tmp_path):
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 256 << 20 if hard == resource.RLIM_INFINITY else min(256 << 20, hard)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "zclkit.cli", *argv],
        capture_output=True, text=True, env=child_env, cwd=tmp_path, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    elapsed = time.monotonic() - start
    assert (proc.returncode, proc.stdout) == (EXIT_RESOURCE, ""), proc.stderr[-300:]
    assert proc.stderr.startswith(f"zclkit: resource ceiling: {message}"), proc.stderr[-300:]
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("raise the ceiling to opt in\n")
    assert elapsed < 1.0, f"took {elapsed:.1f}s"
    assert not list(tmp_path.iterdir())


def test_series_builds_no_letter_so_no_letter_count_refuses_it():
    # from r = 2050 a surface:1 bounds witness has more letters than the ceiling, but
    # only a report that prints them, of zcl or witness, holds their number to it
    code, report, err = cli_json("series", "builtin:surface:1", "--rmax", "3000")
    assert (code, err) == (EXIT_INCONCLUSIVE, "")
    entries = report["result"]["entries"]
    assert len(entries) == 3000
    assert entries[-1] == {"r": 3001, "method": "bounds", "value": None, "lower": 6000, "upper": 6002}
    res = invariants.zcl_bounds(builtin_algebra("surface:1"), 3001)
    assert (res.lower, res.witness.length) == (6000, 6000)


def test_file_above_the_ceiling_is_refused_before_validation(tmp_path, monkeypatch):
    path = tmp_path / "square.json"
    assert cli("tensor", "builtin:stanley-p3", "--r", "2", "--out", str(path))[0] == EXIT_OK
    code, _, err = cli("check", str(path), "--max-dim", "8")
    assert code == EXIT_RESOURCE
    assert "dim 16 exceeds the ceiling 8" in err
    monkeypatch.setenv("ZCLKIT_MAX_DIM", "15")
    assert cli("check", str(path))[0] == EXIT_RESOURCE
    assert cli("check", str(path), "--max-dim", "16")[0] == EXIT_OK


# -- strict integers ---------------------------------------------------------------------

# int() reads each of these; an argument, like a coefficient in a file, is [-]digits in ASCII
LAX_INTEGERS = ["1_0", " 1_0", "+3", "3 ", "٣"]


@pytest.mark.parametrize("text", LAX_INTEGERS)
def test_an_option_takes_only_ascii_digits(text):
    code, out, err = cli("zcl", "builtin:stanley-p3", "--r", text)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"zclkit zcl: error: argument --r: invalid int value: {text!r}\n"


@pytest.mark.parametrize("seq", ["1_0,2_0,3_0,4_0,5_0", "٣,+4, 5 ,6"])
def test_seq_takes_only_ascii_digits(seq):
    code, out, err = cli("analyze", "--seq", seq)
    assert (code, out) == (EXIT_INVALID, "")
    assert err == f"zclkit: error: --seq must be comma-separated integers, got {seq!r}\n"


@pytest.mark.parametrize("param", ["+1", "1_0", " 2", "٢"])
def test_a_builtin_parameter_takes_only_ascii_digits(param):
    name = f"surface:{param}"
    code, out, err = cli("check", f"builtin:{name}")
    assert (code, out) == (EXIT_INVALID, "")
    assert err == f"zclkit: error: builtin parameter in {name!r} must be an integer\n"


@pytest.mark.parametrize("raw", ["4_096", " 4096", "+4096"])
def test_max_dim_variable_takes_only_ascii_digits(raw, monkeypatch):
    monkeypatch.setenv("ZCLKIT_MAX_DIM", raw)
    code, out, err = cli("check", "builtin:stanley-p3")
    assert (code, out) == (EXIT_INVALID, "")
    assert err == f"zclkit: error: ZCLKIT_MAX_DIM must be an integer, got {raw!r}\n"


# -- the process: main() ends it once the report is flushed --------------------------------


def _main(env, argv, cwd=None, **streams):
    """A child running ``python -m zclkit.cli argv``; output is captured unless redirected."""
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run(
        [sys.executable, "-m", "zclkit.cli", *argv],
        env=env, cwd=cwd, timeout=120, text=True, **streams,
    )


# one command per exit status; the tensor file is written relative to the working directory
EXITS = [
    (("builtins", "--json"), EXIT_OK),
    (("zcl", "builtin:stanley-p3", "--method", "bounds", "--r", "8"), EXIT_OK),
    (("tensor", "builtin:stanley-p3", "--r", "3", "--out", "cube.json", "--json"), EXIT_OK),
    (("--help",), EXIT_OK),
    (("check", "no-such-file.json"), EXIT_INVALID),
    (("analyze", "--seq", "1_0,2_0"), EXIT_INVALID),
    (("zcl", "builtin:surface:1", "--method", "bounds", "--r", "20", "--json"), EXIT_INCONCLUSIVE),
    (("zcl", "builtin:stanley-p3"), EXIT_USAGE),
    (("tensor", "builtin:surface:1", "--r", "7", "--out", "t7.json"), EXIT_RESOURCE),
]


@pytest.mark.parametrize("argv, status", EXITS, ids=[" ".join(argv) for argv, _ in EXITS])
def test_a_child_matches_run_byte_for_byte(argv, status, child_env, tmp_path, monkeypatch):
    (tmp_path / "child").mkdir()
    proc = _main(child_env, argv, cwd=tmp_path / "child")
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    monkeypatch.delenv("ZCLKIT_MAX_DIM", raising=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, *cli(*argv)[1:])
    written = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert sorted(p.name for p in (tmp_path / "child").iterdir()) == written
    for name in written:
        assert (tmp_path / "child" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


ATEXIT_CHILD = """\
import atexit, sys
atexit.register(lambda: sys.stderr.write("atexit ran\\n"))
from zclkit.cli import main
main()
"""


def test_main_skips_teardown_yet_flushes_the_report(child_env):
    argv = ["zcl", "builtin:stanley-p3", "--method", "bounds", "--r", "8", "--json"]
    proc = subprocess.run(
        [sys.executable, "-c", ATEXIT_CHILD, *argv],
        capture_output=True, text=True, env=child_env, timeout=120,
    )
    code, out, _ = cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
    assert len(out.encode()) < 8192  # held in the stream's buffer until main() flushes it


def test_an_exception_in_run_still_ends_in_a_traceback(child_env):
    child = "import zclkit.cli as cli\ncli.run = lambda: 1 / 0\ncli.main()\n"
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=child_env, timeout=60
    )
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "ZeroDivisionError" in proc.stderr


def _one_error_line(proc, start):
    assert proc.returncode == EXIT_INVALID
    assert proc.stderr.startswith(f"zclkit: error: {start}"), proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_an_out_file_that_cannot_be_written_is_one_line(child_env):
    argv = ["tensor", "builtin:stanley-p3", "--r", "2", "--out", "/nonexistent/x.json"]
    proc = _main(child_env, argv)
    assert proc.stdout == ""
    _one_error_line(proc, "cannot write /nonexistent/x.json: ")
    assert (proc.returncode, proc.stdout, proc.stderr) == cli(*argv)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's /proc")
def test_an_algebra_file_that_cannot_be_read_is_one_line(child_env):
    # a regular file whose read fails: the child's own memory at address 0
    proc = _main(child_env, ["check", "/proc/self/mem"])
    assert proc.stdout == ""
    _one_error_line(proc, "cannot read /proc/self/mem: ")


@pytest.mark.skipif(os.geteuid() == 0, reason="root reads a file of mode 000")
def test_an_algebra_file_without_read_permission_is_one_line(child_env, tmp_path):
    path = tmp_path / "locked.json"
    path.write_text("{}")
    path.chmod(0)
    proc = _main(child_env, ["check", str(path)])
    assert proc.stdout == ""
    _one_error_line(proc, f"cannot read {path}: ")


# a report short enough that only main()'s flush writes it, and one that run() writes:
# past the 8 kB buffer of stdout (16 kB, with 400 letters of about 40 bytes each)
REPORTS = [
    ("builtins", "--json"),
    ("zcl", "builtin:stanley-p3", "--method", "bounds", "--r", "400", "--json"),
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs Linux's /dev/full")
@pytest.mark.parametrize("argv", REPORTS, ids=["flushed-by-main", "written-by-run"])
def test_a_full_stdout_is_one_line(child_env, argv):
    with open("/dev/full", "w") as full:
        proc = _main(child_env, argv, stdout=full)
    _one_error_line(proc, "cannot write the report: [Errno 28] ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs Linux's /dev/full")
def test_with_stdout_and_stderr_full_only_the_status_is_left(child_env):
    with open("/dev/full", "w") as full:
        proc = _main(child_env, ["builtins"], stdout=full, stderr=full)
    assert proc.returncode == EXIT_INVALID


@pytest.mark.parametrize("argv", REPORTS, ids=["flushed-by-main", "written-by-run"])
def test_a_closed_pipe_is_one_line(child_env, argv):
    read, write = os.pipe()
    os.close(read)  # no reader: every write to the pipe fails with EPIPE
    try:
        proc = _main(child_env, argv, stdout=write)
    finally:
        os.close(write)
    _one_error_line(proc, "cannot write the report: [Errno 32] ")
