"""Command dispatch, exit codes, report shape, and schema conformance."""

import io
import json
import time
from pathlib import Path

import jsonschema
import pytest

from zclkit import builtin_algebra, validate_algebra
from zclkit.algfile import load_presentation, save_algebra
from zclkit.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    run,
)

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
    assert "factor 1:" in out and "product:" in out


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
    assert reloaded.labels == original.labels
    for i in range(original.dim):
        for j in range(original.dim):
            assert reloaded.basis_product(i, j) == original.basis_product(i, j)


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


def test_usage_error_exit_code():
    code, _, err = cli("zcl", "builtin:stanley-p3")  # missing --r
    assert code == EXIT_USAGE
    code, _, _ = cli("frobnicate")
    assert code == EXIT_USAGE


def test_resource_ceiling_exit_code():
    code, _, err = cli("zcl", "builtin:stanley-p3", "--r", "4", "--max-dim", "100")
    assert code == EXIT_RESOURCE
    assert "ceiling" in err


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


def test_env_var_sets_ceiling(monkeypatch):
    monkeypatch.setenv("ZCLKIT_MAX_DIM", "100")
    code, _, err = cli("zcl", "builtin:stanley-p3", "--r", "4")
    assert code == EXIT_RESOURCE
    monkeypatch.setenv("ZCLKIT_MAX_DIM", "not-a-number")
    code, _, err = cli("zcl", "builtin:stanley-p3", "--r", "2")
    assert code == EXIT_INVALID


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
    code, out, _ = cli(*argv, "--max-dim", max_dim)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--max-dim" in capsys.readouterr().err


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
    code, out, _ = cli(*argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "must be at least" in capsys.readouterr().err
    assert not (tmp_path / "unused.json").exists()


def test_large_tensor_file_validates_quickly(tmp_path):
    path = tmp_path / "stanley-p3-r5.json"
    save_algebra(builtin_algebra("stanley-p3").tensor_power(5), path)
    start = time.monotonic()
    alg = validate_algebra(load_presentation(path))
    elapsed = time.monotonic() - start
    assert alg.dim == 1024
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_file_above_the_ceiling_is_refused_before_validation(tmp_path, monkeypatch):
    path = tmp_path / "square.json"
    assert cli("tensor", "builtin:stanley-p3", "--r", "2", "--out", str(path))[0] == EXIT_OK
    code, _, err = cli("check", str(path), "--max-dim", "8")
    assert code == EXIT_RESOURCE
    assert "dim 16 exceeds the ceiling 8" in err
    monkeypatch.setenv("ZCLKIT_MAX_DIM", "15")
    assert cli("check", str(path))[0] == EXIT_RESOURCE
    assert cli("check", str(path), "--max-dim", "16")[0] == EXIT_OK
