"""What each command loads in a fresh interpreter: the start-up footprint.

Every CLI call starts a new interpreter, so the modules a command imports
are part of its cost.  Each check here runs one command in a child and
reads which modules it added to ``sys.modules``; this, not a timing gate,
keeps the lazy imports from regressing.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "builtin_reports.json"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zclkit"

# json is imported only after the modules are listed, so a command's own import shows
CHILD = """\
import io, sys
before = set(sys.modules)
out = io.StringIO()
if sys.argv[1:]:
    from zclkit.cli import run
    code = run(sys.argv[1:], stdout=out)
else:
    import zclkit
    code = 0
added = sorted(set(sys.modules) - before)
import json
print(json.dumps([code, added, out.getvalue()]))
"""

# a CPython built without its builtin hash modules: the digest comes from hashlib
NO_BUILTIN_SHA256 = 'import sys\nsys.modules["_sha2"] = sys.modules["_sha256"] = None\n'

HEAVY = {"zclkit.invariants", "zclkit.pipeline", "zclkit.series"}
# what only a file is read with, and the witness code: the collapse map, verification
READER = {"zclkit.algfile", "zclkit.reader"}
WITNESS = {"zclkit.invariants", "zclkit.commands.witness_payload"}
# the handler modules each command runs, besides the package itself
HANDLERS = {
    "builtins": {"builtins"},
    "analyze": {"analyze", "analysis_payload"},
    "check": {"check"},
    "cl": {"cl"},
    "zcl": {"zcl", "witness_payload"},
    "series": {"series", "analysis_payload"},
    "witness": {"witness", "witness_payload"},
    "tensor": {"tensor"},
}
# OpenSSL for one digest, Fraction (with decimal) though every scalar is an int,
# argparse, with the gettext and locale it loads, for the command line, and
# pathlib and typing, which os.path, open and TYPE_CHECKING make unneeded
UNUSED = {
    "_hashlib", "hashlib", "fractions", "decimal", "argparse", "gettext", "locale",
    "pathlib", "typing",
}

# the parser and its regexes, which only reading an algebra file needs, and the
# __future__ module, which `from __future__ import annotations` imports at run time
PARSER = {"json", "json.decoder", "json.scanner", "json.encoder", "_json", "__future__"}

COMMANDS = [
    ("builtins",),
    ("analyze", "--seq", "2,3,4,5", "--offset", "1"),
    ("check", "builtin:stanley-p3"),
    ("cl", "builtin:stanley-p3"),
    ("zcl", "builtin:stanley-p3", "--r", "3"),
    ("zcl", "builtin:stanley-p3", "--method", "bounds", "--r", "8"),
    ("series", "builtin:stanley-p3", "--rmax", "3", "--min-run", "2"),
    ("witness", "builtin:stanley-p3", "--r", "3"),
]


def _run_child(env, argv, prelude=""):
    """(exit status, modules added, stdout) of one command run in a fresh child.

    The child runs with -S: a ``site`` that imports modules first, as some
    installations' do, would hide them from the modules the command adds.
    """
    proc = subprocess.run(
        [sys.executable, "-S", "-c", prelude + CHILD, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules, out = json.loads(proc.stdout)
    return code, set(modules), out


@pytest.fixture(scope="module")
def loaded(child_env):
    """The modules a child adds by running a command (none given: ``import zclkit``).

    Each command runs once per module; the tests that read it share the result.
    """
    seen = {}

    def run(*argv) -> set:
        if argv not in seen:
            code, modules, _ = _run_child(child_env, argv)
            assert code == 0, argv
            seen[argv] = modules
        return seen[argv]

    return run


def test_import_zclkit_loads_no_submodule(loaded):
    modules = loaded()
    assert "zclkit" in modules
    assert [m for m in modules if m.startswith("zclkit.")] == []
    assert "dataclasses" not in modules


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_no_command_loads_dataclasses(loaded, argv):
    assert "dataclasses" not in loaded(*argv)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_no_command_loads_openssl_or_fractions(loaded, argv):
    assert not loaded(*argv) & UNUSED


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_only_a_text_report_loads_the_renderer(loaded, argv):
    assert "zclkit.text" not in loaded(*argv, "--json")
    assert "zclkit.text" in loaded(*argv)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_no_command_on_a_builtin_loads_json(loaded, argv):
    assert not loaded(*argv, "--json") & PARSER
    assert not loaded(*argv) & PARSER


def test_only_reading_a_file_loads_json(loaded, tmp_path):
    path = str(tmp_path / "square.json")
    assert not loaded("tensor", "builtin:stanley-p3", "--r", "2", "--out", path, "--json") & PARSER
    modules = loaded("check", path, "--json")
    assert {"json", "json.decoder", "json.scanner"} <= modules
    assert "__future__" not in modules


def test_tensor_and_check_load_no_invariant_module(loaded, tmp_path):
    path = str(tmp_path / "square.json")
    for argv in (
        ("tensor", "builtin:stanley-p3", "--r", "2", "--out", path),
        ("check", path),
        ("tensor", path, "--r", "2", "--out", str(tmp_path / "fourth.json")),
    ):
        modules = loaded(*argv, "--json")
        assert not modules & (HEAVY | WITNESS), argv
        assert "dataclasses" not in modules, argv
        assert not modules & UNUSED, argv
        if argv[1] == path:
            assert "zclkit.catalog" not in modules, argv
            assert "zclkit.reader" in modules, argv
        else:
            assert "zclkit.reader" not in modules, argv
        assert ("zclkit.tensor" in modules) == (argv[0] == "tensor"), argv


@pytest.mark.parametrize("argv", [a for a in COMMANDS if a[0] in ("zcl", "series", "witness")],
                         ids=" ".join)
def test_a_builtin_loads_no_file_reader(loaded, argv):
    assert not loaded(*argv, "--json") & READER


@pytest.mark.parametrize("argv", [("builtins",), ("analyze", "--seq", "2,3,4,5", "--offset", "1")],
                         ids=" ".join)
def test_builtins_and_analyze_load_no_algebra(loaded, argv):
    modules = loaded(*argv, "--json")
    assert not modules & {"zclkit.algebra", "zclkit.fields"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_a_command_loads_only_its_own_handler(loaded, argv):
    handlers = {m.rpartition(".")[2] for m in loaded(*argv, "--json")
                if m.startswith("zclkit.commands.")}
    assert handlers == HANDLERS[argv[0]]


def _imports_cli(tree: ast.Module, package: str) -> bool:
    """Whether a module of ``package`` (its dotted name) imports ``zclkit.cli``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "zclkit.cli" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            parts = parts[:len(parts) - node.level + 1] if node.level else []
            base = ".".join(parts + ([node.module] if node.module else []))
            names = {f"{base}.{alias.name}" for alias in node.names}
            if base == "zclkit.cli" or "zclkit.cli" in names:
                return True
    return False


def test_no_module_imports_the_command_line():
    """Under ``python -m zclkit.cli`` it runs as ``__main__``: an import would compile it twice."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        package = ".".join(parts if path.name == "__init__.py" else parts[:-1])
        if _imports_cli(ast.parse(path.read_text(encoding="utf-8")), package):
            found.append(path.name)
    assert found == []
    # the check itself sees each form of the import
    for text, package in (("from .cli import run", "zclkit"),
                          ("from .. import cli", "zclkit.commands"),
                          ("import zclkit.cli", "zclkit"),
                          ("from zclkit import cli", "zclkit")):
        assert _imports_cli(ast.parse(text), package), text


def test_a_non_integral_coefficient_loads_fractions(loaded, tmp_path):
    doc = {
        "name": "half",
        "field": {"kind": "rational"},
        "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 2},
                  {"label": "y", "degree": 4}],
        "products": [{"left": "x", "right": "x", "value": [{"coeff": "1/2", "basis": "y"}]}],
    }
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert "fractions" in loaded("check", str(path), "--json")


def test_digest_without_the_builtin_sha256_modules(child_env):
    argv = ["check", "builtin:surface:1", "--json"]
    code, modules, out = _run_child(child_env, argv, prelude=NO_BUILTIN_SHA256)
    assert code == 0
    assert "hashlib" in modules
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = next(g for g in golden if g["argv"] == argv)
    assert json.loads(out)["input"]["sha256"] == json.loads(expected["stdout"])["input"]["sha256"]
