"""What each command loads in a fresh interpreter: the start-up footprint.

Every CLI call starts a new interpreter, so the modules a command imports
are part of its cost.  Each check here runs one command in a child and
reads which modules it added to ``sys.modules``; this, not a timing gate,
keeps the lazy imports from regressing.
"""

import json
import subprocess
import sys

import pytest

CHILD = """\
import io, json, sys
before = set(sys.modules)
if sys.argv[1:]:
    from zclkit.cli import run
    code = run(sys.argv[1:], stdout=io.StringIO())
else:
    import zclkit
    code = 0
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

HEAVY = {"zclkit.invariants", "zclkit.pipeline", "zclkit.series"}

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


@pytest.fixture
def loaded(child_env):
    """The modules a child adds by running a command (none given: ``import zclkit``)."""

    def run(*argv) -> set:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, *argv],
            capture_output=True,
            text=True,
            env=child_env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout)
        assert code == 0, argv
        return set(modules)

    return run


def test_import_zclkit_loads_no_submodule(loaded):
    modules = loaded()
    assert "zclkit" in modules
    assert [m for m in modules if m.startswith("zclkit.")] == []
    assert "dataclasses" not in modules


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_no_command_loads_dataclasses(loaded, argv):
    assert "dataclasses" not in loaded(*argv)


def test_tensor_and_check_load_no_invariant_module(loaded, tmp_path):
    path = str(tmp_path / "square.json")
    for argv in (("tensor", "builtin:stanley-p3", "--r", "2", "--out", path), ("check", path)):
        modules = loaded(*argv, "--json")
        assert not modules & HEAVY, argv
        assert "dataclasses" not in modules, argv
