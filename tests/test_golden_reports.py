"""The builtin ``--json`` reports stay byte-identical across refactors.

``tests/golden/builtin_reports.json`` holds the exit status and exact
stdout of each command below.  Regenerate it only when a change alters
reports on purpose, by running this file as a script::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import io
import json
from pathlib import Path

import pytest

from zclkit.cli import run

GOLDEN = Path(__file__).parent / "golden" / "builtin_reports.json"

INSTANCES = (
    "point",
    "stanley-p3",
    "sphere-odd:1",
    "sphere-odd:3",
    "sphere-even:2",
    "surface:1",
    "surface:2",
)


def _commands() -> list:
    cmds = []
    for name in INSTANCES:
        spec = f"builtin:{name}"
        cmds += [
            ["check", spec],
            ["cl", spec],
            ["zcl", spec, "--r", "2"],
            ["zcl", spec, "--r", "3"],
            ["witness", spec, "--r", "3"],
        ]
    for name in ("stanley-p3", "surface:1"):
        cmds.append(["series", f"builtin:{name}", "--rmax", "3", "--min-run", "2"])
    for name in ("stanley-p3", "surface:1"):
        cmds.append(["zcl", f"builtin:{name}", "--method", "bounds", "--r", "7"])
    return [cmd + ["--json"] for cmd in cmds]


def _report(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    status = run(argv, stdout=out, stderr=err)
    return {"argv": argv, "status": status, "stdout": out.getvalue()}


def test_golden_covers_the_command_list():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["argv"] for g in golden] == _commands()


@pytest.mark.parametrize("index", range(len(_commands())))
def test_report_is_byte_identical_to_the_golden_copy(index):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[index]
    assert _report(golden["argv"]) == golden


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    reports = [_report(argv) for argv in _commands()]
    GOLDEN.write_text(json.dumps(reports, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
