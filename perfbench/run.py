#!/usr/bin/env python3
"""Benchmark of real zclkit CLI runs, end to end and per layer.

    python3 perfbench/run.py --workload exact-files --seed 1 --seconds 50 --trace 0

Run from the root of a zclkit source tree; ``src/`` is put on the path, so
nothing needs installing.  A run repeats whole passes of its workload's
operations until ``--seconds`` have gone by; the seed fixes the order of
the operations within each pass.  Every output is checked against values
derived in ``checks.py``, apart from the program.

``--trace 0`` runs each operation as ``python -m zclkit.cli ...`` in its own
child process (a closed loop: one operation at a time) and reports the
end-to-end metrics.  The machine's speed swings by up to 2x within seconds
and within minutes, so every operation follows a run of a fixed pure-Python
reference program in its own child process.  The time metrics are the
operations' wall time a pass divided by the reference program's mean wall
time: wall time in units of the reference, which the swings move alike.  ``--trace 1`` calls
``zclkit.cli.run`` in this process instead, alternating untraced passes with
passes traced by ``layers.py``, and reports the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import checks
from layers import UNITS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 15
DEADLINE_S = 170.0  # a run ends within 180 s; an operation still going then is killed


@dataclass(frozen=True)
class Op:
    group: str  # "fp" (stanley-p3, over F_3) or "q" (surfaces, over Q)
    label: str  # the finer per-command time it adds to, printed beside the metrics
    argv: tuple  # CLI arguments; "{tmp}" stands for the run's temporary directory
    check: Callable[[dict, Path], list]  # (report, temporary directory) -> problems

    def args(self, tmp: Path) -> list:
        return [a.replace("{tmp}", str(tmp)) for a in self.argv]


# -- workloads ----------------------------------------------------------------------------


def _series(name: str, rmax: int) -> Op:
    """``series`` up to r = rmax + 1; ``--min-run 2`` lets three values certify P."""
    b = checks.base(name)
    group = "fp" if name == "stanley-p3" else "q"
    return Op(
        group,
        f"series_{group}_s",
        ("series", f"builtin:{name}", "--rmax", str(rmax), "--min-run", "2", "--json"),
        lambda rep, tmp: checks.check_series(rep, b, rmax),
    )


def _bounds(r: int) -> Op:
    b = checks.base("stanley-p3")
    return Op(
        "fp",
        "bounds_fp_s",
        ("zcl", "builtin:stanley-p3", "--method", "bounds", "--r", str(r), "--json"),
        lambda rep, tmp: checks.check_zcl_bounds(rep, b, r),
    )


def _witness(name: str, r: int) -> Op:
    b = checks.base(name)
    return Op(
        "q",
        "witness_q_s",
        ("witness", f"builtin:{name}", "--r", str(r), "--json"),
        lambda rep, tmp: checks.check_witness(rep, b, r),
    )


def _roundtrip(name: str, r: int) -> tuple:
    """A ``tensor`` op writing the r-th power and a ``check`` op reading it back."""
    b = checks.base(name)
    shape = checks.tensor_shape(b, r)
    fname = f"{name.replace(':', '-')}-r{r}.json"
    group = "fp" if name == "stanley-p3" else "q"

    def check_write(rep, tmp):
        path = tmp / fname
        problems = checks.check_tensor_report(rep, b, r, str(path))
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return problems + [f"cannot read {path.name}: {exc}"]
        return problems + checks.check_tensor_file(doc, b, r, shape)

    write = Op(group, "tensor_write_s", ("tensor", f"builtin:{name}", "--r", str(r),
                       "--out", f"{{tmp}}/{fname}", "--json"), check_write)
    read = Op(group, "check_s", ("check", f"{{tmp}}/{fname}", "--json"),
              lambda rep, tmp: checks.check_check(rep, b, r, shape))
    return write, read


def workload(name: str) -> tuple:
    """(builtins used, phases); a pass runs each phase's ops in a seeded order."""
    if name == "exact-files":
        pairs = [_roundtrip("stanley-p3", 3), _roundtrip("surface:1", 3),
                 _roundtrip("surface:2", 2)]
        series = [_series("stanley-p3", 3), _series("surface:1", 3)]
        return ("stanley-p3", "surface:1", "surface:2"), [series + [w for w, _ in pairs],
                                                          [c for _, c in pairs]]
    if name == "bounds-deep":
        return ("stanley-p3", "surface:1"), [[_bounds(8), _bounds(9), _witness("surface:1", 7)]]
    raise KeyError(name)


WORKLOADS = ("exact-files", "bounds-deep")


def pass_order(phases: list, rng: random.Random) -> list:
    order = []
    for phase in phases:
        ops = list(phase)
        rng.shuffle(ops)
        order += ops
    return order


# -- child processes -------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ZCLKIT_MAX_DIM", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Child(NamedTuple):
    code: int
    wall: float  # seconds from start to exit
    cpu: float  # user + system seconds
    rss_mb: float  # peak resident set size
    stdout: str


def run_child(argv: list, tmp: Path, timeout: float) -> Child:
    """Run one child process to its end, killing it after ``timeout`` seconds.

    Peak RSS and CPU time come from the child's own rusage via ``os.wait4``,
    not from RUSAGE_CHILDREN, which keeps the maximum over every earlier child.
    """
    with tempfile.TemporaryFile(dir=tmp) as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        lock = threading.Lock()
        exited = False

        def kill():
            with lock:
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                exited = True
        finally:
            timer.cancel()
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        timer.join()
        out.seek(0)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, out.read().decode("utf-8", "replace"))


# The reference program: dict updates on tuple keys and Gaussian elimination
# mod a prime, the kind of work zclkit does, written without zclkit so that
# no change to the program moves it.  0.1 to 0.18 s on a 2-vCPU Xeon guest.
REF_CODE = """\
d = {}
for i in range(150000):
    k = (i % 257, i % 31)
    d[k] = (d.get(k, 0) * 3 + i) % 65537
p, n = 101, 60
rows = [[(i * j + 1) % p for j in range(n)] for i in range(n)]
for c in range(n):
    piv = next((r for r in range(c, n) if rows[r][c]), None)
    if piv is None:
        continue
    rows[c], rows[piv] = rows[piv], rows[c]
    inv = pow(rows[c][c], p - 2, p)
    for r in range(n):
        if r != c and rows[r][c]:
            f = rows[r][c] * inv % p
            rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[c])]
"""

SETUP_CODE = """\
import io, sys
import zclkit.cli
for name in sys.argv[1:]:
    if zclkit.cli.run(["check", "builtin:" + name, "--json"], stdout=io.StringIO()) != 0:
        sys.exit(1)
"""

IMPORT_CODE = """\
import time
t = time.perf_counter()
import zclkit.cli
print(time.perf_counter() - t)
"""


def run_fixed(what: str, argv: list, tmp: Path, deadline: float) -> float:
    """Wall time of a child that is not a zclkit operation; it must exit 0."""
    child = run_child(argv, tmp, deadline - time.perf_counter())
    if child.code != 0:
        raise RuntimeError(f"{what} child exited {child.code}")
    return child.wall


# -- one run -----------------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed; ``wrong`` lists the outputs that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def record(self, op: Op, tmp: Path, code, stdout: str) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"  FAILED with {code}: {' '.join(op.argv)}", flush=True)
            return
        try:
            problems = op.check(json.loads(stdout), tmp)
        except (ValueError, TypeError, AttributeError, KeyError) as exc:  # malformed output
            problems = [f"unreadable report: {exc}"]
        if problems:
            self.failed += 1
            self.wrong.append(f"{' '.join(op.argv)}: {'; '.join(problems)}")


def untraced_run(name: str, seed: int, seconds: float, tmp: Path, tally: Tally) -> dict:
    """Each pass runs set-up once, then each operation after a run of the reference program."""
    builtins, phases = workload(name)
    deadline = time.perf_counter() + DEADLINE_S
    setup_argv = [sys.executable, "-c", SETUP_CODE, *builtins]
    run_fixed("setup", setup_argv, tmp, deadline)  # unmeasured: fills the bytecode cache
    rng = random.Random(seed)
    setups = []
    walls = {}  # group or per-command label -> wall seconds over the run
    refs = []  # wall seconds of each reference run
    rss = []  # per pass, the highest peak RSS of its operations
    start = time.perf_counter()
    while True:
        top = 0.0
        setups.append(run_fixed("setup", setup_argv, tmp, deadline))
        for op in pass_order(phases, rng):
            refs.append(run_fixed("reference", [sys.executable, "-c", REF_CODE], tmp, deadline))
            argv = [sys.executable, "-m", "zclkit.cli", *op.args(tmp)]
            child = run_child(argv, tmp, deadline - time.perf_counter())
            tally.record(op, tmp, child.code, child.stdout)
            for key in (op.group, op.label):
                walls[key] = walls.get(key, 0.0) + child.wall
            top = max(top, child.rss_mb)
            print(f"  {child.wall:8.3f} s wall {child.cpu:8.3f} s cpu {child.rss_mb:8.1f} MB"
                  f"  exit {child.code}  {' '.join(op.argv)}", flush=True)
        rss.append(top)
        if time.perf_counter() - start >= seconds:
            break
    ref = statistics.mean(refs)
    per_pass = {key: wall / len(rss) for key, wall in walls.items()}
    print(f"  reference: {ref:.6g} s, mean of {len(refs)} runs")
    for key in sorted(per_pass):
        print(f"  {key}: {per_pass[key]:.6g} s = {per_pass[key] / ref:.6g} ref a pass"
              f" (mean of {len(rss)} passes)")
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "fp_ref": {"value": per_pass["fp"] / ref, "unit": "ref"},
        "q_ref": {"value": per_pass["q"] / ref, "unit": "ref"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def traced_run(name: str, seed: int, seconds: float, tmp: Path, tally: Tally) -> dict:
    """Alternate untraced and traced in-process passes; report per-layer medians.

    Counts repeat exactly from pass to pass, so the lower median keeps them whole.
    """
    _, phases = workload(name)
    deadline = time.perf_counter() + DEADLINE_S
    imports = []
    for _ in range(SETUP_REPS):
        child = run_child([sys.executable, "-c", IMPORT_CODE], tmp,
                          deadline - time.perf_counter())
        if child.code != 0:
            raise RuntimeError(f"import child exited {child.code}")
        imports.append(float(child.stdout))
    sys.path.insert(0, str(SRC))
    os.environ.pop("ZCLKIT_MAX_DIM", None)
    import zclkit.cli

    tracer = Tracer()
    rng = random.Random(seed)
    plain, traced, layers = [], [], []

    def one_pass() -> float:
        start = time.perf_counter()
        for op in pass_order(phases, rng):
            out = io.StringIO()
            try:
                code = zclkit.cli.run(op.args(tmp), stdout=out, stderr=io.StringIO())
            except Exception as exc:  # an operation that raises counts as failed
                code = f"exception {exc!r}"
            tally.record(op, tmp, code, out.getvalue())
        return time.perf_counter() - start

    start = time.perf_counter()
    while True:
        plain.append(one_pass())
        tracer.reset()
        tracer.install()
        try:
            traced.append(one_pass())
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics())
        print(f"  pass: untraced {plain[-1]:.3f} s, traced {traced[-1]:.3f} s", flush=True)
        if time.perf_counter() - start >= seconds:
            break
    for parent, span, calls, total in tracer.span_table():
        print(f"  span {span:28s} under {parent:28s} {calls:7d} calls {total:10.4f} s")
    if tracer.absent:
        print("  absent: " + ", ".join(tracer.absent))
    values = {key: statistics.median_low(m[key] for m in layers) for key in layers[0]}
    values["cli.import_s"] = statistics.median(imports)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {key: {"value": values[key], "unit": unit} for key, unit in UNITS.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = traced_run if trace else untraced_run
        metrics = runner(name, seed, seconds, Path(tmp), tally)
    for problem in tally.wrong:
        print(f"  WRONG {problem}", flush=True)
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zclkit" / "cli.py").is_file():
        print(f"perfbench: no zclkit source tree at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        print(f"workload {name} (seed {args.seed}, trace {args.trace})", flush=True)
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        res = results[name]
        print(f"  attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for key, m in res["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
