"""Self-test of the benchmark's output checks.

    python3 -m unittest discover -s perfbench

Each check passes a correct report and fails once any single value in it
is falsified.  Correct reports are built here from the expected values in
``checks.py``, and small real CLI runs confirm the checks accept zclkit's
actual output format.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _report(result: dict) -> dict:
    return {"command": [], "input": None, "result": result, "warnings": [], "status": 0}


def good_series(b: checks.Base, rmax: int) -> dict:
    values = [b.zcl(r) for r in range(2, rmax + 2)]
    return _report({
        "kind": "series", "name": b.name, "rmax": rmax, "cl": b.cl,
        "entries": [{"r": r, "method": "exact", "value": v, "lower": v, "upper": r * b.cl}
                    for r, v in zip(range(2, rmax + 2), values)],
        "sequence": {"offset": 1, "values": values},
        "analysis": {"verdict": "rational_form_detected", "p_coeffs": list(b.P),
                     "p_at_one": sum(b.P)},
        "p_at_one_equals_cl": sum(b.P) == b.cl,
        "certified": True,
    })


def _good_witness(r: int, length: int) -> dict:
    return {"r": r, "length": length, "factors": ["f"] * length, "verified": True,
            "problems": []}


def good_zcl(b: checks.Base, r: int) -> dict:
    v = b.zcl(r)
    return _report({"kind": "zcl", "name": b.name, "r": r, "method": "bounds", "value": v,
                    "lower": v, "upper": r * b.cl, "witness": _good_witness(r, v)})


def good_witness(b: checks.Base, r: int) -> dict:
    v = b.zcl(r)
    return _report({"kind": "witness", "name": b.name, "r": r, "length": v,
                    "witness": _good_witness(r, v)})


def good_file(b: checks.Base, r: int, shape: checks.TensorShape) -> dict:
    fmt = (lambda c: str(c % b.p)) if b.p else str
    return {
        "name": f"{b.name}^tensor{r}",
        "field": {"kind": "prime", "p": b.p} if b.p else {"kind": "rational"},
        "basis": [{"label": lbl, "degree": deg} for lbl, deg in zip(shape.labels, shape.degrees)],
        "products": [
            {"left": shape.labels[u], "right": shape.labels[v],
             "value": [{"coeff": fmt(c), "basis": shape.labels[k]}]}
            for (u, v), (c, k) in sorted(shape.products.items())
        ],
    }


def good_check(b: checks.Base, r: int, shape: checks.TensorShape) -> dict:
    return _report({"kind": "check", "name": "x", "dim": b.dim ** r,
                    "degrees": list(shape.degrees), "valid": True})


def leaves(doc, path=()):
    """Every (path, value) of a JSON document's scalar leaves."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from leaves(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from leaves(v, path + (i,))
    else:
        yield path, doc


def falsified(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return str(int(value) + 1) if value.lstrip("-").isdigit() else value + "x"
    return 0  # None


def replace(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


# report fields no check reads: echo, input, free text and the report name
UNCHECKED = {"command", "input", "warnings", "factors", "product", "projection_checked",
             "stabilization_index", "a", "d", "p_text", "window_used"}


class FalsifiedValuesFail(unittest.TestCase):
    def assert_each_leaf_matters(self, good, check, skip=()):
        self.assertEqual(check(good), [])
        tried = 0
        for path, value in leaves(good):
            if UNCHECKED & set(map(str, path)) or path[-1] in skip:
                continue
            tried += 1
            with self.subTest(path=path):
                self.assertNotEqual(check(replace(good, path, falsified(value))), [])
        self.assertGreater(tried, 3)

    def test_series(self):
        for name, rmax in (("stanley-p3", 3), ("surface:1", 3)):
            b = checks.base(name)
            self.assert_each_leaf_matters(
                good_series(b, rmax), lambda rep: checks.check_series(rep, b, rmax))

    def test_zcl_bounds(self):
        b = checks.base("stanley-p3")
        for r in (8, 9):
            self.assert_each_leaf_matters(good_zcl(b, r), lambda rep: checks.check_zcl_bounds(rep, b, r))

    def test_witness(self):
        b = checks.base("surface:1")
        self.assertEqual(b.zcl(7), 12)
        self.assert_each_leaf_matters(good_witness(b, 7), lambda rep: checks.check_witness(rep, b, 7))

    def test_check(self):
        for name, r in (("stanley-p3", 3), ("surface:1", 3), ("surface:2", 2)):
            b = checks.base(name)
            shape = checks.tensor_shape(b, r)
            self.assert_each_leaf_matters(
                good_check(b, r, shape), lambda rep: checks.check_check(rep, b, r, shape),
                skip={"name"})

    def test_tensor_report(self):
        b = checks.base("surface:1")
        good = _report({"kind": "tensor", "name": "x", "r": 3, "dim": 64, "out": "F"})
        self.assert_each_leaf_matters(
            good, lambda rep: checks.check_tensor_report(rep, b, 3, "F"), skip={"name"})

    def test_product_counts(self):
        """(n^r - 2 d^r + 1)/2 from the definition: 108, 301 and 77, and at larger r 945, 3025 and 1472."""
        for name, r, want in (("stanley-p3", 3, 108), ("surface:1", 3, 301), ("surface:2", 2, 77),
                              ("stanley-p3", 4, 945), ("surface:1", 4, 3025), ("surface:2", 3, 1472)):
            b = checks.base(name)
            shape = checks.tensor_shape(b, r)
            self.assertEqual(checks.expected_product_count(shape, b.dim, r), want)
            self.assertEqual(len(shape.products), want)

    def test_tensor_file(self):
        for name, r in (("stanley-p3", 2), ("surface:1", 3), ("surface:2", 2)):
            b = checks.base(name)
            shape = checks.tensor_shape(b, r)
            good = good_file(b, r, shape)
            check = lambda doc: checks.check_tensor_file(doc, b, r, shape)  # noqa: E731
            self.assertEqual(check(good), [])
            for path, value in leaves(good):
                if path[0] == "name":
                    continue
                with self.subTest(name=name, path=path):
                    self.assertNotEqual(check(replace(good, path, falsified(value))), [])
            missing = copy.deepcopy(good)
            missing["products"].pop()
            self.assertNotEqual(check(missing), [])

    def test_sign_of_tensor_products(self):
        """(1 x b)(a x 1) = -(a x b) for odd a, b: the Koszul sign in the definition."""
        b = checks.base("surface:1")
        shape = checks.tensor_shape(b, 2)
        index = {lbl: i for i, lbl in enumerate(shape.labels)}
        u, v = index["1⊗b1"], index["a1⊗1"]
        self.assertEqual(shape.products[(min(u, v), max(u, v))], (-1, index["a1⊗b1"]))


class FalsifiedExpectationFailsTheRun(unittest.TestCase):
    """A wrong expected value turns a correct report into a failed operation."""

    def test_each_expected_value(self):
        import run

        b = checks.base("stanley-p3")
        report = json.dumps(good_series(b, 3))
        op = run._series("stanley-p3", 3)
        tally = run.Tally()
        tally.record(op, ROOT, 0, report)
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (1, 0, []))
        for field, value in (("cl", 2), ("zcl", lambda r: r + 1), ("P", (0, 2, -2))):
            wrong = dataclasses.replace(b, **{field: value})
            bad = dataclasses.replace(
                op, check=lambda rep, tmp, wrong=wrong: checks.check_series(rep, wrong, 3))
            before = tally.failed
            tally.record(bad, ROOT, 0, report)
            with self.subTest(field=field):
                self.assertEqual(tally.failed, before + 1)
        self.assertEqual(len(tally.wrong), 3)

    def test_nonzero_exit_fails(self):
        import run

        tally = run.Tally()
        tally.record(run._bounds(8), ROOT, 2, "")
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (1, 1, []))


def import_cli():
    if not (SRC / "zclkit").is_dir():
        raise unittest.SkipTest("no zclkit source tree")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import zclkit.cli

    return zclkit.cli


class RealOutputPasses(unittest.TestCase):
    """Small real runs of the CLI pass the same checks."""

    @classmethod
    def setUpClass(cls):
        cls.cli = import_cli()

    def run_cli(self, *argv) -> dict:
        out = io.StringIO()
        self.assertEqual(self.cli.run(list(argv), stdout=out, stderr=io.StringIO()), 0)
        return json.loads(out.getvalue())

    def test_series(self):
        for name in ("stanley-p3", "surface:1"):
            rep = self.run_cli("series", f"builtin:{name}", "--rmax", "3", "--min-run", "2", "--json")
            self.assertEqual(checks.check_series(rep, checks.base(name), 3), [])

    def test_bounds_and_witness(self):
        rep = self.run_cli("zcl", "builtin:stanley-p3", "--method", "bounds", "--r", "5", "--json")
        self.assertEqual(checks.check_zcl_bounds(rep, checks.base("stanley-p3"), 5), [])
        rep = self.run_cli("witness", "builtin:surface:1", "--r", "5", "--json")
        self.assertEqual(checks.check_witness(rep, checks.base("surface:1"), 5), [])

    def test_tensor_round_trip(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            for name, r in (("stanley-p3", 2), ("surface:1", 3), ("surface:2", 2)):
                b = checks.base(name)
                shape = checks.tensor_shape(b, r)
                path = str(Path(tmp) / "t.json")
                rep = self.run_cli("tensor", f"builtin:{name}", "--r", str(r), "--out", path, "--json")
                self.assertEqual(checks.check_tensor_report(rep, b, r, path), [])
                doc = json.loads(Path(path).read_text(encoding="utf-8"))
                self.assertEqual(checks.check_tensor_file(doc, b, r, shape), [])
                rep = self.run_cli("check", path, "--json")
                self.assertEqual(checks.check_check(rep, b, r, shape), [])


class TracedRun(unittest.TestCase):
    """The tracer's spans and counters on a small in-process run."""

    @classmethod
    def setUpClass(cls):
        cls.cli = import_cli()

    def traced(self, *argv):
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            self.assertEqual(self.cli.run(list(argv), stdout=io.StringIO()), 0)
        finally:
            tracer.uninstall()
        return tracer

    def test_series_counts(self):
        tracer = self.traced("series", "builtin:stanley-p3", "--rmax", "3", "--min-run", "2")
        m = tracer.layer_metrics()
        self.assertEqual(tracer.absent, [])
        self.assertEqual(m["invariants.cup_length_calls"], 4)  # once, then once per r = 2..4
        self.assertEqual(m["invariants.kernel_dim"], (16 - 4) + (64 - 4) + (256 - 4))
        self.assertEqual(m["invariants.witness_extend_calls"], 0)
        self.assertGreater(m["linalg.products_formed"], 0)
        self.assertGreater(m["algebra.product_items_calls"], m["linalg.products_formed"])
        for name in ("invariants.ideal_powers", "linalg.subspace_product"):
            self.assertLessEqual(tracer.self_time[name], tracer.total[name])
        self.assertFalse(hasattr(self.cli.cup_length, "__wrapped__"))  # uninstalled

    def test_removed_function_is_absent(self):
        import zclkit.algebra

        saved = zclkit.algebra.mu_matrix
        del zclkit.algebra.mu_matrix
        try:
            tracer = self.traced("zcl", "builtin:stanley-p3", "--r", "2")
        finally:
            zclkit.algebra.mu_matrix = saved
        self.assertEqual(tracer.absent, ["zclkit.algebra.mu_matrix"])
        self.assertEqual(tracer.layer_metrics()["invariants.kernel_dim"], 12)


if __name__ == "__main__":
    unittest.main()
