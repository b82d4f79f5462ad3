"""Spans around zclkit's layer functions, recorded from outside the package.

:meth:`Tracer.install` replaces each layer function, under every name any zclkit
module bound it to (``from .x import f`` makes a second binding), with a
wrapper that times the call and links it to the span that caused it.  Self
time is a span's duration minus the time its direct child spans cover.
A function that no longer exists is reported in ``Tracer.absent`` and its
metrics read 0, so the benchmark outlives refactors of the package.

``product_items`` runs millions of times per pass, so its spans are folded
into totals per parent span (and per empty or nonempty result) instead of
being kept one by one; it calls no other layer function.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute) of each function recorded under it
LAYERS = {
    "pipeline.series": [("zclkit.pipeline", "series_pipeline")],
    "invariants.zcl_exact": [("zclkit.invariants", "zcl_exact")],
    "invariants.zcl_bounds": [("zclkit.invariants", "zcl_bounds")],
    "algebra.validate": [("zclkit.algebra", "validate_algebra")],
    "algfile.save": [("zclkit.algfile", "save_algebra")],
    "algfile.load": [("zclkit.algfile", "load_presentation")],
    "invariants.cup_length": [("zclkit.invariants", "cup_length")],
    "invariants.mu_matrix": [("zclkit.algebra", "mu_matrix")],
    "invariants.kernel_basis": [("zclkit.linalg", "kernel_basis")],
    "invariants.ideal_powers": [("zclkit.invariants", "ideal_powers")],
    "invariants.greedy_chain": [("zclkit.invariants", "_greedy_chain")],
    "invariants.witness_extend": [("zclkit.invariants", "witness_extend")],
    "invariants.verify_witness": [("zclkit.invariants", "verify_witness")],
    "linalg.subspace_product": [("zclkit.linalg", "subspace_product")],
    "linalg.rref": [("zclkit.linalg", "_sparse_rref"), ("zclkit.linalg", "rref")],
    "algebra.product_items": [("zclkit.algebra", "Algebra.product_items")],
    "series.analyze": [("zclkit.series", "analyze_sequence")],
}
FOLDED = {"algebra.product_items"}

# unit of every per-layer metric, in report order
UNITS = {
    "cli.import_s": "s",
    "algebra.validate_s": "s",
    "algebra.validate_product_calls": "count",
    "algfile.save_s": "s",
    "algfile.bytes_written": "bytes",
    "algfile.load_s": "s",
    "invariants.cup_length_s": "s",
    "invariants.cup_length_calls": "count",
    "invariants.kernel_s": "s",
    "invariants.kernel_dim": "count",
    "invariants.ideal_powers_s": "s",
    "invariants.ideal_levels": "count",
    "invariants.ideal_rows": "count",
    "linalg.subspace_product_s": "s",
    "linalg.products_formed": "count",
    "linalg.rows_unique": "count",
    "linalg.rref_s": "s",
    "linalg.rows_kept_per_product": "ratio",
    "algebra.product_items_s": "s",
    "algebra.product_items_calls": "count",
    "invariants.greedy_chain_s": "s",
    "invariants.witness_extend_s": "s",
    "invariants.witness_extend_calls": "count",
    "invariants.verify_witness_s": "s",
    "series.analyze_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Wraps the layer functions of an imported zclkit and records their spans."""

    def __init__(self):
        self.root = ["-", None, 0.0]
        self.stack = [self.root]  # open spans: [name, span id, child time]
        self.spans = []  # closed spans: (id, parent id, name, start, end)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        # folded spans: (name, parent name, returned something) -> [calls, seconds]
        self.folded = defaultdict(lambda: [0, 0.0])
        self.absent = []
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------------

    def wrap(self, name, fn, on_exit=None):
        stack, total, self_time, calls, spans = (
            self.stack, self.total, self.self_time, self.calls, self.spans)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [name, self._next_id, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                stack.pop()
                parent[2] += dt
                total[name] += dt
                self_time[name] += dt - frame[2]
                calls[name] += 1
                spans.append((frame[1], parent[1], name, start, end))
            if on_exit is not None:
                on_exit(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_folded(self, name, fn):
        """A lean wrapper for a leaf function that runs millions of times per pass."""
        stack, folded = self.stack, self.folded
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            dt = clock() - start
            parent = stack[-1]
            parent[2] += dt
            tally = folded[name, parent[0], bool(result)]
            tally[0] += 1
            tally[1] += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def folded_sum(self, name, parent=None, nonempty=None) -> list:
        """[calls, seconds] of a folded span, optionally only under one parent."""
        out = [0, 0.0]
        for (n, p, ne), (calls, dt) in self.folded.items():
            if n == name and parent in (None, p) and nonempty in (None, ne):
                out[0] += calls
                out[1] += dt
        return out

    # -- counters at the layer boundaries ------------------------------------------

    def _on_rref(self, args, result):
        if self.stack[-1][0] == "linalg.subspace_product":
            self.counts["linalg.rows_unique"] += len(args[0])

    def _on_subspace_product(self, args, result):
        self.counts["linalg.rows_kept"] += result.dim

    def _on_kernel_basis(self, args, result):
        self.counts["invariants.kernel_dim"] += result.dim

    def _on_ideal_powers(self, args, result):
        self.counts["invariants.ideal_levels"] += len(result)
        self.counts["invariants.ideal_rows"] += sum(p.dim for p in result)

    def _on_save(self, args, result):
        self.counts["algfile.bytes_written"] += os.path.getsize(args[1])

    # -- installing and removing wrappers ------------------------------------------

    def install(self) -> None:
        hooks = {
            "linalg.subspace_product": self._on_subspace_product,
            "invariants.kernel_basis": self._on_kernel_basis,
            "invariants.ideal_powers": self._on_ideal_powers,
            "algfile.save": self._on_save,
        }
        self.absent = []
        modules = [m for n, m in sys.modules.items() if n.startswith("zclkit") and m]
        for name, targets in LAYERS.items():
            for mod_name, path in targets:
                owner = sys.modules.get(mod_name)
                cls_name, _, attr = path.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name, None)
                original = getattr(owner, attr, None)
                if original is None:
                    self.absent.append(f"{mod_name}.{path}")
                    continue
                if name in FOLDED:
                    wrapper = self.wrap_folded(name, original)
                else:
                    # only the sparse elimination is handed subspace_product's rows
                    on_exit = self._on_rref if attr == "_sparse_rref" else hooks.get(name)
                    wrapper = self.wrap(name, original, on_exit)
                for o in [owner] if cls_name else modules:
                    for key, value in list(vars(o).items()):
                        if value is original:
                            self._patches.append((o, key, original))
                            setattr(o, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def reset(self) -> None:
        """Forget what was recorded."""
        self.spans.clear()
        for table in (self.total, self.self_time, self.calls, self.counts, self.folded):
            table.clear()

    # -- per-pass layer metrics --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Layer metrics of what was recorded since the last reset."""
        t, s, n, c = self.total, self.self_time, self.calls, self.counts
        items_calls, items_s = self.folded_sum("algebra.product_items")
        formed = self.folded_sum("algebra.product_items", "linalg.subspace_product", True)[0]
        return {
            "algebra.validate_s": t["algebra.validate"],
            "algebra.validate_product_calls":
                self.folded_sum("algebra.product_items", "algebra.validate")[0],
            "algfile.save_s": t["algfile.save"],
            "algfile.bytes_written": c["algfile.bytes_written"],
            "algfile.load_s": t["algfile.load"],
            "invariants.cup_length_s": t["invariants.cup_length"],
            "invariants.cup_length_calls": n["invariants.cup_length"],
            "invariants.kernel_s": t["invariants.mu_matrix"] + t["invariants.kernel_basis"],
            "invariants.kernel_dim": c["invariants.kernel_dim"],
            "invariants.ideal_powers_s": s["invariants.ideal_powers"],
            "invariants.ideal_levels": c["invariants.ideal_levels"],
            "invariants.ideal_rows": c["invariants.ideal_rows"],
            "linalg.subspace_product_s": s["linalg.subspace_product"],
            "linalg.products_formed": formed,
            "linalg.rows_unique": c["linalg.rows_unique"],
            "linalg.rref_s": t["linalg.rref"],
            "linalg.rows_kept_per_product": c["linalg.rows_kept"] / formed if formed else 0.0,
            "algebra.product_items_s": items_s,
            "algebra.product_items_calls": items_calls,
            "invariants.greedy_chain_s": t["invariants.greedy_chain"],
            "invariants.witness_extend_s": t["invariants.witness_extend"],
            "invariants.witness_extend_calls": n["invariants.witness_extend"],
            "invariants.verify_witness_s": t["invariants.verify_witness"],
            "series.analyze_s": t["series.analyze"],
        }

    def span_table(self) -> list:
        """(parent, name, calls, seconds) for each edge of the span tree."""
        names = {sid: name for sid, _, name, _, _ in self.spans}
        rows = defaultdict(lambda: [0, 0.0])
        for sid, pid, name, start, end in self.spans:
            row = rows[names.get(pid, "-"), name]
            row[0] += 1
            row[1] += end - start
        for (name, parent, _), (calls, dt) in self.folded.items():
            row = rows[parent, name]
            row[0] += calls
            row[1] += dt
        return sorted((parent, name, n, dt) for (parent, name), (n, dt) in rows.items())
