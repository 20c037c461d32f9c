"""Spans around the calls into each ghilb module, recorded from outside the package.

Each target is a public name, patched on the module object where callers look
it up (``ghilb.linalg.rank_dense`` is looked up as ``linalg.rank_dense`` by
``koszul``; ``AbelianGroup`` is looked up in ``ghilb.cli``).  A name that the
package does not define is skipped, so renamed or deleted functions read as
zero calls instead of failing the run.

Spans are kept in memory as (name, start, end, parent) and written out once,
at the end.  A layer's self time is its spans' durations minus the durations
of their direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path

# (time metric, calls metric, module, attribute).  A target with a time metric
# opens a span named after it; one without only counts calls, so that its
# time stays in the caller's span.
TARGETS = [
    ("cli.self_s", None, "ghilb.cli", "main"),
    ("verify.self_s", None, "ghilb.verify", "verification_report"),
    ("groups.build_s", "groups.calls", "ghilb.cli", "AbelianGroup"),
    ("ggraph.enumerate_s", None, "ghilb.ggraph", "enumerate_fixed_points"),
    ("ggraph.oracle_s", "ggraph.oracle_calls", "ghilb.ggraph", "brute_force_fixed_points"),
    ("toric.lattices_s", None, "ghilb.toric", "lattices"),
    ("toric.chart_cone_s", "toric.cones", "ghilb.toric", "chart_cone"),
    ("toric.build_fan_s", None, "ghilb.toric", "build_fan"),
    ("homcalc.hom_matrix_s", None, "ghilb.homcalc", "hom_matrix"),
    (None, "homcalc.hom_dim_calls", "ghilb.homcalc", "hom_dim"),
    ("mckay.matrices_s", None, "ghilb.mckay", "mckay_matrices"),
    ("koszul.homology_s", "koszul.homology_calls", "ghilb.koszul", "koszul_homology"),
    ("koszul.orbit_s", "koszul.orbit_calls", "ghilb.koszul", "orbit_spectrum_check"),
    ("koszul.cpxnil_s", None, "ghilb.koszul", "cpxnil_homology"),
    ("koszul.adhm_s", None, "ghilb.koszul", "verify_adhm"),
    ("koszul.build_rep_s", None, "ghilb.koszul", "build_rep"),
    ("linalg.rank_s", "linalg.rank_calls", "ghilb.linalg", "rank_dense"),
    ("linalg.rank_s", "linalg.rank_calls", "ghilb.linalg", "rank_sparse"),
    ("linalg.charpoly_s", None, "ghilb.linalg", "charpoly"),
    ("linalg.det_s", None, "ghilb.linalg", "det_dense"),
    ("linalg.hnf_s", None, "ghilb.linalg", "hnf"),
]

# Time spent counting matrix cells is booked to this span, not to the caller.
BOOKKEEPING = "trace"


def _matrix_cells(args) -> tuple[int, int]:
    """(cells, nonzero cells) of the matrix passed to a rank function.

    ``rank_dense(mat)`` takes a list of rows; ``rank_sparse(rows, ncols)``
    takes a list of {column: value} rows and the column count.
    """
    mat = args[0]
    if len(args) > 1:
        return len(mat) * args[1], sum(len(row) for row in mat)
    cells = sum(len(row) for row in mat)
    return cells, sum(1 for row in mat for x in row if x)


class Tracer:
    """Records spans and counters while installed; restores the package on uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, timed: str | None, calls: str | None, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            if timed == "linalg.rank_s":
                book = self._open(BOOKKEEPING)
                cells, nonzero = _matrix_cells(args)
                counts["linalg.rank_cells"] += cells
                counts["linalg.rank_nonzero"] += nonzero
                self._close(book)
            if calls:
                counts[calls] += 1
            if timed is None:
                return fn(*args, **kwargs)
            span = self._open(timed)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if timed == "ggraph.enumerate_s":
                counts["ggraph.fixed_points"] += len(result)
            elif timed == "koszul.orbit_s" and result == "pass":
                counts["koszul.orbit_pass"] += 1
            return result

        return traced

    def install(self) -> None:
        for timed, calls, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(timed, calls, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: span durations minus their direct children's."""
        totals: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            duration = end - start
            totals[name] = totals.get(name, 0.0) + duration
            if parent >= 0:
                parent_name = self.spans[parent][0]
                totals[parent_name] = totals.get(parent_name, 0.0) - duration
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)
