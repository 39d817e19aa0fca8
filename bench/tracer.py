"""Outside-in tracing of the lefschetz layers.

The library has no counters of its own, so the benchmark times each layer
from outside: every public function listed in ``TARGETS`` is replaced by a
timing wrapper at *every* binding that holds it -- the defining module, each
module that imported it by name (``from .linalg import exact_rank``), the
``lefschetz`` package re-exports, and any other loaded module such as the
benchmark's own.  Patching only the defining module would miss every call
made through a name imported earlier; that is why the whole of
``sys.modules`` is scanned.  ``Form.__mul__`` is patched on the class.

Each wrapper records one span per call: calls, self time (its duration minus
the time covered by traced callees), inclusive time of the outermost call,
and the (parent span, span) edge, so ratios such as the Bareiss fallbacks
taken *inside* ``exact_rank`` are counted where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (span name, defining module, attribute).  Several attributes may share one
# span; a dotted attribute names a method patched on its class.
TARGETS = (
    ("linalg.exact_rank", "lefschetz.linalg", "exact_rank"),
    ("linalg.bareiss_rank", "lefschetz.linalg", "bareiss_rank"),
    ("linalg.clear_denominators", "lefschetz.linalg", "clear_denominators"),
    ("linalg.rational", "lefschetz.linalg", "rational_rank"),
    ("linalg.rational", "lefschetz.linalg", "kernel_basis"),
    ("linalg.rational", "lefschetz.linalg", "solve_exact"),
    ("linalg.det_int", "lefschetz.linalg", "det_int"),
    ("algebra.form_mul", "lefschetz.algebra", "Form.__mul__"),
    ("algebra.forms_to_matrix", "lefschetz.algebra", "forms_to_matrix"),
    ("algebra.rank_of_span", "lefschetz.algebra", "rank_of_span"),
    ("algebra.substitute_variable", "lefschetz.algebra", "substitute_variable"),
    ("wlp.certified_lefschetz_report", "lefschetz.wlp", "certified_lefschetz_report"),
    ("wlp.multiplication_rank", "lefschetz.wlp", "multiplication_rank"),
    ("wlp.ideal_piece_dimension", "lefschetz.wlp", "ideal_piece_dimension"),
    ("wlp.fails_in_degree_dminus1", "lefschetz.wlp", "fails_in_degree_dminus1"),
    ("wlp.trivial_type_b_test", "lefschetz.wlp", "trivial_type_b_test"),
    ("classify.canonical_form", "lefschetz.classify", "canonical_form"),
    ("classify.permutation_images", "lefschetz.classify", "permutation_images"),
    ("classify.certify_candidate", "lefschetz.classify", "certify_candidate"),
    ("polytope.polytope_from_points", "lefschetz.polytope", "polytope_from_points"),
    ("polytope.normalized_volume", "lefschetz.polytope", "normalized_volume"),
    ("polytope.smoothness_report", "lefschetz.polytope", "smoothness_report"),
    ("osculating.laplace_count", "lefschetz.osculating", "laplace_count"),
    ("osculating.perkinson_quadric", "lefschetz.osculating", "perkinson_quadric"),
    ("apolarity.apolar_complement", "lefschetz.apolarity", "apolar_complement"),
    ("apolarity.dual_map_rank", "lefschetz.apolarity", "dual_map_rank"),
    ("bundles.restrict_to_line", "lefschetz.bundles", "restrict_to_line"),
    ("bundles.splitting_type", "lefschetz.bundles", "splitting_type"),
)

SPANS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


def _matrix_cells(rows, *args, **kwargs) -> int:
    return len(rows) * len(rows[0]) if len(rows) else 0


# Work counted from a span's arguments: the cells of every exact_rank matrix.
CELLS = {"linalg.exact_rank": _matrix_cells}


class SpanStats:
    __slots__ = ("name", "calls", "self_s", "incl_s", "cells", "depth")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.cells = 0
        self.depth = 0


def _resolve(module: str, attribute: str):
    """(object holding the binding, attribute name, original function)."""
    holder = importlib.import_module(module)
    path = attribute.split(".")
    for part in path[:-1]:
        holder = getattr(holder, part)
    return holder, path[-1], vars(holder)[path[-1]]


class Tracer:
    """One traced pass: ``install()``, run, ``uninstall()``, then read ``stats`` and ``edges``."""

    def __init__(self):
        self.stats = {name: SpanStats(name) for name in SPANS}
        self.edges: Counter = Counter()  # (parent span, span) -> calls
        self._stack: list = []  # frames [SpanStats, time covered by children]
        self._patched: list = []  # (namespace owner, attribute, original)

    def _wrap(self, stat: SpanStats, original):
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        cells = CELLS.get(stat.name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if cells is not None:
                stat.cells += cells(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [stat, 0.0]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if stat.depth == 0:
                    stat.incl_s += elapsed
                if parent is not None:
                    parent[1] += elapsed
                    edges[parent[0].name, stat.name] += 1

        traced.bench_span = stat.name
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {}  # id(original) -> (original, wrapper)
        for name, module, attribute in TARGETS:
            holder, attr, original = _resolve(module, attribute)
            if getattr(original, "bench_span", None) is not None:
                raise RuntimeError(f"{module}.{attribute} is already traced")
            wrapper = self._wrap(self.stats[name], original)
            originals[id(original)] = (original, wrapper)
            if isinstance(holder, type):
                setattr(holder, attr, wrapper)
                self._patched.append((holder, attr, original))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                    self._patched.append((module, key, value))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

