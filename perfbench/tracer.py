"""Outside-in tracing of gfsheaf: spans and counters recorded around calls
into each module's public functions, without changing the library.

A pass process calls :func:`install` before it runs.  Every wrapped function
is patched on its defining module or class and on every other gfsheaf module
that imported it by name (``scenarios`` imports ``sections``, for example),
so internal calls are seen too.  Spans ``(name, start, end, parent)`` are kept
in memory and written once by :meth:`Tracer.dump`.  :func:`analyze` turns a
dump into the per-layer metrics.

``CellSheaf.stalk`` is called hundreds of thousands of times per pass, so it
is counted (lookups and cache hits), never spanned.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

MODULES = ("linalg", "complexes", "grids", "genfun", "sheaves", "products",
           "floer", "rectify", "io", "scenarios", "cli", "fixtures")

SCENARIOS = ("cusp", "duality", "products", "rectify", "reduction",
             "three-routes", "unit-laws")

# Span names that only group other work; their self time is not layer work.
CONTAINERS = ("scenarios.",)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []     # (name id, start, end, parent span index or -1)
        self._stack = []
        self.counts = {}
        self.finish = []    # callbacks that publish counts before a dump

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, before=None, after=None):
        """fn wrapped in a span.  ``name`` is a string or a function of the
        call's arguments.  ``before(args, kwargs)`` may count and return
        replacement arguments; ``after(args, result)`` counts the result.
        Neither runs inside the span."""
        fixed = None if callable(name) else self._id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            nid = fixed if fixed is not None else self._id(name(args))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return traced

    def record(self, name, start, end):
        """A top-level span timed by the caller."""
        self.spans.append((self._id(name), start, end, -1))

    def dump(self, path, wall_start, wall_end):
        for publish in self.finish:
            publish()
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": self.counts,
                       "wall": [wall_start, wall_end]}, fh)


def _patch(gf_modules, owner, attr, wrapped):
    original = getattr(owner, attr)
    setattr(owner, attr, wrapped)
    if isinstance(owner, type):
        return
    for module in gf_modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def install(tracer: Tracer):
    """Wrap gfsheaf's public functions with spans and counters."""
    start = time.perf_counter()
    mods = {m: importlib.import_module(f"gfsheaf.{m}") for m in MODULES}
    tracer.record("startup.import", start, time.perf_counter())
    gf_modules = list(mods.values())
    t = tracer

    def span(module, attr, name, before=None, after=None, owner=None):
        owner = owner if owner is not None else mods[module]
        _patch(gf_modules, owner, attr,
               t.wrap(name, getattr(owner, attr), before, after))

    def columns(metric, with_nnz):
        def before(args, kwargs):
            cols = args[0] if args else kwargs.pop("cols")
            if not isinstance(cols, list):
                cols = list(cols)
            t.count(metric + ".calls")
            t.count(metric + ".cols", len(cols))
            if with_nnz:
                t.count(metric + ".nnz", sum(map(len, cols)))
            return (cols,) + args[1:], kwargs
        return before

    def calls(metric):
        def before(args, kwargs):
            t.count(metric + ".calls")
            return args, kwargs
        return before

    def result_size(metric, key, size):
        def after(args, result):
            t.count(f"{metric}.{key}", size(result))
        return after

    def self_size(metric, key, size):
        def before(args, kwargs):
            t.count(f"{metric}.{key}", size(args[0]))
            return args, kwargs
        return before

    complexes, sheaves = mods["complexes"], mods["sheaves"]
    floer, scenarios = mods["floer"], mods["scenarios"]

    # exact reduction
    span("linalg", "rank_of_columns", "linalg.rank",
         before=columns("linalg.rank", True))
    span("linalg", "solve_columns", "linalg.solve",
         before=columns("linalg.solve", False))
    span("linalg", "kernel_of_columns", "linalg.kernel",
         before=calls("linalg.kernel"))
    span("complexes", "assert_d_squared_zero", "complexes.d2_check",
         owner=complexes.ChainComplex,
         before=self_size("complexes.d2_check", "gens", lambda C: len(C.gens)))
    span("complexes", "cohomology_ranks", "complexes.cohomology_ranks",
         owner=complexes.ChainComplex)
    span("complexes", "barcode", "complexes.barcode",
         owner=complexes.FilteredComplex,
         before=self_size("complexes.barcode", "cells",
                          lambda F: len(F.complex.gens)))
    span("complexes", "class_coordinates", "complexes.class_coordinates")
    span("complexes", "cohomology_basis", "complexes.cohomology_basis")
    # grid and complex assembly
    span("grids", "relative_cochain_complex", "grids.relative_complex",
         before=calls("grids.relative_complex"),
         after=result_size("grids.relative_complex", "gens",
                           lambda C: len(C.gens)))
    span("grids", "sublevel_filtration", "grids.sublevel_filtration",
         after=result_size("grids.sublevel_filtration", "cells",
                           lambda F: len(F.complex.gens)))
    span("grids", "sublevel_set", "grids.sublevel_set")
    span("grids", "critical_vertices", "grids.critical_vertices")
    span("sheaves", "section_complex", "sheaves.section_complex",
         owner=sheaves.CellSheaf,
         after=result_size("sheaves.section_complex", "gens",
                           lambda C: len(C.gens)))
    span("sheaves", "product_section_complex",
         "sheaves.product_section_complex",
         before=calls("sheaves.product_section_complex"),
         after=result_size("sheaves.product_section_complex", "gens",
                           lambda C: len(C.gens)))
    # window and section queries
    span("genfun", "gf_cohomology", "genfun.gf_cohomology",
         before=calls("genfun.gf_cohomology"))
    span("genfun", "cerf_diagram", "genfun.cerf_diagram")
    span("sheaves", "sections", "sheaves.sections",
         before=calls("sheaves.sections"))
    span("sheaves", "to_cellular", "sheaves.to_cellular")
    span("sheaves", "singular_support", "sheaves.singular_support")
    span("sheaves", "hausdorff", "sheaves.hausdorff", owner=sheaves.ConeSet)
    for fn, name in (("cup_product", "cup"), ("class_table", "class_table"),
                     ("floer_to_product_classes", "floer_to_product_classes"),
                     ("pushforward_barcode", "pushforward_barcode")):
        span("products", fn, "products." + name)
    span("floer", "__init__", "floer.superlevel_home",
         owner=floer.SuperlevelHome)
    span("floer", "canonical_basis", "floer.superlevel_home",
         owner=floer.SuperlevelHome)
    span("floer", "pant_product", "floer.pant_product")
    span("floer", "conormal_limit_ranks", "floer.conormal_limit")
    for fn in ("strict_synthetic_diagram", "perturb_coherent",
               "check_coherence", "rectify_at", "index_complex_homology",
               "e2_page", "e2_csv_rows", "serialize_diagram"):
        span("rectify", fn, "rectify")
    # artifact I/O
    span("io", "_atomic_write", "io.write",
         before=_io_counter(t))
    # scenario and task containers
    span("scenarios", "run_scenario",
         lambda args: "scenarios." + _stem(args[0]))
    for op, fn in list(scenarios._RUNNERS.items()):
        scenarios._RUNNERS[op] = t.wrap("scenarios.task." + op, fn)
    _count_cup_attempts(t, mods)
    _count_stalks(t, sheaves.CellSheaf)


def _stem(path):
    return os.path.splitext(os.path.basename(str(path)))[0]


def _io_counter(t):
    def before(args, kwargs):
        text = args[1] if len(args) > 1 else kwargs["text"]
        t.count("io.write.files")
        t.count("io.write.bytes", len(text.encode()))
        return args, kwargs
    return before


def _count_cup_attempts(t, mods):
    """A cup task draws three random functions per triple it attempts and
    reports the triples it completed."""
    scenarios, fixtures = mods["scenarios"], mods["fixtures"]
    inside = []
    draw = fixtures.random_circle_morse

    def counted_draw(*args, **kwargs):
        if inside:
            t.count("scenarios.cup.draws")
        return draw(*args, **kwargs)

    fixtures.random_circle_morse = counted_draw
    task = scenarios._RUNNERS["cup"]

    def cup_task(*args, **kwargs):
        inside.append(True)
        try:
            result = task(*args, **kwargs)
        finally:
            inside.pop()
        t.count("scenarios.cup.triples", int(result.get("triples", 0)))
        return result

    scenarios._RUNNERS["cup"] = cup_task


def _count_stalks(t, cell_sheaf):
    """Count stalk lookups and cache hits; a miss grows the stalk cache."""
    lookup = cell_sheaf.stalk
    tally = [0, 0]

    def stalk(self, base_cell, threshold):
        before = len(self._cache)
        result = lookup(self, base_cell, threshold)
        tally[0] += 1
        if len(self._cache) == before:
            tally[1] += 1
        return result

    def publish():
        t.counts["sheaves.stalk.lookups"], t.counts["sheaves.stalk.hits"] = \
            tally

    cell_sheaf.stalk = stalk
    t.finish.append(publish)


# ---------------------------------------------------------------------------
# analysis of a dump

SELF_TIMES = (
    "startup.import",
    "linalg.rank", "linalg.solve", "linalg.kernel", "complexes.d2_check",
    "complexes.cohomology_ranks", "complexes.barcode",
    "complexes.class_coordinates", "grids.relative_complex",
    "grids.sublevel_filtration", "grids.critical_vertices",
    "genfun.gf_cohomology", "genfun.cerf_diagram", "sheaves.section_complex",
    "sheaves.hausdorff", "sheaves.product_section_complex", "products.cup",
    "products.class_table", "products.floer_to_product_classes",
    "products.pushforward_barcode", "floer.superlevel_home",
    "floer.pant_product", "floer.conormal_limit", "rectify", "io.write",
)

COUNTS = (
    "linalg.rank.calls", "linalg.rank.cols", "linalg.rank.nnz",
    "linalg.solve.calls", "linalg.solve.cols", "linalg.kernel.calls",
    "complexes.d2_check.gens", "complexes.barcode.cells",
    "grids.relative_complex.calls", "grids.relative_complex.gens",
    "grids.sublevel_filtration.cells", "genfun.gf_cohomology.calls",
    "sheaves.sections.calls", "sheaves.section_complex.gens",
    "sheaves.product_section_complex.calls",
    "sheaves.product_section_complex.gens", "sheaves.stalk.lookups",
    "io.write.files", "io.write.bytes",
)

# The five layers of the ROADMAP as roll-ups of span self times; every
# named layer span not listed here counts as a query.
LAYERS = {
    "assembly": ("grids.relative_complex", "grids.sublevel_filtration",
                 "grids.sublevel_set", "sheaves.section_complex",
                 "sheaves.product_section_complex"),
    "d2": ("complexes.d2_check",),
    "reduction": ("linalg.rank", "linalg.solve", "linalg.kernel",
                  "complexes.cohomology_ranks", "complexes.barcode",
                  "complexes.class_coordinates", "complexes.cohomology_basis"),
    "io": ("io.write",),
}


def analyze(dump):
    """Per-layer metrics of one traced pass: self times in seconds, counts,
    per-scenario wall times, layer roll-ups and span coverage."""
    names = dump["names"]
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for (_nid, start, end, parent) in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, total_s = {}, {}
    for i, (nid, start, end, _parent) in enumerate(spans):
        name = names[nid]
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        total_s[name] = total_s.get(name, 0.0) + (end - start)
    wall = dump["wall"][1] - dump["wall"][0]
    layer_self = {n: s for n, s in self_s.items()
                  if not n.startswith(CONTAINERS)}
    out = {f"{n}.self_s": self_s.get(n, 0.0) for n in SELF_TIMES}
    counts = dump["counts"]
    out.update({k: counts.get(k, 0) for k in COUNTS})
    lookups = counts.get("sheaves.stalk.lookups", 0)
    out["sheaves.stalk.hit_ratio"] = (
        counts.get("sheaves.stalk.hits", 0) / lookups if lookups else 0.0)
    draws = counts.get("scenarios.cup.draws", 0)
    out["scenarios.cup.useful_ratio"] = (
        counts.get("scenarios.cup.triples", 0) / (draws / 3) if draws else 0.0)
    for name in SCENARIOS:
        out[f"scenarios.{name}.wall_s"] = total_s.get("scenarios." + name, 0.0)
    grouped = set()
    for layer, members in LAYERS.items():
        out[f"layer.{layer}_s"] = sum(layer_self.get(n, 0.0) for n in members)
        grouped.update(members)
    out["layer.queries_s"] = sum(s for n, s in layer_self.items()
                                 if n not in grouped
                                 and not n.startswith("startup."))
    out["trace.coverage"] = sum(layer_self.values()) / wall
    out["trace.spans"] = len(spans)
    return out


EXACT = COUNTS + ("sheaves.stalk.hit_ratio", "scenarios.cup.useful_ratio",
                  "trace.spans")
