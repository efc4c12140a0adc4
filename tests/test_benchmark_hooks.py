"""The benchmark's tracer (perfbench/tracer.py) wraps functions of the
package by name and reads CellSheaf's stalk cache, so renaming one of them
must fail here and not only when the benchmark runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# install the tracer, then run two stalk lookups in one stratum (a miss,
# then a hit), a small section barcode (which takes its stalks as a table,
# not by lookup), one relative complex and one sublevel filtration through
# the wrapped functions, and check the counts the tracer reads off their
# results; then check that a stabilized genfun's Cerf diagram and pair
# cohomology, the critical vertices of a function and one cup triple (its
# classes, products, tables and solves) are spanned and counted
TRACED = """
import tracer
t = tracer.Tracer()
tracer.install(t)
import numpy as np
from gfsheaf.grids import (BoxGrid, SampledFunction, circle_grid,
                           critical_vertices, relative_cochain_complex,
                           sublevel_filtration, sublevel_set)
from gfsheaf.sheaves import section_barcode, unit_sheaf
grid = BoxGrid((circle_grid(4),))
F = unit_sheaf(grid)
assert F.stalk((0,), 1.0).gens
F.stalk((0,), 2.0)
assert section_barcode(F).bars == ((0, 0.0, float("inf")),
                                   (1, 0.0, float("inf")))
f = SampledFunction(grid, [0.0, 1.0, 2.0, 1.0])
C = relative_cochain_complex(grid, np.ones(grid.cell_shape, dtype=bool),
                             sublevel_set(f, 1.5))
FC = sublevel_filtration(f)
for publish in t.finish:
    publish()
assert t.counts["sheaves.stalk.lookups"] > 1, t.counts
assert t.counts["sheaves.stalk.hits"] >= 1, t.counts
assert t.counts["grids.relative_complex.gens"] == len(C.gens) == 3, t.counts
assert t.counts["grids.sublevel_filtration.cells"] == len(FC.complex.gens) \
    == 8, t.counts
from gfsheaf.fixtures import stabilized_graph_genfun
from gfsheaf.genfun import cerf_diagram, gf_cohomology
gf = stabilized_graph_genfun(f, coeffs=(1.0,), n_fiber=8)
assert len(cerf_diagram(gf).strands) == 4
assert gf_cohomology(gf, None, -10.0, 10.0) == {0: 1, 1: 1}
assert len(critical_vertices(f)) == 2
import tempfile
import types
from gfsheaf import scenarios
with tempfile.TemporaryDirectory() as out:
    result = scenarios._RUNNERS["cup"](types.SimpleNamespace(seed=29),
                                       {"triples": 1, "n": 12}, out)
assert result["status"] == "pass" and result["triples"] == 1, result
spanned = {t.names[span[0]] for span in t.spans}
assert {"grids.critical_vertices", "genfun.cerf_diagram",
        "genfun.gf_cohomology", "scenarios.task.cup", "products.cup",
        "products.class_table", "products.floer_to_product_classes",
        "complexes.class_coordinates", "linalg.solve"} <= spanned, spanned
assert t.counts["linalg.solve.calls"] >= 2, t.counts
assert t.counts["linalg.solve.cols"] > 0, t.counts
assert t.counts["scenarios.cup.triples"] == 1, t.counts
"""


def test_benchmark_tracer_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", TRACED], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
