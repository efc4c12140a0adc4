"""The benchmark's tracer (perfbench/tracer.py) wraps functions of the
package by name and reads CellSheaf's stalk cache, so renaming one of them
must fail here and not only when the benchmark runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# install the tracer, then run a stalk lookup, a small section barcode and
# one relative complex and one sublevel filtration through the wrapped
# functions, and check the counts the tracer reads off their results
TRACED = """
import tracer
t = tracer.Tracer()
tracer.install(t)
from gfsheaf.grids import (BoxGrid, SampledFunction, circle_grid, full_set,
                           relative_cochain_complex, sublevel_filtration,
                           sublevel_set)
from gfsheaf.sheaves import section_barcode, unit_sheaf
grid = BoxGrid((circle_grid(4),))
F = unit_sheaf(grid)
assert F.cell.stalk((0,), 1.0).gens
assert section_barcode(F).bars == ((0, 0.0, float("inf")),
                                   (1, 0.0, float("inf")))
f = SampledFunction(grid, [0.0, 1.0, 2.0, 1.0])
C = relative_cochain_complex(full_set(grid), sublevel_set(f, 1.5))
FC = sublevel_filtration(f)
for publish in t.finish:
    publish()
assert t.counts["sheaves.stalk.lookups"] > 1, t.counts
assert t.counts["sheaves.stalk.hits"] >= 1, t.counts
assert t.counts["grids.relative_complex.gens"] == len(C.gens) == 3, t.counts
assert t.counts["grids.sublevel_filtration.cells"] == len(FC.complex.gens) \
    == 8, t.counts
"""


def test_benchmark_tracer_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", TRACED], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
