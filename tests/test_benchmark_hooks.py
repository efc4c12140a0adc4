"""The benchmark's tracer (perfbench/tracer.py) wraps functions of the
package by name and reads CellSheaf's stalk cache, so renaming one of them
must fail here and not only when the benchmark runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# install the tracer, then run a stalk lookup and a small section barcode
# through the wrapped functions and publish the stalk counts
TRACED = """
import tracer
t = tracer.Tracer()
tracer.install(t)
from gfsheaf.grids import BoxGrid, circle_grid
from gfsheaf.sheaves import section_barcode, unit_sheaf
F = unit_sheaf(BoxGrid((circle_grid(4),)))
assert F.cell.stalk((0,), 1.0).gens
assert section_barcode(F).bars == ((0, 0.0, float("inf")),
                                   (1, 0.0, float("inf")))
for publish in t.finish:
    publish()
assert t.counts["sheaves.stalk.lookups"] > 1, t.counts
assert t.counts["sheaves.stalk.hits"] >= 1, t.counts
"""


def test_benchmark_tracer_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", TRACED], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
