"""The benchmark's tracer (perfbench/tracer.py) wraps functions of the
package by name, so renaming one of them must fail here and not only when
the benchmark runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import tracer; tracer.install(tracer.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
