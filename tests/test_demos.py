"""Every script under demos/ runs to completion (exit 0) with the package on
the path and prints what it printed when its digest was pinned; each writes
its CSV/SVG output into a fresh directory."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# SHA-256 of each demo's stdout
STDOUT_DIGESTS = {
    "demo_cone_estimate":
        "821bbb10f33d0344dea39e833ffef6ca039aca5da2ff6b6919e5302b08f85a3f",
    "demo_fronts":
        "621004362e2b96f77764ce834881b6c087aa2b25450a4354f9a3353b68b1d846",
    "demo_persistence":
        "93678dce594fdfee85920f0b22da914a245d1c3d89a07309c700dd0d9d6bd6cf",
    "demo_products":
        "0b5e5a4b3663cb059e19f79de974649dfc25b658b13e27e621f979221fc06be9",
    "demo_rectification":
        "21dece6db8bcd30f2b4dbc50c7949fff942ddc33ffc28f9c0a9218055d3fab45",
    "demo_sheaf_sections":
        "5636338a2fe083b33c9420cbca4f3081b1772de9552b51413abfb04a527143f8",
}


def test_the_demos_are_found():
    assert [demo.stem for demo in DEMOS] == sorted(STDOUT_DIGESTS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                               if p]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        STDOUT_DIGESTS[demo.stem], proc.stdout
