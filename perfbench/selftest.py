"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Two traced runs with one seed must report identical counts (calls,
   columns, nonzeros, generators, windows, stalk lookups, I/O bytes) on a
   verify workload and on a pair workload.
2. In a directory holding only the benchmark's own files, run.py must
   exit non-zero without printing a result.

Exits 0 when both hold.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from tracer import EXACT  # noqa: E402


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed: {proc.stderr}")
    return {k: result["metrics"][k]["value"] for k in EXACT}


def check_repeatable_counts():
    ok = True
    for workload in ("verify-s1", "pair-q"):
        first, second = traced_counts(workload, 5), traced_counts(workload, 5)
        differ = sorted(k for k in EXACT if first[k] != second[k])
        print(f"{workload}: {len(EXACT)} counts, "
              f"{'identical' if not differ else 'differ: ' + str(differ)}")
        ok = ok and not differ
    return ok


def check_bare_directory():
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-s1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180)
    shutil.rmtree(bare)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"bare directory: exit {proc.returncode}, "
          f"{'no result' if not proc.stdout.strip() else 'printed a result'}")
    return ok


def main():
    ok = check_repeatable_counts()
    ok = check_bare_directory() and ok
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
