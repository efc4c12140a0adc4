"""gfsheaf benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Untraced (``--trace 0``) it times
set-up several times, then runs passes of the workload for ``--seconds``
seconds, timing the reference task (reference.py) between them, and prints
the end-to-end metrics.  Traced (``--trace 1``) it
alternates untraced and traced passes and prints the per-layer metrics.
Every pass gets a fresh output directory under ``.bench_out`` and goes
through the correctness gate.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
a result file with the effective settings and every sample is written next
to the pass directories.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "gfsheaf"
SCENARIO_DIR = PACKAGE / "data" / "scenarios"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
from passes import verify_argv  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
# After each pass the reference task runs until it has taken this share of
# the pass's time, at least once, so that long passes get as many reference
# samples per second of pass as short ones.
REFERENCE_SHARE = 0.06
DEADLINE_S = 170         # a run must end within 180 s
SUMMARY_LINE = {0: "verify-all: PASS", 1: "verify-all: CHECK FAILURE",
                2: "verify-all: INPUT ERROR"}


class GateError(Exception):
    """A pass broke the benchmark's correctness gate."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    env["TMPDIR"] = str(OUT / "tmp")
    return env


def run_child(cmd, log_path, deadline):
    """Run one process; returns (wall seconds, peak RSS in MB, exit code)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() >= deadline:
        raise GateError(f"{cmd[1:3]} passed the run deadline")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def digest(directory):
    """{relative path: sha256} of every file under directory."""
    out = {}
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(directory))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def scenario_tasks():
    """{scenario file stem: number of tasks it declares}."""
    return {p.stem: sum(line.strip() == "[[tasks]]"
                        for line in p.read_text().splitlines())
            for p in sorted(SCENARIO_DIR.glob("*.toml"))}


def check_verify(pass_dir, code, expected_tasks):
    """Checks attempted and failed in one verify pass.  A task whose status
    is fail or input-error, or that never ran, is a failed check; an exit
    code or summary line that disagrees with the statuses breaks the gate."""
    attempted = failed = 0
    worst = 0
    for stem, n_tasks in expected_tasks.items():
        path = pass_dir / "artifacts" / stem / "summary.json"
        try:
            tasks = json.loads(path.read_text())["tasks"]
        except (OSError, ValueError, KeyError) as e:
            raise GateError(f"{stem}: no readable summary ({e})")
        statuses = [t.get("status") for t in tasks]
        attempted += n_tasks
        failed += n_tasks - statuses.count("done") - statuses.count("pass")
        if len(tasks) != n_tasks:
            raise GateError(f"{stem}: {len(tasks)} task results for "
                            f"{n_tasks} tasks")
        if "input-error" in statuses:
            worst = 2
        elif "fail" in statuses:
            worst = max(worst, 1)
        unknown = set(statuses) - {"done", "pass", "fail", "input-error"}
        if unknown:
            raise GateError(f"{stem}: unknown task status {sorted(unknown)}")
    if code != worst:
        raise GateError(f"exit code {code}, task statuses say {worst}")
    lines = (pass_dir / "stdout.txt").read_text().splitlines()
    if not lines or lines[-1] != SUMMARY_LINE[worst]:
        raise GateError(f"summary line {lines[-1:]!r} disagrees with statuses")
    return attempted, failed


def check_pair(pass_dir, code):
    if code != 0:
        raise GateError(f"pair pass exited with {code}")
    checks = json.loads((pass_dir / "checks.json").read_text())
    return checks["attempted"], checks["failed"]


class Run:
    def __init__(self, workload, seed, run_dir, deadline):
        self.w = workload
        # The program seeds this run cycles through, made from its own seed.
        self.program_seeds = [seed * workload.seeds + i
                              for i in range(workload.seeds)]
        self.dir = run_dir
        self.deadline = deadline
        self.expected_tasks = scenario_tasks()
        # Per program seed: the artifact digest and the (attempted, failed)
        # checks of its first pass, which every later pass must repeat.
        self.artifacts = {}
        self.checks = {}
        self.counts = None          # exact trace counts every pass must repeat
        self.n = 0                  # processes started, names their dirs
        self.passes = 0
        self.versions = None

    def _cmd(self, what, out, traced, pseed):
        cmd = [sys.executable, str(HERE / "passes.py"), what, "--workload",
               self.w.name, "--seed", str(pseed), "--out", str(out)]
        return cmd + ["--trace"] if traced else cmd

    def setup(self):
        out = self.dir / f"setup-{self.n}"
        self.n += 1
        out.mkdir()
        wall, _rss, code = run_child(
            self._cmd("setup", out, False, self.program_seeds[0]),
            out / "log.txt", self.deadline)
        if code != 0:
            raise GateError(f"set-up exited with {code}; see {out}/log.txt")
        self.versions = json.loads((out / "versions.json").read_text())
        shutil.rmtree(out)
        return wall

    def one_pass(self, traced, pseed):
        """Run and check one pass with program seed ``pseed``; returns (wall
        s, peak RSS MB, metrics of the trace or None)."""
        out = self.dir / f"pass-{self.n}"
        self.n += 1
        out.mkdir()
        if self.w.kind == "verify" and not traced:
            cmd = [sys.executable, "-m", "gfsheaf"] + verify_argv(
                self.w, pseed, str(out / "artifacts"))
            wall, rss, code = run_child(cmd, out / "stdout.txt",
                                        self.deadline)
        else:
            wall, rss, code = run_child(self._cmd("pass", out, traced, pseed),
                                        out / "log.txt", self.deadline)
        if self.w.kind == "verify":
            checks = check_verify(out, code, self.expected_tasks)
        else:
            checks = check_pair(out, code)
        self.passes += 1
        first = self.checks.setdefault(pseed, checks)
        if checks != first:
            raise GateError(f"seed {pseed}: {checks[1]} of {checks[0]} checks "
                            f"failed, its first pass had {first[1]} of "
                            f"{first[0]}")
        arts = digest(out / "artifacts")
        if not arts:
            raise GateError("pass wrote no artifacts")
        first = self.artifacts.setdefault(pseed, arts)
        if arts != first:
            changed = sorted(k for k in set(arts) | set(first)
                             if arts.get(k) != first.get(k))
            raise GateError(f"seed {pseed}: artifacts differ between passes: "
                            f"{changed[:5]}")
        layer = None
        if traced:
            layer = tracer.analyze(json.loads(
                (out / "trace.json").read_text()))
            counts = {k: layer[k] for k in tracer.EXACT}
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                raise GateError("trace counts differ between passes")
            self.versions = json.loads((out / "versions.json").read_text())
        shutil.rmtree(out)
        return wall, rss, layer

    def checked(self):
        """(attempted, failed) over the program seeds, each counted once."""
        return tuple(map(sum, zip(*self.checks.values())))


def reference(deadline):
    """Wall time of one run of reference.py's task, timed inside its own
    process so that neither interpreter start nor this process's memory
    counts."""
    proc = subprocess.run([sys.executable, str(HERE / "reference.py")],
                          capture_output=True, text=True, check=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    return float(proc.stdout)


def median(values):
    return statistics.median(values) if values else 0.0


def measure(run, seconds, traced):
    """Run passes for about ``seconds``; returns (metrics, samples)."""
    samples = {"wall_s": [], "peak_rss_mb": [], "traced_wall_s": [],
               "setup_s": [], "ref_s": [reference(run.deadline)]}
    layers = []
    setups, refs = samples["setup_s"], samples["ref_s"]
    start = time.perf_counter()
    # Untraced passes only, or untraced and traced passes in turn.  A new
    # pass starts only while one more typical pass still fits the budget,
    # and not before every program seed has had one.  Untraced runs time one
    # set-up before each pass, so that set-up samples spread over the run
    # like the passes do, and top up at the end.  Traced runs keep to the
    # first program seed, so that their counts repeat.
    done = 0
    while True:
        is_traced = traced and done % 2 == 1
        pseed = run.program_seeds[0 if traced else
                                  done % len(run.program_seeds)]
        if not traced:
            setups.append(run.setup())
        wall, rss, layer = run.one_pass(is_traced, pseed)
        gap = 0.0
        while gap < REFERENCE_SHARE * wall or not gap:
            refs.append(reference(run.deadline))
            gap += refs[-1]
        done += 1
        if is_traced:
            samples["traced_wall_s"].append(wall)
            layers.append(layer)
        else:
            samples["wall_s"].append(wall)
            samples["peak_rss_mb"].append(rss)
        elapsed = time.perf_counter() - start
        if (done >= max(2, len(run.program_seeds))
                and elapsed * (done + 1) / done > seconds):
            break
    while not traced and len(setups) < SETUP_REPEATS:
        setups.append(run.setup())
    attempted, failed = run.checked()
    if traced:
        # Counts are equal in every traced pass (the gate checks it).
        metrics = {k: (layers[0][k] if k in tracer.EXACT
                       else median([m[k] for m in layers]), unit(k))
                   for k in layers[0]}
        metrics["trace.overhead"] = (
            median(samples["traced_wall_s"]) / median(samples["wall_s"]),
            "ratio")
    else:
        metrics = {
            # Mean pass time over mean reference time: the reference runs
            # before the first pass and after every pass, so the two means
            # cover the same stretch of the host's speed.
            "wall_ref": (statistics.mean(samples["wall_s"])
                         / statistics.mean(refs), "ratio"),
            "setup_s": (median(samples["setup_s"]), "s"),
            "peak_rss_mb": (median(samples["peak_rss_mb"]), "MB"),
            "pass_ratio": (1.0 - failed / attempted, "ratio"),
        }
    return metrics, samples


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("ratio", "coverage", "overhead")):
        return "ratio"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


def settings(args, w, run):
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                   "HEAD"], capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(PACKAGE)).encode())
            source.update(path.read_bytes())
    return {
        "workload": w.name, "kind": w.kind, "seed": args.seed,
        "program_seeds": run.program_seeds[:1 if args.trace else None],
        "seconds": args.seconds, "traced": bool(args.trace),
        "grid_scale": w.grid_scale, "field": w.field,
        "n_fiber": w.n_fiber or None,
        "passes": run.passes, "python": (run.versions or {}).get("python"),
        "numpy": (run.versions or {}).get("numpy"),
        "gfsheaf_path": (run.versions or {}).get("gfsheaf"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit, "source_sha256": source.hexdigest(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Turn a termination request into an exception, so that run_child
    # kills and reaps the pass process before this one exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (PACKAGE / "__init__.py").is_file() or not SCENARIO_DIR.is_dir():
        print(f"no gfsheaf sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    run_dir = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    run = Run(w, args.seed, run_dir, deadline)
    try:
        metrics, samples = measure(run, args.seconds, bool(args.trace))
    except GateError as e:
        print(f"correctness gate: {e}", file=sys.stderr)
        attempted, failed = run.checked() if run.checks else (1, 1)
        result = {"correct": False, "attempted": max(1, attempted),
                  "failed": max(1, failed), "metrics": {}}
        print(json.dumps(result))
        return 1
    attempted, failed = run.checked()
    record = {"settings": settings(args, w, run), "samples": samples,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print("settings: " + json.dumps(record["settings"], sort_keys=True))
    if not args.trace:
        print(f"wall_s: median {median(samples['wall_s']):.4f} s over "
              f"{len(samples['wall_s'])} passes; reference task: median "
              f"{median(samples['ref_s']):.4f} s")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
