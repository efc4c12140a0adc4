"""One benchmark pass or one set-up, run as its own process.

    python3 perfbench/passes.py setup --workload W --seed S --out DIR
    python3 perfbench/passes.py pass  --workload W --seed S --out DIR [--trace]

``S`` is a program seed (see run.py).  ``setup`` imports gfsheaf and builds
the workload's inputs, then exits; the runner (run.py) times it from
outside.  ``pass`` runs one pass of a pair workload, or, with ``--trace``,
one traced pass of either kind (a traced verify pass calls
the ``gfsheaf`` command line in-process with the tracer installed).  Untraced
verify passes are the real ``python -m gfsheaf verify-all`` and do not come
here.  Artifacts go to ``DIR/artifacts``; the trace to ``DIR/trace.json``.
Needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import time

WALL_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402

from workloads import (PAIR_COEFFS, PAIR_CRITICAL_VALUES,  # noqa: E402
                       PAIR_FAMILIES, PAIR_N, PAIR_SPAN, WORKLOADS)


def verify_argv(w, seed, art_dir):
    return ["verify-all", "--grid-scale", repr(w.grid_scale), "--seed",
            str(seed), "--field", w.field, "--out-dir", art_dir]


def pair_families(seed, n_fiber):
    """(name, unstabilized, stabilized, cuts) for each family of a seed."""
    from gfsheaf.fixtures import random_circle_morse, stabilized_graph_genfun
    from gfsheaf.genfun import graph_genfun
    from gfsheaf.grids import critical_vertices

    rng = random.Random(seed)
    out = []
    for i in range(PAIR_FAMILIES):
        for _ in range(100):
            f = random_circle_morse(rng, n=PAIR_N)
            vals = sorted({c["value"] for c in critical_vertices(f)})
            if len(vals) == PAIR_CRITICAL_VALUES:
                break
        else:
            raise RuntimeError("no circle function with "
                               f"{PAIR_CRITICAL_VALUES} critical values")
        scale = PAIR_SPAN / (vals[-1] - vals[0])
        f = f * scale
        vals = [v * scale for v in vals]
        coeffs = PAIR_COEFFS[i % len(PAIR_COEFFS)]
        cuts = [vals[0] - 0.5] + [(a + b) / 2 for a, b in
                                  zip(vals, vals[1:])] + [vals[-1] + 0.5]
        out.append((f"{i}:{coeffs}", graph_genfun(f),
                    stabilized_graph_genfun(f, coeffs=coeffs,
                                            n_fiber=n_fiber), cuts))
    return out


def pair_pass(w, seed, art_dir):
    """Every cut window of every family: stabilized ranks must equal the
    unstabilized ones.  Returns (attempted, failed)."""
    from gfsheaf.genfun import gf_cohomology
    from gfsheaf.linalg import FIELDS

    field = FIELDS[w.field]
    rows = []
    failed = 0
    for name, gf0, gfs, cuts in pair_families(seed, w.n_fiber):
        for a in cuts:
            for b in cuts:
                if not a < b:
                    continue
                try:
                    r0 = gf_cohomology(gf0, None, a, b, field,
                                       check_regular=False)
                    rs = gf_cohomology(gfs, None, a, b, field,
                                       check_regular=False)
                except (ValueError, RuntimeError, AssertionError) as e:
                    r0, rs = "error", f"{type(e).__name__}: {e}"
                ok = r0 == rs
                failed += not ok
                rows.append([name, repr(a), repr(b), repr(r0), repr(rs), ok])
    os.makedirs(art_dir, exist_ok=True)
    with open(os.path.join(art_dir, "ranks.json"), "w") as fh:
        json.dump(rows, fh, indent=0)
    return len(rows), failed


def versions():
    import numpy
    import gfsheaf
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "gfsheaf": os.path.dirname(os.path.abspath(gfsheaf.__file__))}


def setup(w, seed):
    """Import gfsheaf and build the workload's inputs."""
    if w.kind == "pair":
        pair_families(seed, w.n_fiber)
        return
    from gfsheaf.cli import bundled_scenarios
    from gfsheaf.scenarios import ScenarioContext, load_scenario
    for path in bundled_scenarios():
        ScenarioContext(load_scenario(path), seed=seed, field=w.field,
                        grid_scale=w.grid_scale)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("what", choices=("setup", "pass"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    art_dir = os.path.join(args.out, "artifacts")

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    with open(os.path.join(args.out, "versions.json"), "w") as fh:
        json.dump(versions(), fh)
    if args.what == "setup":
        setup(w, args.seed)
        return 0
    if w.kind == "pair":
        attempted, failed = pair_pass(w, args.seed, art_dir)
        with open(os.path.join(args.out, "checks.json"), "w") as fh:
            json.dump({"attempted": attempted, "failed": failed}, fh)
        code = 0
    else:
        from gfsheaf.cli import main as cli_main
        with open(os.path.join(args.out, "stdout.txt"), "w") as fh, \
                contextlib.redirect_stdout(fh):
            code = cli_main(verify_argv(w, args.seed, art_dir))
    if tracer is not None:
        tracer.dump(os.path.join(args.out, "trace.json"), WALL_START,
                    time.perf_counter())
    return code


if __name__ == "__main__":
    sys.exit(main())
