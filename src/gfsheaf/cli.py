"""Batch command line: run scenario files, list the bundled ones, or run
the bundled verification suite.  Exit codes: 0 all checks pass, 1 a check
failed, 2 input error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .scenarios import check_grid_scale, run_scenario

BUNDLED_DIR = os.path.join(os.path.dirname(__file__), "data", "scenarios")


def bundled_scenarios():
    if not os.path.isdir(BUNDLED_DIR):
        return []
    return sorted(os.path.join(BUNDLED_DIR, name)
                  for name in os.listdir(BUNDLED_DIR)
                  if name.endswith((".toml", ".json")))


def _grid_scale(text):
    """argparse type of --grid-scale: a finite positive number."""
    try:
        return check_grid_scale(float(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gfsheaf",
        description="scenario runner for the sheaf/persistence workbench")
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run one scenario file")
    run_p.add_argument("scenario")
    sub.add_parser("list-scenarios", help="list bundled scenario files")
    sub.add_parser("verify-all", help="run every bundled scenario")
    for p in sub.choices.values():
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--field", choices=("f2", "q"), default="f2")
        p.add_argument("--grid-scale", type=_grid_scale, default=1.0)
        p.add_argument("--out-dir", default=None)
        p.add_argument("--fail-fast", action="store_true")
    args = parser.parse_args(argv)

    if args.verb == "list-scenarios":
        for path in bundled_scenarios():
            print(os.path.basename(path))
        return 0

    verify_all = args.verb == "verify-all"
    worst = 0
    for path in bundled_scenarios() if verify_all else [args.scenario]:
        out_dir = args.out_dir
        if verify_all and out_dir:
            out_dir = os.path.join(
                out_dir, os.path.splitext(os.path.basename(path))[0])
        code, summary = run_scenario(path, out_dir=out_dir, seed=args.seed,
                                     field=args.field,
                                     grid_scale=args.grid_scale,
                                     fail_fast=args.fail_fast)
        _print_summary(summary)
        worst = max(worst, code)
        if worst and args.fail_fast:
            break
    if verify_all:
        print("verify-all:", "PASS" if worst == 0 else
              ("CHECK FAILURE" if worst == 1 else "INPUT ERROR"))
    return worst


def _print_summary(summary):
    if "error" in summary:
        print(f"[input-error] {summary.get('scenario')}: {summary['error']}")
        return
    name = summary["scenario"]
    for entry in summary["tasks"]:
        status = entry.get("status", "?")
        certifies = entry.get("certifies") or entry.get("op")
        line = f"[{status}] {name}#{entry['index']} {entry['op']}"
        if certifies:
            line += f" certifies={certifies}"
        if "message" in entry:
            line += f" :: {entry['message']}"
        print(line)


if __name__ == "__main__":
    sys.exit(main())
