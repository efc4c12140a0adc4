"""The benchmark's workload table, shared by run.py and the pass processes.

Each workload is one kind of pass run over and over:

* ``verify`` passes are the real ``gfsheaf verify-all`` command line at one
  grid scale (all bundled scenarios, all artifact writers);
* ``pair`` passes are a library-level sweep over stabilized circle
  generating families, comparing ``gf_cohomology`` of the stabilized family
  with the unstabilized graph family on every cut window.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "verify" or "pair"
    field: str           # "f2" or "q"
    grid_scale: float = 1.0
    n_fiber: int = 0     # fiber resolution of the stabilized families
    seeds: int = 1       # program seeds a run cycles its passes through


WORKLOADS = {w.name: w for w in (
    # Everyday run; about half of it is the product cup tables, whose size
    # follows the program seed (solve columns vary by up to 50 % between
    # seeds), so a run cycles through four program seeds.
    Workload("verify-s1", "verify", "f2", grid_scale=1.0, seeds=4),
    # Dominated by the three-route cusp comparison and its rank kernels;
    # carries the known three-route-generating-family failure.
    Workload("verify-s2", "verify", "f2", grid_scale=2.0),
    # Pair route only (sublevel pairs plus rank), no sheaf code runs; the
    # only workload whose ranks run over Fraction entries.
    Workload("pair-q", "pair", "q", n_fiber=8),
)}

# Pair-workload inputs: ten circle functions with n=24 samples, each
# stabilized by one of three quadratic forms.  The forms are dealt in a
# fixed cycle (four one-variable positive, three one-variable negative,
# three two-variable) so that every seed carries the same number of the
# expensive two-variable families; the seed only draws the functions.
PAIR_FAMILIES = 10
PAIR_N = 24
PAIR_COEFFS = ((1.0,), (-1.0,), (1.0, -1.0))
# Functions are redrawn until they have this many distinct critical values,
# which fixes the number of cut windows (n + 1 choose 2) at every seed, and
# are then scaled so that their critical values span PAIR_SPAN: the size of
# the sublevel pairs, and so the time of a pass, follows that span.
PAIR_CRITICAL_VALUES = 4
PAIR_SPAN = 2.0
