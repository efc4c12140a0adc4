"""The filtered route of the conormal limit, kept as a test reference.

floer.conormal_limit_ranks once took a graph brane (the graph of df) beside
a generating family, and ran a route of its own for it: at each rung of the
clamp schedule it built the sublevel filtration of f - f_k and read the
window off its barcode.  The library now runs the pair route of
graph_genfun(f) minus each clamp instead.  filtered_limit_ranks is that
branch as it was, on the same schedule and stabilization rule.
"""

import math

from gfsheaf.floer import clamp_schedule, stabilize
from gfsheaf.grids import sublevel_filtration
from gfsheaf.linalg import GF2

INF = math.inf


def filtered_limit_ranks(region, f, a, b, field=GF2, ks=(4, 8, 16, 32, 64)):
    """Stabilized conormal-limit ranks of the graph of df, one filtered
    barcode per rung: (ranks, certificate), or StabilizationError."""
    def table(fk):
        h = f - fk  # action of (graph f_k, L) pairs: f_L - f_k
        return sublevel_filtration(h, field).barcode().window_ranks(a, b)

    lo, hi = f.range()
    span = max(1.0, hi - lo, abs(a) if a != -INF else 0.0,
               abs(b) if b != INF else 0.0)
    return stabilize(map(table, clamp_schedule(region, span, ks)), ks)
