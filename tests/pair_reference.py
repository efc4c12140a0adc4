"""The pair route as it was before it reduced on ids, kept as a test
reference.

gf_cohomology restricted the sublevel sets W = S^b and A = S^a to the
region, built the tuple ChainComplex of relative_cochain_complex, which
refuses a pair with A not in W, and reduced it with
ChainComplex.cohomology_ranks, whose loop (with the dims_by_degree it read)
is written out here as cohomology_ranks, a function of the complex;
window_floor checked nothing against the lower truncation ends.  Each is the
old code, except that W and A are cell masks over gf.grid, restricted as
W & region.over(gf.grid).
"""

import numpy as np

from gfsheaf.genfun import (assert_window_regular, strand_value_range,
                            window_ceiling)
from gfsheaf.grids import BaseRegion, relative_cochain_complex, sublevel_set
from gfsheaf.linalg import GF2, Reducer


def dims_by_degree(C):
    out = {}
    for g in C.gens:
        out[C.deg[g]] = out.get(C.deg[g], 0) + 1
    return out


def cohomology_ranks(C):
    """Map degree -> rank of H^degree."""
    index, deg = C._index, C.deg
    cols = {}
    for g, cb in C.d.items():
        cols.setdefault(deg[g], []).append((index[g], cb))
    rk, cleared = {}, set()
    for k in sorted(cols):
        # after a gap in the degrees, cleared indexes no degree-k generator
        red = Reducer(C.field)
        for i, cb in cols[k]:
            if i not in cleared:
                red.add({index[h]: v for h, v in cb.items()})
        rk[k] = len(red.pivots)
        cleared = set(red.pivots)
    dims = dims_by_degree(C)
    ranks = {}
    for k, n in dims.items():
        r = n - rk.get(k, 0) - rk.get(k - 1, 0)
        if r:
            ranks[k] = r
    if any(v < 0 for v in ranks.values()):
        raise AssertionError("negative cohomology rank; corrupted complex")
    return ranks


def window_floor(gf):
    """A regular level strictly below every strand value."""
    lo, _ = strand_value_range(gf)
    return lo - 0.25 * (1.0 + gf.tau_val())


def normalized_window(gf, a, b):
    a2 = window_floor(gf) if a == -np.inf else a
    b2 = window_ceiling(gf) if b == np.inf else b
    return a2, b2


def gf_cohomology(gf, region, a, b, field=GF2, check_regular=True):
    """Ranks of the windowed pair cohomology, shifted down by the index of Q,
    through the tuple ChainComplex of relative_cochain_complex."""
    if not a < b:
        raise ValueError("window requires a < b")
    region = region or BaseRegion(gf.grid)
    a, b = normalized_window(gf, a, b)
    if check_regular:
        assert_window_regular(gf, region, a, b)
    mask = region.over(gf.grid)
    W = sublevel_set(gf.S, b) & mask
    A = sublevel_set(gf.S, a) & mask
    ranks = cohomology_ranks(relative_cochain_complex(gf.grid, W, A, field))
    return {d - gf.i_q: r for d, r in ranks.items() if r}
