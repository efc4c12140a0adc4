"""The rank and barcode loops as they were before Q ranks ran fraction-free,
kept as a test reference.

clearing_ranks and bars are complexes._clearing_ranks and complexes._bars
with one Reducer of the field per degree, dividing in the field: over Q
every elimination step builds Fractions.  They take the same arguments, so
a test can put them in place of the package loops (monkeypatch) and read
the reference answer through the same entry points.  Reducer(QQ) takes int
entries as well as Fractions, so the integer columns of the id route are
valid input.
"""

from gfsheaf.complexes import INF, Barcode
from gfsheaf.linalg import Reducer


def clearing_ranks(degrees, columns, dims, field):
    """Map degree -> rank of H^degree, in ascending degree order."""
    rk, cleared = {}, set()
    for k in degrees:
        red = Reducer(field)
        for col in columns(k, cleared):
            red.add(col)
        rk[k] = len(red.pivots)
        cleared = set(red.pivots)
    ranks = {}
    for k, n in sorted(dims.items()):
        r = n - rk.get(k, 0) - rk.get(k - 1, 0)
        if r:
            ranks[k] = r
    if any(v < 0 for v in ranks.values()):
        raise AssertionError("negative cohomology rank; corrupted complex")
    return ranks


def bars(order, deg, value, d, field):
    """Barcode by the column reduction with clearing, top degree down."""
    pos = {g: i for i, g in enumerate(order)}
    by_deg = {}
    for g in order:
        by_deg.setdefault(deg[g], []).append(g)
    out, cleared = [], set()
    for k in sorted(by_deg, reverse=True):
        bdry = {h: {} for h in by_deg[k]}
        for g in by_deg.get(k - 1, ()):
            i = pos[g]
            for h, v in d.get(g, {}).items():
                bdry[h][i] = v
        red = Reducer(field)
        for h in by_deg[k]:
            col = bdry.pop(h)
            if pos[h] in cleared:
                continue
            p = red.add(col)
            if p is None:
                out.append((k, value[h], INF))
            elif value[order[p]] < value[h]:
                out.append((k - 1, value[order[p]], value[h]))
        cleared = set(red.pivots)
    return Barcode(out)
