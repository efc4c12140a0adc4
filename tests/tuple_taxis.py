"""The tuple t-axis walkers and the t-axis refinement, kept as a test
reference.

TAxis.dim, TAxis.cofaces and TAxis.window_cells walked the cells of a
t-axis one by one for the tuple section-complex assemblies; the index-array
builder reads the t-axis as arrays, and only the reference assemblies of
tests/test_sheaves.py walk it this way now.  TAxis.with_breaks refined an
axis for section complexes assembled on more breaks than the sheaf's own;
sections are now taken on the own axis only, and the tuple references
check against refined axes with with_breaks below.
"""

from gfsheaf.sheaves import INF, TAxis


def with_breaks(taxis, extra):
    """taxis refined by the finite values of extra that lie more than
    1e-12 from every break."""
    vals = list(taxis.breaks)
    for x in extra:
        if x in (-INF, INF):
            continue
        if all(abs(x - v) > 1e-12 for v in vals):
            vals.append(x)
    return TAxis(tuple(sorted(vals)))


def t_dim(tc):
    """The dimension of t-cell tc: 1 for an interval, 0 for a breakpoint."""
    return 1 if tc[0] == "e" else 0


def t_cofaces(tc):
    """Codim-1 cofaces with incidence signs ([left:e]=-1, [right:e]=+1)."""
    if tc[0] == "e":
        return []
    i = tc[1]
    return [(("e", i), +1), (("e", i + 1), -1)]


def window_cells(taxis, a, b):
    """Cells of the relative window [a, b): touching >= a, not >= b."""
    out = []
    for tc in taxis.cells():
        top = taxis.top_value(tc)
        if top >= a and not top >= b:
            out.append(tc)
    return out
