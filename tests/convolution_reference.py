"""The per-cell routines of the convolution calculus, kept as a test
reference.

corners was CellSheaf.corners before it judged every stratum: it checked
the stalks up to the opening only, and kept a per-stratum size and label
table.  corner_table was the dict view of CellSheaf.corners, and the
decoupled superlevel complex was built from it (decoupled_home holds it on
ids, as a home of id-keyed classes); front_back_faces split one cube at a
time, and cup_product_cochain walked every cell through it, before
BoxGrid.splitting_table gave both cup products one table; ominus, box_sum
and external_box_sum were three copies of the stacked sum that
genfun.stacked_sum now builds.  Each is the old code unchanged.
"""

import itertools
from types import SimpleNamespace

import numpy as np

from gfsheaf.genfun import GenFun, QuadForm
from gfsheaf.grids import BoxGrid, SampledFunction, cubical_complex
from gfsheaf.linalg import GF2
from tuple_cells import base_cells, cell_dim, edge_vertices


# ---------------------------------------------------------------------------
# corners

def corners(cell):
    """The old CellSheaf.corners: (opens, deg, size, label, labels), read
    off the stalk record of cell.  The stalk opens above break i when
    stratum i + 1 has generators and stratum i has none.  Raises ValueError
    ("rank-one stalks required") when a stalk above a break at or below
    the opening one has more than one generator, and AssertionError when a
    stalk that never opens is nonempty on the top stratum; the first
    failing cell in C order decides."""
    index, st = cell.strata
    first = st.off[:-1]         # the first slot of each stalk
    size = np.append(np.diff(st.off), 0)[index]
    label = np.append(st.lab[first], -1)[index]
    m = cell.taxis.m
    step = (size[:, 1:] > 0) & (size[:, :-1] == 0)
    has = step.any(axis=1)
    opens = np.where(has, step.argmax(axis=1), -1)
    last = np.where(has, opens, m - 1)
    wide = ((size[:, 1:] > 1)
            & (np.arange(m) <= last[:, None])).any(axis=1)
    loose = ~has & (size[:, m] > 0)
    fail = np.flatnonzero(wide | loose)
    if fail.size:
        if wide[fail[0]]:
            raise ValueError("rank-one stalks required")
        raise AssertionError("stalk opens without a breakpoint")
    at = index[np.arange(len(opens)), opens + 1]
    deg = np.where(has, np.append(st.ldeg[first], -1)[at], -1)
    return SimpleNamespace(opens=opens, deg=deg, size=size, label=label,
                           labels=st.labels)


def corner_table(cell):
    """For rank-one sheaves: per base cell the entry breakpoint (None if the
    stalk never opens) and the degree of the single stalk generator, as
    dicts over the cell tuples (CellSheaf.corners)."""
    k = cell.corners
    cells = list(base_cells(cell.base))
    breaks = cell.taxis.breaks
    opens = k.opens.tolist()
    return ({bc: breaks[i] if i >= 0 else None
             for bc, i in zip(cells, opens)},
            {bc: d if i >= 0 else None
             for bc, i, d in zip(cells, opens, k.deg.tolist())})


def decoupled_superlevel_complex(CA, CB, lam, field=GF2):
    """Base-level compression of the [lam, oo) product sections: cochains on
    cells whose corner sum reaches lam."""
    corner_a, _ = corner_table(CA)
    corner_b, _ = corner_table(CB)
    keep = np.zeros(CA.base.cell_shape, dtype=bool)
    for bc, ca in corner_a.items():
        cb = corner_b[bc]
        keep[bc] = ca is not None and cb is not None and ca + cb >= lam
    return cubical_complex(CA.base, keep, field)


def decoupled_home(CA, CB, lam):
    """The decoupled superlevel complex as a home of id-keyed classes, as
    floer_to_product_classes reads one: complex, its IndexComplex on the
    cells in C order, and cells, the flat base cell of each id."""
    C = decoupled_superlevel_complex(CA, CB, lam)
    shape = CA.base.cell_shape
    return SimpleNamespace(complex=C.index_complex(), cells=np.array(
        [np.ravel_multi_index(c, shape) for c in C.gens], dtype=np.int64))


# ---------------------------------------------------------------------------
# cup splittings

def cup_product_cochain(grid, a, b):
    """Cubical cup product of F2 cochains on a base-only grid, one cell at
    a time."""
    if grid.fiber:
        raise ValueError("cup product lives on base-only grids")
    if not a or not b:
        return {}
    deg_a = {cell_dim(c) for c in a}
    deg_b = {cell_dim(c) for c in b}
    if len(deg_a) != 1 or len(deg_b) != 1:
        raise ValueError("cup product needs homogeneous cochains")
    p, q = deg_a.pop(), deg_b.pop()
    out = {}
    for cell in grid.all_cells():
        if cell_dim(cell) != p + q:
            continue
        total = 0
        for front, back in front_back_faces(grid, cell, (p,)):
            total ^= a.get(front, 0) & b.get(back, 0)
        if total:
            out[cell] = 1
    return out


def front_back_faces(grid, cell, sizes):
    """(front, back) faces of cell for every splitting of its edge axes
    into (A, B) with |A| in sizes, A in itertools.combinations order: on an
    axis of A the front keeps the edge and the back takes its upper vertex
    2*hi; on an axis of B the front takes the lower vertex 2*lo and the back
    keeps the edge; a vertex axis stays on both."""
    edge_axes = [i for i, c in enumerate(cell) if c & 1]
    for r in sizes:
        for A in itertools.combinations(edge_axes, r):
            front, back = list(cell), list(cell)
            for i in edge_axes:
                lo, hi = edge_vertices(grid.axes[i], cell[i] >> 1)
                if i in A:
                    back[i] = 2 * hi
                else:
                    front[i] = 2 * lo
            yield tuple(front), tuple(back)


def front_back_table(base):
    """(cell, front, back) flat cell arrays over every cell of base and
    every front/back splitting of it (front_back_faces)."""
    shape = base.cell_shape
    rows = [(cell, front, back) for cell in base.all_cells()
            for front, back in front_back_faces(base, cell,
                                                range(len(cell) + 1))]
    return tuple(np.ravel_multi_index(np.array(part, dtype=np.int64).T,
                                      shape)
                 for part in zip(*rows))


# ---------------------------------------------------------------------------
# stacked sums

def block_quad(q0, q1, negate_second=False):
    k0, k1 = q0.k, q1.k
    m = [[0.0] * (k0 + k1) for _ in range(k0 + k1)]
    for i in range(k0):
        for j in range(k0):
            m[i][j] = q0.matrix[i][j]
    s = -1.0 if negate_second else 1.0
    for i in range(k1):
        for j in range(k1):
            m[k0 + i][k0 + j] = s * q1.matrix[i][j]
    return QuadForm(tuple(tuple(r) for r in m))


def ominus(g0, g1):
    """(S0 (-) S1)(x, xi0, xi1) = S0(x, xi0) - S1(x, xi1)."""
    if g0.grid.base != g1.grid.base:
        raise ValueError("base grids must match")
    grid = BoxGrid(g0.grid.base, g0.grid.fiber + g1.grid.fiber)
    v0, v1 = _aligned_values(g0, g1)
    vals = np.broadcast_to(v0 - v1, grid.vertex_shape).copy()
    Q = block_quad(g0.Q, g1.Q, negate_second=True)
    return GenFun(SampledFunction(grid, vals), Q,
                  tau_q=g0.tau_q + g1.tau_q, check_collar=False)


def _aligned_values(g0, g1):
    """Broadcast the two value arrays over (base, fiber0, fiber1)."""
    nb = len(g0.grid.base)
    v0 = g0.S.values.reshape(g0.S.values.shape + (1,) * g1.k)
    s1 = g1.S.values.shape
    v1 = g1.S.values.reshape(s1[:nb] + (1,) * g0.k + s1[nb:])
    return v0, v1


def box_sum(g0, g1):
    """(S0 [+] S1)(x, xi0, xi1) = S0(x, xi0) + S1(x, xi1)."""
    if g0.grid.base != g1.grid.base:
        raise ValueError("base grids must match")
    grid = BoxGrid(g0.grid.base, g0.grid.fiber + g1.grid.fiber)
    v0, v1 = _aligned_values(g0, g1)
    vals = np.broadcast_to(v0 + v1, grid.vertex_shape).copy()
    Q = block_quad(g0.Q, g1.Q, negate_second=False)
    return GenFun(SampledFunction(grid, vals), Q,
                  tau_q=g0.tau_q + g1.tau_q, check_collar=False)


def external_box_sum(g0, g1):
    """S0(x, xi0) + S1(y, xi1) on the product base."""
    grid = BoxGrid(g0.grid.base + g1.grid.base, g0.grid.fiber + g1.grid.fiber)
    n0b = len(g0.grid.base)
    n1b = len(g1.grid.base)
    s0 = g0.S.values
    s1 = g1.S.values
    v0 = s0.reshape(s0.shape[:n0b] + (1,) * n1b + s0.shape[n0b:]
                    + (1,) * g1.k)
    v1 = s1.reshape((1,) * n0b + s1.shape[:n1b] + (1,) * g0.k
                    + s1.shape[n1b:])
    vals = np.broadcast_to(v0 + v1, grid.vertex_shape).copy()
    return GenFun(SampledFunction(grid, vals), block_quad(g0.Q, g1.Q),
                  tau_q=g0.tau_q + g1.tau_q, check_collar=False)
