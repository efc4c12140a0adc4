"""The tuple face walkers of the cubical grid, kept as a test reference.

vertex_cofaces and edge_faces were the per-axis incidence rules of Grid1D
(with cell_dim and edge_vertices, the tuple helpers of BoxGrid and Grid1D),
and cofaces, faces and cell_vertices walked a BoxGrid cell by cell through
them; BoxGrid.coface_table now is the one incidence rule.  base_cells and
region_cells were BoxGrid.base_cells and BaseRegion.base_cells, the tuple
cell lists that only the tests read.  The region routines below are the
walks that read them before: the face closure of
a base region, its boundary ring, its inside vertices and the smoothed
clamp.
"""

import itertools

import numpy as np


def vertex_cofaces(g, k):
    """Edges containing vertex k, with 1-d incidence signs.

    [left end : e] = -1, [right end : e] = +1.
    """
    out = []
    if g.topology == "circle":
        out.append((2 * k + 1, -1))                      # left end of e_k
        out.append((2 * ((k - 1) % g.n) + 1, +1))        # right end of e_{k-1}
    else:
        if k < g.n:
            out.append((2 * k + 1, -1))
        if k > 0:
            out.append((2 * (k - 1) + 1, +1))
    return out


def cell_dim(cell):
    """The dimension of a cell tuple: its number of edge axes."""
    return sum(c & 1 for c in cell)


def edge_vertices(g, k):
    """The two vertices of the edge k of the axis g."""
    if g.topology == "circle":
        return (k, (k + 1) % g.n)
    return (k, k + 1)


def edge_faces(g, k):
    a, b = edge_vertices(g, k)
    return ((2 * a, -1), (2 * b, +1))


def cofaces(grid, cell):
    """Codimension-1 cofaces with Koszul incidence signs."""
    out = []
    sign_prefix = 1
    for i, (g, c) in enumerate(zip(grid.axes, cell)):
        if c & 1 == 0:
            for cf, s in vertex_cofaces(g, c >> 1):
                nc = list(cell)
                nc[i] = cf
                out.append((tuple(nc), sign_prefix * s))
        else:
            sign_prefix = -sign_prefix
    return out


def faces(grid, cell):
    out = []
    sign_prefix = 1
    for i, (g, c) in enumerate(zip(grid.axes, cell)):
        if c & 1:
            for f, s in edge_faces(g, c >> 1):
                nc = list(cell)
                nc[i] = f
                out.append((tuple(nc), sign_prefix * s))
            sign_prefix = -sign_prefix
    return out


def cell_vertices(grid, cell):
    """Vertex multi-indices spanned by a cell."""
    per_axis = []
    for g, c in zip(grid.axes, cell):
        if c & 1:
            per_axis.append(edge_vertices(g, c >> 1))
        else:
            per_axis.append((c >> 1,))
    return list(itertools.product(*per_axis))


def _cells(mask):
    return [tuple(c) for c in np.argwhere(mask).tolist()]


def face_closure(grid, membership):
    """The base cells of membership with their faces, their faces' faces
    and so on, walked through faces."""
    base = grid.base_only()
    out = np.array(membership, dtype=bool)
    todo = _cells(out)
    while todo:
        for f, _ in faces(base, todo.pop()):
            if not out[f]:
                out[f] = True
                todo.append(f)
    return out


def direct_face_closure(grid, membership):
    """The closure BaseRegion took before: the given cells and their direct
    faces only (no corners of a square)."""
    base = grid.base_only()
    out = np.array(membership, dtype=bool)
    for cell in _cells(membership):
        for f, _ in faces(base, cell):
            out[f] = True
    return out


def base_cells(grid):
    """The base cells of grid in C order, as tuples."""
    return itertools.product(*(range(s) for s in grid.base_cell_shape))


def region_cells(region):
    """The base cells of region in C order, as tuples of Python ints."""
    return [tuple(c) for c in np.argwhere(region.membership).tolist()]


def boundary_ring(Z):
    """Cells of Z whose star leaves Z (candidate non-generic locus)."""
    grid = Z.grid.base_only()
    ring = set()
    for cell in region_cells(Z):
        for cf, _ in cofaces(grid, cell):
            if not Z.membership[cf]:
                ring.add(cell)
                break
    return ring


def inside_vertices(region):
    """Vertex mask of the vertices of the cells of region."""
    base_only = region.grid.base_only()
    inside = np.zeros(base_only.vertex_shape, dtype=bool)
    for cell in region_cells(region):
        for v in cell_vertices(base_only, cell):
            inside[v] = True
    return inside


def smoothed_clamp_values(region, depth=2.0, ramp_cells=4):
    """fixtures.smoothed_clamp's values: 0 on the vertices of the region's
    cells, -depth * smoothstep(distance / ramp_cells) away from them."""
    from gfsheaf.fixtures import smoothstep
    g = region.grid.base[0]
    inside = np.zeros(g.n_vertices, dtype=bool)
    for cell in region_cells(region):
        if cell[0] & 1 == 0:
            inside[cell[0] >> 1] = True
        else:
            a, b = edge_vertices(g, cell[0] >> 1)
            inside[a] = inside[b] = True
    dist = np.full(g.n_vertices, np.inf)
    dist[inside] = 0.0
    for _ in range(g.n_vertices):
        if g.topology == "circle":
            neighbor = np.minimum(np.roll(dist, 1), np.roll(dist, -1)) + 1
        else:
            neighbor = np.full_like(dist, np.inf)
            neighbor[1:] = np.minimum(neighbor[1:], dist[:-1] + 1)
            neighbor[:-1] = np.minimum(neighbor[:-1], dist[1:] + 1)
        dist = np.minimum(dist, neighbor)
    return -depth * smoothstep(dist / ramp_cells)
