"""The foundation routines that had two code paths, kept as a test reference.

axis_cell_reduce had one branch per axis topology before the one edge rule
(edge k takes op of vertices k and k + 1 modulo the vertex count);
fiber_boundary_ring listed the fiber's truncation boundary as tuples on
every call, and the collar check and window_ceiling each looped over it,
before GenFun.collar_mask; pure_quad_genfun built the pure quadratic on its
own before it became the stabilized graph of the zero function.  Each is the
old code unchanged, with GenFun methods as functions of the GenFun and the
old scalar QuadForm.__call__ written out in check_collar.
"""

import itertools

import numpy as np

from gfsheaf.genfun import GenFun, QuadForm, strand_value_range
from gfsheaf.grids import BoxGrid, SampledFunction, interval_grid


def axis_cell_reduce(values, grid, axis, op):
    """Per-axis reduction from vertex arrays to cell arrays along one axis."""
    nv = grid.n_vertices
    idx_v = np.arange(grid.n_vertices)
    v_part = np.take(values, idx_v, axis=axis)
    if grid.topology == "circle":
        nxt = np.take(values, (idx_v + 1) % nv, axis=axis)
        e_part = op(v_part, nxt)
        k = grid.n_edges
    else:
        base = np.take(values, np.arange(grid.n_edges), axis=axis)
        nxt = np.take(values, np.arange(1, grid.n_edges + 1), axis=axis)
        e_part = op(base, nxt)
        k = grid.n_edges
    out_shape = list(values.shape)
    out_shape[axis] = grid.n_cells
    out = np.empty(out_shape, dtype=values.dtype)
    sl_v = [slice(None)] * values.ndim
    sl_v[axis] = slice(0, 2 * grid.n_vertices, 2)
    out[tuple(sl_v)] = v_part
    sl_e = [slice(None)] * values.ndim
    sl_e[axis] = slice(1, 2 * k + 1, 2)
    out[tuple(sl_e)] = e_part
    return out


def cell_extreme(values, grid, op=np.maximum):
    """Array over the cell lattice: op over each cell's vertices."""
    out = np.asarray(values, dtype=float)
    for i, g in enumerate(grid.axes):
        out = axis_cell_reduce(out, g, i, op)
    return out


def fiber_boundary_ring(gf):
    """Fiber vertex multi-indices on the truncation boundary."""
    shape = tuple(g.n_vertices for g in gf.grid.fiber)
    ring = []
    for v in itertools.product(*(range(s) for s in shape)):
        if any(j in (0, s - 1) for j, s in zip(v, shape)):
            ring.append(v)
    return ring


def check_collar(gf):
    """On the fiber boundary ring, S - Q must be a function of the base
    point alone (constant across the ring for each x), within tau_q."""
    ring = fiber_boundary_ring(gf)
    corrections = []
    for v in ring:
        xi = tuple(g.origin + g.spacing * j
                   for g, j in zip(gf.grid.fiber, v))
        xi = np.asarray(xi, dtype=float)
        q = float(xi @ gf.Q.as_array() @ xi)
        corrections.append(gf.S.values[(Ellipsis,) + v] - q)
    stack = np.stack(corrections, axis=0)
    resid = float((stack.max(axis=0) - stack.min(axis=0)).max())
    if resid > gf.tau_q:
        raise ValueError(
            f"fiber boundary ring deviates from Q + c(x) by {resid:.3g}"
            f" (> tau_q = {gf.tau_q:.3g})")


def window_ceiling(gf):
    """A regular level strictly above every strand value (and below the
    upper truncation caps, which is asserted)."""
    _, hi = strand_value_range(gf)
    ceil = hi + 0.25 * (1.0 + gf.tau_val())
    if gf.k:
        ring_vals = []
        for v in fiber_boundary_ring(gf):
            ring_vals.append(gf.S.values[(Ellipsis,) + v])
        ring_min_above = np.inf
        for block in ring_vals:
            vals = np.asarray(block)
            above = vals[vals > hi]
            if above.size:
                ring_min_above = min(ring_min_above, float(above.min()))
        if ceil >= ring_min_above:
            raise ValueError(
                "no regular level separates the strand band from the upper "
                "truncation caps; enlarge the fiber radius")
    return ceil


def pure_quad_genfun(base_axes, coeffs, radius=4.0, n_fiber=32):
    """S(x, xi) = Q(xi) with Q diagonal; the zero-brane quantization input."""
    fibers = tuple(interval_grid(n_fiber, -radius, radius) for _ in coeffs)
    grid = BoxGrid(tuple(base_axes), fibers)
    mesh = np.meshgrid(*(g.vertex_coords() for g in grid.axes), indexing="ij")
    nb = len(base_axes)
    vals = np.zeros(grid.vertex_shape)
    for c, m in zip(coeffs, mesh[nb:]):
        vals = vals + c * m ** 2
    return GenFun(SampledFunction(grid, vals), QuadForm.diagonal(*coeffs))
