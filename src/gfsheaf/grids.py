"""Cubical models of N x R^k: grids, sampled functions, sublevel sets,
relative cochain complexes, sublevel filtrations, and the cubical cup product.

Cells of a product grid are tuples of per-axis cell ids; on one axis the id
2k is the vertex k and 2k+1 the edge [k, k+1] (wrapping on circles).  A cell
belongs to a sublevel set iff all of its vertices do (lower-star convention),
with strict inequality resolved at vertices: a vertex value exactly equal to
the threshold counts as outside.

BoxGrid.coface_table is the one cubical incidence rule: the cochain
complexes, the face closure of a BaseRegion and the rims of regions are all
read off it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .complexes import ChainComplex, FilteredComplex, IndexComplex
from .linalg import GF2
from . import exprs


@dataclass(frozen=True)
class Grid1D:
    """One sampled axis. n is the edge count; circle grids have n vertices
    (index n identified with 0), interval grids n+1."""

    topology: str  # 'circle' | 'interval'
    n: int
    spacing: float
    origin: float = 0.0

    def __post_init__(self):
        if self.topology not in ("circle", "interval"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.n < 4:
            raise ValueError("need at least 4 samples per axis")

    @property
    def n_vertices(self):
        return self.n if self.topology == "circle" else self.n + 1

    @property
    def n_edges(self):
        return self.n

    @property
    def n_cells(self):
        return self.n_vertices + self.n_edges

    def vertex_coords(self):
        return self.origin + self.spacing * np.arange(self.n_vertices)

    def cell_dim(self, c):
        return c & 1

    def cell_coord(self, c):
        """Representative coordinate (vertex position or edge midpoint)."""
        if c & 1:
            return self.origin + self.spacing * ((c >> 1) + 0.5)
        return self.origin + self.spacing * (c >> 1)

    def edge_vertices(self, k):
        if self.topology == "circle":
            return (k, (k + 1) % self.n)
        return (k, k + 1)


def circle_grid(n, length=1.0):
    return Grid1D("circle", n, length / n, 0.0)


def interval_grid(n, lo, hi):
    return Grid1D("interval", n, (hi - lo) / n, lo)


class CofaceTable(NamedTuple):
    """Integer coboundary of a whole cell lattice, by flat cell id (C order).

    Row x of cof lists the cofaces of cell x, two slots per axis (-1 marks
    a slot with no coface); sgn holds their Koszul signs and dim the cell
    dimensions.
    """

    cof: np.ndarray   # (cells, 2 * axes) int32
    sgn: np.ndarray   # (cells, 2 * axes) int8
    dim: np.ndarray   # (cells,) int8


@dataclass(frozen=True)
class BoxGrid:
    """Product of base axes (N) and fiber axes (truncated R^k)."""

    base: tuple    # tuple of Grid1D
    fiber: tuple = ()

    def __post_init__(self):
        if len(self.base) > 2 or len(self.fiber) > 2:
            raise ValueError("base dimension <= 2 and fiber k <= 2 only")
        for g in self.fiber:
            if g.topology != "interval":
                raise ValueError("fiber axes must be intervals")

    @property
    def axes(self):
        return self.base + self.fiber

    @property
    def vertex_shape(self):
        return tuple(g.n_vertices for g in self.axes)

    @property
    def cell_shape(self):
        return tuple(g.n_cells for g in self.axes)

    @property
    def base_cell_shape(self):
        return tuple(g.n_cells for g in self.base)

    def cell_dim(self, cell):
        return sum(c & 1 for c in cell)

    @cached_property
    def coface_table(self):
        """The CofaceTable of this grid: the cubical incidence rule, one axis
        at a time.  On an axis where a cell is the vertex 2k, slot 0 is the
        edge 2k+1, whose left end it is (sign -prefix), and slot 1 the edge
        2k-1, whose right end it is (sign +prefix); on a circle the vertex 0
        wraps to the edge 2n-1, and an interval's end vertex has no coface
        past its end.  prefix is -1 to the number of edge axes before this
        one (the Koszul sign)."""
        shape = self.cell_shape
        k = len(shape)
        flat = np.arange(int(np.prod(shape)), dtype=np.int32).reshape(shape)
        cof = np.full(shape + (2 * k,), -1, dtype=np.int32)
        sgn = np.zeros(shape + (2 * k,), dtype=np.int8)
        dim = np.zeros(shape, dtype=np.int8)
        prefix = np.ones(shape, dtype=np.int8)
        stride = flat.strides
        for i, g in enumerate(self.axes):
            step = stride[i] // flat.itemsize
            c = np.arange(g.n_cells).reshape((-1,) + (1,) * (k - 1 - i))
            odd, j = c & 1, c >> 1
            vertex = odd == 0
            if g.topology == "circle":
                left, right = vertex, vertex
                back = np.where(j == 0, 2 * g.n - 1, -1)
            else:
                left, right = vertex & (j < g.n), vertex & (j > 0)
                back = -1
            cof[..., 2 * i] = np.where(left, flat + step, -1)
            cof[..., 2 * i + 1] = np.where(right, flat + back * step, -1)
            sgn[..., 2 * i] = np.where(left, -prefix, 0)
            sgn[..., 2 * i + 1] = np.where(right, prefix, 0)
            dim += odd.astype(np.int8)
            prefix = np.where(odd, -prefix, prefix)
        return CofaceTable(cof.reshape(flat.size, 2 * k),
                           sgn.reshape(flat.size, 2 * k), dim.ravel())

    def all_cells(self):
        return itertools.product(*(range(s) for s in self.cell_shape))

    def base_cells(self):
        return itertools.product(*(range(s) for s in self.base_cell_shape))

    def base_only(self):
        return BoxGrid(self.base, ())


def _axis_cell_reduce(values, grid, axis, op):
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


def cell_extreme(values, grid: BoxGrid, op=np.maximum):
    """Array over the cell lattice: op over each cell's vertices."""
    out = np.asarray(values, dtype=float)
    for i, g in enumerate(grid.axes):
        out = _axis_cell_reduce(out, g, i, op)
    return out


class SampledFunction:
    """Real function sampled on the vertex lattice of a BoxGrid."""

    def __init__(self, grid: BoxGrid, values):
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != grid.vertex_shape:
            raise ValueError(
                f"values shape {self.values.shape} != {grid.vertex_shape}")
        self._cell_max = None
        self._cell_min = None

    @staticmethod
    def from_expr(grid: BoxGrid, expr):
        coords = np.meshgrid(*(g.vertex_coords() for g in grid.axes),
                             indexing="ij")
        names = ["x", "y"][: len(grid.base)] + ["xi", "eta"][: len(grid.fiber)]
        vals = exprs.evaluate(expr, **dict(zip(names, coords)))
        vals = np.broadcast_to(np.asarray(vals, dtype=float),
                               grid.vertex_shape).copy()
        return SampledFunction(grid, vals)

    def cell_max(self):
        if self._cell_max is None:
            self._cell_max = cell_extreme(self.values, self.grid, np.maximum)
            self._cell_max.setflags(write=False)
        return self._cell_max

    def cell_min(self):
        if self._cell_min is None:
            self._cell_min = cell_extreme(self.values, self.grid, np.minimum)
            self._cell_min.setflags(write=False)
        return self._cell_min

    def _binary(self, other, op):
        if isinstance(other, SampledFunction):
            if other.grid != self.grid:
                raise ValueError("grid mismatch")
            return SampledFunction(self.grid, op(self.values, other.values))
        return SampledFunction(self.grid, op(self.values, float(other)))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return SampledFunction(self.grid, -self.values)

    def __mul__(self, scalar):
        return SampledFunction(self.grid, self.values * float(scalar))

    def lift_to(self, grid: BoxGrid):
        """Broadcast a base-only function over the fiber axes of grid."""
        if self.grid.base != grid.base or self.grid.fiber:
            raise ValueError("lift requires a base-only function on same base")
        shape = self.values.shape + (1,) * len(grid.fiber)
        vals = np.broadcast_to(self.values.reshape(shape), grid.vertex_shape)
        return SampledFunction(grid, vals.copy())

    def range(self):
        return float(self.values.min()), float(self.values.max())


def _cells(mask):
    """Indices of the true entries of mask in C order, as tuples of Python
    ints (numpy scalars would leak into degrees and artifacts)."""
    return [tuple(c) for c in np.argwhere(mask).tolist()]


class CubicalSet:
    """Subset of the cells of a BoxGrid, by membership over its cell
    lattice.  Closedness is not checked; the library builds closed sets
    only: sublevel sets (closed by the lower-star rule), their restrictions
    to a closed BaseRegion, the full and empty sets and unions."""

    def __init__(self, grid: BoxGrid, membership):
        self.grid = grid
        self.membership = np.asarray(membership, dtype=bool)
        if self.membership.shape != grid.cell_shape:
            raise ValueError("membership shape mismatch")

    def __contains__(self, cell):
        return bool(self.membership[tuple(cell)])

    def cells(self):
        return _cells(self.membership)

    def count(self):
        return int(self.membership.sum())

    def issubset(self, other):
        return bool(np.all(~self.membership | other.membership))

    def union(self, other):
        return CubicalSet(self.grid, self.membership | other.membership)


def full_set(grid: BoxGrid):
    return CubicalSet(grid, np.ones(grid.cell_shape, dtype=bool))


def empty_set(grid: BoxGrid):
    return CubicalSet(grid, np.zeros(grid.cell_shape, dtype=bool))


def sublevel_set(f: SampledFunction, t: float) -> CubicalSet:
    """Cells whose vertices all satisfy f < t (strict at vertices)."""
    return CubicalSet(f.grid, f.cell_max() < t)


class BaseRegion:
    """Closed union of base cells of a grid (the whole N by default): the
    given cells with all of their faces, so on a 2-d base a square brings
    its four edges and its four corners."""

    def __init__(self, grid: BoxGrid, membership=None):
        self.grid = grid
        if membership is None:
            membership = np.ones(grid.base_cell_shape, dtype=bool)
        membership = np.asarray(membership, dtype=bool)
        if membership.shape != grid.base_cell_shape:
            raise ValueError("region shape mismatch")
        # transitive face closure over the base coface table: a cell joins
        # when one of its cofaces is in; a cell of dimension d is reached
        # after len(base) - d rounds
        cof = grid.base_only().coface_table.cof
        kept = np.append(membership.ravel(), False)  # slot -1 reads False
        for _ in grid.base:
            kept[:-1] |= kept[cof].any(axis=1)
        self.membership = kept[:-1].reshape(grid.base_cell_shape)
        self.membership.setflags(write=False)

    @staticmethod
    def from_cells(grid: BoxGrid, cells):
        m = np.zeros(grid.base_cell_shape, dtype=bool)
        for c in cells:
            m[tuple(c)] = True
        return BaseRegion(grid, m)

    @staticmethod
    def interval_arc(grid: BoxGrid, axis_cell_lo, axis_cell_hi):
        """1-d base: closed arc of cells with ids in [lo, hi]."""
        if len(grid.base) != 1:
            raise ValueError("interval_arc needs a 1-d base")
        m = np.zeros(grid.base_cell_shape, dtype=bool)
        m[axis_cell_lo:axis_cell_hi + 1] = True
        return BaseRegion(grid, m)

    def complement_closure(self):
        """Closure of the complementary open set (N minus interior)."""
        inner = ~self.membership
        return BaseRegion(self.grid, inner)

    def product_mask(self):
        """Boolean over the full cell lattice: cells lying over the region."""
        shape = self.grid.cell_shape
        extra = (1,) * len(self.grid.fiber)
        return np.broadcast_to(
            self.membership.reshape(self.membership.shape + extra), shape)

    def base_cells(self):
        return _cells(self.membership)

    def count(self):
        return int(self.membership.sum())


def restrict_to_region(W: CubicalSet, region: BaseRegion) -> CubicalSet:
    return CubicalSet(W.grid, W.membership & region.product_mask())


def cubical_complex(grid: BoxGrid, keep, field=GF2) -> ChainComplex:
    """Cellular cochain complex on the cells where keep (a boolean array over
    grid.cell_shape) is true, read off grid.coface_table as an IndexComplex:
    its ids are the kept cells in C order, and the coboundary of each lists
    its kept cofaces in slot order with their Koszul signs.

    Degree +1 and d^2 = 0 are certified over the integers before anything
    is coerced (IndexComplex.check with integral set), so at F2 too a wrong
    sign is refused; the tuple ChainComplex is IndexComplex.chain_complex.
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != grid.cell_shape:
        raise ValueError("keep shape mismatch")
    table = grid.coface_table
    kept = np.append(keep.ravel(), False)   # slot -1 (no coface) reads False
    ids = np.flatnonzero(kept)
    cof = table.cof[ids]
    on = kept[cof]
    row, slot = np.nonzero(on)
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(on.sum(axis=1), out=indptr[1:])
    K = IndexComplex(table.dim[ids].astype(np.int64), indptr,
                     np.searchsorted(ids, cof[row, slot]),
                     table.sgn[ids[row], slot].astype(np.int64), field,
                     lambda i: _cell(grid, ids[i]))
    del cof, on, row, slot      # before the check and the dicts grow
    K.check(integral=True)
    return K.chain_complex(_cells(keep))


def _cell(grid, flat):
    """Cell tuple of a flat id, as Python ints."""
    return tuple(map(int, np.unravel_index(int(flat), grid.cell_shape)))


def relative_cochain_complex(W: CubicalSet, A: CubicalSet,
                             field=GF2) -> ChainComplex:
    """Cellular cochains of W vanishing on A; cohomology H^*(W, A)."""
    if not A.issubset(W):
        raise ValueError("A must be contained in W")
    return cubical_complex(W.grid, W.membership & ~A.membership, field)


def sublevel_filtration(f: SampledFunction, field=GF2) -> FilteredComplex:
    """Filtered cochain complex of the whole grid; action = max vertex value."""
    grid = f.grid
    C = cubical_complex(grid, np.ones(grid.cell_shape, dtype=bool), field)
    action = dict(zip(C.gens, f.cell_max().ravel().tolist()))
    return FilteredComplex(C, action, check=False)


class CriticalPoints(NamedTuple):
    """The discrete critical points critical_stencil finds, one row each,
    sorted stably by value within each leading index (ties in C order)."""

    vertex: np.ndarray      # (m, ndim) int: leading, then trailing indices
    value: np.ndarray       # (m,) float
    index: np.ndarray       # (m,) int: count of negative Hessian eigenvalues
    degenerate: np.ndarray  # (m,) bool: a Hessian eigenvalue near zero
    gradient: np.ndarray    # (m, trailing axes) float: central differences


def critical_stencil(values, axes) -> CriticalPoints:
    """Discrete critical points of values over its trailing axes (one
    Grid1D each), batched over its leading axes.

    A point is critical when on every trailing axis the forward and backward
    differences change sign, or it is the left edge of an exact plateau;
    interval end vertices never are.  A difference counts as zero within
    1e-12 * max(1, max |values|) of its own slice of the leading axes.  The
    Hessian of central differences and its eigenvalues are formed at the
    critical points only.
    """
    lead = values.ndim - len(axes)
    trailing = range(lead, values.ndim)
    ez = 1e-12 * np.maximum(1.0, np.abs(values).max(
        axis=tuple(trailing), keepdims=True))
    crit = np.ones(values.shape, dtype=bool)
    for ax, g in zip(trailing, axes):
        fwd = (np.roll(values, -1, ax) - values) / g.spacing
        bwd = (values - np.roll(values, 1, ax)) / g.spacing
        flat = np.abs(fwd) <= ez
        crit &= (np.abs(bwd) > ez) & (flat | (fwd * bwd < 0))
        if g.topology == "interval":
            np.moveaxis(crit, ax, 0)[[0, -1]] = False
    at = np.argwhere(crit)
    value = values[tuple(at.T)]
    order = np.lexsort([value] + [at[:, i] for i in reversed(range(lead))])
    at, value = at[order], value[order]
    k = len(axes)
    gradient = np.empty((len(at), k))
    H = np.empty((len(at), k, k))
    for i, (ai, gi) in enumerate(zip(trailing, axes)):
        hi = gi.spacing
        a, c = (neighbor_values(values, at, [(ai, d)]) for d in (1, -1))
        gradient[:, i] = ((a - value) / hi + (value - c) / hi) / 2
        H[:, i, i] = (a - 2 * value + c) / hi ** 2
        for j in range(i + 1, k):
            aj, hj = trailing[j], axes[j].spacing
            pp, pm, mp, mm = (neighbor_values(values, at, [(ai, s), (aj, t)])
                              for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1)))
            H[:, i, j] = H[:, j, i] = (pp - pm - mp + mm) / (4 * hi * hj)
    eigs = np.linalg.eigvalsh(H)
    tol = 1e-8 * np.maximum(1.0, np.abs(eigs).max(axis=1))
    return CriticalPoints(at, value, (eigs < -tol[:, None]).sum(axis=1),
                          (np.abs(eigs) <= tol[:, None]).any(axis=1),
                          gradient)


def neighbor_values(values, at, steps):
    """values at the index rows at, each moved by delta along axis for every
    (axis, delta) in steps, modulo the axis length (circles wrap)."""
    idx = list(at.T)
    for axis, delta in steps:
        idx[axis] = (idx[axis] + delta) % values.shape[axis]
    return values[tuple(idx)]


def critical_vertices(f: SampledFunction):
    """Discrete critical vertices of f by critical_stencil over all its axes,
    sorted stably by value.  Returns a list of dicts with keys: vertex,
    value, index, degenerate, gradient (Python scalars)."""
    c = critical_stencil(f.values, f.grid.axes)
    return [{"vertex": tuple(v), "value": value, "index": index,
             "degenerate": degenerate, "gradient": tuple(gradient)}
            for v, value, index, degenerate, gradient in zip(
                c.vertex.tolist(), c.value.tolist(), c.index.tolist(),
                c.degenerate.tolist(), c.gradient.tolist())]


def cup_product_cochain(grid: BoxGrid, a, b):
    """Cubical cup product of F2 cochains on a base-only grid.

    a, b: dicts cell -> 1 (F2).  Returns the product cochain as a dict.
    (a cup b)(s) = sum over splittings of s's edge-directions S into (A, B)
    with |A| = deg(a): a(front_A s) * b(back_B s), front anchored at the
    min corner and back at the max corner.
    """
    if grid.fiber:
        raise ValueError("cup product lives on base-only grids")
    if not a or not b:
        return {}
    deg_a = {grid.cell_dim(c) for c in a}
    deg_b = {grid.cell_dim(c) for c in b}
    if len(deg_a) != 1 or len(deg_b) != 1:
        raise ValueError("cup product needs homogeneous cochains")
    p, q = deg_a.pop(), deg_b.pop()
    out = {}
    for cell in grid.all_cells():
        if grid.cell_dim(cell) != p + q:
            continue
        total = 0
        for front, back in _front_back_faces(grid, cell, (p,)):
            total ^= a.get(front, 0) & b.get(back, 0)
        if total:
            out[cell] = 1
    return out


def _front_back_faces(grid: BoxGrid, cell, sizes):
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
                lo, hi = grid.axes[i].edge_vertices(cell[i] >> 1)
                if i in A:
                    back[i] = 2 * hi
                else:
                    front[i] = 2 * lo
            yield tuple(front), tuple(back)
