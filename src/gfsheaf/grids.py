"""Cubical models of N x R^k: grids, sampled functions, sublevel sets,
relative cochain complexes, sublevel filtrations, and the cubical cup product.

Cells of a product grid are tuples of per-axis cell ids; on one axis the id
2k is the vertex k and 2k+1 the edge [k, k+1] (wrapping on circles).  A cell
belongs to a sublevel set iff all of its vertices do (lower-star convention),
with strict inequality resolved at vertices: a vertex value exactly equal to
the threshold counts as outside.

BoxGrid.coface_table is the one cubical incidence rule: the cochain
complexes, the face closure of a BaseRegion and the rims of regions are all
read off it.  BoxGrid.splitting_table is the one front/back splitting of
cubes: both cup products (cup_product_cochain and products.cup_product)
read it off the base grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
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

    def cell_coord(self, c):
        """Representative coordinate (vertex position or edge midpoint)."""
        if c & 1:
            return self.origin + self.spacing * ((c >> 1) + 0.5)
        return self.origin + self.spacing * (c >> 1)


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


class SplittingTable(NamedTuple):
    """Every front/back splitting of every cell of a cell lattice, by flat
    cell id (C order), one row per splitting.

    A splitting of a cell divides its edge axes into (A, B): on an axis of
    A the front keeps the edge and the back takes its upper vertex; on an
    axis of B the front takes the lower vertex and the back keeps the edge;
    a vertex axis stays on both.  So the front has dimension |A|.  Rows run
    over the cells in C order, and within a cell by |A|, then A in
    itertools.combinations order.
    """

    cell: np.ndarray    # (splittings,) int64
    front: np.ndarray   # (splittings,) int64
    back: np.ndarray    # (splittings,) int64


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

    @cached_property
    def splitting_table(self):
        """The SplittingTable of this grid, the splittings of both cup
        products, one subset A of the axes at a time: a cell has the
        splitting A when every axis of A is an edge of it."""
        shape = self.cell_shape
        k = len(shape)
        c, edge, lower, upper = [], [], [], []
        for i, g in enumerate(self.axes):
            ci = np.arange(g.n_cells).reshape((-1,) + (1,) * (k - 1 - i))
            j = ci >> 1
            c.append(ci)
            edge.append((ci & 1) == 1)
            lower.append(np.where(edge[i], 2 * j, ci))
            upper.append(np.where(edge[i], 2 * ((j + 1) % g.n_vertices), ci))
        parts = []
        for r in range(k + 1):
            for A in itertools.combinations(range(k), r):
                ok, front, back = np.ones(shape, dtype=bool), 0, 0
                for i in range(k):
                    if i in A:
                        ok = ok & edge[i]
                    front = front * shape[i] + (c[i] if i in A else lower[i])
                    back = back * shape[i] + (upper[i] if i in A else c[i])
                parts.append([np.flatnonzero(ok),
                              np.broadcast_to(front, shape)[ok],
                              np.broadcast_to(back, shape)[ok]])
        cell, front, back = (np.concatenate(p) for p in zip(*parts))
        order = np.argsort(cell, kind="stable")
        return SplittingTable(cell[order], front[order], back[order])

    def all_cells(self):
        return itertools.product(*(range(s) for s in self.cell_shape))

    def base_only(self):
        """The grid of the base axes alone: one grid per base value, so its
        coface table is built once."""
        return _base_grid(self.base)


@cache
def _base_grid(base):
    return BoxGrid(base)


def _axis_cell_reduce(values, grid, axis, op):
    """Per-axis reduction from vertex arrays to cell arrays along one axis:
    vertex k keeps its value and edge k takes op of vertices k and k + 1
    modulo the vertex count (which closes a circle's last edge)."""
    k = np.arange(grid.n_edges)
    out_shape = list(values.shape)
    out_shape[axis] = grid.n_cells
    out = np.empty(out_shape, dtype=values.dtype)
    sl = [slice(None)] * values.ndim
    sl[axis] = slice(0, None, 2)
    out[tuple(sl)] = values
    sl[axis] = slice(1, None, 2)
    out[tuple(sl)] = op(np.take(values, k, axis=axis),
                        np.take(values, (k + 1) % grid.n_vertices, axis=axis))
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
        """expr sampled at the vertices of grid; an ExprError when a sample
        is not finite (a pole, an overflow or 0/0 at a vertex), and the
        ValueError of refuse_overflow when its differences overflow."""
        coords = np.meshgrid(*(g.vertex_coords() for g in grid.axes),
                             indexing="ij")
        names = ["x", "y"][: len(grid.base)] + ["xi", "eta"][: len(grid.fiber)]
        with np.errstate(all="ignore"):
            vals = exprs.evaluate(expr, **dict(zip(names, coords)))
        vals = np.broadcast_to(np.asarray(vals, dtype=float),
                               grid.vertex_shape).copy()
        bad = np.argwhere(~np.isfinite(vals))
        if len(bad):
            at = tuple(bad[0])
            where = ", ".join(f"{name} = {c[at]:.6g}"
                              for name, c in zip(names, coords))
            raise exprs.ExprError(f"the expression {expr!r} is {vals[at]} at "
                                  f"the grid vertex {where}")
        refuse_overflow(grid, vals, f"the expression {expr!r}")
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


def refuse_overflow(grid: BoxGrid, values, name):
    """Raise ValueError, naming the input name, when a quantity the routes
    derive from the samples values (at the vertices of grid) is not finite:
    the sum of two samples, or along an axis a first or second difference
    quotient over the spacing, or the square of a first one."""
    with np.errstate(all="ignore"):
        checks = [("the sum of two samples", 2 * np.abs(values).max())]
        for axis, g in enumerate(grid.axes):
            def quotient(v):    # a circle wraps around from its last vertex
                ext = {"append": v.take([0], axis)} \
                    if g.topology == "circle" else {}
                return np.diff(v, axis=axis, **ext) / g.spacing
            first = quotient(values)
            checks += [(f"{what} along axis {axis}", q) for what, q in (
                ("a first difference quotient", first),
                ("the square of a first difference quotient", first * first),
                ("a second difference quotient", quotient(first)))]
        for what, q in checks:
            if not np.isfinite(q).all():
                raise ValueError(f"the samples of {name} overflow: {what} "
                                 f"is not finite")


class ThresholdRefusal(ValueError):
    """A threshold too close to the value spectrum at the grid's resolution:
    the one error on which the cup task redraws a triple."""


def _cells(mask):
    """Indices of the true entries of mask in C order, as tuples of Python
    ints (numpy scalars would leak into degrees and artifacts)."""
    return [tuple(c) for c in np.argwhere(mask).tolist()]


def sublevel_set(f: SampledFunction, t: float):
    """Mask of the cells whose vertices all satisfy f < t."""
    return f.cell_max() < t


class BaseRegion:
    """Closed union of cells of the base N (the whole N by default): the
    given cells with all of their faces, so on a 2-d base a square brings
    its four edges and its four corners.  The region lives on the base
    grid (grid.base_only() of the grid it is built on), and any grid over
    that base reads it through over.  Two regions are equal when they have
    one base grid and one membership."""

    def __init__(self, grid: BoxGrid, membership=None):
        self.grid = grid = grid.base_only()
        if membership is None:
            membership = np.ones(grid.cell_shape, dtype=bool)
        membership = np.asarray(membership, dtype=bool)
        if membership.shape != grid.cell_shape:
            raise ValueError("region shape mismatch")
        # transitive face closure over the base coface table: a cell joins
        # when one of its cofaces is in; a cell of dimension d is reached
        # after len(base) - d rounds
        cof = grid.coface_table.cof
        kept = np.append(membership.ravel(), False)  # slot -1 reads False
        for _ in grid.base:
            kept[:-1] |= kept[cof].any(axis=1)
        self.membership = kept[:-1].reshape(grid.cell_shape)
        self.membership.setflags(write=False)

    def __eq__(self, other):
        return (isinstance(other, BaseRegion) and self.grid == other.grid
                and np.array_equal(self.membership, other.membership))

    def __hash__(self):
        return hash((self.grid, self.membership.tobytes()))

    @staticmethod
    def from_cells(grid: BoxGrid, cells):
        """The closure of cells, each one in-range integer per base axis."""
        m = np.zeros(grid.base_cell_shape, dtype=bool)
        for c in map(tuple, cells):
            ids = np.asarray(c)
            if ids.dtype.kind not in "iu" or ids.shape != (m.ndim,) or \
                    not ((0 <= ids) & (ids < m.shape)).all():
                raise ValueError(f"base cell {c!r} is not one in-range "
                                 f"integer per axis of {m.shape}")
            m[tuple(ids)] = True
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
        return BaseRegion(self.grid, ~self.membership)

    def over(self, grid: BoxGrid):
        """Read-only boolean over the cell lattice of grid: the cells lying
        over the region.  Raises ValueError for a grid of another base."""
        if grid.base != self.grid.base:
            raise ValueError("the region lives on another base grid")
        extra = (1,) * len(grid.fiber)
        return np.broadcast_to(
            self.membership.reshape(self.membership.shape + extra),
            grid.cell_shape)

    def count(self):
        return int(self.membership.sum())


def cubical_complex(grid: BoxGrid, keep, field=GF2) -> ChainComplex:
    """Cellular cochain complex on the cells where keep is true, keyed by
    the cell tuples: the IndexComplex of cubical_index_complex as a tuple
    ChainComplex."""
    return cubical_index_complex(grid, keep, field).chain_complex(
        _cells(keep))


def cubical_index_complex(grid: BoxGrid, keep, field) -> IndexComplex:
    """Cellular cochain complex on the cells where keep (a boolean array over
    grid.cell_shape) is true, read off grid.coface_table as an IndexComplex:
    its ids are the kept cells in C order, and the coboundary of each lists
    its kept cofaces in slot order with their Koszul signs.

    Degree +1 and d^2 = 0 are certified over the integers before anything
    is coerced (IndexComplex.check with integral set), so at F2 too a wrong
    sign is refused.
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
    del cof, on, row, slot      # before the check
    K.check(integral=True)
    return K


def _cell(grid, flat):
    """Cell tuple of a flat id, as Python ints."""
    return tuple(map(int, np.unravel_index(int(flat), grid.cell_shape)))


def relative_cochain_complex(grid: BoxGrid, W, A, field=GF2) -> ChainComplex:
    """Cellular cochains of the closed cell set W vanishing on the closed
    set A, both boolean masks over grid.cell_shape; cohomology H^*(W, A)."""
    W, A = np.asarray(W, dtype=bool), np.asarray(A, dtype=bool)
    if W.shape != grid.cell_shape or A.shape != grid.cell_shape:
        raise ValueError("membership shape mismatch")
    if np.any(A & ~W):
        raise ValueError("A must be contained in W")
    return cubical_complex(grid, W & ~A, field)


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

    a, b: int arrays, the flat cells (C order) of the supports of the two
    cochains.  Returns the flat cells of the support of the product, in
    ascending order.
    (a cup b)(s) = sum over splittings of s's edge-directions S into (A, B)
    with |A| = deg(a): a(front_A s) * b(back_B s), front anchored at the
    min corner and back at the max corner; the splittings are read off
    BoxGrid.splitting_table and the degrees off BoxGrid.coface_table.
    """
    if grid.fiber:
        raise ValueError("cup product lives on base-only grids")
    if not len(a) or not len(b):
        return np.zeros(0, dtype=np.int64)
    grid = grid.base_only()
    dim = grid.coface_table.dim
    if (dim[a] != dim[a[0]]).any() or (dim[b] != dim[b[0]]).any():
        raise ValueError("cup product needs homogeneous cochains")
    # a homogeneous cochain of degree p only meets fronts of dimension p
    table, n = grid.splitting_table, len(dim)
    in_a, in_b = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    in_a[a] = True
    in_b[b] = True
    hit = table.cell[in_a[table.front] & in_b[table.back]]
    return np.flatnonzero(np.bincount(hit, minlength=n) & 1)
