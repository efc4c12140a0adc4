"""Cubical models of N x R^k: grids, sampled functions, sublevel sets,
relative cochain complexes, sublevel filtrations, and the cubical cup product.

Cells of a product grid are tuples of per-axis cell ids; on one axis the id
2k is the vertex k and 2k+1 the edge [k, k+1] (wrapping on circles).  A cell
belongs to a sublevel set iff all of its vertices do (lower-star convention),
with strict inequality resolved at vertices: a vertex value exactly equal to
the threshold counts as outside.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .complexes import ChainComplex, FilteredComplex
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

    def vertex_cofaces(self, k):
        """Edges containing vertex k, with 1-d incidence signs.

        [left end : e] = -1, [right end : e] = +1.
        """
        out = []
        if self.topology == "circle":
            out.append((2 * k + 1, -1))                      # left end of e_k
            out.append((2 * ((k - 1) % self.n) + 1, +1))     # right end of e_{k-1}
        else:
            if k < self.n:
                out.append((2 * k + 1, -1))
            if k > 0:
                out.append((2 * (k - 1) + 1, +1))
        return out

    def edge_faces(self, k):
        a, b = self.edge_vertices(k)
        return ((2 * a, -1), (2 * b, +1))

    def is_valid_cell(self, c):
        return 0 <= c < self.n_cells


def circle_grid(n, length=1.0):
    return Grid1D("circle", n, length / n, 0.0)


def interval_grid(n, lo, hi):
    return Grid1D("interval", n, (hi - lo) / n, lo)


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

    def cell_coords(self, cell):
        return tuple(g.cell_coord(c) for g, c in zip(self.axes, cell))

    def cofaces(self, cell):
        """Codimension-1 cofaces with Koszul incidence signs."""
        out = []
        sign_prefix = 1
        for i, (g, c) in enumerate(zip(self.axes, cell)):
            if c & 1 == 0:
                for cf, s in g.vertex_cofaces(c >> 1):
                    nc = list(cell)
                    nc[i] = cf
                    out.append((tuple(nc), sign_prefix * s))
            else:
                sign_prefix = -sign_prefix
        return out

    def faces(self, cell):
        out = []
        sign_prefix = 1
        for i, (g, c) in enumerate(zip(self.axes, cell)):
            if c & 1:
                for f, s in g.edge_faces(c >> 1):
                    nc = list(cell)
                    nc[i] = f
                    out.append((tuple(nc), sign_prefix * s))
                sign_prefix = -sign_prefix
        return out

    def cell_vertices(self, cell):
        """Vertex multi-indices spanned by a cell."""
        per_axis = []
        for g, c in zip(self.axes, cell):
            if c & 1:
                per_axis.append(g.edge_vertices(c >> 1))
            else:
                per_axis.append((c >> 1,))
        return list(itertools.product(*per_axis))

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

    def __init__(self, grid: BoxGrid, values, quad=None, tau_q=0.0):
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != grid.vertex_shape:
            raise ValueError(
                f"values shape {self.values.shape} != {grid.vertex_shape}")
        self.quad = quad
        self.tau_q = tau_q
        self._cell_max = None
        self._cell_min = None

    @staticmethod
    def from_expr(grid: BoxGrid, expr, extra=None):
        coords = np.meshgrid(*(g.vertex_coords() for g in grid.axes),
                             indexing="ij")
        names = ["x", "y"][: len(grid.base)] + ["xi", "eta"][: len(grid.fiber)]
        env = dict(zip(names, coords))
        if extra:
            env.update(extra)
        vals = exprs.evaluate(expr, **env)
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
    """Subset of the cells of a BoxGrid, closed under taking faces."""

    def __init__(self, grid: BoxGrid, membership, check_closed=False):
        self.grid = grid
        self.membership = np.asarray(membership, dtype=bool)
        if self.membership.shape != grid.cell_shape:
            raise ValueError("membership shape mismatch")
        if check_closed:
            self.assert_closed()

    def assert_closed(self):
        for cell in _cells(self.membership):
            for f, _ in self.grid.faces(cell):
                if not self.membership[f]:
                    raise AssertionError(f"not closed: {cell} has face {f} outside")

    def __contains__(self, cell):
        return bool(self.membership[tuple(cell)])

    def cells(self):
        return _cells(self.membership)

    def count(self):
        return int(self.membership.sum())

    def issubset(self, other):
        return bool(np.all(~self.membership | other.membership))

    def intersect(self, other):
        return CubicalSet(self.grid, self.membership & other.membership)

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
    """Closed union of base cells of a grid (the whole N by default)."""

    def __init__(self, grid: BoxGrid, membership=None):
        self.grid = grid
        if membership is None:
            membership = np.ones(grid.base_cell_shape, dtype=bool)
        self.membership = np.array(membership, dtype=bool, copy=True)
        if self.membership.shape != grid.base_cell_shape:
            raise ValueError("region shape mismatch")
        # closure under faces of the base complex
        base_only = grid.base_only()
        for cell in _cells(self.membership):
            for f, _ in base_only.faces(cell):
                self.membership[f] = True
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

    def contains_base(self, base_cell):
        return bool(self.membership[tuple(base_cell)])

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


def relative_cochain_complex(W: CubicalSet, A: CubicalSet,
                             field=GF2) -> ChainComplex:
    """Cellular cochains of W vanishing on A; cohomology H^*(W, A)."""
    if not A.issubset(W):
        raise ValueError("A must be contained in W")
    keep = W.membership & ~A.membership
    grid = W.grid
    gens, deg, d = [], {}, {}
    for cell in _cells(keep):
        gens.append(cell)
        deg[cell] = grid.cell_dim(cell)
    genset = set(gens)
    for cell in gens:
        cb = {}
        for cf, s in grid.cofaces(cell):
            if cf in genset:
                cb[cf] = field.coerce(s)
                if cb[cf] == field.zero():
                    del cb[cf]
        if cb:
            d[cell] = cb
    return ChainComplex(gens, deg, d, field, check=False)


def sublevel_filtration(f: SampledFunction, field=GF2) -> FilteredComplex:
    """Filtered cochain complex of the whole grid; action = max vertex value."""
    grid = f.grid
    cm = f.cell_max()
    gens, deg, d, action = [], {}, {}, {}
    for cell in grid.all_cells():
        gens.append(cell)
        deg[cell] = grid.cell_dim(cell)
        action[cell] = float(cm[cell])
    for cell in gens:
        cb = {}
        for cf, s in grid.cofaces(cell):
            v = field.coerce(s)
            if v != field.zero():
                cb[cf] = v
        if cb:
            d[cell] = cb
    C = ChainComplex(gens, deg, d, field, check=False)
    return FilteredComplex(C, action, check=False)


def critical_vertices(f: SampledFunction):
    """Discrete critical vertices by sign-change stencils of the gradient.

    A vertex is critical when on every axis the forward and backward
    differences change sign; exact plateaus contribute their left edge.
    Returns a list of dicts with keys: vertex, value, index, degenerate,
    gradient.
    """
    grid = f.grid
    vals = f.values
    scale = max(1.0, float(np.abs(vals).max()))
    ez = 1e-12 * scale
    out = []
    shape = grid.vertex_shape
    for v in itertools.product(*(range(s) for s in shape)):
        crit = True
        grads = []
        for i, g in enumerate(grid.axes):
            h = g.spacing
            nv = shape[i]

            def at(j):
                idx = list(v)
                if g.topology == "circle":
                    idx[i] = j % nv
                else:
                    idx[i] = min(max(j, 0), nv - 1)
                return vals[tuple(idx)]

            if g.topology == "interval" and (v[i] == 0 or v[i] == nv - 1):
                crit = False  # boundary vertices are never interior criticals
                break
            fwd = (at(v[i] + 1) - at(v[i])) / h
            bwd = (at(v[i]) - at(v[i] - 1)) / h
            grads.append((fwd + bwd) / 2)
            sign_change = fwd * bwd < 0 and abs(fwd) > ez and abs(bwd) > ez
            plateau_edge = abs(fwd) <= ez and abs(bwd) > ez
            if not (sign_change or plateau_edge):
                crit = False
                break
        if not crit:
            continue
        # sampled Hessian, central differences
        k = len(shape)
        H = np.zeros((k, k))
        for i in range(k):
            gi = grid.axes[i]
            hi = gi.spacing

            def atv(delta):
                idx = list(v)
                ok = True
                for ax, dd in enumerate(delta):
                    g2 = grid.axes[ax]
                    j = idx[ax] + dd
                    if g2.topology == "circle":
                        j %= shape[ax]
                    elif not (0 <= j < shape[ax]):
                        ok = False
                        j = min(max(j, 0), shape[ax] - 1)
                    idx[ax] = j
                return vals[tuple(idx)] if ok else None

            d0 = [0] * k
            d0[i] = 1
            dm = [0] * k
            dm[i] = -1
            a, b, c = atv(d0), atv([0] * k), atv(dm)
            H[i, i] = (a - 2 * b + c) / hi ** 2
            for j in range(i + 1, k):
                hj = grid.axes[j].spacing
                dpp = [0] * k
                dpp[i] = 1
                dpp[j] = 1
                dpm = [0] * k
                dpm[i] = 1
                dpm[j] = -1
                dmp = [0] * k
                dmp[i] = -1
                dmp[j] = 1
                dmm = [0] * k
                dmm[i] = -1
                dmm[j] = -1
                H[i, j] = H[j, i] = (
                    atv(dpp) - atv(dpm) - atv(dmp) + atv(dmm)) / (4 * hi * hj)
        eigs = np.linalg.eigvalsh(H)
        tol = 1e-8 * max(1.0, float(np.abs(eigs).max()))
        degenerate = bool(np.any(np.abs(eigs) <= tol))
        index = int(np.sum(eigs < -tol))
        out.append({
            "vertex": v,
            "value": float(vals[v]),
            "index": index,
            "degenerate": degenerate,
            "gradient": tuple(float(x) for x in grads),
        })
    out.sort(key=lambda r: r["value"])
    return out


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
        edge_axes = [i for i, c in enumerate(cell) if c & 1]
        total = 0
        for A in itertools.combinations(edge_axes, p):
            Aset = set(A)
            front = []
            back = []
            for i, c in enumerate(cell):
                g = grid.axes[i]
                if c & 1 == 0:
                    front.append(c)
                    back.append(c)
                elif i in Aset:
                    front.append(c)
                    lo, hi = g.edge_vertices(c >> 1)
                    back.append(2 * hi)
                else:
                    lo, hi = g.edge_vertices(c >> 1)
                    front.append(2 * lo)
                    back.append(c)
            total ^= a.get(tuple(front), 0) & b.get(tuple(back), 0)
        if total:
            out[cell] = 1
    return out
