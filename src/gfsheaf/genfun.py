"""Generating functions quadratic at infinity on a truncated fiber grid:
fiber-critical loci, Cerf diagrams, windowed GF-cohomology with its canonical
degree shift, and the difference / stacked-sum constructions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import (BaseRegion, BoxGrid, SampledFunction, critical_stencil,
                    cubical_index_complex, neighbor_values)
from .linalg import GF2


@dataclass(frozen=True)
class QuadForm:
    """Nondegenerate symmetric form on the fiber; index = #negative eigenvalues.

    The matrix must be square and exactly symmetric: the index reads one
    triangle, and Q(xi) the symmetric part, so an asymmetric matrix would
    give them two different forms."""

    matrix: tuple  # tuple of tuples, k x k; () for k = 0

    def __post_init__(self):
        m, k = self.matrix, len(self.matrix)
        if any(len(row) != k for row in m):
            raise ValueError(
                f"a quadratic form needs a square matrix, got {m!r}")
        for i, j in itertools.combinations(range(k), 2):
            if m[i][j] != m[j][i]:
                raise ValueError(
                    f"a quadratic form needs a symmetric matrix, got entry "
                    f"({i}, {j}) = {m[i][j]!r} and ({j}, {i}) = {m[j][i]!r}")

    @property
    def k(self):
        return len(self.matrix)

    def as_array(self):
        return np.array(self.matrix, dtype=float).reshape(self.k, self.k)

    @property
    def index(self):
        if self.k == 0:
            return 0
        eigs = np.linalg.eigvalsh(self.as_array())
        tol = 1e-9 * max(1.0, float(np.abs(eigs).max()))
        if np.any(np.abs(eigs) <= tol):
            raise ValueError("degenerate quadratic form at infinity")
        return int(np.sum(eigs < 0))

    def __call__(self, xi):
        """Q at each row of the points xi, an (m, k) array."""
        xi = np.asarray(xi, dtype=float)
        return (xi[:, None, :] @ self.as_array() @ xi[:, :, None])[:, 0, 0]

    @staticmethod
    def diagonal(*coeffs):
        k = len(coeffs)
        m = tuple(tuple(float(coeffs[i]) if i == j else 0.0 for j in range(k))
                  for i in range(k))
        return QuadForm(m)


def block_quad(q0: QuadForm, q1: QuadForm, sign):
    """The block-diagonal form q0 (+) sign * q1."""
    k0, k1 = q0.k, q1.k
    m = [[0.0] * (k0 + k1) for _ in range(k0 + k1)]
    for i in range(k0):
        for j in range(k0):
            m[i][j] = q0.matrix[i][j]
    for i in range(k1):
        for j in range(k1):
            m[k0 + i][k0 + j] = sign * q1.matrix[i][j]
    return QuadForm(tuple(tuple(r) for r in m))


@dataclass(frozen=True)
class FiberCriticalPoint:
    x: tuple            # base coordinates
    xi_vertex: tuple
    xi: tuple           # fiber coordinates
    value: float
    index: int          # fiber Morse index
    p: tuple            # base derivative dS/dx at the critical point
    degenerate: bool = False
    val_tol: float = 1e-9  # sampling resolution of the critical value


class GenFun:
    """A sampled generating function with its quadratic form at infinity."""

    def __init__(self, S: SampledFunction, Q: QuadForm, tau_q=1e-7,
                 check_collar=True):
        if Q.k != len(S.grid.fiber):
            raise ValueError("quadratic form size must match fiber dimension")
        self.S = S
        self.Q = Q
        self.tau_q = tau_q
        self.i_q = Q.index  # recomputed, not trusted
        self._tau_val = None
        if check_collar and Q.k:
            self._check_collar()
            self._check_no_boundary_criticals()

    @property
    def grid(self) -> BoxGrid:
        return self.S.grid

    @property
    def k(self):
        return self.Q.k

    @property
    def base_grid(self) -> BoxGrid:
        return self.grid.base_only()

    def tau_val(self):
        """Largest strand-value sampling resolution over the whole base."""
        if self._tau_val is None:
            lo, hi = self.S.range()
            self._tau_val = max(
                [1e-9 * max(1.0, abs(lo), abs(hi))] +
                [cp.val_tol for cps in self.critical_table.values()
                 for cp in cps])
        return self._tau_val

    @cached_property
    def collar_mask(self):
        """Boolean mask over the fiber vertices: True on the truncation
        boundary, where some fiber index is first or last."""
        mask = np.ones([g.n_vertices for g in self.grid.fiber], dtype=bool)
        mask[tuple(slice(1, -1) for _ in self.grid.fiber)] = False
        return mask

    @cached_property
    def collar_q(self):
        """Q at the truncation boundary's fiber vertices, in the order of
        collar_mask."""
        mesh = np.meshgrid(*(g.vertex_coords() for g in self.grid.fiber),
                           indexing="ij")
        return self.Q(np.stack([m[self.collar_mask] for m in mesh], axis=1))

    def _check_collar(self):
        """On the fiber truncation boundary, S - Q must be a function of the
        base point alone (constant across the boundary for each x), within
        tau_q."""
        corrections = self.S.values[..., self.collar_mask] - self.collar_q
        resid = float((corrections.max(axis=-1)
                       - corrections.min(axis=-1)).max())
        if resid > self.tau_q:
            raise ValueError(
                f"fiber boundary ring deviates from Q + c(x) by {resid:.3g}"
                f" (> tau_q = {self.tau_q:.3g})")

    def _check_no_boundary_criticals(self):
        """No fiber-critical cell within two vertices of the truncation."""
        for bv, cps in self.critical_table.items():
            for cp in cps:
                for j, g in zip(cp.xi_vertex, self.grid.fiber):
                    if j < 2 or j >= g.n_vertices - 2:
                        raise ValueError(
                            f"critical cell {cp.xi_vertex} touches the fiber "
                            f"boundary collar at base vertex {bv}")

    @cached_property
    def cerf(self) -> "CerfDiagram":
        """The CerfDiagram of this family (cerf_diagram), built on first
        use."""
        table = self.critical_table
        strands = [(cp.x, cp.value, cp.index, cp.p, cp.degenerate)
                   for cps in table.values() for cp in cps]
        tau = self.tau_val()
        breaks = dedup_breakpoints([s[1] for s in strands], tau)
        verts = list(table)
        cusps = [_coords(self.grid.base, b) for a, b in zip(verts, verts[1:])
                 if len(table[a]) != len(table[b])]
        return CerfDiagram(tuple(strands), tuple(breaks), tuple(cusps), tau)

    @cached_property
    def critical_table(self):
        """Base vertex (C order) -> its FiberCriticalPoints, sorted stably by
        value (ties in fiber C order).  One critical_stencil over the fiber
        axes, batched over the base vertices; for k = 0 every base vertex is
        one point.  The base derivative p and the value resolution val_tol
        are computed at the critical points only."""
        base, fiber = self.grid.base, self.grid.fiber
        vals = self.S.values
        nb = len(base)
        if self.k:
            crit = critical_stencil(vals, fiber)
            at, value = crit.vertex, crit.value
            rest = zip(crit.index.tolist(), crit.degenerate.tolist(),
                       list(self._value_resolution(at, value)))
        else:
            at = np.indices(vals.shape).reshape(nb, -1).T
            value = vals.ravel()
            rest = itertools.repeat((0, False, 1e-9))
        p = np.stack([_base_derivative(vals, g, i, at)
                      for i, g in enumerate(base)], axis=1)
        table = {bv: [] for bv in itertools.product(
            *(range(g.n_vertices) for g in base))}
        for v, val, dv, (index, degenerate, val_tol) in zip(
                at.tolist(), value.tolist(), p.tolist(), rest):
            bv, fv = tuple(v[:nb]), tuple(v[nb:])
            table[bv].append(FiberCriticalPoint(
                _coords(base, bv), fv, _coords(fiber, fv), val, index,
                tuple(dv), degenerate, val_tol))
        return table

    def _value_resolution(self, at, value):
        """Newton-style estimate of the critical-value sampling error at the
        critical points at (interior on every fiber axis)."""
        est = np.zeros(len(at))
        for ax, g in enumerate(self.grid.fiber, len(self.grid.base)):
            h = g.spacing
            up, dn = (neighbor_values(self.S.values, at, [(ax, d)])
                      for d in (1, -1))
            grad_c = (up - dn) / (2 * h)
            hess = (up - 2 * value + dn) / h ** 2
            term = np.abs(grad_c) * h
            curved = np.abs(hess) > 1e-9
            # a scalar x ** 2 is C pow; an array's ** 2 is x * x, which
            # differs in the last bit for about one value in 1,200
            square = np.array([x ** 2 for x in grad_c[curved].tolist()])
            term[curved] = square / (2 * np.abs(hess[curved]))
            est += term
        return 2 * est + 1e-9


def _coords(axes, vertex):
    return tuple(g.origin + g.spacing * j for g, j in zip(axes, vertex))


def _base_derivative(vals, g, axis, at):
    """dS/dx along base axis at the index rows at: central differences,
    one-sided at interval ends."""
    up, mid, dn = (neighbor_values(vals, at, [(axis, d)]) for d in (1, 0, -1))
    der = (up - dn) / (2 * g.spacing)
    if g.topology == "interval":
        j = at[:, axis]
        der = np.where(j == 0, (up - mid) / g.spacing,
                       np.where(j == g.n_vertices - 1,
                                (mid - dn) / g.spacing, der))
    return der


@dataclass(frozen=True)
class CerfDiagram:
    """Fiber-critical values over a family of base vertices."""

    strands: tuple      # tuple of (x_coord, value, index, p, degenerate)
    breakpoints: tuple  # sorted distinct values (within tau_val)
    cusp_x: tuple       # base coordinates where the strand count changes
    tau_val: float

    def to_csv_rows(self):
        rows = [("x", "t", "index")]
        for (x, t, idx, _p, _d) in self.strands:
            rows.append((repr(x[0] if len(x) == 1 else x), repr(t), idx))
        return rows


def dedup_breakpoints(values, tol):
    out = []
    for v in sorted(values):
        if not out or v - out[-1] > tol:
            out.append(v)
    return out


def cerf_diagram(gf: GenFun) -> CerfDiagram:
    """The Cerf diagram of gf: its fiber-critical strands, their values
    deduplicated within tau_val, and the base points where the strand count
    changes.  Built once per family and kept on it (GenFun.cerf), as
    critical_table is."""
    return gf.cerf


def assert_window_regular(gf: GenFun, region: BaseRegion | None, a, b):
    """Reject windows whose boundary sits on a Cerf strand over the region
    (all of N when None), within the per-strand value resolution, never
    silently perturbed."""
    for bv, cps in gf.critical_table.items():
        if region is not None and \
                not region.membership[tuple(2 * j for j in bv)]:
            continue
        for cp in cps:
            for c in (a, b):
                if c not in (-np.inf, np.inf) and \
                        abs(cp.value - c) <= cp.val_tol:
                    raise ValueError(
                        f"window boundary {c} hits Cerf strand "
                        f"t={cp.value:.6g} (index {cp.index}) over x={cp.x}")


def strand_value_range(gf: GenFun):
    """Min and max fiber-critical value over the whole base."""
    values = [cp.value for cps in gf.critical_table.values() for cp in cps]
    if not values:  # no critical data (flat input): fall back to values
        return gf.S.range()
    return min(values), max(values)


def window_floor(gf: GenFun):
    """A regular level strictly below every strand value (and above the
    lower truncation ends, which is checked).

    Windows reaching -infinity are cut here: on the truncated fiber grid the
    sublevel sets of the quadratic collar are born far below the strand band
    and are homotopically inert between their birth and the band, so cutting
    below the band is exact once they are born over every base point.  The
    lower ends are the truncation boundary's values where Q is negative:
    over each base vertex the least of them must lie below the floor, or
    the floor's sublevel set misses the fiber there.  (For fiberless data
    this is simply a level below the minimum.)
    """
    lo, _ = strand_value_range(gf)
    floor = lo - 0.25 * (1.0 + gf.tau_val())
    if gf.k:
        ends = gf.S.values[..., gf.collar_mask][..., gf.collar_q < 0]
        if ends.size and float(ends.min(axis=-1).max()) >= floor:
            raise ValueError(
                "no regular level separates the strand band from the lower "
                "truncation ends; enlarge the fiber radius")
    return floor


def window_ceiling(gf: GenFun):
    """A regular level strictly above every strand value (and below the
    upper truncation caps, which is checked).  The caps are the truncation
    boundary's values above the band where Q is positive: where Q vanishes
    on the boundary, S is the band value up to rounding."""
    _, hi = strand_value_range(gf)
    ceil = hi + 0.25 * (1.0 + gf.tau_val())
    if gf.k:
        caps = gf.S.values[..., gf.collar_mask][..., gf.collar_q > 0]
        if ceil >= float(caps[caps > hi].min(initial=np.inf)):
            raise ValueError(
                "no regular level separates the strand band from the upper "
                "truncation caps; enlarge the fiber radius")
    return ceil


def normalized_window(gf: GenFun, a, b):
    a2 = window_floor(gf) if a == -np.inf else a
    b2 = window_ceiling(gf) if b == np.inf else b
    return a2, b2


def gf_cohomology(gf: GenFun, region: BaseRegion | None, a, b,
                  field=GF2, check_regular=True):
    """Ranks of the windowed pair cohomology, shifted down by the index of Q.

    The returned map sends degree d to the rank of the pair group in degree
    d + index(Q); windows whose boundary meets a strand are rejected.
    Infinite window ends are normalized to regular levels just outside the
    strand band (exact on the truncated grid); a window whose normalized
    ends are inverted misses the band and has no cohomology.  The pair
    (S^b, S^a) over the region (all of N when None) is the cell mask
    a <= cell max < b over the region, and its cubical IndexComplex is
    reduced on its ids.
    """
    if not a < b:
        raise ValueError("window requires a < b")
    keep = True if region is None else region.over(gf.grid)
    a, b = normalized_window(gf, a, b)
    if check_regular:
        assert_window_regular(gf, region, a, b)
    if not a < b:
        return {}
    cell_max = gf.S.cell_max()
    K = cubical_index_complex(gf.grid, keep & (a <= cell_max) & (cell_max < b),
                              field)
    return {d - gf.i_q: r for d, r in K.cohomology_ranks().items() if r}


def stacked_sum(g0: GenFun, g1: GenFun, sign, shared_base) -> GenFun:
    """S0(x, xi0) + sign * S1(y, xi1) with the form Q0 (+) sign * Q1, sign
    being 1.0 or -1.0, on the fiber (xi0, xi1): over one base with y = x
    when shared_base (the two base grids must match), else over the
    product base (x, y)."""
    b0, b1 = g0.grid.base, g1.grid.base
    if shared_base and b0 != b1:
        raise ValueError("base grids must match")
    grid = BoxGrid(b0 if shared_base else b0 + b1,
                   g0.grid.fiber + g1.grid.fiber)
    # axes (x, y, xi0, xi1), with the y axes dropped on a shared base
    m0, m1 = (0, 0) if shared_base else (len(b0), len(b1))
    s0, s1 = g0.S.values.shape, g1.S.values.shape
    v0 = g0.S.values.reshape(s0[:len(b0)] + (1,) * m1 + s0[len(b0):]
                             + (1,) * g1.k)
    v1 = g1.S.values.reshape((1,) * m0 + s1[:len(b1)] + (1,) * g0.k
                             + s1[len(b1):])
    vals = np.broadcast_to(v0 + sign * v1, grid.vertex_shape).copy()
    return GenFun(SampledFunction(grid, vals), block_quad(g0.Q, g1.Q, sign),
                  tau_q=g0.tau_q + g1.tau_q, check_collar=False)


def box_sum(g0: GenFun, g1: GenFun) -> GenFun:
    """(S0 [+] S1)(x, xi0, xi1) = S0(x, xi0) + S1(x, xi1)."""
    return stacked_sum(g0, g1, 1.0, shared_base=True)


def negate(gf: GenFun) -> GenFun:
    """-S with quadratic form -Q (index k - index Q)."""
    negQ = QuadForm(tuple(tuple(-x for x in row) for row in gf.Q.matrix))
    return GenFun(-gf.S, negQ, tau_q=gf.tau_q, check_collar=False)


def graph_genfun(f: SampledFunction) -> GenFun:
    """Fiberless generating function of a graph brane."""
    if f.grid.fiber:
        raise ValueError("graph data must live on a base-only grid")
    return GenFun(f, QuadForm(()), check_collar=False)


@dataclass(frozen=True)
class Brane:
    """Front data of an exact brane: (x, p, primitive value, grading)."""

    points: tuple  # tuple of (x: tuple, p: tuple, f_L: float, m_L: int)


def brane_of(gf: GenFun) -> Brane:
    """Brane presented by a generating function; grading m = fiber index - i_Q."""
    pts = [(cp.x, cp.p, cp.value, cp.index - gf.i_q)
           for cps in gf.critical_table.values() for cp in cps]
    return Brane(tuple(pts))
