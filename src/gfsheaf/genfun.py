"""Generating functions quadratic at infinity on a truncated fiber grid:
fiber-critical loci, Cerf diagrams, windowed GF-cohomology with its canonical
degree shift, and the difference / stacked-sum constructions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grids import (BaseRegion, BoxGrid, SampledFunction, critical_vertices,
                    relative_cochain_complex, restrict_to_region,
                    sublevel_set)
from .linalg import GF2


@dataclass(frozen=True)
class QuadForm:
    """Nondegenerate symmetric form on the fiber; index = #negative eigenvalues."""

    matrix: tuple  # tuple of tuples, k x k; () for k = 0

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
        if self.k == 0:
            return 0.0
        xi = np.asarray(xi, dtype=float)
        return float(xi @ self.as_array() @ xi)

    @staticmethod
    def diagonal(*coeffs):
        k = len(coeffs)
        m = tuple(tuple(float(coeffs[i]) if i == j else 0.0 for j in range(k))
                  for i in range(k))
        return QuadForm(m)


def block_quad(q0: QuadForm, q1: QuadForm, negate_second=False):
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


@dataclass(frozen=True)
class FiberCriticalPoint:
    base_vertex: tuple
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
        self._crit_cache = {}
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
        return BoxGrid(self.grid.base, ())

    def tau_val(self):
        """Largest strand-value sampling resolution over the whole base."""
        if self._tau_val is not None:
            return self._tau_val
        lo, hi = self.S.range()
        out = 1e-9 * max(1.0, abs(lo), abs(hi))
        if self.k:
            for bc in self.base_grid.base_cells():
                if any(c & 1 for c in bc):
                    continue
                bv = tuple(c >> 1 for c in bc)
                for cp in self.fiber_critical_data(bv):
                    out = max(out, cp.val_tol)
        self._tau_val = out
        return out

    def _fiber_boundary_ring(self, depth=1):
        """Fiber vertex multi-indices within depth of the truncation boundary."""
        shape = tuple(g.n_vertices for g in self.grid.fiber)
        ring = []
        for v in itertools.product(*(range(s) for s in shape)):
            if any(j < depth or j >= s - depth for j, s in zip(v, shape)):
                ring.append(v)
        return ring

    def _check_collar(self):
        """On the fiber boundary ring, S - Q must be a function of the base
        point alone (constant across the ring for each x), within tau_q."""
        ring = self._fiber_boundary_ring(1)
        corrections = []
        for v in ring:
            xi = tuple(g.origin + g.spacing * j
                       for g, j in zip(self.grid.fiber, v))
            corrections.append(self.S.values[(Ellipsis,) + v] - self.Q(xi))
        stack = np.stack(corrections, axis=0)
        resid = float((stack.max(axis=0) - stack.min(axis=0)).max())
        if resid > self.tau_q:
            raise ValueError(
                f"fiber boundary ring deviates from Q + c(x) by {resid:.3g}"
                f" (> tau_q = {self.tau_q:.3g})")

    def _check_no_boundary_criticals(self, collar=2):
        for bv in itertools.product(
                *(range(g.n_vertices) for g in self.grid.base)):
            for cp in self.fiber_critical_data(bv):
                for j, g in zip(cp.xi_vertex, self.grid.fiber):
                    if j < collar or j >= g.n_vertices - collar:
                        raise ValueError(
                            f"critical cell {cp.xi_vertex} touches the fiber "
                            f"boundary collar at base vertex {bv}")

    def fiber_critical_data(self, base_vertex):
        """All discrete fiber-critical points over one base vertex, by value."""
        base_vertex = tuple(base_vertex)
        if base_vertex in self._crit_cache:
            return self._crit_cache[base_vertex]
        x = tuple(g.origin + g.spacing * j
                  for g, j in zip(self.grid.base, base_vertex))
        if self.k == 0:
            val = float(self.S.values[base_vertex])
            out = [FiberCriticalPoint(base_vertex, x, (), (), val, 0,
                                      self._base_derivative(base_vertex, ()))]
            self._crit_cache[base_vertex] = out
            return out
        fib_grid = BoxGrid(self.grid.fiber, ())
        fib_vals = self.S.values[base_vertex]
        fib_fun = SampledFunction(fib_grid, fib_vals)
        out = []
        for rec in critical_vertices(fib_fun):
            v = rec["vertex"]
            xi = tuple(g.origin + g.spacing * j
                       for g, j in zip(self.grid.fiber, v))
            out.append(FiberCriticalPoint(
                base_vertex, x, v, xi, rec["value"], rec["index"],
                self._base_derivative(base_vertex, v), rec["degenerate"],
                self._value_resolution(fib_vals, v)))
        out.sort(key=lambda c: c.value)
        self._crit_cache[base_vertex] = out
        return out

    def _value_resolution(self, fib_vals, v):
        """Newton-style estimate of the critical-value sampling error."""
        est = 0.0
        for ax, g in enumerate(self.grid.fiber):
            h = g.spacing
            j = v[ax]

            def at(dj):
                idx = list(v)
                idx[ax] = min(max(j + dj, 0), g.n_vertices - 1)
                return fib_vals[tuple(idx)]

            grad_c = (at(1) - at(-1)) / (2 * h)
            hess = (at(1) - 2 * at(0) + at(-1)) / h ** 2
            if abs(hess) > 1e-9:
                est += grad_c ** 2 / (2 * abs(hess))
            else:
                est += abs(grad_c) * h
        return 2 * est + 1e-9

    def _base_derivative(self, base_vertex, fiber_vertex):
        vals = self.S.values
        p = []
        for i, g in enumerate(self.grid.base):
            nv = g.n_vertices

            def at(j):
                idx = list(base_vertex) + list(fiber_vertex)
                idx[i] = j % nv if g.topology == "circle" else j
                return vals[tuple(idx)]

            j0 = base_vertex[i]
            if g.topology == "interval" and j0 == 0:
                der = (at(1) - at(0)) / g.spacing
            elif g.topology == "interval" and j0 == nv - 1:
                der = (at(j0) - at(j0 - 1)) / g.spacing
            else:
                der = (at(j0 + 1) - at(j0 - 1)) / (2 * g.spacing)
            p.append(float(der))
        return tuple(p)


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


def cerf_diagram(gf: GenFun, region: BaseRegion | None = None) -> CerfDiagram:
    region = region or BaseRegion(gf.grid)
    strands = []
    counts = {}
    for bc in region.base_cells():
        if any(c & 1 for c in bc):  # vertices only
            continue
        bv = tuple(c >> 1 for c in bc)
        cps = gf.fiber_critical_data(bv)
        counts[bv] = len(cps)
        for cp in cps:
            strands.append((cp.x, cp.value, cp.index, cp.p, cp.degenerate))
    tau = gf.tau_val()
    breaks = dedup_breakpoints([s[1] for s in strands], tau)
    cusps = []
    verts = sorted(counts)
    for a, b in zip(verts, verts[1:]):
        if counts[a] != counts[b]:
            x = tuple(g.origin + g.spacing * j
                      for g, j in zip(gf.grid.base, b))
            cusps.append(x)
    return CerfDiagram(tuple(strands), tuple(breaks), tuple(cusps), tau)


def assert_window_regular(gf: GenFun, region: BaseRegion, a, b, tau=None):
    """Reject windows whose boundary sits on a Cerf strand over the region
    (within the per-strand value resolution, never silently perturbed)."""
    for bc in region.base_cells():
        if any(c & 1 for c in bc):
            continue
        bv = tuple(c >> 1 for c in bc)
        for cp in gf.fiber_critical_data(bv):
            tol = cp.val_tol if tau is None else tau
            for c in (a, b):
                if c not in (-np.inf, np.inf) and abs(cp.value - c) <= tol:
                    raise ValueError(
                        f"window boundary {c} hits Cerf strand "
                        f"t={cp.value:.6g} (index {cp.index}) over x={cp.x}")


def strand_value_range(gf: GenFun):
    """Min and max fiber-critical value over the whole base."""
    lo, hi = np.inf, -np.inf
    for bc in gf.base_grid.base_cells():
        if any(c & 1 for c in bc):
            continue
        bv = tuple(c >> 1 for c in bc)
        for cp in gf.fiber_critical_data(bv):
            lo = min(lo, cp.value)
            hi = max(hi, cp.value)
    if lo is np.inf:  # no critical data (flat input): fall back to values
        lo, hi = gf.S.range()
    return float(lo), float(hi)


def window_floor(gf: GenFun):
    """A regular level strictly below every strand value.

    Windows reaching -infinity are cut here: on the truncated fiber grid the
    sublevel sets of the quadratic collar are born far below the strand band
    and are homotopically inert between their birth and the band, so cutting
    below the band is exact.  (For fiberless data this is simply a level
    below the minimum.)
    """
    lo, _ = strand_value_range(gf)
    return lo - 0.25 * (1.0 + gf.tau_val())


def window_ceiling(gf: GenFun):
    """A regular level strictly above every strand value (and below the
    upper truncation caps, which is asserted)."""
    _, hi = strand_value_range(gf)
    ceil = hi + 0.25 * (1.0 + gf.tau_val())
    if gf.k:
        ring_vals = []
        for v in gf._fiber_boundary_ring(1):
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
    strand band (exact on the truncated grid).
    """
    if not a < b:
        raise ValueError("window requires a < b")
    region = region or BaseRegion(gf.grid)
    a, b = normalized_window(gf, a, b)
    if check_regular:
        assert_window_regular(gf, region, a, b)
    W = restrict_to_region(sublevel_set(gf.S, b), region)
    A = restrict_to_region(sublevel_set(gf.S, a), region)
    ranks = relative_cochain_complex(W, A, field).cohomology_ranks()
    return {d - gf.i_q: r for d, r in ranks.items() if r}


def ominus(g0: GenFun, g1: GenFun) -> GenFun:
    """(S0 (-) S1)(x, xi0, xi1) = S0(x, xi0) - S1(x, xi1)."""
    if g0.grid.base != g1.grid.base:
        raise ValueError("base grids must match")
    grid = BoxGrid(g0.grid.base, g0.grid.fiber + g1.grid.fiber)
    v0, v1 = _aligned_values(g0, g1)
    vals = np.broadcast_to(v0 - v1, grid.vertex_shape).copy()
    Q = block_quad(g0.Q, g1.Q, negate_second=True)
    return GenFun(SampledFunction(grid, vals), Q,
                  tau_q=g0.tau_q + g1.tau_q, check_collar=False)


def _aligned_values(g0: GenFun, g1: GenFun):
    """Broadcast the two value arrays over (base, fiber0, fiber1)."""
    nb = len(g0.grid.base)
    v0 = g0.S.values.reshape(g0.S.values.shape + (1,) * g1.k)
    s1 = g1.S.values.shape
    v1 = g1.S.values.reshape(s1[:nb] + (1,) * g0.k + s1[nb:])
    return v0, v1


def box_sum(g0: GenFun, g1: GenFun) -> GenFun:
    """(S0 [+] S1)(x, xi0, xi1) = S0(x, xi0) + S1(x, xi1)."""
    if g0.grid.base != g1.grid.base:
        raise ValueError("base grids must match")
    grid = BoxGrid(g0.grid.base, g0.grid.fiber + g1.grid.fiber)
    v0, v1 = _aligned_values(g0, g1)
    vals = np.broadcast_to(v0 + v1, grid.vertex_shape).copy()
    Q = block_quad(g0.Q, g1.Q, negate_second=False)
    return GenFun(SampledFunction(grid, vals), Q,
                  tau_q=g0.tau_q + g1.tau_q, check_collar=False)


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
    source: str    # 'graph' | 'fibered'


def brane_of(gf: GenFun) -> Brane:
    """Brane presented by a generating function; grading m = fiber index - i_Q."""
    pts = []
    for bc in gf.base_grid.base_cells():
        if any(c & 1 for c in bc):
            continue
        bv = tuple(c >> 1 for c in bc)
        for cp in gf.fiber_critical_data(bv):
            pts.append((cp.x, cp.p, cp.value, cp.index - gf.i_q))
    return Brane(tuple(pts), "fibered" if gf.k else "graph")


def graph_brane(f: SampledFunction) -> Brane:
    return brane_of(graph_genfun(f))
