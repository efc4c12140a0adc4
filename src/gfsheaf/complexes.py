"""Cochain complexes, filtered complexes, barcodes, and chain maps.

Conventions fixed once for the whole package:
  * cohomological grading, differential of degree +1, d o d = 0 exactly;
  * filtration values are machine reals; a differential never decreases the
    filtration value; ties are broken by generator order;
  * windows [a, b) keep generators with a <= action < b and carry the induced
    subquotient differential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import (GF2, Reducer, add_scaled, kernel_of_columns,
                     rank_of_columns, solve_columns)

INF = math.inf


class ChainComplex:
    """Finite cochain complex over a field.

    gens: ordered tuple of hashable generator ids.
    deg:  dict id -> integer degree.
    d:    dict id -> {id: scalar}, raising degree by exactly 1.
    """

    def __init__(self, gens, deg, d, field=GF2, check=True):
        self.gens = tuple(gens)
        self.deg = dict(deg)
        self.field = field
        self.d = {g: dict(cb) for g, cb in d.items() if cb}
        self._index = {g: i for i, g in enumerate(self.gens)}
        if check:
            self._check()

    def _check(self):
        F = self.field
        for g, cb in self.d.items():
            for h, v in cb.items():
                if self.deg[h] != self.deg[g] + 1:
                    raise ValueError(f"differential not degree +1 at {g} -> {h}")
                if v == F.zero():
                    raise ValueError("stored zero in differential")
        self.assert_d_squared_zero()

    def assert_d_squared_zero(self):
        F = self.field
        for g in self.d:
            acc = {}
            for h, v in self.d[g].items():
                for k, w in self.d.get(h, {}).items():
                    acc[k] = F.add(acc.get(k, F.zero()), F.mul(v, w))
            if any(x != F.zero() for x in acc.values()):
                raise ValueError(f"d^2 != 0 at generator {g!r}")

    def dims_by_degree(self):
        out = {}
        for g in self.gens:
            out[self.deg[g]] = out.get(self.deg[g], 0) + 1
        return out

    def differential_rank(self, k):
        """Rank of d restricted to degree k."""
        cols = []
        for g in self.gens:
            if self.deg[g] == k and g in self.d:
                cols.append({self._index[h]: v for h, v in self.d[g].items()})
        return rank_of_columns(cols, self.field)

    def cohomology_ranks(self):
        """Map degree -> rank of H^degree."""
        dims = self.dims_by_degree()
        ranks = {}
        rk = {k: self.differential_rank(k) for k in dims}
        for k, n in dims.items():
            r = n - rk.get(k, 0) - rk.get(k - 1, 0)
            if r:
                ranks[k] = r
        if any(v < 0 for v in ranks.values()):
            raise AssertionError("negative cohomology rank; corrupted complex")
        return ranks

    def total_dim(self):
        return len(self.gens)

    def restricted(self, keep):
        """Subquotient on a subset of generators (caller must know it is valid)."""
        keep = set(keep)
        gens = [g for g in self.gens if g in keep]
        d = {}
        for g in gens:
            cb = {h: v for h, v in self.d.get(g, {}).items() if h in keep}
            if cb:
                d[g] = cb
        return ChainComplex(gens, {g: self.deg[g] for g in gens}, d, self.field,
                            check=False)


def cohomology_ranks(C: ChainComplex):
    C.assert_d_squared_zero()
    return C.cohomology_ranks()


@dataclass
class ChainMap:
    """Map of complexes; components stored as one sparse dict source -> target."""

    source: ChainComplex
    target: ChainComplex
    comp: dict  # gen -> {gen: scalar}
    shift: int = 0

    def __post_init__(self):
        self.comp = {g: dict(c) for g, c in self.comp.items() if c}

    def verify(self):
        """Chain-map law d f = (-1)^shift f d."""
        F = self.source.field
        sgn = F.neg(F.one()) if self.shift % 2 else F.one()
        for g in self.source.gens:
            lhs = {}
            for h, v in self.comp.get(g, {}).items():
                for k, w in self.target.d.get(h, {}).items():
                    lhs[k] = F.add(lhs.get(k, F.zero()), F.mul(v, w))
            rhs = {}
            for h, v in self.source.d.get(g, {}).items():
                for k, w in self.comp.get(h, {}).items():
                    rhs[k] = F.add(rhs.get(k, F.zero()), F.mul(F.mul(sgn, v), w))
            keys = set(lhs) | set(rhs)
            for k in keys:
                if F.add(lhs.get(k, F.zero()), F.neg(rhs.get(k, F.zero()))) != F.zero():
                    raise AssertionError(f"not a chain map at {g!r}")
        return True

    def apply(self, vec):
        F = self.source.field
        out = {}
        for g, c in vec.items():
            add_scaled(out, self.comp.get(g, {}), c, F)
        return out


def identity_map(C: ChainComplex) -> ChainMap:
    one = C.field.one()
    return ChainMap(C, C, {g: {g: one} for g in C.gens})


def zero_map(A: ChainComplex, B: ChainComplex) -> ChainMap:
    return ChainMap(A, B, {})


def mapping_cone(phi: ChainMap) -> ChainComplex:
    """Cone of a degree-0 chain map: Cone^k = A^{k+1} (+) B^k."""
    if phi.shift != 0:
        raise ValueError("cone requires a degree-0 chain map")
    A, B = phi.source, phi.target
    if A.field is not B.field:
        raise ValueError("mismatched coefficient fields")
    F = A.field
    gens, deg, d = [], {}, {}
    for g in A.gens:
        gens.append(("a", g))
        deg[("a", g)] = A.deg[g] - 1
    for g in B.gens:
        gens.append(("b", g))
        deg[("b", g)] = B.deg[g]
    for g in A.gens:
        cb = {}
        for h, v in A.d.get(g, {}).items():
            cb[("a", h)] = F.neg(v)
        for h, v in phi.comp.get(g, {}).items():
            w = F.add(cb.get(("b", h), F.zero()), v)
            if w == F.zero():
                cb.pop(("b", h), None)
            else:
                cb[("b", h)] = w
        if cb:
            d[("a", g)] = cb
    for g in B.gens:
        cb = {("b", h): v for h, v in B.d.get(g, {}).items()}
        if cb:
            d[("b", g)] = cb
    return ChainComplex(gens, deg, d, F, check=False)


def is_quasi_iso(phi: ChainMap) -> bool:
    phi.verify()
    return not mapping_cone(phi).cohomology_ranks()


def dual_complex(C: ChainComplex) -> ChainComplex:
    """Dual: generator of degree p becomes degree -p; differential transposed."""
    gens = [("dual", g) for g in C.gens]
    deg = {("dual", g): -C.deg[g] for g in C.gens}
    d = {}
    for g, cb in C.d.items():
        for h, v in cb.items():
            d.setdefault(("dual", h), {})[("dual", g)] = v
    return ChainComplex(gens, deg, d, C.field, check=False)


class FilteredComplex:
    """Cochain complex with an action filtration (d never decreases action)."""

    def __init__(self, complex_: ChainComplex, action, check=True):
        self.complex = complex_
        self.action = dict(action)
        if check:
            for g, cb in complex_.d.items():
                for h in cb:
                    if self.action[h] < self.action[g]:
                        raise ValueError(
                            f"differential decreases action: {g!r} -> {h!r}")

    @property
    def field(self):
        return self.complex.field

    def window(self, a, b):
        """Subquotient complex on generators with action in [a, b)."""
        if not a < b:
            raise ValueError("window requires a < b")
        keep = [g for g in self.complex.gens if a <= self.action[g] < b]
        return self.complex.restricted(keep)

    def window_filtered(self, a, b):
        sub = self.window(a, b)
        return FilteredComplex(sub, {g: self.action[g] for g in sub.gens},
                               check=False)

    def barcode(self):
        """Interval decomposition of the filtered cohomology.

        Computed by column reduction of the filtration-ordered boundary
        (transposed-differential) matrix.
        """
        C = self.complex
        order = sorted(C.gens, key=lambda g: (self.action[g], C.deg[g],
                                              C._index[g]))
        pos = {g: i for i, g in enumerate(order)}
        # boundary of g = transposed differential: faces of g.
        bdry = {g: {} for g in order}
        for g, cb in C.d.items():
            for h, v in cb.items():
                bdry[h][g] = v
        red = Reducer(C.field)
        pairs = []
        essential = []
        for g in order:
            p = red.add({pos[h]: v for h, v in bdry[g].items()})
            if p is None:
                essential.append(g)
            else:
                pairs.append((order[p], g))
        bars = []
        killed = {b for (b, _) in pairs}
        for (b, dth) in pairs:
            if self.action[b] < self.action[dth]:
                bars.append((C.deg[b], self.action[b], self.action[dth]))
        for g in essential:
            if g not in killed:
                bars.append((C.deg[g], self.action[g], INF))
        return Barcode(sorted(bars))


@dataclass(frozen=True)
class Barcode:
    """Multiset of bars (degree, birth, death); death may be math.inf."""

    bars: tuple

    def __init__(self, bars):
        bars = tuple(sorted((int(d), float(b), float(x)) for (d, b, x) in bars))
        for (_, b, x) in bars:
            if not b < x:
                raise ValueError(f"bar with birth {b} >= death {x}")
        object.__setattr__(self, "bars", bars)

    def ranks_at(self, lam):
        """Ranks of H^* of the window (-inf, lam)."""
        out = {}
        for (d, b, x) in self.bars:
            if b < lam <= x or (b < lam and x == INF):
                out[d] = out.get(d, 0) + 1
        return out

    def window_ranks(self, a, b):
        """Ranks of H^* of the window [a, b) (relative pair counts)."""
        out = {}
        for (d, bi, dth) in self.bars:
            if a <= bi < b <= dth:
                out[d] = out.get(d, 0) + 1
            if bi < a <= dth < b:
                out[d + 1] = out.get(d + 1, 0) + 1
        return {k: v for k, v in out.items() if v}

    def essential_ranks(self):
        out = {}
        for (d, b, x) in self.bars:
            if x == INF:
                out[d] = out.get(d, 0) + 1
        return out

    def breakpoints(self):
        vals = set()
        for (_, b, x) in self.bars:
            vals.add(b)
            if x != INF:
                vals.add(x)
        return sorted(vals)

    def to_csv_rows(self):
        rows = [("degree", "birth", "death")]
        for (d, b, x) in self.bars:
            rows.append((d, repr(b), "inf" if x == INF else repr(x)))
        return rows


def cohomology_basis(C: ChainComplex, order_key=None):
    """Deterministic representative cocycles spanning H^*(C).

    Per degree: kernel of d modulo image of d from below, echelon-reduced in
    the given generator order.  Returns a list of (degree, vector) pairs.
    """
    F = C.field
    order = sorted(C.gens, key=order_key) if order_key else list(C.gens)
    pos = {g: i for i, g in enumerate(order)}
    by_deg = {}
    for g in order:
        by_deg.setdefault(C.deg[g], []).append(g)
    basis = []
    for k in sorted(by_deg):
        gens_k = by_deg[k]
        cols = [{pos[h]: v for h, v in C.d.get(g, {}).items()}
                for g in gens_k]
        kernel = kernel_of_columns(cols, F)
        # reduce kernel vectors modulo the coboundary image from degree k-1
        red = Reducer(F)
        for g in by_deg.get(k - 1, []):
            red.add({pos[h]: v for h, v in C.d.get(g, {}).items()})
        for combo in kernel:
            vec = {pos[gens_k[j]]: v for j, v in combo.items()}
            if red.add(vec) is not None:
                basis.append((k, {order[i]: v for i, v in vec.items()}))
    return basis


def class_coordinates(C: ChainComplex, basis_cocycles, z):
    """Coordinates of the class [z] in the given cohomology basis.

    basis_cocycles: list of cocycle vectors (dict gen -> scalar) whose classes
    are independent. Solves z = sum c_i b_i + d(w); returns the c_i or None.
    """
    F = C.field
    idx = C._index
    cols = []
    for b in basis_cocycles:
        cols.append({idx[g]: v for g, v in b.items()})
    nb = len(cols)
    for g in C.gens:
        cb = C.d.get(g)
        if cb:
            cols.append({idx[h]: v for h, v in cb.items()})
    sol = solve_columns(cols, {idx[g]: v for g, v in z.items()}, F)
    if sol is None:
        return None
    return sol[:nb]


def apply_d(C: ChainComplex, vec):
    out = {}
    for g, c in vec.items():
        add_scaled(out, C.d.get(g, {}), c, C.field)
    return out


def is_cocycle(C: ChainComplex, vec):
    return not apply_d(C, vec)
