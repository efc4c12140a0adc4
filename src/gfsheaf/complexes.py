"""Cochain complexes, filtered complexes, barcodes, and chain maps.

Conventions fixed once for the whole package:
  * cohomological grading, differential of degree +1, d o d = 0 exactly;
  * filtration values are machine reals; a differential never decreases the
    filtration value; ties are broken by generator order;
  * windows [a, b) keep generators with a <= action < b and carry the induced
    subquotient differential.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .linalg import GF2, Reducer, add_scaled, kernel_of_columns, solve_columns

INF = math.inf


class ChainComplex:
    """Finite cochain complex over a field.

    gens: ordered tuple of hashable generator ids.
    deg:  dict id -> integer degree.
    d:    dict id -> {id: scalar}, raising degree by exactly 1.  The inner
          dicts are taken over, not copied (empty ones are dropped): the
          caller must not change them afterwards.
    matching: None, or a dict lower -> upper of generator pairs that the
          builder knows to form an acyclic matching, listed in a gradient
          order (FilteredComplex.barcode checks both); carried for the
          barcode, not used by the complex.
    """

    def __init__(self, gens, deg, d, field=GF2, check=True, matching=None):
        self.gens = tuple(gens)
        self.deg = dict(deg)
        self.field = field
        self.d = {g: cb for g, cb in d.items() if cb}
        self.matching = matching
        self._index = {g: i for i, g in enumerate(self.gens)}
        if check:
            self._check()

    def _check(self):
        F = self.field
        for g, cb in self.d.items():
            for h, v in cb.items():
                if self.deg[h] != self.deg[g] + 1:
                    raise ValueError(f"differential not degree +1 at {g} -> {h}")
                if F.is_zero(v):
                    raise ValueError("stored zero in differential")
        self.assert_d_squared_zero()

    def assert_d_squared_zero(self):
        F, d = self.field, self.d
        for g, cb in d.items():
            acc = {}
            for h, v in cb.items():
                add_scaled(acc, d.get(h, {}), v, F)
            if acc:
                raise ValueError(f"d^2 != 0 at generator {g!r}")

    def dims_by_degree(self):
        out = {}
        for g in self.gens:
            out[self.deg[g]] = out.get(self.deg[g], 0) + 1
        return out

    def cohomology_ranks(self):
        """Map degree -> rank of H^degree.

        The degrees are reduced upwards, one Reducer each, with clearing: a
        generator of degree k+1 whose index is a pivot row of degree k is
        skipped.  That is exact over any field.  A reduced column r = d(v)
        with pivot row i has d(r) = 0, its entry at i is nonzero and every
        other entry sits at a smaller index; so trading e_i for r is a
        triangular change of basis of C^{k+1}, and d vanishes on r.
        """
        index, deg = self._index, self.deg
        cols = {}
        for g, cb in self.d.items():
            cols.setdefault(deg[g], []).append((index[g], cb))
        rk, cleared = {}, set()
        for k in sorted(cols):
            # after a gap in the degrees, cleared indexes no degree-k generator
            red = Reducer(self.field)
            for i, cb in cols[k]:
                if i not in cleared:
                    red.add({index[h]: v for h, v in cb.items()})
            rk[k] = len(red.pivots)
            cleared = set(red.pivots)
        dims = self.dims_by_degree()
        ranks = {}
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
        minus = F.one() if self.shift % 2 else F.neg(F.one())
        for g in self.source.gens:
            # acc = d f(g) - (-1)^shift f d(g)
            acc = {}
            for h, v in self.comp.get(g, {}).items():
                add_scaled(acc, self.target.d.get(h, {}), v, F)
            for h, v in self.source.d.get(g, {}).items():
                add_scaled(acc, self.comp.get(h, {}), F.mul(minus, v), F)
            if acc:
                raise AssertionError(f"not a chain map at {g!r}")
        return True


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
            if v != F.zero():
                cb[("b", h)] = v
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

    def barcode(self, matching=None):
        """Interval decomposition of the filtered cohomology.

        Computed by column reduction of the filtration-ordered boundary
        (transposed-differential) matrix, one degree at a time from the top
        down with clearing (Chen-Kerber 2011): a generator of degree k that
        is a pivot row of degree k+1 is the birth of a bar and is skipped.
        Its column would reduce to zero (the argument of
        ChainComplex.cohomology_ranks); every other column that reduces to
        zero is an essential class.  A column only meets columns of its own
        degree, so the passes per degree give the pairs of one left-to-right
        pass; the transposed columns are built one degree at a time.

        With a matching (a dict lower -> upper of generator pairs, see
        _morse_complex) the same reduction runs on the Morse complex of the
        critical generators, which has the same bars (Mischaikow-Nanda,
        DCG 2013).
        """
        C, action = self.complex, self.action
        gens, d = ((C.gens, C.d) if matching is None
                   else _morse_complex(C, action, matching))
        order = sorted(gens, key=lambda g: (action[g], C.deg[g],
                                            C._index[g]))
        pos = {g: i for i, g in enumerate(order)}
        by_deg = {}
        for g in order:
            by_deg.setdefault(C.deg[g], []).append(g)
        bars, cleared = [], set()
        for k in sorted(by_deg, reverse=True):
            # boundary of h = transposed differential: the faces of h
            bdry = {h: {} for h in by_deg[k]}
            for g in by_deg.get(k - 1, ()):
                i = pos[g]
                for h, v in d.get(g, {}).items():
                    bdry[h][i] = v
            red = Reducer(C.field)
            for h in by_deg[k]:
                col = bdry.pop(h)
                if pos[h] in cleared:
                    continue
                p = red.add(col)
                if p is None:
                    bars.append((k, action[h], INF))
                elif action[order[p]] < action[h]:
                    bars.append((k - 1, action[order[p]], action[h]))
            # after a gap in the degrees, cleared indexes no degree-k-1 gen
            cleared = set(red.pivots)
        return Barcode(bars)


def _morse_complex(C: ChainComplex, action, matching):
    """The critical generators of an acyclic matching and their Morse
    coboundaries: (generators in C's order, dict generator -> coboundary).

    matching maps a lower generator s to an upper one t, a coface of s of
    equal action, and lists its pairs in a gradient order: d(s) reaches no
    upper generator of an earlier pair.  Every pair is checked: d(s) has a
    nonzero entry at t, the values are equal, no generator is in two pairs,
    and the order holds, which no matching with a cycle can satisfy.  A
    ValueError says which check failed.

    Gaussian elimination of the pairs in that order, read on the critical
    columns: a critical c whose coboundary holds a * t, t = matching[s],
    trades it for -(a / d(s)[t]) * (d(s) - d(s)[t] * t), whose upper
    entries belong to later pairs; lower entries are dropped.  One sweep
    over the pairs carries every critical's pending multiple of each t.
    """
    F, d = C.field, C.d
    # upper generator of pair j -> j, lower generator of pair j -> ~j
    role = {t: j for j, t in enumerate(matching.values())}
    role.update(zip(matching, itertools.count(-1, -1)))
    if len(role) < 2 * len(matching):
        raise ValueError("a generator is matched twice")
    gens = [g for g in C.gens if g not in role]
    morse = {g: {} for g in gens}
    pending = [[] for _ in matching]    # pair j -> [(critical, a)]
    for g in gens:
        for h, v in d.get(g, {}).items():
            j = role.get(h)
            if j is None:
                morse[g][h] = v
            elif j >= 0:
                pending[j].append((g, v))
    for j, (s, t) in enumerate(matching.items()):
        row = d.get(s, {})
        u = row.get(t)
        if u is None or F.is_zero(u):
            raise ValueError(f"{t!r} is not a coface of {s!r}")
        if action[s] != action[t]:
            raise ValueError(f"matched pair {s!r} -> {t!r} has unequal "
                             f"values {action[s]!r} and {action[t]!r}")
        crit, ups = {}, []
        for h, v in row.items():
            j2 = role.get(h)
            if j2 is None:
                crit[h] = v
            elif j2 > j:
                ups.append((j2, v))
            elif 0 <= j2 < j:
                raise ValueError(
                    f"matched pair {s!r} -> {t!r} reaches the upper "
                    f"generator of an earlier pair: the matching has a "
                    f"cycle or is not in gradient order")
        for g, a in pending[j]:
            c = F.neg(F.mul(a, F.inv(u)))
            add_scaled(morse[g], crit, c, F)
            for j2, v in ups:
                pending[j2].append((g, F.mul(c, v)))
    return gens, {g: cb for g, cb in morse.items() if cb}


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


def class_coordinates(C: ChainComplex, basis_cocycles, zs):
    """Coordinates of each class [z] of zs in the given cohomology basis.

    basis_cocycles: list of cocycle vectors (dict gen -> scalar) whose classes
    are independent. Solves z = sum c_i b_i + d(w) for every z of zs against
    one reduction of the basis and coboundary columns; returns one list of
    the c_i (or None) per z.
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
    sols = solve_columns(cols, [{idx[g]: v for g, v in z.items()}
                                for z in zs], F)
    return [None if sol is None else sol[:nb] for sol in sols]


def apply_d(C: ChainComplex, vec):
    out = {}
    for g, c in vec.items():
        add_scaled(out, C.d.get(g, {}), c, C.field)
    return out
