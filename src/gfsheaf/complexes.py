"""Cochain complexes, filtered complexes, barcodes, and chain maps.

Conventions fixed once for the whole package:
  * cohomological grading, differential of degree +1, d o d = 0 exactly;
  * filtration values are machine reals; a differential never decreases the
    filtration value; ties are broken by generator order;
  * windows [a, b) keep generators with a <= action < b and carry the induced
    subquotient differential.

Every array builder (grids.cubical_index_complex, sheaves._total_complex)
makes an IndexComplex: the generator ids 0..n-1 with integer arrays, checked
(IndexComplex.check) and reduced without a per-generator dict.  The class
calculus (apply_d, class_coordinates, cohomology_basis) runs on it alone,
on classes that are dicts id -> integer.  ChainComplex, keyed by hashable
generators, serves the filtered route and rectification; chain_complex and
index_complex convert between the two.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import (GF2, Reducer, add_scaled, integer_column,
                     integer_scalars, kernel_of_columns, pivot_columns,
                     pivot_reducer, solve_columns)

INF = math.inf

# the most two-step paths IndexComplex.check holds at once (a block of
# source generators; one generator with more paths is a block of its own)
PATH_BUDGET = 1 << 21


class ChainComplex:
    """Finite cochain complex over a field.

    gens: ordered tuple of hashable generator ids.
    deg:  dict id -> integer degree.
    d:    dict id -> {id: scalar}, raising degree by exactly 1.  The inner
          dicts are taken over, not copied (empty ones are dropped): the
          caller must not change them afterwards.
    """

    def __init__(self, gens, deg, d, field=GF2, check=True):
        self.gens = tuple(gens)
        self.deg = dict(deg)
        self.field = field
        self.d = {g: cb for g, cb in d.items() if cb}
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
        for g in compose(self.d, self.d, self.field):
            raise ValueError(f"d^2 != 0 at generator {g!r}")

    def cohomology_ranks(self):
        """Map degree -> rank of H^degree, by the reduction with clearing
        of _clearing_ranks on the generator indexes; the columns go
        through linalg.pivot_columns (over Q, cleared of denominators)."""
        index, deg = self._index, self.deg
        cols = {}
        for g, cb in self.d.items():
            cols.setdefault(deg[g], []).append((index[g], cb))

        def columns(k, cleared):
            return pivot_columns([{index[h]: v for h, v in cb.items()}
                                  for i, cb in cols.get(k, ())
                                  if i not in cleared], self.field)

        return _clearing_ranks(sorted(cols), columns,
                               Counter(map(deg.__getitem__, self.gens)),
                               self.field)

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

    def index_complex(self) -> "IndexComplex":
        """The inverse of IndexComplex.chain_complex: ids in gens order, each
        named by its generator.  A coefficient that is no integer is refused
        (ValueError): an IndexComplex holds integer lifts."""
        cobs = [self.d.get(g, {}) for g in self.gens]
        coef = [v for cb in cobs for v in cb.values()]
        if any(int(v) != v for v in coef):
            raise ValueError("an IndexComplex needs integer coefficients")
        return IndexComplex(
            np.array([self.deg[g] for g in self.gens], dtype=np.int64),
            np.cumsum([0] + list(map(len, cobs)), dtype=np.int64),
            np.array([self._index[h] for cb in cobs for h in cb], np.int64),
            np.array(list(map(int, coef)), np.int64), self.field,
            self.gens.__getitem__)


def cohomology_ranks(C: ChainComplex):
    C.assert_d_squared_zero()
    return C.cohomology_ranks()


def _clearing_ranks(degrees, columns, dims, field):
    """Map degree -> rank of H^degree, in ascending degree order, of a
    complex with dims[k] generators of degree k, the one rank loop of
    ChainComplex and IndexComplex.

    degrees lists in ascending order the degrees of the generators with a
    nonzero coboundary; columns(k, cleared) gives the coboundaries of those
    of degree k whose index is not in cleared, in index order, each a dict
    row index -> entry, a column of linalg.pivot_reducer(field) (a field
    scalar over F2, an int over Q).  The degrees are reduced upwards, one
    pivot_reducer each, with clearing: a generator of degree k+1 whose
    index is a pivot row of degree k is skipped.  That is exact over any
    field.  A reduced column r = d(v) with pivot row i has d(r) = 0, its
    entry at i is nonzero and every other entry sits at a smaller index; so
    trading e_i for r is a triangular change of basis of C^{k+1}, and d
    vanishes on r.  Over Q the fraction-free kernel holds a nonzero
    multiple of r, with the same pivot row.
    """
    rk, cleared = {}, set()
    for k in degrees:
        # after a gap in the degrees, cleared indexes no degree-k generator
        red = pivot_reducer(field)
        for col in columns(k, cleared):
            red.add(col)
        rk[k] = len(red.pivots)
        cleared = set(red.pivots)
    ranks = {}
    for k, n in sorted(dims.items()):
        r = n - rk.get(k, 0) - rk.get(k - 1, 0)
        if r:
            ranks[k] = r
    if any(v < 0 for v in ranks.values()):
        raise AssertionError("negative cohomology rank; corrupted complex")
    return ranks


def compose(outer, inner, field):
    """The sparse map outer o inner of two {source: {target: scalar}} dicts,
    over the sources of inner in its order; a source whose image is zero is
    left out."""
    out = {}
    for g, c in inner.items():
        acc = {}
        for h, v in c.items():
            add_scaled(acc, outer.get(h, {}), v, field)
        if acc:
            out[g] = acc
    return out


@dataclass
class ChainMap:
    """Map of complexes; components stored as one sparse dict source -> target."""

    source: ChainComplex
    target: ChainComplex
    comp: dict  # gen -> {gen: scalar}

    def __post_init__(self):
        self.comp = {g: dict(c) for g, c in self.comp.items() if c}

    def verify(self):
        """Chain-map law d f = f d (every map here has degree 0)."""
        F = self.source.field
        df = compose(self.target.d, self.comp, F)
        fd = compose(self.comp, self.source.d, F)
        for g in self.source.gens:
            if df.get(g, {}) != fd.get(g, {}):
                raise AssertionError(f"not a chain map at {g!r}")
        return True


def mapping_cone(phi: ChainMap) -> ChainComplex:
    """Cone of a (degree-0) chain map: Cone^k = A^{k+1} (+) B^k."""
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

    def barcode(self):
        """Interval decomposition of the filtered cohomology, by the column
        reduction with clearing of _bars on the generators in filtration
        order (action, degree, generator order)."""
        C, action = self.complex, self.action
        order = sorted(C.gens, key=lambda g: (action[g], C.deg[g],
                                              C._index[g]))
        return _bars(order, C.deg, action, C.d, C.field)


def _bars(order, deg, value, d, field):
    """Barcode of a filtered complex given by its generators in filtration
    order, deg[g], value[g] and the coboundary dicts d (a missing generator
    has none).

    Column reduction of the filtration-ordered boundary (transposed-
    differential) matrix, one degree at a time from the top down with
    clearing (Chen-Kerber 2011): a generator of degree k that is a pivot
    row of degree k+1 is the birth of a bar and is skipped.  Its column
    would reduce to zero (the argument of _clearing_ranks);
    every other column that reduces to zero is an essential class.  A
    column only meets columns of its own degree, so the passes per degree
    give the pairs of one left-to-right pass; the transposed columns are
    built one degree at a time and go through linalg.pivot_columns (over
    Q, cleared of denominators) to linalg.pivot_reducer.
    """
    pos = {g: i for i, g in enumerate(order)}
    by_deg = {}
    for g in order:
        by_deg.setdefault(deg[g], []).append(g)
    bars, cleared = [], set()
    for k in sorted(by_deg, reverse=True):
        # boundary of h = transposed differential: the faces of h
        bdry = {h: {} for h in by_deg[k]}
        for g in by_deg.get(k - 1, ()):
            i = pos[g]
            for h, v in d.get(g, {}).items():
                bdry[h][i] = v
        live = [h for h in by_deg[k] if pos[h] not in cleared]
        cols = pivot_columns([bdry.pop(h) for h in live], field)
        red = pivot_reducer(field)
        for h, col in zip(live, cols):
            p = red.add(col)
            if p is None:
                bars.append((k, value[h], INF))
            elif value[order[p]] < value[h]:
                bars.append((k - 1, value[order[p]], value[h]))
        # after a gap in the degrees, cleared indexes no degree-k-1 gen
        cleared = set(red.pivots)
    return Barcode(bars)


def index_ranges(starts, counts):
    """The concatenation of arange(s, s + c) over the pairs (s, c)."""
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    return (np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
            + np.repeat(np.asarray(starts, dtype=np.int64) - ends + counts,
                        counts))


class IndexComplex:
    """Cochain complex on the generator ids 0..n-1, held as index arrays.

    deg:    int array, the degree of each generator.
    indptr: n + 1 offsets: the coboundary of generator i is the entries
            indptr[i]:indptr[i+1] of tgt (generator ids) and coef, in
            order, every one nonzero in field.
    coef:   int64 integer lifts of the field entries (the d^2 check
            needs these).
    name:   id -> the generator an error message names.
    """

    def __init__(self, deg, indptr, tgt, coef, field, name):
        self.deg = deg
        self.indptr = indptr
        self.tgt = tgt
        self.coef = coef
        self.field = field
        self.name = name

    def src(self):
        """The generator id of each entry."""
        return np.repeat(np.arange(len(self.deg), dtype=np.int64),
                         np.diff(self.indptr))

    def check(self, integral=False):
        """Raise ValueError unless every entry raises the degree by one and
        is nonzero in the field, and d^2 = 0 holds, naming the first
        failing generator in id order, as ChainComplex's dict checks do.

        The two-step paths x -> y -> z are grouped by (x, z) over the
        integers.  d^2 vanishes at (x, z) over Z exactly when the integer
        sum of the products of the two coefficients is 0; over F2, where
        every entry is odd, exactly when the number of paths is even.  Over
        Q the integer sum is taken.  Over F2 it is taken too when integral
        is set, which certifies d^2 = 0 in every field, since Z -> field is
        a ring homomorphism.  A cubical complex is certified that way: its
        Koszul signs make it a complex over Z, and parity cannot see a
        wrong sign.  An F2 section complex is certified by parity, because
        an F2 stalk may carry unsigned differentials, whose integer lifts
        are no complex over Z.

        The paths are taken in blocks of consecutive source generators,
        each with at most PATH_BUDGET paths (a source with more is a block
        of its own), in id order, so the memory the check holds is bounded
        and the first failing generator is still the first in id order.
        The refusal of integer sums too large for int64 is made per block,
        after the failures of earlier blocks.
        """
        n, indptr, tgt = len(self.deg), self.indptr, self.tgt
        src, coef = self.src(), self.coef
        for what, bad in (("differential not degree +1",
                           self.deg[tgt] != self.deg[src] + 1),
                          ("stored zero in differential",
                           coef & 1 == 0 if self.field is GF2 else coef == 0)):
            if bad.any():
                e = int(bad.argmax())
                raise ValueError(f"{what} at {self.name(src[e])} -> "
                                 f"{self.name(tgt[e])}")
        del bad     # the entry masks are not held during the path blocks
        # the two-step paths from the sources lo..hi-1, one block of
        # sources at a time, each block holding at most PATH_BUDGET paths
        # unless one source alone has more
        length = np.diff(indptr)[tgt]
        reach = np.concatenate(([0], np.cumsum(length)))[indptr]
        lo = 0
        while lo < n:
            hi = int(np.searchsorted(reach, reach[lo] + PATH_BUDGET,
                                     side="right")) - 1
            hi = max(hi, lo + 1)
            self._check_paths(src, length, indptr[lo], indptr[hi], integral)
            lo = hi

    def _check_paths(self, src, length, e0, e1, integral):
        """The d^2 check of check on the two-step paths through the entries
        e0..e1-1."""
        n, indptr, tgt, coef = len(self.deg), self.indptr, self.tgt, self.coef
        length = length[e0:e1]
        first = np.repeat(np.arange(e0, e1, dtype=np.int64), length)
        second = index_ranges(indptr[:-1][tgt[e0:e1]], length)
        key = src[first] * n + tgt[second]
        if not len(key):
            return      # no two-step path
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        paths = np.diff(starts, append=len(key))
        if self.field is GF2 and not integral:
            failing = key[starts[paths & 1 == 1]]
        else:
            big = int(np.abs(coef).max())
            if big * big * int(paths.max()) >= 1 << 63:
                raise ValueError("coefficients too large for an exact "
                                 "d^2 check")
            w = (coef[first] * coef[second])[order]
            failing = key[starts[np.add.reduceat(w, starts) != 0]]
        if failing.size:
            raise ValueError(f"d^2 != 0 at generator "
                             f"{self.name(failing[0] // n)!r}")

    def coboundaries(self, ids):
        """The coboundary of each generator of ids (an int array) as a dict
        id -> field scalar (linalg.integer_scalars of the coefficients: over
        Q the integer lifts, the columns of the fraction-free rank kernel),
        in entry order; none is zero (check refuses a zero one)."""
        count = np.diff(self.indptr)[ids]
        e = index_ranges(self.indptr[:-1][ids], count)
        entries = zip(self.tgt[e].tolist(),
                      integer_scalars(self.coef[e].tolist(), self.field))
        return [dict(itertools.islice(entries, k)) for k in count.tolist()]

    def cohomology_ranks(self):
        """Map degree -> rank of H^degree, by the reduction with clearing
        of _clearing_ranks on the ids: the columns are the coboundaries of
        the uncleared generators that have entries, integers over Q."""
        deg, has = self.deg, np.diff(self.indptr) > 0

        def columns(k, cleared):
            live = has & (deg == k)
            live[np.fromiter(cleared, np.int64, len(cleared))] = False
            return self.coboundaries(np.flatnonzero(live))

        return _clearing_ranks(sorted(set(deg[has].tolist())), columns,
                               Counter(deg.tolist()), self.field)

    def chain_complex(self, gens) -> ChainComplex:
        """The same complex keyed by gens (the generator of each id, in id
        order), with field scalars: degrees and coboundary entries in id
        and entry order."""
        F = self.field
        coef = self.coef.tolist()
        scalar = {c: F.coerce(c) for c in set(coef)}
        entries = zip(map(gens.__getitem__, self.tgt.tolist()),
                      map(scalar.__getitem__, coef))
        d = {}
        for g, k in zip(gens, np.diff(self.indptr).tolist()):
            if k:
                d[g] = dict(itertools.islice(entries, k))
        return ChainComplex(gens, dict(zip(gens, self.deg.tolist())), d, F,
                            check=False)

    def barcode(self, value, matching=None):
        """Barcode of the complex filtered by value (one float per
        generator), checking first that no entry decreases the value.

        matching, when given, is a pair (lower, upper) of id arrays: lower[j]
        is matched with upper[j].  The reduction of _bars runs on the Morse
        complex of its critical generators (retract, which checks the
        matching), which has the same bars (Mischaikow-Nanda, DCG 2013), in
        the filtration order (value, degree, id).
        """
        src, tgt, name = self.src(), self.tgt, self.name
        bad = np.flatnonzero(value[tgt] < value[src])
        if bad.size:
            e = bad[0]
            raise ValueError(f"differential decreases action: "
                             f"{name(src[e])!r} -> {name(tgt[e])!r}")
        del src
        if matching is None:
            matching = (np.zeros(0, np.int64),) * 2
        crit, (row, col, val), _ = self.retract(value, *matching)
        starts = np.flatnonzero(np.diff(row, prepend=-1))
        entries = zip(col.tolist(), val.tolist())
        d = {c: dict(itertools.islice(entries, k)) for c, k in
             zip(row[starts].tolist(),
                 np.diff(starts, append=len(row)).tolist())}
        order = crit[np.lexsort((crit, self.deg[crit], value[crit]))]
        return _bars(order.tolist(), self.deg.tolist(), value.tolist(), d,
                     self.field)

    def retract(self, value, lower, upper):
        """The strong deformation retract (i, p, h) onto the critical
        generators of the matching (lower, upper), checked first on value
        (_check_matching): (crit, d_M, i), the critical ids in id order, the
        Morse coboundary on them and the inclusion i(c) = c + h(d c), each
        (rows, cols, values) sorted by (row, col) and exact in the field.

        Pair j matches s_j = lower[j] with u_j = upper[j] by a_j =
        d(s_j)[u_j]; inv_j = -1/a_j, taken as -a_j when a_j is +-1 (every
        pair of cubical and section complexes and of stalk records), so over
        Q Fractions arise only through non-unit pairs.  With the coboundary
        blocks D (critical -> critical) and A (critical -> u_j), N[j, j'] =
        inv_j d(s_j)[u_j'] (nilpotent: the pairs are in a gradient order)
        and Y0[j, c] = inv_j d(s_j)[c], Z = A sum_k N^k gives d_M = D + Z Y0
        and i(c) = c + sum_j Z[c, j] inv_j s_j (Mischaikow-Nanda, DCG 2013;
        Curry-Ghrist-Nanda, FoCM 16, 2016).  Z is taken by repeated
        squaring, Z <- Z + Z P, P <- P P from Z = A, P = N, in
        ceil(log2(longest gradient path)) rounds; in a section complex a
        round is one pointer jump along each t-axis chain.  Only the rows of
        lower and critical generators are read.  Over F2 the sums are
        parities, over Q exact sums of Python int object arrays.
        """
        self._check_matching(value, lower, upper)
        n, P, parity = len(self.deg), len(lower), self.field is GF2
        lift = (lambda c: c & 1) if parity else (lambda c: c.astype(object))
        role = np.full(n, -1, dtype=np.int64)     # -1: critical, -2: lower
        role[lower] = -2
        role[upper] = np.arange(P)
        crit = np.flatnonzero(role == -1)
        count = np.diff(self.indptr)
        e_low = index_ranges(self.indptr[:-1][lower], count[lower])
        j = np.repeat(np.arange(P), count[lower])     # pair of each entry
        kind = role[self.tgt[e_low]]      # entries into lowers (-2) drop out
        a = self.coef[e_low[kind == j]]       # a_j, in pair order
        inv = lift(-a)
        if not parity:
            unit = np.flatnonzero(np.abs(a) != 1)
            inv[unit] = [Fraction(-1, x) for x in a[unit].tolist()]

        def part(e, rows, cols, scale):
            """The summed entries e of the coboundary at (rows, cols), each
            scaled by scale[row] when scale is given."""
            vals = lift(self.coef[e])
            if scale is not None:
                vals = scale[rows] * vals
            return _sparse_sum([(rows, cols, vals)], n, parity)

        up, to = kind > j, kind == -1
        path = part(e_low[up], j[up], kind[up], inv)
        y0 = part(e_low[to], j[to], self.tgt[e_low[to]], inv)
        e = index_ranges(self.indptr[:-1][crit], count[crit])
        row, kind = np.repeat(crit, count[crit]), role[self.tgt[e]]
        up, to = kind >= 0, kind == -1
        z = part(e[up], row[up], kind[up], None)
        d = part(e[to], row[to], self.tgt[e[to]], None)
        del e_low, j, e, row, kind, up, to
        for _ in range(P.bit_length()):
            if not len(path[0]):
                break
            z = _sparse_sum([z, _sparse_product(z, path, n)], n, parity)
            path = _sparse_sum([_sparse_product(path, path, n)], n, parity)
        if len(path[0]):
            raise RuntimeError("the Morse elimination did not terminate: "
                               "the matching is not acyclic")
        d = _sparse_sum([d, _sparse_product(z, y0, n)], n, parity)
        zr, zj, zv = z
        i = _sparse_sum([(crit, crit, lift(np.ones(len(crit), np.int64))),
                         (zr, lower[zj], zv * inv[zj])], n, parity)
        return crit, d, i

    def _check_matching(self, value, lower, upper):
        """Raise ValueError unless (lower, upper) is an acyclic matching in
        a gradient order: no generator in two pairs (a count per id, which
        takes linear time), and for every pair j, in order, upper[j] is a
        coface of lower[j] (an entry of its row, so nonzero), the two values
        are equal, and d(lower[j]) reaches the upper generator of no earlier
        pair, which no matching with a cycle can satisfy.  Only the rows of
        the lower generators are read.  The message names the first pair
        that fails."""
        n, indptr, tgt, name = len(self.deg), self.indptr, self.tgt, self.name
        both = np.concatenate([lower, upper])
        if both.size and np.bincount(both, minlength=n).max() > 1:
            raise ValueError("a generator is matched twice")
        count = np.diff(indptr)[lower]
        pair = np.repeat(np.arange(len(lower)), count)
        reach = tgt[index_ranges(indptr[:-1][lower], count)]
        coface = np.zeros(len(lower), dtype=bool)
        coface[pair[reach == upper[pair]]] = True
        pair_of = np.full(n, -1, dtype=np.int64)
        pair_of[upper] = np.arange(len(upper))
        reach = pair_of[reach]
        failing = (np.flatnonzero(~coface),
                   np.flatnonzero(value[lower] != value[upper]),
                   pair[(reach >= 0) & (reach < pair)])
        fails = [(int(x.min()), rank) for rank, x in enumerate(failing)
                 if x.size]
        if not fails:
            return
        j, rank = min(fails)
        s, t = name(lower[j]), name(upper[j])
        if rank == 0:
            raise ValueError(f"{t!r} is not a coface of {s!r}")
        if rank == 1:
            raise ValueError(f"matched pair {s!r} -> {t!r} has unequal "
                             f"values {float(value[lower[j]])!r} and "
                             f"{float(value[upper[j]])!r}")
        raise ValueError(f"matched pair {s!r} -> {t!r} reaches the upper "
                         f"generator of an earlier pair: the matching has a "
                         f"cycle or is not in gradient order")

def _sparse_product(a, b, n):
    """The entries of the product a b of two sparse matrices, each given
    as (rows, cols, values) arrays with b's rows sorted and below n: for
    every entry (r, k, v) of a, the entries (r, c, v w) over row k of b,
    unsummed."""
    (ar, ak, av), (br, bc, bv) = a, b
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(br, minlength=n), out=ptr[1:])
    count = ptr[1:][ak] - ptr[:-1][ak]
    e = index_ranges(ptr[:-1][ak], count)
    return np.repeat(ar, count), bc[e], np.repeat(av, count) * bv[e]


def _sparse_sum(parts, n, parity):
    """The sum of the sparse matrices parts, each (rows, cols, values) with
    rows and cols below n, as one (rows, cols, values) sorted by (row, col):
    equal keys summed with np.add.reduceat (mod 2 when parity is set) and
    zero sums dropped."""
    row, col, val = (np.concatenate(x) for x in zip(*parts))
    key = row * n + col
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    if not len(starts):
        return key, key, val[order]
    val = np.add.reduceat(val[order], starts)
    if parity:
        val &= 1
    keep = np.flatnonzero(val != 0)
    key = key[starts[keep]]
    return key // n, key % n, val[keep]


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

    def window_ranks(self, a, b):
        """Ranks of H^* of the window [a, b) (relative pair counts), in
        ascending degree order."""
        out = Counter()
        for (d, bi, dth) in self.bars:
            if a <= bi < b <= dth:
                out[d] += 1
            if bi < a <= dth < b:
                out[d + 1] += 1
        return dict(sorted(out.items()))

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


def cohomology_basis(C: IndexComplex, order_key=None):
    """Deterministic representative cocycles spanning H^*(C): per degree,
    kernel of d modulo image of d from below, echelon-reduced in the order
    of the ids under order_key (id order when None) on the columns of
    C.coboundaries.  Returns (degree, vector) pairs, each vector a dict id
    -> integer (over Q the echelon vector times the lcm of its
    denominators)."""
    F, n, deg = C.field, len(C.deg), C.deg.tolist()
    order = sorted(range(n), key=order_key) if order_key else list(range(n))
    pos = np.argsort(order).tolist()
    # the coboundaries on the positions, by degree in the order: the kernel
    # of degree k copies them, the image of degree k + 1 reduces them
    by_deg = {}
    for g, cb in zip(order, C.coboundaries(np.array(order, dtype=np.int64))):
        by_deg.setdefault(deg[g], []).append(
            (g, {pos[h]: v for h, v in cb.items()}))
    basis = []
    for k in sorted(by_deg):
        gens_k = [g for g, _ in by_deg[k]]
        kernel = kernel_of_columns([col for _, col in by_deg[k]], F)
        # reduce kernel vectors modulo the coboundary image from degree k-1
        red = Reducer(F)
        for _, col in by_deg.get(k - 1, ()):
            red.add(col)
        for combo in kernel:
            vec = {pos[gens_k[j]]: v for j, v in combo.items()}
            if red.add(vec) is not None:
                vec = {order[i]: v for i, v in vec.items()}
                basis.append((k, vec if F is GF2 else integer_column(vec)))
    return basis


def class_coordinates(C: IndexComplex, basis_cocycles, zs):
    """Coordinates of each class [z] of zs in the given cohomology basis.

    The vectors are dicts id -> scalar.  basis_cocycles: cocycle vectors
    whose classes are independent.  Solves z = sum c_i b_i + d(w) for every
    z of zs against one reduction of the basis columns and the coboundary
    columns (rows in id order); returns one list of the c_i (or None) per z.

    Only the coboundaries that land in a degree some basis or target vector
    touches are columns.  Any other coboundary column is supported in one
    degree no basis column or target reaches, and it only ever meets pivots
    of that degree, so dropping it changes no coordinate.
    """
    basis, zs = list(basis_cocycles), list(zs)
    degrees = {int(C.deg[i]) for v in basis + zs for i in v}
    keep = np.isin(C.deg + 1, sorted(degrees)) & (np.diff(C.indptr) > 0)
    cobound = C.coboundaries(np.flatnonzero(keep))
    sols = solve_columns(basis + cobound, zs, C.field)
    return [None if sol is None else sol[:len(basis)] for sol in sols]


def apply_d(C: IndexComplex, vec):
    """d(vec) for vec a dict id -> integer, entries zero in the field
    dropped: the sums are taken over the integers on the CSR arrays, then
    coerced into the field (Z -> field is a ring homomorphism)."""
    F = C.field
    if any(int(c) != c for c in vec.values()):
        raise ValueError("an id-keyed vector needs integer entries")
    ids = np.fromiter(vec, dtype=np.int64, count=len(vec))
    count = np.diff(C.indptr)[ids]
    e = index_ranges(C.indptr[:-1][ids], count)
    acc = np.zeros(len(C.deg), dtype=np.int64)
    np.add.at(acc, C.tgt[e], C.coef[e] * np.repeat(np.fromiter(
        map(int, vec.values()), dtype=np.int64, count=len(vec)), count))
    hit = np.flatnonzero(acc)
    out = zip(hit.tolist(), map(F.coerce, acc[hit].tolist()))
    return {i: v for i, v in out if not F.is_zero(v)}


def odd_ids(vec):
    """The ids of the entries of the id-keyed vector vec that are nonzero
    over F2, in vec's order, as an int64 array."""
    return np.array([i for i, c in vec.items() if c & 1], dtype=np.int64)
