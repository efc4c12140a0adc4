"""Cochain complexes, filtered complexes, barcodes, and chain maps.

Conventions fixed once for the whole package:
  * cohomological grading, differential of degree +1, d o d = 0 exactly;
  * filtration values are machine reals; a differential never decreases the
    filtration value; ties are broken by generator order;
  * windows [a, b) keep generators with a <= action < b and carry the induced
    subquotient differential.

Every array builder (grids.cubical_complex, sheaves._total_complex) makes
an IndexComplex: the generator ids 0..n-1 with integer arrays, checked
(IndexComplex.check) and, for section barcodes and product class tables,
reduced without a per-generator dict.  ChainComplex, keyed by hashable
generators, is the form for callers that read generators;
IndexComplex.chain_complex gives it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import GF2, Reducer, add_scaled, kernel_of_columns, solve_columns

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

    def __post_init__(self):
        self.comp = {g: dict(c) for g, c in self.comp.items() if c}

    def verify(self):
        """Chain-map law d f = f d (every map here has degree 0)."""
        F = self.source.field
        minus = F.neg(F.one())
        for g in self.source.gens:
            # acc = d f(g) - f d(g)
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
    would reduce to zero (the argument of ChainComplex.cohomology_ranks);
    every other column that reduces to zero is an essential class.  A
    column only meets columns of its own degree, so the passes per degree
    give the pairs of one left-to-right pass; the transposed columns are
    built one degree at a time.
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
        red = Reducer(field)
        for h in by_deg[k]:
            col = bdry.pop(h)
            if pos[h] in cleared:
                continue
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
        d^2 = 0 holds, naming the first failing generator in id order, as
        ChainComplex's dict checks do.

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
        src = self.src()
        bad = np.flatnonzero(self.deg[tgt] != self.deg[src] + 1)
        if bad.size:
            e = bad[0]
            raise ValueError(f"differential not degree +1 at "
                             f"{self.name(src[e])} -> {self.name(tgt[e])}")
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
        id -> field scalar, in entry order.  The coefficients are coerced
        into the field; entries that are zero there are kept (linalg drops
        them)."""
        F = self.field
        count = np.diff(self.indptr)[ids]
        e = index_ranges(self.indptr[:-1][ids], count)
        coef = self.coef[e].tolist()
        scalar = {c: F.coerce(c) for c in set(coef)}
        entries = zip(self.tgt[e].tolist(), map(scalar.__getitem__, coef))
        return [dict(itertools.islice(entries, k)) for k in count.tolist()]

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
        is matched with upper[j].  Its pairs are checked (_check_matching),
        and the reduction of _bars runs on the Morse complex of the critical
        generators (_morse), which has the same bars (Mischaikow-Nanda, DCG
        2013), in the filtration order (value, degree, id).
        """
        src, tgt, name = self.src(), self.tgt, self.name
        bad = np.flatnonzero(value[tgt] < value[src])
        if bad.size:
            e = bad[0]
            raise ValueError(f"differential decreases action: "
                             f"{name(src[e])!r} -> {name(tgt[e])!r}")
        if matching is None:
            matching = (np.zeros(0, np.int64),) * 2
        lower, upper = matching
        self._check_matching(value, lower, upper, src)
        crit, d = self._morse(lower, upper, src)
        order = crit[np.lexsort((crit, self.deg[crit], value[crit]))]
        return _bars(order.tolist(), self.deg.tolist(), value.tolist(), d,
                     self.field)

    def _check_matching(self, value, lower, upper, src):
        """Raise ValueError unless (lower, upper) is an acyclic matching in
        a gradient order: no generator in two pairs (a count per id, which
        takes linear time), and for every pair j, in order, upper[j] is a
        coface of lower[j] (an entry, so nonzero), the two values are
        equal, and d(lower[j]) reaches the upper generator of no earlier
        pair, which no matching with a cycle can satisfy.  The message
        names the first pair that fails."""
        n, tgt, name = len(self.deg), self.tgt, self.name
        both = np.concatenate([lower, upper])
        if both.size and np.bincount(both, minlength=n).max() > 1:
            raise ValueError("a generator is matched twice")
        entries = np.sort(src * n + tgt)
        want = lower * n + upper
        at = np.minimum(np.searchsorted(entries, want), len(entries) - 1)
        if len(entries):
            coface = entries[at] == want
        else:
            coface = np.zeros(len(want), dtype=bool)
        pair_of = np.full(n, -1, dtype=np.int64)
        pair_of[upper] = np.arange(len(upper))
        low_of = np.full(n, -1, dtype=np.int64)
        low_of[lower] = np.arange(len(lower))
        j, j2 = low_of[src], pair_of[tgt]
        failing = (np.flatnonzero(~coface),
                   np.flatnonzero(value[lower] != value[upper]),
                   j[(j >= 0) & (j2 >= 0) & (j2 < j)])
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

    def _morse(self, lower, upper, src):
        """The critical ids (in id order) and their Morse coboundaries, a
        dict critical -> {critical: scalar}, of a checked matching.

        Pair j matches s = lower[j] with u = upper[j]; a_j = d(s)[u] and
        inv_j = -1/a_j.  Eliminating the pairs in their order trades an
        entry a * u of a critical's coboundary for a * inv_j * (d(s) - a_j
        * u), whose upper entries belong to later pairs; entries into lower
        generators are dropped.  In matrix form, with the blocks of the
        coboundary D (critical -> critical), A (critical -> upper, by
        pair), R (lower -> critical, by pair) and M (lower of j -> upper of
        a later pair j'), N = diag(inv) M and Y0 = diag(inv) R, the Morse
        coboundary is D + A Y with Y = sum_i N^i Y0.  N is nilpotent (the
        pairs are in a gradient order), and Y is taken by repeated
        squaring: Y <- Y + P Y, P <- P P from P = N, Y = Y0, until P
        vanishes, in ceil(log2(longest gradient path)) rounds.  In a
        section complex every lower reaches at most one later upper, so a
        round is one pointer jump along each t-axis chain.  Over F2 the
        sums are parities of int64 entries; over Q exact sums of Fraction
        object arrays.
        """
        F, n, P = self.field, len(self.deg), len(lower)

        def lift(e):
            """The field entries of the entries e: int64 0/1 or Fractions."""
            if F is GF2:
                return self.coef[e] & 1
            return np.array([F.coerce(c) for c in self.coef[e].tolist()],
                            dtype=object)

        role = np.full(n, -1, dtype=np.int64)     # -1: critical, -2: lower
        role[lower] = -2
        role[upper] = np.arange(P)
        crit = np.flatnonzero(role == -1)
        low_of = np.full(n, -1, dtype=np.int64)
        low_of[lower] = np.arange(P)
        kind, j = role[self.tgt], low_of[src]
        c_row = role[src] == -1
        own = np.flatnonzero((j >= 0) & (kind == j))
        inv = np.empty(P, dtype=np.int64 if F is GF2 else object)
        inv[j[own]] = lift(own)
        if F is not GF2:
            inv = -1 / inv
        parity = F is GF2
        e = np.flatnonzero((j >= 0) & (kind > j))
        path = _sparse_sum([(j[e], kind[e], inv[j[e]] * lift(e))], n, parity)
        e = np.flatnonzero((j >= 0) & (kind == -1))
        y = _sparse_sum([(j[e], self.tgt[e], inv[j[e]] * lift(e))], n, parity)
        for _ in range(P.bit_length()):
            if not len(path[0]):
                break
            y = _sparse_sum([y, _sparse_product(path, y, n)], n, parity)
            path = _sparse_sum([_sparse_product(path, path, n)], n, parity)
        if len(path[0]):
            raise RuntimeError("the Morse elimination did not terminate: "
                               "the matching is not acyclic")
        e = np.flatnonzero(c_row & (kind >= 0))
        a = (src[e], kind[e], lift(e))
        e = np.flatnonzero(c_row & (kind == -1))
        row, col, val = _sparse_sum(
            [(src[e], self.tgt[e], lift(e)), _sparse_product(a, y, n)], n,
            parity)
        starts = np.flatnonzero(np.diff(row, prepend=-1))
        entries = zip(col.tolist(), val.tolist())
        return crit, {c: dict(itertools.islice(entries, k)) for c, k in
                      zip(row[starts].tolist(),
                          np.diff(starts, append=len(row)).tolist())}


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


def class_coordinates(C, basis_cocycles, zs):
    """Coordinates of each class [z] of zs in the given cohomology basis.

    C is a ChainComplex, whose vectors are dicts generator -> scalar, or an
    IndexComplex, whose vectors are dicts id -> scalar.  basis_cocycles:
    cocycle vectors whose classes are independent.  Solves z = sum c_i b_i
    + d(w) for every z of zs against one reduction of the basis columns and
    the coboundary columns (rows in generator order); returns one list of
    the c_i (or None) per z.

    Only the coboundaries that land in a degree some basis or target vector
    touches are columns.  Any other coboundary column is supported in one
    degree no basis column or target reaches, and it only ever meets pivots
    of that degree, so dropping it changes no coordinate.
    """
    basis, zs = list(basis_cocycles), list(zs)
    if isinstance(C, IndexComplex):
        degrees = {int(C.deg[i]) for v in basis + zs for i in v}
        keep = np.isin(C.deg + 1, sorted(degrees)) & (np.diff(C.indptr) > 0)
        cobound = C.coboundaries(np.flatnonzero(keep))
    else:
        idx, deg = C._index, C.deg
        degrees = {deg[g] for v in basis + zs for g in v}
        cobound = [{idx[h]: v for h, v in C.d[g].items()} for g in C.gens
                   if deg[g] + 1 in degrees and g in C.d]
        basis, zs = ([{idx[g]: v for g, v in vec.items()} for vec in vecs]
                     for vecs in (basis, zs))
    sols = solve_columns(basis + cobound, zs, C.field)
    return [None if sol is None else sol[:len(basis)] for sol in sols]


def apply_d(C, vec):
    """d(vec), entries zero in the field dropped.  Over a ChainComplex vec
    is a dict generator -> scalar.  Over an IndexComplex it is a dict id ->
    integer: the sums are taken over the integers on the CSR arrays, then
    coerced into the field (Z -> field is a ring homomorphism)."""
    if isinstance(C, IndexComplex):
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
    out = {}
    for g, c in vec.items():
        add_scaled(out, C.d.get(g, {}), c, C.field)
    return out
