"""Constructible sheaf models on N x R.

A tame sheaf is carried in one of three presentations:

  * GF: a generating function; section queries reduce to windowed pairs of
    sublevel sets (with the canonical degree shift applied once, here).
  * Cellular: a stratification of N x R by base cells and breakpoint
    intervals, a stalk complex per stratum given by a StalkSource (a rule
    over (base cell, threshold)), and generization maps that match
    generators by label (restrictions are projections, extensions are
    inclusions).  The cellular presentation of a GF sheaf gives its stalks
    as masks over the cells of its fiber (FiberMasks); unit sheaves and
    rank-one tensors give one generator above a per-cell opening threshold
    (RankOneStalks).
  * Product: a pair of factors on a shared or doubled base with the sum
    pushforward evaluated through the discretized two-axis model.

Sections are computed as cochain complexes over the cells of the queried
region.  A cellular sheaf is constant on its own strata: CellSheaf.stalk
keeps one stalk per (base cell, own stratum), its sections are taken on its
own t-axis, and a t-cell of a refined axis takes the stalk of the own
stratum that contains it.  The window [a, b) keeps the t-cells whose top
value (in the product carrier, the sum of the two tops) lies in [a, b), so
every window is a subquotient of one complex filtered by that value.

One builder, _total_complex, assembles every section complex as integer
index arrays (a SectionArrays, an IndexComplex): each generator (bc, t_1..
t_m, label_1..label_m) is an id, numbered in generator order; the
coboundary is src/tgt/coef arrays built from the base cofaces, the t-axis
cofaces and the stalk differentials with Koszul signs.  The stalks of each
factor come in as one StalkTable of integer slots, read off its
StalkSource in one numpy pass.  Degree +1 and d^2 = 0 are checked on the
integer arrays, exactly in the field (the parity of the two-step path
count over F2, the integer sum over Q).  section_barcode builds one such
complex per (sheaf, region) and reduces it on ids through its vertical
matching, which pairs a generator over ('v', i) with the same labels over
('e', i) and is checked there too; sections() reads every cellular and
product window off the barcode, and its bars are the pushforward barcode.
The unit and product maps act on id-keyed cochains of the same arrays.
Tuple ChainComplexes are built from them only by section_complex and
product_section_complex, for callers that read generators.  GF windows
stay on the pair route (gf_cohomology) and limit sheaves on their clamp
schedules, so the routes stay independent.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexes import Barcode, ChainComplex, IndexComplex, index_ranges
from .genfun import (GenFun, cerf_diagram, gf_cohomology,
                     strand_value_range, window_ceiling, window_floor)
from .grids import BaseRegion, BoxGrid
from .linalg import GF2

INF = math.inf


# ---------------------------------------------------------------------------
# the t-axis stratification

@dataclass(frozen=True)
class TAxis:
    """R cut at breakpoints; cells are the breakpoint vertices ('v', i) and
    the open intervals ('e', i) below break i, with ('e', m) the top ray."""

    breaks: tuple

    def __post_init__(self):
        if not self.breaks:
            raise ValueError("a t-axis needs at least one breakpoint")
        if any(b >= c for b, c in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def m(self):
        return len(self.breaks)

    def cells(self):
        out = []
        for i in range(self.m):
            out.append(("e", i))
            out.append(("v", i))
        out.append(("e", self.m))
        return out

    def dim(self, tc):
        return 1 if tc[0] == "e" else 0

    def span(self, i):
        """Endpoints of interval cell ('e', i), with sentinels at the ends."""
        lo = self.breaks[i - 1] if i > 0 else self.breaks[0] - 1.0
        hi = self.breaks[i] if i < self.m else self.breaks[-1] + 1.0
        return lo, hi

    def rep(self, tc):
        """From-above representative threshold of a cell."""
        if tc[0] == "e":
            lo, hi = self.span(tc[1])
            return (lo + hi) / 2
        return self.rep(("e", tc[1] + 1))

    def rep_below(self, tc):
        """From-below representative (used by the duality pullback)."""
        if tc[0] == "e":
            return self.rep(tc)
        return self.rep(("e", tc[1]))

    def cofaces(self, tc):
        """Codim-1 cofaces with incidence signs ([left:e]=-1, [right:e]=+1)."""
        if tc[0] == "e":
            return []
        i = tc[1]
        return [(("e", i), +1), (("e", i + 1), -1)]

    def top_value(self, tc):
        """Largest vertex value touched by a cell (top ray: +inf)."""
        if tc[0] == "v":
            return self.breaks[tc[1]]
        i = tc[1]
        return self.breaks[i] if i < self.m else INF

    def window_cells(self, a, b):
        """Cells of the relative window [a, b): touching >= a, not >= b."""
        out = []
        for tc in self.cells():
            top = self.top_value(tc)
            if top >= a and not top >= b:
                out.append(tc)
        return out

    def with_breaks(self, extra):
        vals = list(self.breaks)
        for x in extra:
            if x in (-INF, INF):
                continue
            if all(abs(x - v) > 1e-12 for v in vals):
                vals.append(x)
        return TAxis(tuple(sorted(vals)))


# ---------------------------------------------------------------------------
# stalks

@dataclass(frozen=True)
class Stalk:
    """Finite complex with labelled generators; maps between stalks act by
    matching labels."""

    gens: tuple          # tuple of (label, degree)
    diff: tuple = ()     # tuple of (label, label, coeff): degree +1 entries

    def degrees(self):
        return dict(self.gens)

    def d_map(self):
        out = {}
        for (a, b, c) in self.diff:
            out.setdefault(a, {})[b] = c
        return out

    @property
    def size(self):
        return len(self.gens)


ZERO_STALK = Stalk(())


class StalkTable(NamedTuple):
    """Stalks on integer slots, as _total_complex reads them.

    Stalk k holds the slots off[k]:off[k+1], one per generator in stalk
    order; slot q carries the label id lab[q] (labels[i] is label i), the
    degree ldeg[q], and the stalk differential leaving it: the entries
    dptr[q]:dptr[q+1] of dpos (the local position of the target) and dcoef
    (integer coefficients, nonzero in the field), in Stalk.d_map order.
    """

    off: np.ndarray
    lab: np.ndarray
    ldeg: np.ndarray
    dptr: np.ndarray
    dpos: np.ndarray
    dcoef: np.ndarray
    labels: list


class Corners(NamedTuple):
    """Where the stalks of a sheaf open (CellSheaf.corners), over its base
    cells in C order.  opens[c] is the index of the break above which the
    stalk over cell c opens, -1 when it never opens, and deg[c] the degree
    of its first generator there (-1 too).  On each own stratum ('e', s),
    size[c, s] is the number of stalk generators and label[c, s] the label
    id (into labels) of the first one, -1 when the stalk is empty."""

    opens: np.ndarray
    deg: np.ndarray
    size: np.ndarray
    label: np.ndarray
    labels: list


class StalkSource:
    """Where a CellSheaf takes its stalks from: a rule that gives the stalk
    over every (flat base cell, threshold) pair.

    table is the one place that applies the rule: it gives the stalks of
    many pairs in one numpy pass, as the section assembly reads them.
    stalks reads tuple Stalks off one table, for the callers that read
    labels.
    """

    base_shape: tuple   # the base cell shape the flat ids index

    def table(self, rows, thresholds):
        """(index, StalkTable) of the stalks over the flat base cells rows
        at thresholds: index[r, i] numbers the stalk over (rows[r],
        thresholds[i]) in the table, -1 when it is empty."""
        raise NotImplementedError

    def stalks(self, base_cell, thresholds):
        """The stalks over base_cell at thresholds as tuple Stalks, read off
        one table."""
        row = np.ravel_multi_index(tuple(base_cell), self.base_shape)
        index, t = self.table([row], thresholds)
        labels = [t.labels[x] for x in t.lab.tolist()]
        gens = list(zip(labels, t.ldeg.tolist()))
        src = np.repeat(np.arange(len(labels)), np.diff(t.dptr))
        start = np.repeat(t.off[:-1], np.diff(t.off))
        diff = list(zip(map(labels.__getitem__, src.tolist()),
                        map(labels.__getitem__,
                            (start[src] + t.dpos).tolist()),
                        t.dcoef.tolist()))
        off, end = t.off.tolist(), t.dptr[t.off].tolist()
        return [Stalk(tuple(gens[off[k]:off[k + 1]]),
                      tuple(diff[end[k]:end[k + 1]])) if k >= 0
                else ZERO_STALK for k in index[0].tolist()]


class FiberMasks(StalkSource):
    """The stalks of a GF sheaf's cellular presentation, as masks over the
    cells of its fiber.

    The stalk over base cell bc at threshold thr is the fiber complex on
    the cells whose value v (values[flat bc, flat fiber cell], the largest
    vertex value of the cell) has floor <= v < thr, with the fiber's
    coboundary (its CofaceTable) between them; generator labels are the
    fiber cells, in flat id order.
    """

    def __init__(self, base: BoxGrid, fiber: BoxGrid, values, floor):
        self.base_shape = base.base_cell_shape
        self.coface = fiber.coface_table
        self.labels = list(fiber.all_cells())
        self.values = values.reshape(-1, len(self.labels))
        self.floor = floor

    def table(self, rows, thresholds):
        """StalkSource.table.  Label id = flat fiber cell id; a stalk's
        differential keeps the coface entries between its cells, in slot
        order."""
        n_fc = len(self.labels)
        v = self.values[rows][:, None, :]
        kept = ((self.floor <= v) & (v < np.asarray(
            thresholds, dtype=float)[None, :, None])).reshape(-1, n_fc)
        size = kept.sum(axis=1)
        full = size > 0
        index = np.where(full, np.cumsum(full) - 1, -1).reshape(
            len(rows), len(thresholds))
        size = size[full]
        off = np.concatenate([[0], np.cumsum(size)])
        row, fc = np.nonzero(kept)
        key = row * n_fc + fc               # increasing: the slot order
        cof = self.coface.cof[fc]
        want = row[:, None] * n_fc + cof
        at = np.minimum(np.searchsorted(key, want), len(key) - 1)
        src, k = np.nonzero((cof >= 0) & (key[at] == want))
        dptr = np.concatenate([[0], np.cumsum(np.bincount(
            src, minlength=len(fc)))])
        start = np.repeat(off[:-1], size)   # of the stalk holding each slot
        return index, StalkTable(
            off, fc, self.coface.dim[fc].astype(np.int64), dptr,
            at[src, k] - start[src],
            self.coface.sgn[fc[src], k].astype(np.int64), self.labels)


class RankOneStalks(StalkSource):
    """Stalks of rank at most one, without differential: over the flat base
    cell c, one generator labelled label in degree deg[c] at every
    threshold above opens[c] (+inf: never), none at or below it."""

    def __init__(self, base_shape, opens, deg, label):
        self.base_shape = base_shape
        self.opens = np.asarray(opens, dtype=float).ravel()
        self.deg = np.asarray(deg, dtype=np.int64).ravel()
        self.label = label

    def table(self, rows, thresholds):
        """StalkSource.table: one stalk of one slot per nonempty pair, in
        (row, threshold) order; the label id is 0."""
        full = self.opens[rows][:, None] < np.asarray(thresholds,
                                                      dtype=float)
        index = np.where(full, np.cumsum(full).reshape(full.shape) - 1, -1)
        n = int(full.sum())
        none = np.zeros(0, dtype=np.int64)
        return index, StalkTable(
            np.arange(n + 1, dtype=np.int64), np.zeros(n, dtype=np.int64),
            self.deg[rows][np.nonzero(full)[0]],
            np.zeros(n + 1, dtype=np.int64), none, none, [self.label])


# ---------------------------------------------------------------------------
# cellular presentation

class CellSheaf:
    """Stratified presentation: the stalk over (base cell, threshold) comes
    from a StalkSource, source.

    Generization maps are label matches; this is exact for restriction maps
    (projections) and star inclusions alike, and is verified by the d^2 = 0
    assertion on every assembled section complex.
    """

    def __init__(self, base: BoxGrid, taxis: TAxis, source: StalkSource,
                 shift=0, label="cell", field=GF2, indicator=None):
        if base.fiber:
            raise ValueError("cellular sheaves live over a base-only grid")
        self.base = base
        self.taxis = taxis
        self.source = source
        self.shift = shift
        self.label = label
        self.field = field
        self.indicator = indicator  # ('region', mask, t0) | ('graph', f) | None
        self._cache = {}    # (base cell, own stratum index) -> Stalk

    def stalk(self, base_cell, threshold):
        """The stalk over base_cell of the own stratum ('e', i) that
        contains threshold (a breakpoint belongs to the stratum above it),
        sampled at the stratum's representative: the sheaf is constant on
        its strata.  One table gives the stalks of every stratum over the
        cell, and all of them are kept."""
        i = bisect.bisect(self.taxis.breaks, threshold)
        key = (tuple(base_cell), i)
        hit = self._cache.get(key)
        if hit is None:
            stalks = self.source.stalks(key[0], self._reps())
            self._cache.update(((key[0], j), st)
                               for j, st in enumerate(stalks))
            hit = stalks[i]
        return hit

    def _reps(self):
        """The representative threshold of each own stratum ('e', i)."""
        return [self.taxis.rep(("e", i)) for i in range(self.taxis.m + 1)]

    def strata_stalks(self, base_cells):
        """(index, StalkTable) of the stalks over base_cells (cell tuples)
        on the own strata, read off one table of the source:
        index[c, i] numbers the stalk over (base_cells[c], ('e', i)) in the
        table, -1 when it is empty."""
        shape = self.base.base_cell_shape
        flat = np.ravel_multi_index(tuple(np.array(
            base_cells, dtype=np.int64).reshape(-1, len(shape)).T), shape)
        rows, inverse = np.unique(flat, return_inverse=True)
        index, table = self.source.table(rows, self._reps())
        return index[inverse], table

    @functools.cached_property
    def corners(self) -> Corners:
        """The Corners of this sheaf, read once off the stalk table of all
        its base cells (strata_stalks).  The stalk opens above break i when
        stratum i + 1 has generators and stratum i has none.  Raises
        ValueError ("rank-one stalks required") when a stalk above a break
        at or below the opening one has more than one generator, and
        AssertionError when a stalk that never opens is nonempty on the top
        stratum; the first failing cell in C order decides."""
        index, st = self.strata_stalks(
            [tuple(bc) for bc in self.base.base_cells()])
        first = st.off[:-1]         # the first slot of each stalk
        size = np.append(np.diff(st.off), 0)[index]
        label = np.append(st.lab[first], -1)[index]
        m = self.taxis.m
        step = (size[:, 1:] > 0) & (size[:, :-1] == 0)
        has = step.any(axis=1)
        opens = np.where(has, step.argmax(axis=1), -1)
        last = np.where(has, opens, m - 1)
        wide = ((size[:, 1:] > 1)
                & (np.arange(m) <= last[:, None])).any(axis=1)
        loose = ~has & (size[:, m] > 0)
        fail = np.flatnonzero(wide | loose)
        if fail.size:
            if wide[fail[0]]:
                raise ValueError("rank-one stalks required")
            raise AssertionError("stalk opens without a breakpoint")
        at = index[np.arange(len(opens)), opens + 1]
        deg = np.where(has, np.append(st.ldeg[first], -1)[at], -1)
        return Corners(opens, deg, size, label, st.labels)

    def section_complex(self, region: BaseRegion | None, a, b,
                        taxis=None) -> ChainComplex:
        """Total complex over region x [a, b) with stalk coefficients, on
        the own t-axis unless a refinement of it is given."""
        S = _total_complex(self.base,
                           [(self, taxis or self.taxis, _same_cell)],
                           region, a, b, self.field)
        return S.chain_complex(S.generators())


def _same_cell(bc):
    return bc


def _total_complex(base: BoxGrid, factors, region: BaseRegion | None, a, b,
                   field) -> "SectionArrays":
    """Total complex over region x [a, b) of the tensor product of stalks,
    as index arrays.

    factors: (CellSheaf, TAxis, project) triples; project(bc) is the
    factor's base cell under bc.  The window holds the tuples of t-cells
    whose value (the top value of the one t-cell, or the sum of the two
    tops) lies in [a, b).  A generator is (bc, t_1..t_m, label_1..label_m),
    numbered by its id in the order: base cells of the region in C order,
    window tuples in product order, then the labels of the stalks, first
    factor outermost.  The stalk over a t-cell is that of the factor's own
    stratum containing it (CellSheaf.stalk at the t-cell's rep); each factor
    gives the stalks over its base cells under the region on all its strata
    as one StalkTable (CellSheaf.strata_stalks), whose labels have integer
    ids, so a generator also has an integer key, (flat base cell, flat
    t-cell tuple, label ids) in mixed radix, and a coboundary target is
    found by searching the sorted keys.

    The coboundary of a generator lists, in this order: the base cofaces
    (BoxGrid.coface_table, slot order); the cofaces on t-axis i, signed by
    (-1)^(dim bc + dims of t_1..t_{i-1}); the differential of stalk j,
    signed by (-1)^(dim bc + all t dims + degrees of labels 1..j-1).  A term
    counts when its target is a generator.  Each term changes a different
    component, so no two meet.  Coefficients are integers (the signs times
    the stalk coefficients), zero ones in the field dropped;
    IndexComplex.check certifies degree +1 and d^2 = 0 in the field on the
    integer arrays, which certifies that the label-matching generization
    maps are chain maps.

    The vertical matching pairs a generator whose first t-cell is ('v', i)
    with the generator that differs only by ('e', i) in its place, when
    there is one.  The two share their value, the coface entry is +-1, and
    the only other upper generator a lower one reaches is the one over
    ('e', i+1): the first-axis index rises along every gradient path, so
    the matching is acyclic, and its pairs come in a gradient order (id
    order).

    The arrays are assembled in _section_arrays, whose temporaries are
    freed before the check runs.
    """
    arrays = _section_arrays(base, factors, region, a, b, field)
    arrays.check()
    return arrays


def _section_arrays(base, factors, region, a, b, field) -> "SectionArrays":
    """The SectionArrays of _total_complex, unchecked: the coboundary
    entries of _section_parts joined in source order.  The per-generator
    temporaries of the assembly are gone before the join, which holds the
    entries twice."""
    deg, parts, value, matching, columns, keys = _section_parts(
        base, factors, region, a, b)
    n = len(deg)
    src = np.concatenate([x for x, _, _ in parts])
    tgts, coefs = [t for _, t, _ in parts], [c for _, _, c in parts]
    del parts
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    del src
    tgt = np.concatenate(tgts)[order]
    del tgts
    coef = np.concatenate(coefs).astype(np.int64)[order]
    return SectionArrays(deg, indptr, tgt, coef, field, value, matching,
                         columns, keys)


def _section_parts(base, factors, region, a, b):
    """The generators and coboundary entries of _total_complex: (deg, parts,
    value, matching, columns, keys) as SectionArrays takes them, but the
    coboundary as a list parts of (source ids, target ids, integer
    coefficients) triples, in coboundary order per source."""
    m = len(factors)
    axes = [ax for _, ax, _ in factors]
    tcells = [ax.cells() for ax in axes]
    nt = [len(cells) for cells in tcells]
    # window tuples: flat index over the product of the axes, in product
    # order, and their t-cell index per axis
    value = functools.reduce(np.add.outer, [
        np.array([ax.top_value(tc) for tc in cells], dtype=float)
        for ax, cells in zip(axes, tcells)])
    wflat = np.flatnonzero((a <= value) & (value < b))
    wt = np.stack(np.unravel_index(wflat, nt), axis=1)
    wdim = (1 - (wt & 1)).sum(axis=1)    # ('e', i) at 2i, ('v', i) at 2i+1
    mask = (region.membership if region is not None
            else np.ones(base.base_cell_shape, dtype=bool))
    cflat = np.flatnonzero(mask)
    cells = [tuple(c) for c in np.argwhere(mask).tolist()]
    table = base.coface_table
    # per factor: the stalk index over each (region cell, t-cell), -1 empty
    stalks, over = [], []
    for (cell, ax, project), cells_f in zip(factors, tcells):
        strata = np.array([bisect.bisect(cell.taxis.breaks, ax.rep(tc))
                           for tc in cells_f], dtype=np.int64)
        index, st = cell.strata_stalks([project(bc) for bc in cells])
        stalks.append(st)
        over.append(index[:, strata])
    # blocks (cell, window tuple) with every stalk nonempty, in C order;
    # the window tuples that start with one t-cell are consecutive
    group = np.bincount(wt[:, 0], minlength=nt[0])
    start = np.cumsum(group) - group
    c1, j1 = np.nonzero((over[0] >= 0) & (group > 0))
    blk_c = np.repeat(c1, group[j1])
    blk_w = index_ranges(start[j1], group[j1])
    for f in range(1, m):
        keep = over[f][blk_c, wt[blk_w, f]] >= 0
        blk_c, blk_w = blk_c[keep], blk_w[keep]
    which = [over[f][blk_c, wt[blk_w, f]] for f in range(m)]
    size = [st.off[1:][k] - st.off[:-1][k] for st, k in zip(stalks, which)]
    inner = [functools.reduce(np.multiply, size[f + 1:], np.ones_like(blk_c))
             for f in range(m)]
    bsize = inner[0] * size[0]
    n = int(bsize.sum())
    gb = np.repeat(np.arange(len(blk_c)), bsize)
    r = np.arange(n) - np.repeat(np.cumsum(bsize) - bsize, bsize)
    pos = [(r // inner[f][gb]) % size[f][gb] for f in range(m)]
    slot = [st.off[:-1][k[gb]] + p for st, k, p in zip(stalks, which, pos)]
    lab = [st.lab[q] for st, q in zip(stalks, slot)]
    gc, gw = blk_c[gb], blk_w[gb]
    bdim = table.dim[cflat].astype(np.int64)[gc]
    deg = bdim + wdim[gw] + sum(st.ldeg[q] for st, q in zip(stalks, slot))
    # generator keys in mixed radix: (flat base cell, flat window tuple,
    # label id per factor)
    radix = [len(st.labels) for st in stalks]
    lab_stride = [functools.reduce(int.__mul__, radix[f + 1:], 1)
                  for f in range(m)]
    w_stride = lab_stride[0] * radix[0]
    c_stride = w_stride * int(np.prod(nt))
    if c_stride * int(np.prod(base.base_cell_shape)) >= 1 << 63:
        raise ValueError("section complex too large to index")
    key = cflat[gc] * c_stride + wflat[gw] * w_stride
    for f in range(m):
        key += lab[f] * lab_stride[f]
    keys = _Keys(key, (int(np.prod(base.base_cell_shape)), *nt, *radix))

    ids = np.arange(n, dtype=np.int64)
    parts = []      # (source ids, target ids, integer coefficients)
    gcf = cflat[gc]
    for k in range(table.cof.shape[1]):
        cf = table.cof[gcf, k].astype(np.int64)
        has = np.flatnonzero(cf >= 0)
        hit, tgt = keys.search(key[has] + (cf[has] - gcf[has]) * c_stride)
        parts.append((has[hit], tgt[hit], table.sgn[gcf[has[hit]], k]))
    parity = bdim.copy()
    matching = None
    for f in range(m):
        tf = wt[gw, f]
        step = w_stride * int(np.prod(nt[f + 1:]))
        vert = np.flatnonzero(tf & 1)
        sign = 1 - 2 * (parity[vert] & 1)
        for move, s in ((-1, 1), (1, -1)):
            hit, tgt = keys.search(key[vert] + move * step)
            parts.append((vert[hit], tgt[hit], s * sign[hit]))
            if matching is None:
                matching = (vert[hit], tgt[hit])
        parity += 1 - (tf & 1)
    for st, q, p, inn in zip(stalks, slot, pos, inner):
        count = st.dptr[q + 1] - st.dptr[q]
        src = np.repeat(ids, count)
        e = index_ranges(st.dptr[q], count)
        tgt = src + (st.dpos[e] - p[src]) * inn[gb[src]]
        parts.append((src, tgt, st.dcoef[e] * (1 - 2 * (parity[src] & 1))))
        parity += st.ldeg[q]
    return (deg, parts, value.ravel()[wflat][gw], matching,
            [(cells, gc)] + [(tcells[f], wt[gw, f]) for f in range(m)]
            + [(st.labels, x) for st, x in zip(stalks, lab)], keys)


class _Keys:
    """The generator keys of one assembly, sorted once: a generator's key is
    np.ravel_multi_index of its parts (flat base cell, t-cell index per
    axis, label id per factor) over dims."""

    def __init__(self, key, dims):
        self.order = np.argsort(key, kind="stable")
        self.sorted = key[self.order]
        self.dims = dims

    def search(self, want):
        """(hit, id): whether each key of want is a generator's key, and
        that generator's id where it is."""
        if not len(self.sorted):
            return np.zeros(len(want), dtype=bool), np.zeros_like(want)
        at = np.minimum(np.searchsorted(self.sorted, want),
                        len(self.sorted) - 1)
        return self.sorted[at] == want, self.order[at]


class SectionArrays(IndexComplex):
    """A section complex in index form (_total_complex) with the filtration
    value of each generator and the vertical matching (lower ids, upper
    ids).  columns holds the parts of every generator as (values, index)
    pairs -- the base cell, the t-cell of each axis, the label of each
    factor: part k of generator i is values[index[i]] -- and find maps
    parts back to ids.  Tuple generators are built only on demand, for an
    error message (name) and for chain_complex (generators).
    """

    def __init__(self, deg, indptr, tgt, coef, field, value, matching,
                 columns, keys):
        super().__init__(deg, indptr, tgt, coef, field, self._generator)
        self.value = value
        self.matching = matching
        self.columns = columns
        self._keys = keys

    def _generator(self, i):
        return tuple(values[int(index[i])] for values, index in self.columns)

    def generators(self):
        """The tuple generator of every id, in id order."""
        return list(zip(*(map(values.__getitem__, index.tolist())
                          for values, index in self.columns)))

    def find(self, parts):
        """The id of the generator with the given parts, -1 where there is
        none.  parts: int arrays of the flat base cell (in the C order of
        the whole base), the t-cell index on each axis (into TAxis.cells())
        and the label id on each factor (into the labels of columns)."""
        hit, ids = self._keys.search(np.ravel_multi_index(parts,
                                                          self._keys.dims))
        return np.where(hit, ids, -1)


# ---------------------------------------------------------------------------
# the tame sheaf wrapper

class TameSheaf:
    """A constructible object on N x R in GF, cellular, or product form."""

    def __init__(self, kind, *, gf=None, cell=None, factors=None,
                 diagonal=True, label=""):
        self.kind = kind
        self.gf = gf
        self.cell = cell
        self.factors = factors
        self.diagonal = diagonal
        self.limit = None  # populated for kind == 'limit'
        self.label = label or kind
        self._barcodes = {}  # region mask (None: all of N) -> section_barcode
        self._cellular = None  # the CellSheaf _as_cellsheaf built, once

    @property
    def base_grid(self) -> BoxGrid:
        if self.kind == "gf":
            return self.gf.base_grid
        if self.kind == "cell":
            return self.cell.base
        if self.kind == "limit":
            return self.limit.target.grid.base_only()
        F, G = self.factors
        if self.diagonal:
            return F.base_grid
        return BoxGrid(F.base_grid.base + G.base_grid.base, ())

    def __repr__(self):
        return f"TameSheaf({self.label})"


def quantize(gf: GenFun) -> TameSheaf:
    """The pushforward sheaf of a generating function, shift recorded."""
    return TameSheaf("gf", gf=gf, label=f"quantize(k={gf.k},i={gf.i_q})")


def unit_sheaf(grid: BoxGrid, region: BaseRegion | None = None,
               t0=0.0) -> TameSheaf:
    """Constant sheaf on (closed region) x [t0, oo) as a cellular object."""
    base = grid.base_only()
    mask = None if region is None else np.array(region.membership, copy=True)
    opens = np.full(base.base_cell_shape, t0, dtype=float)
    if mask is not None:
        opens[~mask] = INF
    stalks = RankOneStalks(base.base_cell_shape, opens,
                           np.zeros(opens.shape, dtype=np.int64), ("k",))
    return TameSheaf("cell",
                     cell=CellSheaf(base, TAxis((t0,)), stalks, shift=0,
                                    label="unit",
                                    indicator=("region", mask, t0)),
                     label=f"k_[{t0},oo)")


def to_cellular(F: TameSheaf, max_cells=250_000,
                spot_checks=20) -> TameSheaf:
    """Cellular presentation of a GF sheaf: breakpoints at strand values,
    stalks the floored fiber complexes, held as masks over the fiber cells
    (FiberMasks); spot-checked against the GF route."""
    if F.kind != "gf":
        raise ValueError("to_cellular expects a GF presentation")
    gf = F.gf
    diagram = cerf_diagram(gf)
    breaks = tuple(diagram.breakpoints)
    if not breaks:
        breaks = (0.0,)
    floor = window_floor(gf)
    base = gf.base_grid
    n_base = int(np.prod(base.base_cell_shape))
    est = n_base * (2 * len(breaks) + 1)
    if est > max_cells:
        raise ValueError(f"stratification too large ({est} strata cells); "
                         f"coarsen the grid")
    # k = 0: one fiber cell, labelled () in degree 0
    masks = FiberMasks(base, BoxGrid(gf.grid.fiber, ()), gf.S.cell_max(),
                       floor)
    ind = ("graph", gf.S) if gf.k == 0 else None
    cell = CellSheaf(base, TAxis(breaks), masks, shift=gf.i_q,
                     label=f"cellular({F.label})", indicator=ind)
    out = TameSheaf("cell", cell=cell, label=cell.label)
    _spot_check_cellular(F, out, spot_checks)
    return out


def _spot_check_cellular(F_gf: TameSheaf, F_cell: TameSheaf, n):
    import random as _random
    rng = _random.Random(20240601)
    gf = F_gf.gf
    lo = window_floor(gf)
    hi = window_ceiling(gf)
    grid = gf.base_grid
    shape = grid.base_cell_shape
    for _ in range(n):
        # a random small box with regular window endpoints
        widths = [rng.randrange(1, max(2, s // 3)) for s in shape]
        starts = [rng.randrange(s) for s in shape]
        mask = np.zeros(shape, dtype=bool)
        for offs in itertools.product(*(range(w) for w in widths)):
            idx = tuple((st + o) % s if ggrid.topology == "circle"
                        else min(st + o, s - 1)
                        for st, o, s, ggrid in
                        zip(starts, offs, shape, grid.base))
            mask[idx] = True
        region = BaseRegion(grid, mask)
        for _try in range(40):
            a = rng.uniform(lo, hi)
            b = rng.uniform(a + (hi - lo) * 0.05, hi + 0.1)
            try:
                want = gf_cohomology(gf, _region_on(gf.grid, region), a, b)
            except ValueError:
                continue
            got = sections(F_cell, region, a, b)
            if got != want:
                raise AssertionError(
                    f"cellular presentation disagrees with the GF route on "
                    f"box {starts}x{widths} window ({a:.4g},{b:.4g}): "
                    f"{got} != {want}; stratification too coarse")
            break


def _region_on(grid: BoxGrid, region: BaseRegion) -> BaseRegion:
    return BaseRegion(grid, region.membership)


# ---------------------------------------------------------------------------
# sections / microstalk dispatch

def sections(F: TameSheaf, region: BaseRegion | None, a, b, field=GF2,
             check_regular=True):
    """H^*(region x [a, b[, F) as a map degree -> rank."""
    if not a < b:
        raise ValueError("window requires a < b")
    if F.kind != "gf" and field is not GF2:
        raise ValueError("stratified and product presentations are F2-only; "
                         "use a generating-family presentation for Q")
    if F.kind == "gf":
        reg = None if region is None else _region_on(F.gf.grid, region)
        return gf_cohomology(F.gf, reg, a, b, field, check_regular)
    if F.kind == "limit":
        return F.limit.sections(region, a, b)
    return section_barcode(F, region).window_ranks(a, b)


def section_barcode(F: TameSheaf, region: BaseRegion | None = None) -> Barcode:
    """Barcode of the sections of F over region x R, built once per (sheaf,
    region) and memoised on F.

    A cellular sheaf (a GF sheaf through its cellular presentation) gives
    one section complex over every t-cell of its own axis with a finite
    top, filtered by that top; a product gives the carrier's complex over
    every pair of such t-cells, filtered by the sum of the two tops.  The
    complex of a window [a, b) is the subquotient on the generators whose
    value lies in [a, b), and an infinite end keeps every finite value, so
    window_ranks(a, b) gives the sections over every window and the bars
    are the pushforward barcode.  The reduction runs on the Morse complex
    of the complex's vertical matching.  The degrees carry the sheaf's
    shift.
    """
    key = None if region is None else region.membership.tobytes()
    hit = F._barcodes.get(key)
    if hit is None:
        hit = F._barcodes[key] = _section_barcode(F, region)
    return hit


def _section_barcode(F: TameSheaf, region) -> Barcode:
    if F.kind == "prod":
        A, B = F.factors
        cells = (_as_cellsheaf(A), _as_cellsheaf(B))
        if F.diagonal and cells[0].base != cells[1].base:
            raise ValueError("diagonal product requires a shared base grid")
        base, factors = _product_factors(*cells, F.diagonal)
    else:
        cells = (_as_cellsheaf(F),)
        base, factors = cells[0].base, [(cells[0], cells[0].taxis,
                                         _same_cell)]
    S = _total_complex(base, factors, region, -INF, INF, cells[0].field)
    shift = sum(cell.shift for cell in cells)
    return Barcode([(k - shift, b, x)
                    for k, b, x in S.barcode(S.value, S.matching).bars])


def behavior_at_infinity(F: TameSheaf):
    """(ranks near -infinity, ranks near +infinity) via extreme windows."""
    minus = sections(F, None, -INF, _band_floor(F), check_regular=False)
    plus = sections(F, None, -INF, INF, check_regular=False)
    return minus, plus


def _band_floor(F: TameSheaf):
    if F.kind == "gf":
        return strand_value_range(F.gf)[0] - 0.125 * (1 + F.gf.tau_val())
    if F.kind == "cell":
        return F.cell.taxis.breaks[0] - 0.25
    if F.kind != "prod":
        raise ValueError(f"a {F.kind} presentation ({F.label}) has no "
                         f"support band")
    lo1 = _band_floor(F.factors[0])
    lo2 = _band_floor(F.factors[1])
    return lo1 + lo2


def microstalk(F: TameSheaf, base_cell, t, eps=None, upper_to=None,
               field=GF2):
    """Ranks of H^*({x} x [t - eps, t + eps[, F); with upper_to set, the
    one-sided window [t - eps, upper_to[ instead (the front-interior probe).
    """
    grid = F.base_grid
    region = BaseRegion.from_cells(grid, [tuple(base_cell)])
    if eps is None:
        eps = _local_gap(F, t) / 2
    a = t - eps
    b = upper_to if upper_to is not None else t + eps
    return sections(F, region, a, b, field, check_regular=False)


def _local_gap(F: TameSheaf, t):
    breaks = _breaks_of(F)
    gaps = [abs(b - t) for b in breaks if abs(b - t) > 1e-12]
    return min(gaps) if gaps else 1.0


def _breaks_of(F: TameSheaf):
    if F.kind == "gf":
        return cerf_diagram(F.gf).breakpoints
    if F.kind == "cell":
        return F.cell.taxis.breaks
    if F.kind == "limit":
        return F.limit.breakpoints()
    b1 = _breaks_of(F.factors[0])
    b2 = _breaks_of(F.factors[1])
    return tuple(sorted({x + y for x in b1 for y in b2}))


def front_interior_table(F: TameSheaf, base_cell, t, band_top, eps=None):
    """Total rank of the one-sided window [t - eps, band_top[: equals 1 when
    (x, t) lies between the strands of a simple front band and 0 outside it."""
    ranks = microstalk(F, base_cell, t, eps=eps, upper_to=band_top)
    return sum(ranks.values())


# ---------------------------------------------------------------------------
# product presentation (convolution carrier)

def _as_cellsheaf(F: TameSheaf) -> CellSheaf:
    """The cellular presentation of F: its own, that of a GF sheaf, or the
    corner-sum presentation of a diagonal product of rank-one sheaves; one
    built here is kept on F."""
    if F.kind == "cell":
        return F.cell
    if F._cellular is not None:
        return F._cellular
    if F.kind == "gf":
        cell = to_cellular(F, spot_checks=0).cell
    elif F.kind != "prod":
        raise ValueError(f"a {F.kind} presentation ({F.label}) has no "
                         f"cellular form")
    elif not F.diagonal:
        raise ValueError("nested external products are not materialized; "
                         "reduce the factors first")
    else:
        A, B = F.factors
        cell = materialize_rank_one_tensor(_as_cellsheaf(A),
                                           _as_cellsheaf(B))
    F._cellular = cell
    return cell


def corner_table(cell: CellSheaf):
    """For rank-one sheaves: per base cell the entry breakpoint (None if the
    stalk never opens) and the degree of the single stalk generator, as
    dicts over the cell tuples (CellSheaf.corners)."""
    k = cell.corners
    cells = list(cell.base.base_cells())
    breaks = cell.taxis.breaks
    opens = k.opens.tolist()
    return ({bc: breaks[i] if i >= 0 else None
             for bc, i in zip(cells, opens)},
            {bc: d if i >= 0 else None
             for bc, i, d in zip(cells, opens, k.deg.tolist())})


def materialize_rank_one_tensor(CA: CellSheaf, CB: CellSheaf) -> CellSheaf:
    """Corner-sum indicator presentation of a diagonal tensor of rank-one
    sheaves (section-exact: each base column of the product model has its
    cohomology in a single degree, so the compression is an isomorphism on
    every window)."""
    if CA.base != CB.base:
        raise ValueError("tensor factors must share the base grid")
    ka, kb = CA.corners, CB.corners
    both = (ka.opens >= 0) & (kb.opens >= 0)
    theta = np.where(both, np.array(CA.taxis.breaks)[ka.opens]
                     + np.array(CB.taxis.breaks)[kb.opens], INF)
    breaks = tuple(np.unique(theta[both]).tolist()) or (0.0,)
    stalks = RankOneStalks(CA.base.base_cell_shape, theta, ka.deg + kb.deg,
                           ("t",))
    return CellSheaf(CA.base, TAxis(breaks), stalks,
                     shift=CA.shift + CB.shift,
                     label=f"({CA.label})(x)({CB.label})")


def product_section_complex(CA: CellSheaf, CB: CellSheaf, diagonal,
                            region, a, b) -> ChainComplex:
    """Total complex over base x [sum of two t-axes in [a, b)) with tensor
    stalks; the sum-sublevel convention discretizes the pushforward along
    (t1, t2) -> t1 + t2 exactly."""
    S = _total_complex(*_product_factors(CA, CB, diagonal), region, a, b,
                       CA.field)
    return S.chain_complex(S.generators())


def _product_factors(CA: CellSheaf, CB: CellSheaf, diagonal):
    """The carrier's base grid and its two factors for _total_complex: the
    shared base on a diagonal, the product of the two bases otherwise."""
    if diagonal:
        base = CA.base
        pa = pb = _same_cell
    else:
        base = BoxGrid(CA.base.base + CB.base.base, ())
        na = len(CA.base.base)
        pa = lambda bc: bc[:na]
        pb = lambda bc: bc[na:]
    return base, [(CA, CA.taxis, pa), (CB, CB.taxis, pb)]


# ---------------------------------------------------------------------------
# conification and singular support

@dataclass(frozen=True)
class ConeSet:
    """Samples (x, t, p, tau) of a conical set, tau in {0, 1}; the tau = 0
    slice carries the base points of the front."""

    points: tuple
    resolution: float = 0.0

    def hausdorff(self, other: "ConeSet", scales):
        """Symmetric Hausdorff distance in the scaled max-norm
        max_k |p_k - q_k| / scales[k] over the coordinates (x, t, p, tau);
        inf when either set is empty.  The float operations are those of
        the pairwise loop, so the distance is the loop's to the bit."""
        ps, qs = self._coordinates(), other._coordinates()
        if not len(ps) or not len(qs):
            return INF
        return max(_one_sided(ps, qs, scales), _one_sided(qs, ps, scales))

    def _coordinates(self):
        return np.array([(x[0], t, p[0] if p else 0.0, tau)
                         for (x, t, p, tau) in self.points],
                        dtype=float).reshape(-1, 4)

    def to_csv_rows(self):
        rows = [("x", "t", "p", "tau")]
        for (x, t, p, tau) in self.points:
            rows.append((repr(x[0] if len(x) == 1 else x), repr(t),
                         repr(p[0] if len(p) == 1 else p), tau))
        return rows


# point pairs compared per numpy block of ConeSet.hausdorff
_HAUSDORFF_BLOCK = 1 << 16


def _one_sided(ps, qs, scales):
    """max over the rows p of ps of min over the rows q of qs of
    max_k |p_k - q_k| / scales[k], a block of rows of ps at a time."""
    rows = max(1, _HAUSDORFF_BLOCK // len(qs))
    worst = 0.0
    for lo in range(0, len(ps), rows):
        block = ps[lo:lo + rows]
        dist = None
        for k, s in enumerate(scales):
            dk = np.abs(block[:, k, None] - qs[None, :, k]) / s
            dist = dk if dist is None else np.maximum(dist, dk, out=dist)
        worst = max(worst, float(dist.min(axis=1).max()))
    return worst


def conify(brane) -> ConeSet:
    """Samples of the conical lift: (x, f_L, p, 1) plus the tau = 0 base."""
    pts = []
    for (x, p, t, _m) in brane.points:
        pts.append((x, t, p, 1))
        pts.append((x, t, tuple(0.0 for _ in p), 0))
    return ConeSet(tuple(sorted(set(pts))))


def conify_conormal(region: BaseRegion) -> ConeSet:
    """The conical lift of the outward conormal of a closed region (base
    points over the region at t = 0, outward codirections over the rim)."""
    grid = region.grid.base_only()
    if len(grid.base) != 1:
        raise ValueError("conormal samples implemented for 1-d bases")
    g = grid.base[0]
    pts = []
    for c in sorted(c[0] for c in region.base_cells()):
        x = (g.cell_coord(c),)
        pts.append((x, 0.0, (0.0,), 1))
        pts.append((x, 0.0, (0.0,), 0))
    # rim vertices: slot 0 holds the edge to the right of a vertex, slot 1
    # the edge to its left; an outward codirection points at a slot that
    # holds an edge outside the region
    m = np.append(region.membership, True)   # slot -1 (no edge) reads inside
    cof = grid.coface_table.cof
    for slot, out in ((0, 1.0), (1, -1.0)):
        for c in np.flatnonzero(m[:-1] & ~m[cof[:, slot]]).tolist():
            for mult in (0.5, 1.0, 2.0):
                pts.append(((g.cell_coord(c),), 0.0, (out * mult,), 1))
    return ConeSet(tuple(sorted(set(pts))))


def singular_support(F: TameSheaf, p_samples=9) -> ConeSet:
    """Estimated codirections by the affine test: (x, t; p, 1) enters when
    the level line of slope p is tangent to a front branch at (x, t), i.e.
    when the tilted branch value s(x') = t(x') - p x' has a local extremum
    at x at the sampling resolution.  (A transverse crossing propagates
    sections; only tangencies obstruct them.)"""
    if F.kind == "gf":
        fronts = _gf_front_samples(F.gf)
        g = F.gf.grid.base[0] if len(F.gf.grid.base) == 1 else None
    elif F.kind == "cell":
        fronts = _cell_front_samples(F.cell)
        g = F.cell.base.base[0] if len(F.cell.base.base) == 1 else None
    else:
        raise ValueError("singular support needs a GF or cellular "
                         "presentation")
    if g is None:
        raise ValueError("SS estimation implemented for 1-d bases")
    return _front_tangency_ss(fronts, g, g.spacing, p_samples)


def _gf_front_samples(gf: GenFun):
    """Per base vertex: list of (t, p, tol) strand samples."""
    return {bv[0]: [(cp.value, cp.p[0], cp.val_tol) for cp in cps]
            for bv, cps in gf.critical_table.items()}


def _cell_front_samples(cell: CellSheaf):
    """Stalk-jump loci per base vertex: breaks where the stalk class jumps,
    with the slope read from the neighboring jump loci."""
    g = cell.base.base[0]
    taxis = cell.taxis

    def jumps(j):
        vals = []
        bc = (2 * j,)
        for i, b in enumerate(taxis.breaks):
            above = _stalk_rank_signature(cell, bc, taxis.rep(("v", i)))
            below = _stalk_rank_signature(cell, bc, taxis.rep_below(("v", i)))
            if above != below:
                vals.append(b)
        return vals

    cache = {j: jumps(j) for j in range(g.n_vertices)}
    tol = 1e-9 * max(1.0, abs(taxis.breaks[0]), abs(taxis.breaks[-1]))
    out = {}
    for j in range(g.n_vertices):
        recs = []
        for b in cache[j]:
            # slope from nearest jump values at the neighbor vertices
            slopes = []
            for dj in (-1, 1):
                j2 = (j + dj) % g.n_vertices if g.topology == "circle" \
                    else j + dj
                if not (0 <= j2 < g.n_vertices):
                    continue
                cand = cache[j2]
                if cand:
                    nearest = min(cand, key=lambda v: abs(v - b))
                    slopes.append((nearest - b) / (dj * g.spacing))
            p = float(np.mean(slopes)) if slopes else 0.0
            recs.append((b, p, tol))
        out[j] = recs
    return out


def _stalk_rank_signature(cell: CellSheaf, bc, thr):
    st = cell.stalk(bc, thr)
    C = ChainComplex([lbl for lbl, _ in st.gens],
                     {lbl: k for lbl, k in st.gens},
                     st.d_map(), cell.field, check=False)
    return tuple(sorted(C.cohomology_ranks().items()))


def _front_tangency_ss(fronts, g, tau_res, p_samples) -> ConeSet:
    all_ps = [p for recs in fronts.values() for (_t, p, _tol) in recs]
    if not all_ps:
        return ConeSet((), tau_res)
    pad = 0.5 * (1 + max(abs(p) for p in all_ps))
    pgrid = sorted(set(np.linspace(min(all_ps) - pad, max(all_ps) + pad,
                                   p_samples)))
    pts = []
    for j, recs in fronts.items():
        x = g.origin + g.spacing * j
        for (t, p_strand, tol) in recs:
            pts.append(((x,), t, (0.0,), 0))  # zero-codirection base point
            for p in list(pgrid) + [p_strand]:
                if _is_tangency(fronts, g, j, t, p, tol):
                    pts.append(((x,), t, (float(p),), 1))
    return ConeSet(tuple(sorted(set(pts))), tau_res)


def _is_tangency(fronts, g, j, t, p, tol):
    """Center value of the tilted branch s(x) = t(x) - p x is a one-sided
    local extremum over the 2-cell probe, at curvature resolution.

    The tie tolerance is the branch's sampled second difference (its sag),
    so linear fronts resolve slopes sharply while curved fronts keep their
    honest quadratic collar.
    """
    nv = len(fronts)
    x0 = g.origin + g.spacing * j
    s0 = t - p * x0
    center = fronts[j]
    ordinal = min(range(len(center)), key=lambda i: abs(center[i][0] - t))
    vals = {}
    for dj in (-2, -1, 1, 2):
        j2 = (j + dj) % nv if g.topology == "circle" else j + dj
        if not (0 <= j2 < nv):
            continue
        other = fronts[j2]
        if len(other) != len(center):
            return None  # strand count changes: cusp column, no verdict
        x2 = x0 + dj * g.spacing  # unwrapped coordinate for the tilt
        vals[dj] = other[ordinal][0] - p * x2  # ordinal branch matching
    if 1 not in vals or -1 not in vals:
        return None  # boundary column: no interior tangency verdict
    sag = abs(vals[1] - 2 * s0 + vals[-1])
    if 2 in vals and -2 in vals:
        sag = max(sag, abs(vals[2] - 2 * s0 + vals[-2]) / 4)
    # realized curvature-plus-noise of the matched branch; the a-priori value
    # tolerance is deliberately not added (it over-widens the cone)
    eps = 1.5 * sag + 1e-9
    side = list(vals.values())
    if all(v >= s0 - eps for v in side):
        return True
    if all(v <= s0 + eps for v in side):
        return True
    return False
