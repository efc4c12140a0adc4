"""Constructible sheaf models on N x R.

A tame sheaf (TameSheaf) has one class per presentation, three here and
the conormal limit in rectify (LimitSheaf):

  * Quantization: a generating function; section queries reduce to
    windowed pairs of sublevel sets (with the canonical degree shift
    applied once, here).
  * CellSheaf: a stratification of N x R by base cells and breakpoint
    intervals, a stalk complex per stratum given by a StalkSource (a rule
    over (base cell, threshold)), and generization maps that match
    generators by label (restrictions are projections, extensions are
    inclusions).  Its stalks are one filtration per base cell
    (FilteredStalks): each label enters at one threshold and stays.  The
    cellular presentation of a GF sheaf has a label per fiber cell; unit
    sheaves and rank-one tensors have one, entering at a per-cell corner.
  * ProductSheaf: a pair of factors on a shared or doubled base with the
    sum pushforward evaluated through the discretized two-axis model.

Sections are computed as cochain complexes over the cells of the queried
region.  A cellular sheaf is constant on its own strata: CellSheaf.stalk
keeps one stalk per (base cell, own stratum), and its sections are taken
on its own t-axis only, where t-cell ('e', i) lies on own stratum i and
('v', i) on the stratum above it, i + 1.  The window [a, b) keeps the
t-cells whose top value (in the product carrier, the sum of the two tops)
lies in [a, b), so every window is a subquotient of one complex filtered by
that value.

One assembly, _section_parts, builds every section complex as integer index
arrays (a SectionArrays, an IndexComplex): each generator (bc, t_1..t_m,
label_1..label_m) is an id, numbered in generator order; the coboundary is
src/tgt/coef arrays built from the base cofaces, the t-axis cofaces and the
stalk differentials with Koszul signs.  Its factors are (cell, LocalAxes,
project) triples, each with a StalkModel: the record's stalks
(_total_complex) or their minimal models (section_barcode).  The stalks of
a cellular sheaf are read once, into one record, CellSheaf.strata: one
StalkTable with a stalk per (base cell, own stratum where a label enters),
built in one pass from the entry strata of its labels.  Every reader reads
that record: the assembly, the minimal models, the local axes, the corners
and the tuple stalks of CellSheaf.stalk.  An axis is a cover over the
record: LocalAxes cut each base cell only at the breaks
where a stalk of its star changes, and LocalAxes.full cuts every base cell
at every break of the sheaf's own t-axis, refused past
MAX_STRATA strata.  Degree +1 and d^2 = 0 are checked on the integer arrays,
exactly in the field (the parity of the two-step path count over F2, the
integer sum over Q).  section_barcode builds one complex per (sheaf, region)
on the local axes of every factor from the minimal models of the stalks
(CellSheaf.minimal: every record stalk reduced once by a stalk matching,
with its strong deformation retract), on their critical generators only,
with the transferred differential; it reduces that complex on ids through
its vertical matching, which pairs a generator over ('v', i) with the same
labels over ('e', i) and is checked there too; sections() reads every
cellular and product window off the barcode, and its bars are the
pushforward barcode.  The unit and product maps act on id-keyed cochains of
complexes on full axes.  Tuple ChainComplexes are built from them only by
section_complex and product_section_complex, for callers that read
generators.  GF windows stay on the pair route (gf_cohomology) and limit
sheaves on their clamp schedules, so the routes stay independent.
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
from .minimal import StalkModel, minimal_stalks

INF = math.inf

# the most strata (base cell, t-cell) a sheaf may be cut into: to_cellular's
# bound on its local axes, and the bound on every full axis (LocalAxes.full)
MAX_STRATA = 250_000


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
        ends = (self.breaks[0] - 1.0, *self.breaks, self.breaks[-1] + 1.0)
        if not all(lo < (lo + hi) / 2 < hi for lo, hi in zip(ends, ends[1:])):
            raise ValueError("an interval of the t-axis has no interior "
                             "representative: no float lies strictly inside")

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

    def top_value(self, tc):
        """Largest vertex value touched by a cell (top ray: +inf)."""
        if tc[0] == "v":
            return self.breaks[tc[1]]
        i = tc[1]
        return self.breaks[i] if i < self.m else INF


class LocalAxes(NamedTuple):
    """One t-axis per base cell, cut at the breaks of its sheaf's own t-axis
    that the cell keeps: a cover over the stalk record of the sheaf
    (CellSheaf.strata).

    A local t-cell is named by an own t-cell: a kept break i by ('v', i),
    and the interval from a kept break up to the next one (or the top ray)
    by the own cell ('e', k) just below its top, so the two have one top
    value.  cover[c, t] is the index (into the own TAxis.cells()) of the
    local t-cell of flat base cell c that contains own t-cell t, -1 when t is
    a dropped break, which lies inside a local interval, one dimension up.
    The local t-cells of c are the t with cover[c, t] == t.
    """

    cover: np.ndarray

    @classmethod
    def cut(cls, keep):
        """The local axes in which flat base cell c keeps break i when
        keep[c, i] is set."""
        n, m = keep.shape
        cover = np.empty((n, 2 * m + 1), dtype=np.int64)
        cover[:, 0::2] = 2 * _run_tops(keep)
        cover[:, 1::2] = np.where(keep, np.arange(1, 2 * m, 2), -1)
        return cls(cover)

    @classmethod
    def full(cls, cell: "CellSheaf"):
        """The axes that cut every base cell of cell at every break of its
        own t-axis; refused (ValueError) past MAX_STRATA strata."""
        n = int(np.prod(cell.base.base_cell_shape))
        m = cell.taxis.m
        strata = n * (2 * m + 1)
        if strata > MAX_STRATA:
            raise ValueError(f"stratification too large ({strata} strata "
                             f"cells on a global t-axis); coarsen the grid")
        return cls.cut(np.ones((n, m), dtype=bool))

    @property
    def strata(self):
        """The number of strata (base cell, local t-cell) they cut."""
        return int((self.cover == np.arange(self.cover.shape[1])).sum())


def _run_tops(keep):
    """tops[r, j]: the first k >= j with keep[r, k] set, or m (the top
    stratum) when there is none, for keep of shape (rows, m)."""
    n, m = keep.shape
    tops = np.where(np.append(keep, np.ones((n, 1), dtype=bool), axis=1),
                    np.arange(m + 1), m)
    return np.minimum.accumulate(tops[:, ::-1], axis=1)[:, ::-1]


# ---------------------------------------------------------------------------
# stalks

@dataclass(frozen=True)
class Stalk:
    """Finite complex with labelled generators; maps between stalks act by
    matching labels."""

    gens: tuple          # tuple of (label, degree)
    diff: tuple = ()     # tuple of (label, label, coeff): degree +1 entries



ZERO_STALK = Stalk(())


class StalkTable(NamedTuple):
    """Stalks on integer slots, as _total_complex reads them.

    Stalk k holds the slots off[k]:off[k+1], one per generator in stalk
    order; slot q carries the label id lab[q] (labels[i] is label i), the
    degree ldeg[q], and the stalk differential leaving it: the entries
    dptr[q]:dptr[q+1] of dpos (the local position of the target) and dcoef
    (integer coefficients, nonzero in the field), in Stalk.diff order.
    """

    off: np.ndarray
    lab: np.ndarray
    ldeg: np.ndarray
    dptr: np.ndarray
    dpos: np.ndarray
    dcoef: np.ndarray
    labels: list


def _take_stalks(st: StalkTable, ks):
    """The StalkTable of the stalks ks of st, in that order."""
    size = np.diff(st.off)[ks]
    q = index_ranges(st.off[ks], size)
    count = np.diff(st.dptr)[q]
    e = index_ranges(st.dptr[q], count)
    return StalkTable(np.append(0, np.cumsum(size)), st.lab[q], st.ldeg[q],
                      np.append(0, np.cumsum(count)), st.dpos[e], st.dcoef[e],
                      st.labels)


def _compact(index, st: StalkTable):
    """(index, StalkTable) of the stalks index of st (-1: empty), in a table
    of those stalks only, in their order in st."""
    used, inverse = np.unique(index, return_inverse=True)
    index = inverse.reshape(index.shape) - (used[0] < 0)
    return index, _take_stalks(st, used[used >= 0])


def _tuple_stalks(st: StalkTable):
    """Every stalk of st as a tuple Stalk, in table order."""
    labels = [st.labels[x] for x in st.lab.tolist()]
    gens = list(zip(labels, st.ldeg.tolist()))
    src = np.repeat(np.arange(len(labels)), np.diff(st.dptr))
    start = np.repeat(st.off[:-1], np.diff(st.off))
    diff = list(zip(map(labels.__getitem__, src.tolist()),
                    map(labels.__getitem__, (start[src] + st.dpos).tolist()),
                    st.dcoef.tolist()))
    off, end = st.off.tolist(), st.dptr[st.off].tolist()
    return [Stalk(tuple(gens[off[k]:off[k + 1]]),
                  tuple(diff[end[k]:end[k + 1]])) for k in range(len(off) - 1)]


class Corners(NamedTuple):
    """The rank-one stalks of a sheaf (CellSheaf.corners), over its base
    cells in C order.  Over each cell the stalk is empty up to one break
    and, above it, one and the same generator on every stratum.  opens[c]
    is the index of that break, deg[c] the degree of the generator and
    label[c] its label id (into labels); all three are -1 over a cell whose
    stalk never opens."""

    opens: np.ndarray
    deg: np.ndarray
    label: np.ndarray
    labels: list


class StalkSource:
    """Where a CellSheaf takes its stalks from: a rule that gives the stalk
    over every (flat base cell, threshold) pair.  CellSheaf.strata reads
    its record, once per sheaf.  FilteredStalks is the library's one
    source; this base is the seam for sources of hand-made stalks, which
    need not form a filtration."""

    def record(self, reps):
        """The stalk record (index, StalkTable) at the thresholds reps, one
        per own stratum: index[c, i] numbers in the table the stalk over
        flat base cell c at reps[i], -1 when it is empty.  Two neighbouring
        strata over one cell share an index exactly when their stalks are
        equal (in labels, degrees and differential), and the table holds
        no other stalk."""
        raise NotImplementedError


class FilteredStalks(StalkSource):
    """Stalks that form one filtration over each base cell: label l enters
    the stalk over flat base cell c once the threshold is above values[c,
    l] (+inf: never) and stays.  degree broadcasts to the shape of values
    (a degree per label, or per cell), and coface, the labels' CofaceTable,
    gives the differential between the labels of a stalk (None: none).

    The cellular presentation of a GF sheaf has a label per fiber cell
    (flat id order), entering at the largest vertex value of the cell
    unless that lies below the floor; unit sheaves, region units and
    rank-one tensors have one label, entering at a per-cell corner.
    """

    def __init__(self, values, degree, labels, coface):
        self.labels = list(labels)
        self.values = np.asarray(values, dtype=float).reshape(
            -1, len(self.labels))
        self.degree = np.asarray(degree, dtype=np.int64)
        self.coface = coface

    def record(self, reps):
        """StalkSource.record.  Label l enters the stalk over cell c on the
        first stratum whose rep is strictly above values[c, l].  The record
        keeps one stalk per (cell, stratum where a label enters), in that
        order, holding the labels entered by then in label order, with
        the coface entries between them in slot order."""
        n, width = self.values.shape
        m = len(reps) - 1
        entry = np.searchsorted(reps, self.values, side="right")
        count = np.bincount((entry + (m + 2) * np.arange(n)[:, None]).ravel(),
                            minlength=n * (m + 2)).reshape(n, m + 2)[:, :-1]
        cell, top = np.nonzero(count)       # the stalks, in record order
        total = np.cumsum(count, axis=1)    # the labels entered by a stratum
        index = np.where(total > 0,
                         np.cumsum(count > 0).reshape(n, m + 1) - 1, -1)
        # a stalk holds the first size labels of its cell in entry order,
        # and its slots are them in label order
        size = total[cell, top]
        stalk, lab = np.divmod(np.sort(
            np.repeat(np.arange(len(cell)) * width, size)
            + np.argsort(entry, axis=1, kind="stable").ravel()[
                index_ranges(cell * width, size)]), width)
        off = np.append(0, np.cumsum(size))
        src, tgt, coef = _coface_entries(stalk, lab, width, self.coface)
        tgt -= off[stalk[src]]              # the target's place in its stalk
        ldeg = np.broadcast_to(self.degree, (n, width))[cell[stalk], lab]
        return index, StalkTable(
            off, lab, ldeg,
            np.append(0, np.cumsum(np.bincount(src, minlength=len(lab)))),
            tgt, coef, self.labels)


def _coface_entries(stalk, lab, width, coface):
    """The stalk differentials on the slots (stalk, lab), in (stalk, label)
    order: (src, tgt, coef), the source and target slot and the coefficient
    of every coface entry between two labels of one stalk, in (source,
    coface slot) order; none when coface is None."""
    if coface is None:
        none = np.zeros(0, dtype=np.int64)
        return none, none, none
    key = stalk * width + lab
    cof = coface.cof[lab]
    want = cof - lab[:, None]
    want += key[:, None]                # the key of the target
    at = np.searchsorted(key, want)
    np.minimum(at, len(key) - 1, out=at)
    hit = (key[at] == want) & (cof >= 0)
    del want, cof                       # the peak of a large record
    src, k = np.nonzero(hit)
    return src, at[src, k], coface.sgn[lab[src], k].astype(np.int64)


# ---------------------------------------------------------------------------
# tame sheaves

class TameSheaf:
    """A constructible object on N x R, one subclass per presentation
    (Quantization, CellSheaf, ProductSheaf, rectify.LimitSheaf), each with
    its base_grid, sections(region, a, b, field, check_regular) (degree ->
    rank), breaks() (where its stalks may change), band_floor() (a value
    below its support band) and cellular form.  Shared here: the section
    barcode route, over F2 only, memoised per region, and the refusals."""

    def __repr__(self):
        return f"{type(self).__name__}({self.label})"

    @functools.cached_property
    def _barcodes(self):
        return {}   # region (None: all of N) -> section_barcode

    def sections(self, region, a, b, field, check_regular):
        if field is not GF2:
            raise ValueError(f"{self!r} is F2-only; use a generating-family "
                             f"presentation for Q")
        return self._window_ranks(region, a, b)

    def _window_ranks(self, region, a, b):
        return section_barcode(self, region).window_ranks(a, b)

    def band_floor(self):
        raise ValueError(f"{self!r} has no support band")

    @property
    def cellular(self) -> "CellSheaf":
        raise ValueError(f"{self!r} has no cellular form")


# ---------------------------------------------------------------------------
# cellular presentation

class CellSheaf(TameSheaf):
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
        # ('region', region or None, t0) | ('graph', f) | None
        self.indicator = indicator
        self._cache = {}    # (base cell, own stratum index) -> Stalk

    @property
    def base_grid(self) -> BoxGrid:
        return self.base

    def breaks(self):
        return self.taxis.breaks

    def band_floor(self):
        return self.taxis.breaks[0] - 0.25

    @property
    def cellular(self) -> "CellSheaf":
        return self

    def stalk(self, base_cell, threshold):
        """The stalk over base_cell of the own stratum ('e', i) that
        contains threshold (a breakpoint belongs to the stratum above it),
        as a tuple Stalk read off the stalk record (strata): the sheaf is
        constant on its strata.  A lookup keeps the stalks of every stratum
        over the cell."""
        i = bisect.bisect(self.taxis.breaks, threshold)
        key = (tuple(base_cell), i)
        hit = self._cache.get(key)
        if hit is None:
            index, st = self.strata
            index, st = _compact(index[np.ravel_multi_index(
                key[0], self.base.base_cell_shape)], st)
            stalks = _tuple_stalks(st) + [ZERO_STALK]
            self._cache.update(((key[0], j), stalks[k])
                               for j, k in enumerate(index.tolist()))
            hit = self._cache[key]
        return hit

    @functools.cached_property
    def strata(self):
        """The stalk record of this sheaf, (index, StalkTable): index[c, i]
        numbers in the table the stalk over flat base cell c on the own
        stratum ('e', i), -1 when it is empty.  It is read off the source
        once (StalkSource.record, at the rep of every own stratum), and
        keeps one stalk per run of equal stalks over a cell, so two
        neighbouring strata over one cell share an index exactly when
        their stalks are equal."""
        return self.source.record(
            [self.taxis.rep(("e", i)) for i in range(self.taxis.m + 1)])

    @functools.cached_property
    def minimal(self) -> StalkModel:
        """The minimal models of the stalks of the record (strata), each
        record stalk reduced once (minimal.minimal_stalks):
        section_barcode assembles from them."""
        return minimal_stalks(self.strata, self.field)

    @functools.cached_property
    def local_axes(self) -> "LocalAxes":
        """The LocalAxes of this sheaf, built on first use from its stalk
        record (strata).  Base cell c keeps break i when some cell of its
        star (c and every cell that has c as a face) has different stalks
        on the own strata ('e', i) and ('e', i + 1): where the record's
        index changes.  So a coface keeps no break its face drops."""
        index, _ = self.strata
        keep = index[:, :-1] != index[:, 1:]
        table = self.base.coface_table
        for d in range(int(table.dim.max(initial=0)) - 1, -1, -1):
            cells = np.flatnonzero(table.dim == d)
            for cof in table.cof[cells].T:
                has = cof >= 0
                keep[cells[has]] |= keep[cof[has]]
        return LocalAxes.cut(keep)

    @functools.cached_property
    def corners(self) -> Corners:
        """The Corners of this sheaf, read off its stalk record (strata):
        the one check that its stalks have rank one.  Over each cell the
        record must be empty (-1) up to a stratum and one stalk of one
        generator from there to the top.  A stalk of more than one
        generator, or one that changes or closes above its opening, raises
        ValueError ("rank-one stalks required"); a rank-one stalk that is
        open on the lowest stratum, below every break, raises
        AssertionError.  The first failing cell in C order decides."""
        index, st = self.strata
        top = index[:, -1]
        first = (index >= 0).argmax(axis=1)     # 0 when the stalk is empty
        above = np.arange(index.shape[1]) >= first[:, None]
        moves = (index != np.where(above, top[:, None], -1)).any(axis=1)
        wide = moves | (np.append(np.diff(st.off), 0)[top] > 1)
        fail = np.flatnonzero(wide | (index[:, 0] >= 0))
        if fail.size:
            if wide[fail[0]]:
                raise ValueError("rank-one stalks required")
            raise AssertionError("stalk opens without a breakpoint")
        first_slot = st.off[:-1]
        return Corners(np.where(top >= 0, first - 1, -1),
                       np.append(st.ldeg[first_slot], -1)[top],
                       np.append(st.lab[first_slot], -1)[top], st.labels)

    def section_complex(self, region: BaseRegion | None, a, b) -> ChainComplex:
        """Total complex over region x [a, b) with stalk coefficients, on
        the own t-axis."""
        S = _total_complex(self.base, _full_axes([(self, _same_cell)]),
                           region, a, b, self.field)
        return S.chain_complex(S.generators())


def _same_cell(bc):
    return bc


def _total_complex(base: BoxGrid, factors, region: BaseRegion | None, a, b,
                   field) -> "SectionArrays":
    """Total complex over region x [a, b) of the tensor product of stalks,
    as index arrays, certified (IndexComplex.check).

    factors: (cell, LocalAxes, project) triples; project(flat) is the
    factor's flat base cell under each flat base cell, and the LocalAxes
    cover the factor's base cells: the sheaf's own (cell.local_axes), which
    cut base cell c only at the breaks where a stalk of its star (c and
    every cell that has c as a face) changes, or LocalAxes.full, which cut
    every base cell at every break of the own t-axis.  The callers that
    index cochains by generator (ProductHome, the unit morphisms,
    section_complex and product_section_complex) pass full ones; on local
    axes it is the exact reference of section_barcode, which assembles the
    minimal models of the stalks instead (_section_parts).  The t-cells over
    a base cell are those of its axis, named by t-cells of the factor's own
    TAxis.  The window holds the tuples of t-cells whose value (the top
    value of the one t-cell, or the sum of the two tops) lies in [a, b).  A
    generator is (bc, t_1..t_m, label_1..label_m), numbered by its id in the
    order: base cells of the region in C order, window tuples in product
    order, then the labels of the stalks, first factor outermost.  The
    stalk over own t-cell j (('e', i) at 2 i, ('v', i) at 2 i + 1) is that
    of own stratum (j + 1) // 2, read off the factor's stalk record
    (cell.strata), whose labels have integer ids, so a generator also has an
    integer key, (flat base cell, flat t-cell tuple, label ids) in mixed
    radix, and a coboundary target is found by searching the sorted keys.

    The coboundary of a generator lists, in this order: the base cofaces
    (BoxGrid.coface_table, slot order), each t-cell taken to the t-cell of
    the coface's axis that contains it, with the base sign (a coface keeps
    no break its face drops, so there is one; a dropped break lies inside
    an interval, two dimensions up, and gives no entry); the cofaces on
    t-axis i, the intervals of the cell's axis below and above the break,
    signed by (-1)^(dim bc + dims of t_1..t_{i-1}); the differential of
    stalk j, signed by (-1)^(dim bc + all t dims + degrees of labels
    1..j-1).  A term counts when its target is a generator.  Each term
    changes a different component, so no two meet.  Coefficients are
    integers (the signs times the stalk coefficients), zero ones in the
    field dropped; IndexComplex.check certifies degree +1 and d^2 = 0 in
    the field on the integer arrays, which certifies that the
    label-matching generization maps are chain maps.

    The vertical matching pairs a generator whose first t-cell is ('v', i)
    with the generator that differs only by ('e', i) in its place, when
    there is one.  The two share their value, the coface entry is +-1, and
    the only other upper generator a lower one reaches is the one over the
    interval above: the first-axis index rises along every gradient path,
    so the matching is acyclic, and its pairs come in a gradient order (id
    order).

    On local axes the complex is the partial Morse complex of the one on
    full axes under its vertical pairs over the dropped breaks (one axis after
    the other): a dropped break has one stalk on both sides over every
    cell of the star, so every generator over it is matched, with equal
    values, and the Morse path through a run of dropped breaks carries an
    entry into its lowest interval to the top one with factor +1.  So the
    bars are those of the full axes (Mischaikow-Nanda, DCG 2013), and
    every local generator is one of the full axes with the same id order.
    """
    arrays = _section_arrays(base, factors, region, a, b, field, [
        StalkModel(*cell.strata, None) for cell, _, _ in factors])
    arrays.check()
    return arrays


def _section_arrays(base, factors, region, a, b, field,
                    models) -> "SectionArrays":
    """The SectionArrays of _section_parts, unchecked: its coboundary
    entries joined in source order.  The per-generator temporaries of the
    assembly are gone before the join, which holds the entries twice."""
    deg, parts, value, matching, columns, keys = _section_parts(
        base, factors, region, a, b, models)
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


def _section_parts(base, factors, region, a, b, models):
    """The generators and coboundary entries of the section complex of
    factors over region x [a, b), each factor's stalks taken from its
    StalkModel in models: (deg, parts, value, matching, columns, keys) as
    SectionArrays takes them, but the coboundary as a list parts of (source
    ids, target ids, integer coefficients) triples, in coboundary order per
    source.

    With the record's stalks (transfer None) it is the complex of
    _total_complex.  With the minimal models it is the transferred complex
    of section_barcode, on the critical generators (bc, t, c_1..c_m) only.
    The total differential is D = d_X + delta, with d_X the stalk
    differentials and delta the base and t coboundaries, which match
    labels.  Every stalk pair lies over one stratum, so the union of the
    stalk matchings over all strata is acyclic, and by the perturbation
    lemma (Crainic, arXiv:math/0403266) the Morse differential is d' = d_M
    + sum_n p (delta h)^n delta i, with (i, p, h) the tensor product of the
    factors' retracts: i (x) i, p (x) p and h (x) 1 + ip (x) h.  Every
    label of an image of i is the label of a critical or a lower slot (an
    upper label never appears without its lower one, minimal.stalk_pairs),
    so h vanishes on delta i, and the series stops at n = 0: a move of a
    generator to a stratum sends c_f to every critical c'_f of the target
    stalk with the coefficient of the label of c'_f in i(c_f) (p kills the
    lower slots), times the move's sign; the stalk term is d_M with the
    Koszul signs of d_X.  In the critical generators' id order the vertical
    pairs, now those between one critical label over ('v', i) and over
    ('e', i), still come in a gradient order: d' moves a generator by one
    stratum, as D does, and the coefficient of its own label below is +-1.
    """
    m = len(factors)
    n_base = int(np.prod(base.base_cell_shape))
    mask = (region.over(base) if region is not None
            else np.ones(base.base_cell_shape, dtype=bool))
    cflat = np.flatnonzero(mask)
    axes = [cell.taxis for cell, _, _ in factors]
    covers = [ax.cover[project(np.arange(n_base))]
              for _, ax, project in factors]
    stalks = [model.table for model in models]
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
    cells = [tuple(c) for c in np.argwhere(mask).tolist()]
    table = base.coface_table
    # per factor: the stalk index over each (region cell, t-cell), -1 where
    # it is empty or the t-cell is not one of the cell's axis; t-cell j lies
    # on own stratum (j + 1) // 2
    over = []
    for (_, _, project), model, cover, k in zip(factors, models, covers, nt):
        over.append(np.where(cover[cflat] == np.arange(k), model.index[
            np.ix_(project(cflat), (np.arange(k) + 1) // 2)], -1))
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
    t_stride = [w_stride * int(np.prod(nt[f + 1:])) for f in range(m)]
    c_stride = t_stride[0] * nt[0]
    if c_stride * n_base >= 1 << 63:
        raise ValueError("section complex too large to index")
    key = cflat[gc] * c_stride + wflat[gw] * w_stride
    for f in range(m):
        key += lab[f] * lab_stride[f]
    keys = _Keys(key, (n_base, *nt, *radix))

    def link(src, want, moved, sign):
        """The entries from the generators src to those with keys want: the
        keys of src moved to their target strata, labels kept.  moved[f]
        is None when factor f keeps its stratum, else its target (flat
        factor base cell, own t-cell) per source.  A factor whose stalks
        are the record's keeps its label; a moved factor of minimal models
        sends its label to every critical one of the target stalk,
        weighted by i.  Returns (sources, targets, coefficients, whether
        every label is kept, None when all are)."""
        same = None
        for f, model in enumerate(models):
            if model.transfer is None or moved[f] is None:
                continue
            fc, ft = moved[f]
            k = model.index[fc, (ft + 1) // 2]
            ok = np.flatnonzero(k >= 0)
            st, (ikeys, icoefs) = model.table, model.transfer
            count = st.off[k[ok] + 1] - st.off[k[ok]]
            q = index_ranges(st.off[k[ok]], count)
            pick = np.repeat(ok, count)
            src, want, sign = src[pick], want[pick], sign[pick]
            moved = [None if x is None else (x[0][pick], x[1][pick])
                     for x in moved]
            own, new = lab[f][src], st.lab[q]
            same = (new == own) if same is None else same[pick] & (new == own)
            ask = slot[f][src] * radix[f] + new
            at = np.minimum(np.searchsorted(ikeys, ask), len(ikeys) - 1)
            hit = np.flatnonzero(ikeys[at] == ask)
            src, same, sign = src[hit], same[hit], sign[hit] * icoefs[at[hit]]
            want = want[hit] + (new[hit] - own[hit]) * lab_stride[f]
            moved = [None if x is None else (x[0][hit], x[1][hit])
                     for x in moved]
        hit, tgt = keys.search(want)
        return (src[hit], tgt[hit], sign[hit],
                None if same is None else same[hit])

    ids = np.arange(n, dtype=np.int64)
    parts = []      # (source ids, target ids, integer coefficients)
    gcf = cflat[gc]
    # a base coface takes each t-cell to the t-cell of its own axis that
    # contains it; none contains a dropped break (codimension 2)
    for k in range(table.cof.shape[1]):
        cf = table.cof[gcf, k].astype(np.int64)
        has = np.flatnonzero(cf >= 0)
        t = [wt[gw[has], f] for f in range(m)]
        up = [cover[cf[has], tf] for cover, tf in zip(covers, t)]
        ok = np.flatnonzero(np.logical_and.reduce([u >= 0 for u in up]))
        has = has[ok]
        want = key[has] + (cf[has] - gcf[has]) * c_stride
        for f in range(m):
            want += (up[f][ok] - t[f][ok]) * t_stride[f]
        moved = [(project(cf[has]), u[ok])
                 for (_, _, project), u in zip(factors, up)]
        parts.append(link(has, want, moved,
                          table.sgn[gcf[has], k].astype(np.int64))[:3])
    # t-axis cofaces of ('v', i): the intervals of the cell's axis below and
    # above break i
    parity = bdim.copy()
    matching = None
    for f, (_, _, project) in enumerate(factors):
        tf = wt[gw, f]
        vert = np.flatnonzero(tf & 1)
        sign = 1 - 2 * (parity[vert] & 1)
        for move, s in ((-1, 1), (1, -1)):
            up = covers[f][gcf[vert], tf[vert] + move]
            moved = [None] * m
            moved[f] = (project(gcf[vert]), up)
            src, tgt, coef, same = link(
                vert, key[vert] + (up - tf[vert]) * t_stride[f], moved,
                s * sign)
            parts.append((src, tgt, coef))
            if matching is None:
                matching = (src, tgt) if same is None else (src[same],
                                                            tgt[same])
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
# the GF presentation

class Quantization(TameSheaf):
    """The pushforward sheaf of a generating function, shift recorded: its
    windows are the generating family's pair cohomology (gf_cohomology)."""

    def __init__(self, gf: GenFun):
        self.gf = gf
        self.base_grid = gf.base_grid
        self.label = f"quantize(k={gf.k},i={gf.i_q})"

    def sections(self, region, a, b, field, check_regular):
        return gf_cohomology(self.gf, region, a, b, field, check_regular)

    def breaks(self):
        return cerf_diagram(self.gf).breakpoints

    def band_floor(self):
        return strand_value_range(self.gf)[0] - 0.125 * (1 + self.gf.tau_val())

    @functools.cached_property
    def cellular(self) -> CellSheaf:
        return to_cellular(self, spot_checks=0)


def quantize(gf: GenFun) -> Quantization:
    """The pushforward sheaf of a generating function, shift recorded."""
    return Quantization(gf)


def unit_sheaf(grid: BoxGrid, region: BaseRegion | None = None,
               t0=0.0) -> CellSheaf:
    """Constant sheaf on (closed region) x [t0, oo) as a cellular object."""
    base = grid.base_only()
    opens = np.full(base.base_cell_shape, t0, dtype=float)
    if region is not None:
        opens[~region.over(base)] = INF
    stalks = FilteredStalks(opens, 0, [("k",)], None)
    return CellSheaf(base, TAxis((t0,)), stalks, shift=0,
                     label=f"k_[{t0},oo)", indicator=("region", region, t0))


def to_cellular(F: TameSheaf, spot_checks=20) -> CellSheaf:
    """Cellular presentation of a GF sheaf: breakpoints at strand values,
    stalks the floored fiber complexes, a FilteredStalks in which a fiber
    cell enters once the threshold is above its largest vertex value (never
    when that lies below the floor); spot-checked against the GF route.
    Refused when its local axes cut more than MAX_STRATA strata (base cell,
    local t-cell), and at once, before any stalk is read, when its global
    axis cuts more than 4 * MAX_STRATA."""
    if not isinstance(F, Quantization):
        raise ValueError("to_cellular expects a GF presentation")
    gf = F.gf
    diagram = cerf_diagram(gf)
    breaks = tuple(diagram.breakpoints)
    if not breaks:
        breaks = (0.0,)
    floor = window_floor(gf)
    base = gf.base_grid
    # k = 0: one fiber cell, labelled () in degree 0
    fiber = BoxGrid(gf.grid.fiber, ())
    values = gf.S.cell_max()
    stalks = FilteredStalks(np.where(floor <= values, values, INF),
                            fiber.coface_table.dim, fiber.all_cells(),
                            fiber.coface_table)
    ind = ("graph", gf.S) if gf.k == 0 else None
    cell = CellSheaf(base, TAxis(breaks), stalks, shift=gf.i_q,
                     label=f"cellular({F.label})", indicator=ind)
    # the local axes cut at most every base cell at every break, and
    # building them reads a stalk and keeps a cover entry per such stratum,
    # so they are built here only when that count is over MAX_STRATA and
    # within 4 * MAX_STRATA
    strata = int(np.prod(base.base_cell_shape)) * (2 * len(breaks) + 1)
    if MAX_STRATA < strata <= 4 * MAX_STRATA:
        strata = cell.local_axes.strata
    if strata > MAX_STRATA:
        raise ValueError(f"stratification too large ({strata} strata "
                         f"cells); coarsen the grid")
    _spot_check_cellular(F, cell, spot_checks)
    return cell


def _spot_check_cellular(F_gf: Quantization, F_cell: CellSheaf, n):
    """n random regions and windows on which F_cell's sections must equal
    the GF route's; with n = 0 the family's window bounds are not read."""
    if not n:
        return
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
                want = gf_cohomology(gf, region, a, b)
            except ValueError:
                continue
            got = sections(F_cell, region, a, b)
            if got != want:
                raise AssertionError(
                    f"cellular presentation disagrees with the GF route on "
                    f"box {starts}x{widths} window ({a:.4g},{b:.4g}): "
                    f"{got} != {want}; stratification too coarse")
            break


# ---------------------------------------------------------------------------
# sections / microstalk dispatch

def sections(F: TameSheaf, region: BaseRegion | None, a, b, field=GF2,
             check_regular=True):
    """H^*(region x [a, b[, F) as a map degree -> rank."""
    if not a < b:
        raise ValueError("window requires a < b")
    return F.sections(region, a, b, field, check_regular)


def section_barcode(F: TameSheaf, region: BaseRegion | None = None) -> Barcode:
    """Barcode of the sections of F over region x R, built once per (sheaf,
    region) and memoised on F.

    A cellular sheaf (a GF sheaf through its cellular presentation) gives
    one section complex over every t-cell of its local axes (LocalAxes:
    each base cell cut only at the breaks where a stalk of its star
    changes) with a finite top, filtered by that top; a product gives the
    carrier's complex over every pair of such t-cells, each factor on its
    local axes, filtered by the sum of the two tops.  The complex is
    assembled from the minimal models of the stalks (CellSheaf.minimal):
    each stalk of the record is reduced once by its stalk matching, and
    only the critical generators are assembled, with the transferred
    differential (_section_parts).  It is the Morse complex of the complex
    of every stalk generator under the stalk pairs over every stratum,
    whose pairs share their value, so it has the same bars; that complex,
    on the local axes, is kept in tests/local_axis_reference.py as the
    exact reference, and itself has the bars of the global t-axes
    (_total_complex).  The transferred complex is certified (d^2 = 0)
    before its reduction.  The complex of a window [a, b) is the
    subquotient on the generators whose value lies in [a, b), and an
    infinite end keeps every finite value, so window_ranks(a, b) gives the
    sections over every window and the bars are the pushforward barcode.
    The reduction runs on the Morse complex of the complex's vertical
    matching.  The degrees carry the sheaf's shift.
    """
    hit = F._barcodes.get(region)
    if hit is None:
        hit = F._barcodes[region] = _section_barcode(F, region)
    return hit


def _section_barcode(F: TameSheaf, region) -> Barcode:
    if isinstance(F, ProductSheaf):
        cells = [G.cellular for G in F.factors]
        if F.diagonal and cells[0].base != cells[1].base:
            raise ValueError("diagonal product requires a shared base grid")
        base, pairs = _product_factors(*cells, F.diagonal)
    else:
        cells = [F.cellular]
        base, pairs = cells[0].base, [(cells[0], _same_cell)]
    factors = [(cell, cell.local_axes, project) for cell, project in pairs]
    S = _section_arrays(base, factors, region, -INF, INF, cells[0].field,
                        [cell.minimal for cell, _, _ in factors])
    S.check()
    shift = sum(cell.shift for cell in cells)
    return Barcode([(k - shift, b, x)
                    for k, b, x in S.barcode(S.value, S.matching).bars])


def microstalk(F: TameSheaf, base_cell, t, eps=None, upper_to=None,
               field=GF2):
    """Ranks of H^*({x} x [t - eps, t + eps[, F); with upper_to set, the
    one-sided window [t - eps, upper_to[ instead (the front-interior probe).
    """
    grid = F.base_grid
    region = BaseRegion.from_cells(grid, [tuple(base_cell)])
    if eps is None:
        gaps = [abs(x - t) for x in F.breaks() if abs(x - t) > 1e-12]
        eps = (min(gaps) if gaps else 1.0) / 2
    a = t - eps
    b = upper_to if upper_to is not None else t + eps
    return sections(F, region, a, b, field, check_regular=False)


def front_interior_table(F: TameSheaf, base_cell, t, band_top, eps=None):
    """Total rank of the one-sided window [t - eps, band_top[: equals 1 when
    (x, t) lies between the strands of a simple front band and 0 outside it."""
    ranks = microstalk(F, base_cell, t, eps=eps, upper_to=band_top)
    return sum(ranks.values())


# ---------------------------------------------------------------------------
# product presentation (convolution carrier)

class ProductSheaf(TameSheaf):
    """The product carrier of F and G, on their shared base (diagonal: the
    tensor) or on the product of their bases (the convolution), pushed
    forward along t1 + t2.  A diagonal product of rank-one sheaves has the
    corner-sum cellular form; an external product has none."""

    def __init__(self, F: TameSheaf, G: TameSheaf, diagonal):
        self.factors = (F, G)
        self.diagonal = diagonal
        self.label = f"({F.label}){'(x)' if diagonal else '*'}({G.label})"

    @property
    def base_grid(self) -> BoxGrid:
        F, G = self.factors
        if self.diagonal:
            return F.base_grid
        return BoxGrid(F.base_grid.base + G.base_grid.base, ())

    def breaks(self):
        b1, b2 = (G.breaks() for G in self.factors)
        return tuple(sorted({x + y for x in b1 for y in b2}))

    def band_floor(self):
        return self.factors[0].band_floor() + self.factors[1].band_floor()

    @functools.cached_property
    def cellular(self) -> CellSheaf:
        if not self.diagonal:
            raise ValueError("nested external products are not materialized; "
                             "reduce the factors first")
        return materialize_rank_one_tensor(*(G.cellular for G in self.factors))


def materialize_rank_one_tensor(CA: CellSheaf, CB: CellSheaf) -> CellSheaf:
    """Corner-sum indicator presentation of a diagonal tensor of rank-one
    sheaves (section-exact: each base column of the product model has its
    cohomology in a single degree, so the compression is an isomorphism on
    every window).  The corners of both factors (CellSheaf.corners) refuse
    any stalk that is not rank one, so what they accept is exact."""
    if CA.base != CB.base:
        raise ValueError("tensor factors must share the base grid")
    ka, kb = CA.corners, CB.corners
    both = (ka.opens >= 0) & (kb.opens >= 0)
    theta = np.where(both, np.array(CA.taxis.breaks)[ka.opens]
                     + np.array(CB.taxis.breaks)[kb.opens], INF)
    breaks = tuple(np.unique(theta[both]).tolist()) or (0.0,)
    stalks = FilteredStalks(theta, (ka.deg + kb.deg)[:, None], [("t",)],
                            None)
    return CellSheaf(CA.base, TAxis(breaks), stalks,
                     shift=CA.shift + CB.shift,
                     label=f"({CA.label})(x)({CB.label})")


def product_section_complex(CA: CellSheaf, CB: CellSheaf, diagonal,
                            region, a, b) -> ChainComplex:
    """Total complex over base x [sum of two t-axes in [a, b)) with tensor
    stalks; the sum-sublevel convention discretizes the pushforward along
    (t1, t2) -> t1 + t2 exactly."""
    base, pairs = _product_factors(CA, CB, diagonal)
    S = _total_complex(base, _full_axes(pairs), region, a, b, CA.field)
    return S.chain_complex(S.generators())


def _full_axes(pairs):
    """The factors of _total_complex of (cell, project) pairs, each cell on
    its full own axis (LocalAxes.full)."""
    return [(cell, LocalAxes.full(cell), project) for cell, project in pairs]


def _product_factors(CA: CellSheaf, CB: CellSheaf, diagonal):
    """The carrier's base grid and its two (cell, project) pairs, to which
    each caller attaches the axes it assembles on: the shared base on a
    diagonal, the product of the two bases otherwise."""
    if diagonal:
        base = CA.base
        pa = pb = _same_cell
    else:
        base = BoxGrid(CA.base.base + CB.base.base, ())
        nb = int(np.prod(CB.base.base_cell_shape))
        pa = lambda flat: flat // nb
        pb = lambda flat: flat % nb
    return base, [(CA, pa), (CB, pb)]


# ---------------------------------------------------------------------------
# conification and singular support

@dataclass(frozen=True)
class ConeSet:
    """Samples (x, t, p, tau) of a conical set, tau in {0, 1}; the tau = 0
    slice carries the base points of the front."""

    points: tuple

    def hausdorff(self, other: "ConeSet", scales):
        """Symmetric Hausdorff distance in the scaled max-norm
        max_k |p_k - q_k| / scales[k] over the coordinates (x, t, p, tau);
        inf when either set is empty.  The float operations are those of
        the pairwise loop, so the distance is the loop's to the bit.  Every
        scale must be positive."""
        if not all(s > 0 for s in scales):
            raise ValueError(
                f"Hausdorff scales must be positive, got {scales!r}")
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


def singular_support(F: TameSheaf, p_samples=9) -> ConeSet:
    """Estimated codirections by the affine test: (x, t; p, 1) enters when
    the level line of slope p is tangent to a front branch at (x, t), i.e.
    when the tilted branch value s(x') = t(x') - p x' has a local extremum
    at x at the sampling resolution.  (A transverse crossing propagates
    sections; only tangencies obstruct them.)"""
    if not isinstance(F, (Quantization, CellSheaf)):
        raise ValueError("singular support needs a GF or cellular "
                         "presentation")
    if len(F.base_grid.base) != 1:
        raise ValueError("SS estimation implemented for 1-d bases")
    fronts = _gf_front_samples(F.gf) if isinstance(F, Quantization) else \
        _cell_front_samples(F)
    return _front_tangency_ss(fronts, F.base_grid.base[0], p_samples)


def _gf_front_samples(gf: GenFun):
    """Per base vertex: list of (t, p, tol) strand samples."""
    return {bv[0]: [(cp.value, cp.p[0], cp.val_tol) for cp in cps]
            for bv, cps in gf.critical_table.items()}


def _cell_front_samples(cell: CellSheaf):
    """Stalk-jump loci per base vertex: breaks where the cohomology ranks of
    the stalk change, with the slope read from the neighboring jump loci.
    The ranks are taken once per stalk of the record (strata) over the
    vertices."""
    g = cell.base.base[0]
    taxis = cell.taxis
    index, st = cell.strata
    index, st = _compact(index[2 * np.arange(g.n_vertices)], st)
    rank = _rank_signatures(st, cell.field) + [()]   # index -1: no stalk
    cache = {j: [b for b, lo, hi in zip(taxis.breaks, row, row[1:])
                 if rank[lo] != rank[hi]]
             for j, row in enumerate(index.tolist())}
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


def _rank_signatures(st: StalkTable, field):
    """The cohomology ranks of every stalk of st, in table order, as sorted
    (degree, rank) pairs: each stalk is the IndexComplex on its slots."""
    out = []
    for lo, hi in zip(st.off[:-1].tolist(), st.off[1:].tolist()):
        e = slice(st.dptr[lo], st.dptr[hi])
        K = IndexComplex(st.ldeg[lo:hi], st.dptr[lo:hi + 1] - e.start,
                         st.dpos[e], st.dcoef[e], field,
                         lambda i, lo=lo: st.labels[st.lab[lo + i]])
        out.append(tuple(sorted(K.cohomology_ranks().items())))
    return out


def _front_tangency_ss(fronts, g, p_samples) -> ConeSet:
    all_ps = [p for recs in fronts.values() for (_t, p, _tol) in recs]
    if not all_ps:
        return ConeSet(())
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
    return ConeSet(tuple(sorted(set(pts))))


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
