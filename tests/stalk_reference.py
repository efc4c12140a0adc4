"""The per-stratum stalk tables and their run collapse, kept as a test
reference.

Before CellSheaf.strata built its record from entry strata (sheaves.
FilteredStalks.record), its source gave the stalk over every (base cell,
own stratum) in one table per block of base cells: a GF sheaf's as masks
over its fiber cells (FiberMasks), a unit sheaf's or rank-one tensor's as
one generator above a per-cell opening threshold (RankOneStalks).  record
below is that path unchanged: the block loop, which keeps only the stalk at
the top of each run of equal stalks over a cell (_stalk_changes), and the
join of the block tables.  per_stratum gives any source's per-stratum
tables, and tuple_stalks.TupleStalks collapses its sampled stalks here.
"""

import numpy as np

from gfsheaf.complexes import index_ranges
from gfsheaf.sheaves import (FilteredStalks, StalkTable, _compact,
                             _run_tops)

# the most (base cell, own stratum, stalk generator) slots whose stalks
# record reads off its source in one table
TABLE_BLOCK = 1 << 19


class FiberMasks:
    """The stalks of a GF sheaf's cellular presentation, as masks over the
    cells of its fiber.

    The stalk over base cell bc at threshold thr is the fiber complex on
    the cells whose value v (values[flat bc, flat fiber cell], the largest
    vertex value of the cell) has floor <= v < thr, with the fiber's
    coboundary (coface, its CofaceTable) between them; generator labels are
    the fiber cells, in flat id order.
    """

    def __init__(self, coface, labels, values, floor):
        self.coface = coface
        self.labels = list(labels)
        self.width = len(self.labels)
        self.values = values.reshape(-1, len(self.labels))
        self.floor = floor

    def table(self, rows, thresholds):
        """(index, StalkTable) of the stalks over the flat base cells rows
        at thresholds: index[r, i] numbers the stalk over (rows[r],
        thresholds[i]) in the table, -1 when it is empty.  Label id = flat
        fiber cell id; a stalk's differential keeps the coface entries
        between its cells, in slot order."""
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


class RankOneStalks:
    """Stalks of rank at most one, without differential: over the flat base
    cell c, one generator labelled label in degree deg[c] at every
    threshold above opens[c] (+inf: never), none at or below it."""

    width = 1

    def __init__(self, opens, deg, label):
        self.opens = np.asarray(opens, dtype=float).ravel()
        self.deg = np.asarray(deg, dtype=np.int64).ravel()
        self.label = label

    def table(self, rows, thresholds):
        """As FiberMasks.table: one stalk of one slot per nonempty pair, in
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


def per_stratum(source):
    """The per-stratum form of a FilteredStalks, whose table(rows,
    thresholds) gives the stalk over every (row, threshold) (with a -inf
    floor, since its values hold +inf below the floor); any other source (a
    TupleStalks) gives its tables itself."""
    if not isinstance(source, FilteredStalks):
        return source
    if source.coface is None:
        (label,) = source.labels
        return RankOneStalks(source.values, np.broadcast_to(
            source.degree, source.values.shape), label)
    return FiberMasks(source.coface, source.labels, source.values,
                      -np.inf)


def _stalk_changes(index, st: StalkTable):
    """changes[r, i]: whether the stalks index[r, i] and index[r, i + 1] of
    st (-1: empty) differ as StalkTable rows: in size, or slot by slot in
    label, degree or differential (the count, target positions and
    coefficients of its entries)."""
    size = np.append(np.diff(st.off), 0)[index]
    changes = size[:, :-1] != size[:, 1:]
    r, i = np.nonzero(~changes & (size[:, :-1] > 0))
    count = size[r, i]
    qa = index_ranges(st.off[index[r, i]], count)
    qb = index_ranges(st.off[index[r, i + 1]], count)
    entries = np.diff(st.dptr)
    na, nb = entries[qa], entries[qb]
    bad = (st.lab[qa] != st.lab[qb]) | (st.ldeg[qa] != st.ldeg[qb]) | (
        na != nb)
    same = np.flatnonzero(~bad)
    ea = index_ranges(st.dptr[qa[same]], na[same])
    eb = index_ranges(st.dptr[qb[same]], na[same])
    bad[np.repeat(same, na[same])[(st.dpos[ea] != st.dpos[eb])
                                  | (st.dcoef[ea] != st.dcoef[eb])]] = True
    pair = np.repeat(np.arange(len(r)), count)[bad]
    changes[r[pair], i[pair]] = True
    return changes


def _join_stalks(tables):
    """One StalkTable of the stalks of tables, in that order.  Refused
    (ValueError) when a table numbers its labels otherwise than the first:
    the join keeps one label list."""
    if any(st.labels != tables[0].labels for st in tables[1:]):
        raise ValueError("the stalk tables number their labels differently")
    slots = np.cumsum([0] + [len(st.lab) for st in tables])
    entries = np.cumsum([0] + [len(st.dpos) for st in tables])
    join = lambda f: np.concatenate([getattr(st, f) for st in tables])
    return StalkTable(
        np.concatenate([[0]] + [st.off[1:] + q
                                for st, q in zip(tables, slots)]),
        join("lab"), join("ldeg"),
        np.concatenate([[0]] + [st.dptr[1:] + e
                                for st, e in zip(tables, entries)]),
        join("dpos"), join("dcoef"), tables[0].labels)


def record(source, n, reps):
    """The stalk record (index, StalkTable) of source over n flat base
    cells at the thresholds reps, read a block of base cells at a time: the
    most cells whose count times len(reps) times the source's width stays
    within TABLE_BLOCK (at least one).  The table keeps only the stalk at
    the top of each run of equal stalks over a cell."""
    source = per_stratum(source)
    step = max(1, TABLE_BLOCK // (len(reps) * getattr(source, "width", 1)))
    index, stalks, count = [], [], 0
    for lo in range(0, n, step):
        ix, st = source.table(np.arange(lo, min(n, lo + step)), reps)
        ix, st = _compact(np.take_along_axis(
            ix, _run_tops(_stalk_changes(ix, st)), axis=1), st)
        index.append(np.where(ix >= 0, ix + count, -1))
        stalks.append(st)
        count += len(st.off) - 1
    return np.concatenate(index), _join_stalks(stalks)


def cell_record(cell):
    """record of a CellSheaf's source at the reps of its own strata."""
    return record(cell.source, len(cell.base.coface_table.dim),
                  [cell.taxis.rep(("e", i)) for i in range(cell.taxis.m + 1)])
