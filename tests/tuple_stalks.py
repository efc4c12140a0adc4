"""The tuple stalk path, kept as a test reference: a StalkSource that
samples a Python stalk_fn(base_cell, threshold) -> Stalk once per (base
cell, threshold) and converts each distinct tuple Stalk once into the
slots of a StalkTable.  CellSheaf took every stalk that was no fiber mask
this way before the unit and rank-one tensor stalks became tables; the
tests that inject hand-made stalks use it too."""

import numpy as np

from gfsheaf.linalg import GF2
from gfsheaf.sheaves import StalkSource, StalkTable


def index_form(st):
    """The stalk st on the positions 0..size-1 of its generators: (labels,
    degrees, dptr, dpos, dcoef), int64 arrays but the label list.  The
    differential leaving position p is the entries dptr[p]:dptr[p+1] of
    dpos (target positions) and dcoef (integer coefficients), in d_map
    order, without the entries whose target is no generator.  Raises
    ValueError on a repeated label or on a coefficient that is not an
    integer."""
    labels = [lbl for lbl, _ in st.gens]
    local = {lbl: p for p, lbl in enumerate(labels)}
    if len(local) < len(labels):
        raise ValueError("it repeats a label")
    rows = [[] for _ in labels]
    for lbl, row in st.d_map().items():
        p = local.get(lbl)
        for lbl2, c in row.items():
            if int(c) != c:
                raise ValueError(f"its coefficient {c!r} is not an integer")
            if p is not None and lbl2 in local:
                rows[p].append((local[lbl2], int(c)))
    flat = [x for row in rows for x in row]
    return (labels, np.array([k for _, k in st.gens], dtype=np.int64),
            np.cumsum([0] + [len(row) for row in rows], dtype=np.int64),
            np.array([p2 for p2, _ in flat], dtype=np.int64),
            np.array([c for _, c in flat], dtype=np.int64))


class _Stalks:
    """The distinct tuple stalks of one table, gathered for one StalkTable
    (freeze).  Labels are numbered on first sight, so equal labels of
    different stalks share an id."""

    def __init__(self, field):
        self.field = field
        self._label_id = {}
        self._known = {}    # id(stalk) -> (stalk, index or -1 if empty)
        self._forms = []    # per stalk: label ids, then its index_form arrays

    def index(self, st, where):
        """The index of st, taken in on first sight; where (sheaf label,
        base cell, stratum) names it in an error."""
        hit = self._known.get(id(st))
        if hit is None:
            hit = self._known[id(st)] = (st, self._add(st, where))
        return hit[1]

    def _add(self, st, where):
        if not st.gens:
            return -1
        try:
            labels, *arrays = index_form(st)
        except ValueError as e:
            raise ValueError(f"the stalk of {where[0]} over base cell "
                             f"{where[1]} on stratum {where[2]}: {e}") \
                from None
        ids = self._label_id
        self._forms.append([[ids.setdefault(lbl, len(ids))
                             for lbl in labels]] + arrays)
        return len(self._forms) - 1

    def freeze(self) -> StalkTable:
        """Concatenate the stalks into a StalkTable, once every stalk is in;
        differential entries that are zero in the field are dropped."""
        empty = [np.zeros(0, dtype=np.int64)]
        lab, ldeg, dptr, dpos, dcoef = (
            empty + list(x) for x in (list(zip(*self._forms)) or [()] * 5))
        size = np.array([len(x) for x in lab[1:]], dtype=np.int64)
        # local offsets, shifted past the entries of the earlier stalks
        before = np.cumsum([0] + [len(x) for x in dpos[1:]])
        dptr = np.concatenate([x[:-1] + b for x, b in zip(dptr[1:], before)]
                              + [before[-1:]])
        dpos, dcoef = np.concatenate(dpos), np.concatenate(dcoef)
        F = self.field
        zero = [c for c in set(dcoef.tolist()) if F.is_zero(F.coerce(c))]
        keep = ~np.isin(dcoef, zero)
        return StalkTable(np.concatenate([[0], np.cumsum(size)]),
                          np.concatenate(lab).astype(np.int64),
                          np.concatenate(ldeg),
                          np.concatenate([[0], np.cumsum(keep)])[dptr],
                          dpos[keep], dcoef[keep], list(self._label_id))


class TupleStalks(StalkSource):
    """stalk_fn as a StalkSource over a base of the given cell shape; field
    decides which stalk coefficients are zero, label names the sheaf in an
    error."""

    def __init__(self, base_shape, stalk_fn, field=GF2, label="cell"):
        self.base_shape = base_shape
        self.stalk_fn = stalk_fn
        self.field = field
        self.label = label

    def table(self, rows, thresholds):
        stalks = _Stalks(self.field)
        index = [[stalks.index(self.stalk_fn(bc, thr), (self.label, bc, i))
                  for i, thr in enumerate(thresholds)]
                 for bc in map(self._cell, rows)]
        return (np.array(index, dtype=np.int64).reshape(len(rows),
                                                        len(thresholds)),
                stalks.freeze())

    def stalks(self, base_cell, thresholds):
        return [self.stalk_fn(tuple(base_cell), thr) for thr in thresholds]

    def _cell(self, row):
        return tuple(int(x) for x in np.unravel_index(row, self.base_shape))

