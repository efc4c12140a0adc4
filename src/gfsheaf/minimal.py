"""Minimal models of the stalks of a cellular sheaf.

A cellular sheaf keeps its stalks in one record (sheaves.CellSheaf.strata),
a sheaves.StalkTable of integer slots.  minimal_stalks reduces every stalk
of the record once, by one acyclic matching of its generators
(stalk_pairs), to its critical generators with their Morse differential,
and keeps the inclusion i of the stalk's strong deformation retract
(i, p, h), both from the package's one Morse elimination
(complexes.IndexComplex.retract).  sheaves.section_barcode assembles its
section complexes from these (a StalkModel), with the transferred
differential (sheaves._section_parts); the design is Curry-Ghrist-Nanda's
discrete Morse theory for cellular sheaves (FoCM 16, 2016) with the
homological perturbation lemma (Crainic, arXiv:math/0403266).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .complexes import IndexComplex


class StalkModel(NamedTuple):
    """The stalks a section complex is assembled from: index[c, i] numbers
    in table the stalk over flat base cell c on own stratum ('e', i), -1
    when it has no generator.  With transfer None the stalks are those of
    the record (CellSheaf.strata) and the coboundary moves a generator to
    the one of the same label.  Otherwise they are the minimal models of
    the record's stalks (minimal_stalks): table holds the critical
    generators of each record stalk and their Morse differential, and
    transfer = (keys, coefs) gives the retract's inclusion i (IndexComplex.
    retract) of every critical slot r of table: label l enters i(r) with
    coefficient coefs[k] where keys[k] = r * len(table.labels) + l (keys
    sorted); a missing key is 0."""

    index: np.ndarray
    table: tuple        # a sheaves.StalkTable
    transfer: tuple | None


def stalk_pairs(st, src, tgt):
    """The stalk matching of a stalk record, a pairing along a fiber axis:
    the slot arrays (lower, upper) that pair label l with label l + 1, in
    the order (stalk, lower label descending).  On the record of a GF
    sheaf, whose label ids are flat fiber cell ids, l + 1 is the coface
    along the last fiber axis.

    src and tgt are the source and target slot of every differential entry.
    The rule is one on labels, so every stalk that holds both labels pairs
    them.  Label l pairs with l + 1 when some stalk has a +-1 entry from l
    to l + 1, and every slot labelled l + 1, in every stalk, is reached by
    such an entry: the label-matching restriction then carries a pair to a
    pair, and an upper label never appears without its lower one, so no
    upper label is ever critical.  A label in two pairs keeps the lower
    one.  A pair whose lower slot reaches, in any stalk, the upper label
    of a pair with a larger lower label is dropped, so the order above is
    a gradient order (as IndexComplex.retract checks)."""
    lab = st.lab
    step = (lab[tgt] == lab[src] + 1) & (np.abs(st.dcoef) == 1)
    # pairs[l]: label l pairs with l + 1; pairs[-1] reads a label below 0
    pairs = np.zeros(len(st.labels) + 1, dtype=bool)
    pairs[lab[src[step]]] = True
    entered = np.zeros(len(lab), dtype=bool)
    entered[tgt[step]] = True
    pairs[lab[~entered] - 1] = False
    pairs[-1] = False
    pairs[1:] &= ~pairs[:-1]
    lo, hi = lab[src], lab[tgt] - 1
    pairs[lo[pairs[lo] & pairs[hi] & (hi > lo)]] = False
    e = np.flatnonzero(step & pairs[lo])
    stalk = np.repeat(np.arange(len(st.off) - 1), np.diff(st.off))
    e = e[np.lexsort((-lab[src[e]], stalk[src[e]]))]
    return src[e], tgt[e]


def minimal_stalks(strata, field) -> StalkModel:
    """The StalkModel of the minimal models of the stalks of a record
    (index, sheaves.StalkTable), each reduced once by its stalk matching
    (stalk_pairs).

    The record's stalks form one IndexComplex on the slots, which is
    checked (IndexComplex.check), and IndexComplex.retract checks the
    matching on it and gives the critical slots, their Morse differential
    and the inclusion i of the strong deformation retract onto them, which
    are renumbered here into the critical slots of each stalk.  Over Q
    they stay integers, since every pair entry is a unit."""
    index, st = strata
    n = len(st.lab)
    stalk = np.repeat(np.arange(len(st.off) - 1), np.diff(st.off))
    src = np.repeat(np.arange(n), np.diff(st.dptr))
    tgt = st.off[stalk[src]] + st.dpos
    lower, upper = stalk_pairs(st, src, tgt)
    del src
    record = IndexComplex(st.ldeg, st.dptr, tgt, st.dcoef, field,
                          lambda q: (int(stalk[q]), st.labels[st.lab[q]]))
    record.check()
    crit, (drow, dcol, dval), (irow, icol, ival) = record.retract(
        np.zeros(n), lower, upper)
    r = np.zeros(n, dtype=np.int64)         # the critical slot of a slot
    r[crit] = np.arange(len(crit))
    count = np.bincount(stalk[crit], minlength=len(st.off) - 1)
    off = np.append(0, np.cumsum(count))
    table = st._replace(
        off=off, lab=st.lab[crit], ldeg=st.ldeg[crit],
        dptr=np.append(0, np.cumsum(np.bincount(r[drow],
                                                minlength=len(crit)))),
        dpos=r[dcol] - off[stalk[dcol]], dcoef=dval.astype(np.int64))
    keys = r[irow] * len(st.labels) + st.lab[icol]
    order = np.argsort(keys, kind="stable")
    return StalkModel(np.where(np.append(count > 0, False)[index], index, -1),
                      table, (keys[order], ival[order].astype(np.int64)))
