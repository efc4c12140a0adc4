"""Minimal models of the stalks of a cellular sheaf.

A cellular sheaf keeps its stalks in one record (sheaves.CellSheaf.strata),
a sheaves.StalkTable of integer slots.  minimal_stalks reduces every stalk
of the record once, by one acyclic matching of its generators
(stalk_pairs), to its critical generators with their Morse differential,
and keeps the inclusion i of the stalk's strong deformation retract
(i, p, h).  sheaves.section_barcode assembles its section complexes from
these (a StalkModel), with the transferred differential
(sheaves._section_parts); the design is Curry-Ghrist-Nanda's discrete Morse
theory for cellular sheaves (FoCM 16, 2016) with the homological
perturbation lemma (Crainic, arXiv:math/0403266).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .complexes import IndexComplex, _sparse_product, _sparse_sum
from .linalg import GF2


class StalkModel(NamedTuple):
    """The stalks a section complex is assembled from: index[c, i] numbers
    in table the stalk over flat base cell c on own stratum ('e', i), -1
    when it has no generator.  With transfer None the stalks are those of
    the record (CellSheaf.strata) and the coboundary moves a generator to
    the one of the same label.  Otherwise they are the minimal models of
    the record's stalks (minimal_stalks): table holds the critical
    generators of each record stalk and their Morse differential, and
    transfer = (keys, coefs) gives the inclusion i of every critical slot r
    of table: label l enters i(r) with coefficient coefs[k] where keys[k] =
    r * len(table.labels) + l (keys sorted); a missing key is 0."""

    index: np.ndarray
    table: tuple        # a sheaves.StalkTable
    transfer: tuple | None


def stalk_pairs(st, src, tgt):
    """The stalk matching of a stalk record, a pairing along a fiber axis:
    the entries (slot arrays lower, upper and the entry ids of d(lower) at
    upper) that pair label l with label l + 1, in the order (stalk, lower
    label descending).  On a FiberMasks record, whose label ids are flat
    fiber cell ids, l + 1 is the coface along the last fiber axis.

    src and tgt are the source and target slot of every differential entry.
    The rule is one on labels, so every stalk that holds both labels pairs
    them.  Label l pairs with l + 1 when some stalk has a +-1 entry from l
    to l + 1, and every slot labelled l + 1, in every stalk, is reached by
    such an entry: the label-matching restriction then carries a pair to a
    pair, and an upper label never appears without its lower one, so no
    upper label is ever critical.  A label in two pairs keeps the lower
    one.  A pair whose lower slot reaches, in any stalk, the upper label
    of a pair with a larger lower label is dropped, so the order above is
    a gradient order (IndexComplex._check_matching)."""
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
    return src[e], tgt[e], e


def minimal_stalks(strata, field) -> StalkModel:
    """The StalkModel of the minimal models of the stalks of a record
    (index, sheaves.StalkTable), each reduced once by its stalk matching
    (stalk_pairs).

    The record's stalks form one IndexComplex on the slots, which is
    checked (IndexComplex.check), and so is the matching on it
    (_check_matching).  With pair j matching s_j with u_j by the entry a_j
    = +-1 and inv_j = -a_j, the strong deformation retract (i, p, h) onto
    the critical slots is that of the Morse elimination (IndexComplex.
    _morse): N[j, j'] = inv_j d(s_j)[u_j'] is nilpotent, Phi = sum_k N^k,
    h(u_j) = sum_j' Phi[j, j'] inv_j' s_j' (and h = 0 on the other slots),
    p the quotient projection, i(c) = c + h(d c), and the Morse
    differential d_M(c) = p(d c).  Both are read off Z = A Phi, A[c, j] =
    d(c)[u_j], taken by repeated squaring with complexes._sparse_product
    and _sparse_sum: i(c) = c + sum_j Z[c, j] inv_j s_j and d_M(c) = d(c)
    on the critical slots + Z Y0, Y0[j, c] = inv_j d(s_j)[c].  Over F2 the
    sums are parities; over Q they are Python ints, exact, since every
    pair entry is a unit."""
    index, st = strata
    n, parity = len(st.lab), field is GF2
    stalk = np.repeat(np.arange(len(st.off) - 1), np.diff(st.off))
    src = np.repeat(np.arange(n), np.diff(st.dptr))
    tgt = st.off[stalk[src]] + st.dpos
    lower, upper, e = stalk_pairs(st, src, tgt)
    record = IndexComplex(st.ldeg, st.dptr, tgt, st.dcoef, field,
                          lambda q: (int(stalk[q]), st.labels[st.lab[q]]))
    record.check()
    record._check_matching(np.zeros(n), lower, upper)
    pairs = len(lower)
    size = max(n, pairs) + 1
    role = np.full(n, -1, dtype=np.int64)  # -1: critical, -2: lower, j: u_j
    role[lower] = -2
    role[upper] = np.arange(pairs)
    low = np.full(n, -1, dtype=np.int64)
    low[lower] = np.arange(pairs)
    lift = (lambda c: c) if parity else (lambda c: c.astype(object))
    coef, inv = lift(st.dcoef), lift(-st.dcoef[e])
    kind, j = role[tgt], low[src]
    scaled = np.append(inv, 0)[j] * coef    # inv_j d(s_j), 0 off the lowers
    part = lambda m, rows, cols, vals: _sparse_sum(
        [(rows[m], cols[m], vals[m])], size, parity)
    path = part((j >= 0) & (kind >= 0) & (kind != j), j, kind, scaled)
    y0 = part((j >= 0) & (kind == -1), j, tgt, scaled)
    z = part((role[src] == -1) & (kind >= 0), src, kind, coef)
    while len(path[0]):
        z = _sparse_sum([z, _sparse_product(z, path, size)], size, parity)
        path = _sparse_sum([_sparse_product(path, path, size)], size, parity)
    crit = np.flatnonzero(role == -1)
    drow, dcol, dval = _sparse_sum(
        [part((role[src] == -1) & (kind == -1), src, tgt, coef),
         _sparse_product(z, y0, size)], size, parity)
    irow, icol, ival = _sparse_sum(
        [(crit, crit, lift(np.ones(len(crit), dtype=np.int64))),
         (z[0], lower[z[1]], z[2] * inv[z[1]])], size, parity)
    r = np.cumsum(role == -1) - 1           # the critical slot of a slot
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
