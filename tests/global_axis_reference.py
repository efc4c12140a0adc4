"""The section-complex assembly on one global t-axis per factor, kept as a
test reference.

Before section barcodes were built on local t-axes, _total_complex cut
every base cell at every break of the factor's axis.  section_parts below
is that assembly unchanged, except that a factor's projection acts on flat
base cell ids and the per-threshold stalks come from the per-stratum
tables of stalk_reference.  section_barcode builds the complex of
sheaves._section_barcode with it, on the global axes, and reduces it
through the same vertical matching; its bars are the reference the local
axes must keep, bar for bar.
"""

import bisect
import functools

import numpy as np

import stalk_reference
from gfsheaf.complexes import Barcode, index_ranges
from gfsheaf.sheaves import (INF, ProductSheaf, SectionArrays, _Keys,
                             _product_factors, _same_cell)


def section_parts(base, factors, region, a, b):
    """(deg, parts, value, matching, columns, keys) of the section complex
    of factors ((CellSheaf, TAxis, project) triples) over region x [a, b),
    every base cell cut at every break of each axis."""
    m = len(factors)
    axes = [ax for _, ax, _ in factors]
    tcells = [ax.cells() for ax in axes]
    nt = [len(cells) for cells in tcells]
    value = functools.reduce(np.add.outer, [
        np.array([ax.top_value(tc) for tc in cells], dtype=float)
        for ax, cells in zip(axes, tcells)])
    wflat = np.flatnonzero((a <= value) & (value < b))
    wt = np.stack(np.unravel_index(wflat, nt), axis=1)
    wdim = (1 - (wt & 1)).sum(axis=1)
    mask = (region.over(base) if region is not None
            else np.ones(base.base_cell_shape, dtype=bool))
    cflat = np.flatnonzero(mask)
    cells = [tuple(c) for c in np.argwhere(mask).tolist()]
    table = base.coface_table
    stalks, over = [], []
    for (cell, ax, project), cells_f in zip(factors, tcells):
        strata = np.array([bisect.bisect(cell.taxis.breaks, ax.rep(tc))
                           for tc in cells_f], dtype=np.int64)
        rows, inverse = np.unique(project(cflat), return_inverse=True)
        index, st = stalk_reference.per_stratum(cell.source).table(rows, [
            cell.taxis.rep(("e", i)) for i in range(cell.taxis.m + 1)])
        index = index[inverse]
        stalks.append(st)
        over.append(index[:, strata])
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
    radix = [len(st.labels) for st in stalks]
    lab_stride = [functools.reduce(int.__mul__, radix[f + 1:], 1)
                  for f in range(m)]
    w_stride = lab_stride[0] * radix[0]
    c_stride = w_stride * int(np.prod(nt))
    key = cflat[gc] * c_stride + wflat[gw] * w_stride
    for f in range(m):
        key += lab[f] * lab_stride[f]
    keys = _Keys(key, (int(np.prod(base.base_cell_shape)), *nt, *radix))

    ids = np.arange(n, dtype=np.int64)
    parts = []
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


def section_arrays(base, factors, region, a, b, field):
    """The checked SectionArrays of section_parts."""
    deg, parts, value, matching, columns, keys = section_parts(
        base, factors, region, a, b)
    src = np.concatenate([x for x, _, _ in parts])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(len(deg) + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=len(deg)), out=indptr[1:])
    S = SectionArrays(deg, indptr,
                      np.concatenate([t for _, t, _ in parts])[order],
                      np.concatenate([c for _, _, c in parts]).astype(
                          np.int64)[order], field, value, matching, columns,
                      keys)
    S.check()
    return S


def global_factors(F):
    """(base, factors, shift, field) of a cellular or product sheaf, each
    factor on its own global t-axis."""
    if isinstance(F, ProductSheaf):
        cells = [G.cellular for G in F.factors]
        base, pairs = _product_factors(*cells, F.diagonal)
    else:
        cells = [F.cellular]
        base, pairs = cells[0].base, [(cells[0], _same_cell)]
    factors = [(cell, cell.taxis, project) for cell, project in pairs]
    return base, factors, sum(c.shift for c in cells), cells[0].field


def section_barcode(F, region=None):
    """The barcode of sheaves.section_barcode, on the global axes."""
    base, factors, shift, field = global_factors(F)
    S = section_arrays(base, factors, region, -INF, INF, field)
    return Barcode([(k - shift, b, x)
                    for k, b, x in S.barcode(S.value, S.matching).bars])
