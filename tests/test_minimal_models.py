"""Section barcodes on the minimal models of the stalks.

section_barcode reduces each record stalk once by its stalk matching
(CellSheaf.minimal) and assembles only the critical generators, with the
transferred differential.  Its bars must equal those of the complex with
every stalk generator (tests/local_axis_reference.py), bar for bar, the
minimal complex must be certified like every section complex, and the
retract of every stalk must be exact: the reference's Morse differential
and an inclusion that is a chain map.
"""

import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

import local_axis_reference as ref
import section_sizes
from gfsheaf.complexes import IndexComplex
from gfsheaf.fixtures import (cusp_genfun, pure_quad_genfun,
                              random_circle_morse)
from gfsheaf.genfun import box_sum, graph_genfun
from gfsheaf.linalg import GF2, QQ, add_scaled
from gfsheaf.minimal import StalkModel, stalk_pairs
from gfsheaf.sheaves import (CellSheaf, _section_arrays, quantize,
                             section_barcode, to_cellular)
from test_local_axes import SHEAVES, _arc, _bundled_cusp, _cells, _torus_pair
from test_morse_oracle import morse_rows, reference_morse

INF = math.inf


def _record_entries(st):
    """The stalk of every slot, and the source and target slot of every
    differential entry of a StalkTable."""
    stalk = np.repeat(np.arange(len(st.off) - 1), np.diff(st.off))
    src = np.repeat(np.arange(len(st.lab)), np.diff(st.dptr))
    return stalk, src, st.off[stalk[src]] + st.dpos


@pytest.mark.parametrize("name, F, regions", SHEAVES,
                         ids=[name for name, _, _ in SHEAVES])
def test_the_minimal_models_keep_the_bars_of_every_generator(name, F,
                                                             regions):
    for region in regions:
        F._barcodes.clear()
        assert section_barcode(F, region) == ref.section_barcode(F, region), \
            (name, region)


def test_random_circle_graphs_keep_their_bars():
    rng = random.Random(3201)
    for _ in range(20):
        n = rng.randrange(5, 14)
        F = quantize(graph_genfun(random_circle_morse(rng, n=n)))
        lo = 2 * rng.randrange(n)
        hi = (lo + 2 * rng.randrange(1, n)) % (2 * n)
        for R in (None, _arc(F.base_grid, lo, hi)):
            assert section_barcode(F, R) == ref.section_barcode(F, R)


def test_the_16x16_torus_pair_keeps_its_bars():
    F = to_cellular(quantize(_torus_pair(16)), spot_checks=0)
    assert section_barcode(F) == ref.section_barcode(F)


def _two_dimensional_fiber():
    """A cusp stabilized by a quadratic fiber direction: its stalks are
    masks over a 2-d fiber, paired along the last fiber axis."""
    cusp = cusp_genfun(10, 32)
    gf = box_sum(cusp, pure_quad_genfun(cusp.grid.base, (1.0,), 4.0, 16))
    return to_cellular(quantize(gf), spot_checks=0)


def test_a_two_dimensional_fiber_keeps_its_bars():
    F = _two_dimensional_fiber()
    assert section_barcode(F) == ref.section_barcode(F)
    assert len(F.minimal.table.lab) < len(F.strata[1].lab) // 4


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_the_minimal_complex_is_certified_in_both_fields(field):
    """Over F2 and Q the minimal complex is a complex over Z (every pair
    entry is a unit, so the transfer stays integral), and its bars are
    those of every generator in the field."""
    cusp = _bundled_cusp(2)
    cell = CellSheaf(cusp.base, cusp.taxis, cusp.source, field=field)
    S = _section_arrays(cell.base, [(cell, cell.local_axes, lambda c: c)],
                        None, -INF, INF, field, [cell.minimal])
    S.check(integral=True)
    R = _section_arrays(cell.base, [(cell, cell.local_axes, lambda c: c)],
                        None, -INF, INF, field,
                        [StalkModel(*cell.strata, None)])
    assert S.barcode(S.value, S.matching) == R.barcode(R.value, R.matching)
    assert len(S.deg) * 10 < len(R.deg)


def test_the_restriction_carries_every_stalk_pair_to_a_pair():
    """The stalk matching is one rule on labels: a label pair is a pair in
    every stalk that holds both labels, an upper label never appears
    without its lower one, and no slot is matched twice."""
    for name, F, _ in SHEAVES:
        for cell in _cells(F):
            st = cell.strata[1]
            stalk, src, tgt = _record_entries(st)
            lower, upper = stalk_pairs(st, src, tgt)
            assert len(np.unique(np.concatenate([lower, upper]))) == \
                2 * len(lower), name
            pairs = set(zip(st.lab[lower].tolist(), st.lab[upper].tolist()))
            ups = {u: s for s, u in pairs}
            held = {}
            for k, lab in zip(stalk.tolist(), st.lab.tolist()):
                held.setdefault(k, set()).add(lab)
            matched = {(int(stalk[q]), int(st.lab[q])) for q in
                       np.concatenate([lower, upper]).tolist()}
            for k, labels in held.items():
                for s, u in pairs:
                    if {s, u} <= labels:
                        assert (k, s) in matched and (k, u) in matched, name
                for u in labels & ups.keys():
                    assert ups[u] in labels, name


def test_rank_one_stalks_are_their_own_minimal_models():
    for name, F, _ in SHEAVES:
        for cell in _cells(F):
            if len(cell.source.labels) != 1:
                continue
            index, st = cell.strata
            M = cell.minimal
            assert np.array_equal(M.index, index), name
            for a, b in zip(M.table[:6], st[:6]):
                assert np.array_equal(a, b), name


def test_a_stalk_pair_across_stalks_is_refused():
    """The record's stalk matching is checked on the complex of its
    stalks: a pair whose lower slot has the right label but lies in another
    stalk of the record, where that label is critical, is no face of its
    upper."""
    st = _bundled_cusp(1).strata[1]
    stalk, src, tgt = _record_entries(st)
    lower, upper = stalk_pairs(st, src, tgt)
    record = IndexComplex(st.ldeg, st.dptr, tgt, st.dcoef, GF2, int)
    record.retract(np.zeros(len(st.lab)), lower, upper)
    free = np.ones(len(st.lab), dtype=bool)
    free[np.concatenate([lower, upper])] = False
    # a critical slot of the lower's label in another stalk
    j, q = next((j, q) for j, s in enumerate(lower.tolist())
                for q in np.flatnonzero(free & (st.lab == st.lab[s])).tolist())
    assert stalk[q] != stalk[lower[j]]
    moved = lower.copy()
    moved[j] = q
    with pytest.raises(ValueError, match="is not a coface"):
        record.retract(np.zeros(len(st.lab)), moved, upper)


RECORDS = {"cusp-1": lambda: _bundled_cusp(1),
           "cusp-2": lambda: _bundled_cusp(2),
           "2-d-fiber": _two_dimensional_fiber}


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
@pytest.mark.parametrize("name", sorted(RECORDS))
def test_every_stalk_retract_is_exact(name, field):
    """The retract of a stalk record under its stalk matching, one stalk
    at a time: d_M is the reference's Morse differential, every i(c) lies
    in the stalk of c with critical part c, and i is a chain map, d(i(c))
    = i(d_M(c)), exactly in the field."""
    cell = RECORDS[name]()
    st = CellSheaf(cell.base, cell.taxis, cell.source, field=field).strata[1]
    stalk, src, tgt = _record_entries(st)
    lower, upper = stalk_pairs(st, src, tgt)
    assert len(lower)
    K = IndexComplex(st.ldeg, st.dptr, tgt, st.dcoef, field, int)
    crit, d_M, i = K.retract(np.zeros(len(st.lab)), lower, upper)
    ref_crit, ref_rows = reference_morse(K, lower, upper, K.src())
    assert crit.tolist() == ref_crit.tolist()
    d_M = morse_rows(d_M)
    assert d_M == ref_rows
    coerce = lambda row: {g: field.coerce(v) for g, v in row.items()}
    d = {g: coerce(dict(zip(tgt[a:b].tolist(), st.dcoef[a:b].tolist())))
         for g, (a, b) in enumerate(zip(st.dptr[:-1].tolist(),
                                        st.dptr[1:].tolist()))}
    i = {c: coerce(row) for c, row in morse_rows(i).items()}
    critical = set(crit.tolist())
    for c in crit.tolist():
        k = int(stalk[c])
        assert {int(stalk[g]) for g in i[c]} == {k}, k
        assert {g: v for g, v in i[c].items() if g in critical} == \
            {c: field.one()}, k
        di, idm = {}, {}
        for g, v in i[c].items():
            add_scaled(di, d[g], v, field)
        for g, v in coerce(d_M.get(c, {})).items():
            add_scaled(idm, i[g], v, field)
        assert di == idm, k


def test_one_retract_per_stalk_record_and_per_section_complex(monkeypatch):
    """The first section barcode of the bundled cusp reduces its stalk
    record (CellSheaf.minimal) and its section complex, one
    IndexComplex.retract each; the barcode of a second region reduces
    only its own section complex."""
    F = _bundled_cusp(1)
    retract, calls = IndexComplex.retract, []

    def counted(self, value, lower, upper):
        calls.append(sys._getframe(1).f_code.co_name)
        return retract(self, value, lower, upper)

    monkeypatch.setattr(IndexComplex, "retract", counted)
    section_barcode(F)
    assert calls == ["minimal_stalks", "barcode"]
    section_barcode(F, _arc(F.base_grid, 1, 9))
    assert calls == ["minimal_stalks", "barcode", "barcode"]


def test_the_section_barcode_of_the_scale_2_cusp_stays_small():
    """tracemalloc peak of one section_barcode of the scale-2 cusp, its
    stalk record and local axes already read: 9.7 MB with every stalk
    generator assembled, 1.3 MB on the minimal models."""
    F = _bundled_cusp(2)
    assert F.strata and F.local_axes
    tracemalloc.start()
    try:
        section_barcode(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak


def test_the_section_size_table_at_scale_1():
    """The row tests/section_sizes.py prints for the scale-1 cusp."""
    assert section_sizes.row(section_sizes.bundled_cusp(1)) == (
        257, 3528, 116, 3037, 347, 2)


@pytest.mark.parametrize("vertex_labels, pairs", [((1,), 0), ((0, 1), 1)])
def test_a_hand_made_sheaf_pairs_only_what_every_stalk_carries(
        vertex_labels, pairs):
    """Fiber cells v1 - e0 - v0 (label ids 0, 1, 2; d v1 = e0, d v0 = -e0):
    over the edges of a circle all three above break 0 and v1, v0 below it,
    over the vertices the subcomplex vertex_labels, included by label into
    the edges.  Where e0 appears over a vertex without v1, the label pair
    (v1, e0) is no pair anywhere; with v1 it is a pair everywhere."""
    from gfsheaf.grids import BoxGrid, circle_grid
    from gfsheaf.sheaves import CellSheaf, Stalk, TAxis
    from tuple_stalks import TupleStalks
    names = [("v1",), ("e0",), ("v0",)]
    degs = (0, 1, 0)
    diff = ((names[0], names[1], 1), (names[2], names[1], -1))

    def stalk(labels):
        held = {names[k] for k in labels}
        return Stalk(tuple((names[k], degs[k]) for k in labels),
                     tuple(x for x in diff if {x[0], x[1]} <= held))

    full, cut, low = stalk((0, 1, 2)), stalk((0, 2)), stalk(vertex_labels)
    base = BoxGrid((circle_grid(5),))
    cell = CellSheaf(base, TAxis((0.0,)), TupleStalks(
        base.base_cell_shape,
        lambda bc, thr: (full if thr > 0.0 else cut) if bc[0] & 1 else low))
    st = cell.strata[1]
    # the record holds low, cut and full once each; low and full hold the
    # pair when it is one
    assert len(stalk_pairs(st, *_record_entries(st)[1:])[0]) == pairs * 2
    assert section_barcode(cell) == ref.section_barcode(cell)
