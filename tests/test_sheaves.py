import bisect
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfsheaf.fixtures import (circle_function, cusp_front, cusp_genfun,
                              pure_quad_genfun, random_circle_morse)
from gfsheaf.genfun import graph_brane, graph_genfun, window_floor
from gfsheaf.grids import (BaseRegion, BoxGrid, circle_grid,
                           sublevel_filtration)
from gfsheaf.sheaves import (ConeSet, TAxis, TameSheaf, behavior_at_infinity,
                             conify, conify_conormal, front_interior_table,
                             microstalk, quantize, sections,
                             singular_support, to_cellular, unit_sheaf)
from tuple_cells import cofaces

INF = math.inf


def test_taxis_cells_and_reps():
    ax = TAxis((0.0, 1.0))
    cells = ax.cells()
    assert cells == [("e", 0), ("v", 0), ("e", 1), ("v", 1), ("e", 2)]
    assert ax.rep(("e", 1)) == 0.5
    assert ax.rep(("v", 0)) == 0.5
    assert ax.rep(("v", 1)) == 1.5
    assert ax.rep_below(("v", 1)) == 0.5
    # window selection [0, 1): touches >= 0, not >= 1 (the open interval
    # (0,1) has a vertex at 1, so it belongs to the >= 1 subcomplex)
    assert ax.window_cells(0.0, 1.0) == [("e", 0), ("v", 0)]


def test_unit_sheaf_sections():
    grid = circle_function("0*x", n=12).grid
    U = unit_sheaf(grid)
    assert sections(U, None, -INF, 0.5) == {0: 1, 1: 1}
    assert sections(U, None, -INF, -0.5) == {}
    assert sections(U, None, 0.5, INF) == {}
    # over a closed arc: contractible
    reg = BaseRegion.interval_arc(grid, 2, 6)
    assert sections(U, reg, -INF, 0.5) == {0: 1}


def test_quantize_graph_sections_match_barcode():
    f = circle_function("cos(2*pi*x)", n=32)
    F = quantize(graph_genfun(f))
    bc = sublevel_filtration(f).barcode()
    for (a, b) in [(-INF, 0.0133), (-INF, INF), (0.0133, INF),
                   (-0.4871, 0.5123)]:
        want = bc.window_ranks(a if a != -INF else -2.0,
                               b if b != INF else 2.0)
        assert sections(F, None, a, b) == want


def test_to_cellular_agrees_with_gf_route():
    f = circle_function("cos(2*pi*x)", n=16)
    F = quantize(graph_genfun(f))
    C = to_cellular(F)  # constructor spot-checks 20 random boxes
    assert sections(C, None, -INF, 0.0133) == sections(F, None, -INF, 0.0133)
    assert sections(C, None, -INF, INF) == {0: 1, 1: 1}


def test_to_cellular_cusp_small():
    gf = cusp_genfun(n_base=12, n_fiber=48)
    F = quantize(gf)
    C = to_cellular(F, spot_checks=8)
    hi = gf.grid.base[0].n_cells - 1
    region = BaseRegion.interval_arc(gf.grid, hi - 4, hi)
    for (a, b) in [(0.45, 0.8), (-0.2, 0.2), (-0.8, 0.42)]:
        got = sections(C, region, a, b)
        want = sections(F, region, a, b, check_regular=False)
        assert got == want, (a, b, got, want)


def test_behavior_at_infinity():
    f = circle_function("0.3*sin(2*pi*x)", n=16)
    F = quantize(graph_genfun(f))
    minus, plus = behavior_at_infinity(F)
    assert minus == {}
    assert plus == {0: 1, 1: 1}
    gf = cusp_genfun(n_base=12, n_fiber=24)
    minus2, plus2 = behavior_at_infinity(quantize(gf))
    assert minus2 == {}
    # interval base: H^*(N) = {0: 1}, Floer-normalized by the shift
    assert sum(plus2.values()) == 1


def test_microstalk_graph_brane():
    f = circle_function("0.4*cos(2*pi*x)", n=16)
    F = quantize(graph_genfun(f))
    # at (x, f(x)): rank 1 in degree 0 (regular front point)
    cell = (4,)
    x = f.grid.base[0].cell_coord(4)
    t = 0.4 * math.cos(2 * math.pi * x)
    assert microstalk(F, cell, t, eps=0.01) == {0: 1}
    # away from the front and below everything: zero
    assert microstalk(F, cell, t + 0.2, eps=0.01) == {}
    assert microstalk(F, cell, -5.0, eps=0.5) == {}


def test_microstalk_cusp_on_strands():
    gf = cusp_genfun(n_base=24, n_fiber=64)
    F = quantize(gf)
    g = gf.grid.base[0]
    j = g.n_vertices - 1
    x = g.vertex_coords()[j]
    lo_t, hi_t = cusp_front(x)
    cell = (2 * j,)
    cps = gf.fiber_critical_data((j,))
    # pair semantics: rank 1 exactly at the sampled strand values
    assert sum(microstalk(F, cell, cps[0].value, eps=0.05).values()) == 1
    assert sum(microstalk(F, cell, cps[1].value, eps=0.05).values()) == 1
    # strictly between the strands: the two-sided pair vanishes
    assert microstalk(F, cell, 0.0, eps=0.05) == {}


def test_front_interior_table_cusp():
    gf = cusp_genfun(n_base=24, n_fiber=64)
    F = quantize(gf)
    g = gf.grid.base[0]
    for j in (g.n_vertices - 1, g.n_vertices // 2):
        x = g.vertex_coords()[j]
        lo_t, hi_t = cusp_front(x)
        cell = (2 * j,)
        band_top = hi_t + 0.3
        delta = 0.1
        if hi_t > 2 * delta:
            assert front_interior_table(F, cell, 0.0, band_top,
                                        eps=delta) == 1
        assert front_interior_table(F, cell, hi_t + 2 * delta + 0.05,
                                    band_top + 0.4, eps=delta) == 0
        assert front_interior_table(F, cell, lo_t - 2 * delta - 0.05,
                                    band_top, eps=delta) == 0


def test_conify_graph():
    f = circle_function("0.2*sin(2*pi*x)", n=16)
    cone = conify(graph_brane(f))
    taus = {tau for (_x, _t, _p, tau) in cone.points}
    assert taus == {0, 1}
    for (x, t, p, tau) in cone.points:
        assert t == pytest.approx(0.2 * math.sin(2 * math.pi * x[0]),
                                  abs=1e-9)


def test_singular_support_graph_matches_conify():
    f = circle_function("0.3*cos(2*pi*x)", n=16)
    F = quantize(graph_genfun(f))
    ss = singular_support(F, p_samples=7)
    cone = conify(graph_brane(f))
    g = f.grid.base[0]
    # codirection axis graded in curvature x spacing units
    curv = 0.3 * (2 * math.pi) ** 2
    scales = (g.spacing, 0.1, curv * g.spacing, 1.0)
    assert ss.hausdorff(cone, scales) <= 2.0


def test_singular_support_unit():
    grid = circle_function("0*x", n=12).grid
    U = unit_sheaf(grid)
    ss = singular_support(U, p_samples=5)
    assert ss.points
    for (x, t, p, tau) in ss.points:
        assert t == 0.0
        if tau == 1:
            assert p == (0.0,)


def test_singular_support_cusp_shape():
    from gfsheaf.genfun import brane_of
    gf = cusp_genfun(n_base=16, n_fiber=48)
    F = quantize(gf)
    ss = singular_support(F, p_samples=9)
    cone = conify(brane_of(gf))
    g = gf.grid.base[0]
    # front curvature of the blended profile reaches ~5 near the far strand
    scales = (g.spacing, 2 * gf.tau_val(), 5.0 * g.spacing, 1.0)
    assert ss.hausdorff(cone, scales) <= 2.0


def test_conify_conormal_shape():
    grid = circle_function("0*x", n=12).grid
    reg = BaseRegion.interval_arc(grid, 3, 9)
    cone = conify_conormal(reg)
    xs = {x[0] for (x, t, p, tau) in cone.points if p == (0.0,)}
    assert len(xs) >= 3
    outward = [(x, p) for (x, _t, p, tau) in cone.points if p != (0.0,)]
    assert outward  # rim codirections present


def unit_map_section_level(F: TameSheaf, region, a, b):
    """The canonical map from unit sections into F's sections over a window,
    as a chain map between the two assembled complexes.

    Sends the constant generator over each stratum to the sum of the
    degree-0 stalk generators of F there (the unit cocycle of the stalk);
    defined for cellular presentations whose stalks have no floor cut.
    """
    from gfsheaf.complexes import ChainMap
    from gfsheaf.linalg import GF2
    from gfsheaf.sheaves import _as_cellsheaf
    cell = _as_cellsheaf(F)
    grid = cell.base
    U = unit_sheaf(BoxGrid(grid.base, ()),
                   t0=cell.taxis.breaks[0] - 1.0)
    # share one refined t-axis so strata line up
    taxis = cell.taxis.with_breaks(list(U.cell.taxis.breaks) + [a, b])
    CU = U.cell.section_complex(region, a, b, taxis=taxis)
    CF = cell.section_complex(region, a, b, taxis=taxis)
    one = GF2.one()
    comp = {}
    genset = set(CF.gens)
    for g in CU.gens:
        (bc, tc, _lbl) = g
        st = cell.stalk(bc, taxis.rep(tc))
        img = {}
        for lbl, k in st.gens:
            if k == 0 and (bc, tc, lbl) in genset:
                img[(bc, tc, lbl)] = one
        if img:
            comp[g] = img
    T = ChainMap(CU, CF, comp)
    T.verify()
    return T


def test_unit_map_cone_is_the_band_fiber():
    # the fiber of the counit is the half-open band below the front: its
    # section ranks (computed from a directly built stratified indicator)
    # match the cone of the section-level map, shifted by one
    from gfsheaf.complexes import cohomology_ranks, mapping_cone
    from gfsheaf.sheaves import ZERO_STALK, CellSheaf, Stalk, TAxis
    from tuple_stalks import TupleStalks
    f = circle_function("0.4*cos(2*pi*x)", n=16)
    F = quantize(graph_genfun(f))
    cell = to_cellular(F, spot_checks=0).cell
    t0 = cell.taxis.breaks[0] - 1.0
    cm = f.cell_max()
    const = Stalk(((("k",), 0),))

    def band_stalk(bc, thr):
        if t0 < thr and not thr > float(cm[tuple(bc)]):
            return const
        return ZERO_STALK

    base = f.grid.base_only()
    K = TameSheaf("cell", cell=CellSheaf(
        base, TAxis((t0,) + cell.taxis.breaks),
        TupleStalks(base.base_cell_shape, band_stalk), label="band"),
        label="band")
    lo, hi = f.range()
    for (a, b) in [(lo - 1.04, hi + 1.02), (lo - 1.04, 0.0131),
                   (-0.1043, 0.2091), (0.2091, hi + 1.02)]:
        T = unit_map_section_level(F, None, a, b)
        cone = cohomology_ranks(mapping_cone(T))
        band = sections(K, None, a, b)
        assert cone == {k - 1: v for k, v in band.items()}, (a, b, cone, band)


def test_sections_field_guard():
    from gfsheaf.linalg import QQ
    f = circle_function("0.4*cos(2*pi*x)", n=8)
    C = to_cellular(quantize(graph_genfun(f)), spot_checks=0)
    with pytest.raises(ValueError, match="F2-only"):
        sections(C, None, -2.0, 2.0, field=QQ)


def test_to_cellular_size_guard():
    gf = cusp_genfun(n_base=32, n_fiber=64)
    with pytest.raises(ValueError, match="too large"):
        to_cellular(quantize(gf), max_cells=10)


def test_microstalk_locality_on_cropped_grid():
    # the microstalk only sees generating data near its base cell: rebuild
    # the family on a cropped base interval and compare
    gf = cusp_genfun(n_base=32, n_fiber=48)
    g = gf.grid.base[0]
    j = 20
    x = g.vertex_coords()[j]
    crop = cusp_genfun(n_base=8, n_fiber=48,
                       x_lo=x - 4 * g.spacing, x_hi=x + 4 * g.spacing)
    F = quantize(gf)
    Fc = quantize(crop)
    cell_full = (2 * j,)
    cell_crop = (2 * 4,)  # the center vertex of the cropped grid
    cps = gf.fiber_critical_data((j,))
    for t in [cps[0].value, cps[1].value, 0.0,
              (cps[1].value + cps[2].value) / 2]:
        a = microstalk(F, cell_full, t, eps=0.04)
        b = microstalk(Fc, cell_crop, t, eps=0.04)
        assert a == b, (t, a, b)


# ---------------------------------------------------------------------------
# the tensor section-complex builder against a cell-by-cell reference

def _ref_acc(cb, key, val, F):
    w = F.add(cb.get(key, F.zero()), val)
    if w == F.zero():
        cb.pop(key, None)
    else:
        cb[key] = w


def _reference_section_complex(cell, region, a, b, taxis=None):
    """One t-axis and one stalk, assembled generator by generator.  The
    axis is the sheaf's own unless a refinement is given; a t-cell takes the
    stalk of the own stratum that contains it."""
    from gfsheaf.complexes import ChainComplex
    F = cell.field
    own = cell.taxis
    taxis = taxis or own
    region_cells = (region.base_cells() if region is not None
                    else list(cell.base.base_cells()))
    region_set = set(map(tuple, region_cells))
    tcells = taxis.window_cells(a, b)
    tset = set(tcells)
    gens, deg, d, stalks = [], {}, {}, {}
    for bc in region_cells:
        bdim = cell.base.cell_dim(bc)
        for tc in tcells:
            stratum = ("e", bisect.bisect(own.breaks, taxis.rep(tc)))
            st = cell.stalk(bc, own.rep(stratum))
            if not st.gens:
                continue
            stalks[(bc, tc)] = st
            for lbl, k in st.gens:
                gens.append((bc, tc, lbl))
                deg[(bc, tc, lbl)] = bdim + taxis.dim(tc) + k
    genset = set(gens)
    for (bc, tc), st in stalks.items():
        bdim = cell.base.cell_dim(bc)
        tdim = taxis.dim(tc)
        dmap = st.d_map()
        for lbl, k in st.gens:
            cb = {}
            for cf, s in cofaces(cell.base, bc):
                t = (tuple(cf), tc, lbl)
                if tuple(cf) in region_set and t in genset:
                    _ref_acc(cb, t, F.coerce(s), F)
            sgn_t = -1 if bdim % 2 else 1
            for tcf, s in taxis.cofaces(tc):
                t = (bc, tcf, lbl)
                if tcf in tset and t in genset:
                    _ref_acc(cb, t, F.coerce(sgn_t * s), F)
            sgn_i = -1 if (bdim + tdim) % 2 else 1
            for lbl2, c in dmap.get(lbl, {}).items():
                t = (bc, tc, lbl2)
                if t in genset:
                    _ref_acc(cb, t, F.coerce(sgn_i * c), F)
            if cb:
                d[(bc, tc, lbl)] = cb
    return ChainComplex(gens, deg, d, F, check=False)


def _reference_product_section_complex(CA, CB, diagonal, region, a, b):
    """Two t-axes and two stalks, assembled generator by generator."""
    from gfsheaf.complexes import ChainComplex
    from gfsheaf.grids import BoxGrid
    F = CA.field
    ta, tb = CA.taxis, CB.taxis
    if diagonal:
        base = CA.base
        pair_of = lambda bc: (bc, bc)
    else:
        base = BoxGrid(CA.base.base + CB.base.base, ())
        na = len(CA.base.base)
        pair_of = lambda bc: (bc[:na], bc[na:])
    region_cells = (region.base_cells() if region is not None
                    else list(base.base_cells()))
    region_set = set(map(tuple, region_cells))
    tps = [(t1, t2) for t1 in ta.cells() for t2 in tb.cells()
           if a <= ta.top_value(t1) + tb.top_value(t2) < b]
    tpset = set(tps)
    gens, deg, d, pairs = [], {}, {}, {}
    for bc in region_cells:
        bc = tuple(bc)
        bca, bcb = pair_of(bc)
        bdim = base.cell_dim(bc)
        for (t1, t2) in tps:
            sa = CA.stalk(bca, ta.rep(t1))
            if not sa.gens:
                continue
            sb = CB.stalk(bcb, tb.rep(t2))
            if not sb.gens:
                continue
            pairs[(bc, t1, t2)] = (sa, sb)
            for la, ka in sa.gens:
                for lb, kb in sb.gens:
                    g = (bc, t1, t2, la, lb)
                    gens.append(g)
                    deg[g] = bdim + ta.dim(t1) + tb.dim(t2) + ka + kb
    genset = set(gens)
    for (bc, t1, t2), (sa, sb) in pairs.items():
        bdim = base.cell_dim(bc)
        d1, d2 = ta.dim(t1), tb.dim(t2)
        da, db = sa.d_map(), sb.d_map()
        for la, ka in sa.gens:
            for lb, kb in sb.gens:
                cb = {}
                for cf, s in cofaces(base, bc):
                    t = (tuple(cf), t1, t2, la, lb)
                    if tuple(cf) in region_set and t in genset:
                        _ref_acc(cb, t, F.coerce(s), F)
                sgn = -1 if bdim % 2 else 1
                for tcf, s in ta.cofaces(t1):
                    t = (bc, tcf, t2, la, lb)
                    if (tcf, t2) in tpset and t in genset:
                        _ref_acc(cb, t, F.coerce(sgn * s), F)
                sgn = -1 if (bdim + d1) % 2 else 1
                for tcf, s in tb.cofaces(t2):
                    t = (bc, t1, tcf, la, lb)
                    if (t1, tcf) in tpset and t in genset:
                        _ref_acc(cb, t, F.coerce(sgn * s), F)
                sgn = -1 if (bdim + d1 + d2) % 2 else 1
                for la2, c in da.get(la, {}).items():
                    t = (bc, t1, t2, la2, lb)
                    if t in genset:
                        _ref_acc(cb, t, F.coerce(sgn * c), F)
                sgn = -1 if (bdim + d1 + d2 + ka) % 2 else 1
                for lb2, c in db.get(lb, {}).items():
                    t = (bc, t1, t2, la, lb2)
                    if t in genset:
                        _ref_acc(cb, t, F.coerce(sgn * c), F)
                if cb:
                    d[(bc, t1, t2, la, lb)] = cb
    return ChainComplex(gens, deg, d, F, check=False)


def _assert_same_complex(got, want):
    assert got.gens == want.gens
    assert list(got.deg.items()) == list(want.deg.items())
    assert got.field is want.field

    def entries(C):
        return [(g, [(h, v, type(v)) for h, v in cb.items()])
                for g, cb in C.d.items()]

    assert entries(got) == entries(want)


def _random_box(rng, grid):
    """A random box of base cells (wrapping on circle axes)."""
    shape = grid.base_cell_shape
    mask = np.zeros(shape, dtype=bool)
    starts = [rng.randrange(s) for s in shape]
    widths = [rng.randrange(1, s + 1) for s in shape]
    for offs in itertools.product(*(range(w) for w in widths)):
        idx = tuple((st + o) % s if ax.topology == "circle"
                    else min(st + o, s - 1)
                    for st, o, s, ax in zip(starts, offs, shape, grid.base))
        mask[idx] = True
    return BaseRegion(grid, mask)


def _random_window(rng, lo, hi):
    a = rng.uniform(lo, hi)
    return a, rng.uniform(a + 1e-3, hi + 0.5)


def _cell_sheaves(seed):
    """Seeded cellular sheaves over F2 and Q: circle graphs, a small cusp,
    unit sheaves with and without a region, a rank-one tensor."""
    from gfsheaf.linalg import QQ
    from gfsheaf.sheaves import CellSheaf, materialize_rank_one_tensor
    rng = random.Random(seed)
    f = random_circle_morse(rng, n=8)
    g = random_circle_morse(rng, n=8)
    Cf = to_cellular(quantize(graph_genfun(f)), spot_checks=0).cell
    Cg = to_cellular(quantize(graph_genfun(g)), spot_checks=0).cell
    cusp = to_cellular(quantize(cusp_genfun(n_base=6, n_fiber=12)),
                       spot_checks=0).cell
    cusp_q = CellSheaf(cusp.base, cusp.taxis, cusp.source, field=QQ)
    U = unit_sheaf(f.grid).cell
    UR = unit_sheaf(f.grid, _random_box(rng, f.grid), t0=0.25).cell
    T = materialize_rank_one_tensor(Cf, Cg)
    return rng, {"graph_f": Cf, "graph_g": Cg, "cusp": cusp,
                 "cusp_q": cusp_q, "unit": U, "unit_region": UR,
                 "tensor": T}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_section_complex_matches_reference_assembly(seed):
    rng, cells = _cell_sheaves(seed)
    for name, cell in cells.items():
        lo = cell.taxis.breaks[0] - 0.5
        hi = cell.taxis.breaks[-1] + 0.5
        for trial in range(5):
            # trial 0: the whole band over the whole base, never empty
            region = None if trial < 2 else _random_box(rng, cell.base)
            a, b = (lo, hi) if trial == 0 else _random_window(rng, lo, hi)
            taxis = None
            if trial == 4:
                taxis = cell.taxis.with_breaks(
                    [a, b, rng.uniform(a, b), cell.taxis.breaks[0] - 1.0])
            want = _reference_section_complex(cell, region, a, b, taxis)
            got = cell.section_complex(region, a, b, taxis=taxis)
            _assert_same_complex(got, want)
            if trial == 0:
                assert got.d, name


@pytest.mark.parametrize("seed", [1, 2])
def test_product_section_complex_matches_reference_assembly(seed):
    from gfsheaf.sheaves import product_section_complex
    rng, cells = _cell_sheaves(seed)
    pairs = [("graph_f", "graph_g", True), ("graph_f", "unit_region", True),
             ("tensor", "graph_f", True), ("cusp_q", "cusp_q", True),
             ("graph_f", "graph_g", False), ("unit", "cusp", False)]
    for na, nb, diagonal in pairs:
        CA, CB = cells[na], cells[nb]
        base = CA.base if diagonal else BoxGrid(CA.base.base + CB.base.base,
                                                ())
        lo = CA.taxis.breaks[0] + CB.taxis.breaks[0] - 0.5
        hi = CA.taxis.breaks[-1] + CB.taxis.breaks[-1] + 0.5
        for trial in range(4):
            region = None if trial < 2 else _random_box(rng, base)
            a, b = (lo, hi) if trial == 0 else _random_window(rng, lo, hi)
            want = _reference_product_section_complex(CA, CB, diagonal,
                                                      region, a, b)
            got = product_section_complex(CA, CB, diagonal, region, a, b)
            _assert_same_complex(got, want)
            if trial == 0:
                assert got.d, (na, nb, diagonal)


def test_section_complex_rejects_a_non_chain_generization():
    # vertex stalks a -> b, edge stalks a, b with no differential: matching
    # labels is then no chain map, and d^2 = 0 fails on the total complex
    from gfsheaf.grids import BoxGrid
    from gfsheaf.sheaves import CellSheaf, Stalk
    from tuple_stalks import TupleStalks
    gens = ((("a",), 0), (("b",), 1))
    vertex = Stalk(gens, ((("a",), ("b",), 1),))
    edge = Stalk(gens)
    base = BoxGrid((circle_grid(4),))
    cell = CellSheaf(base, TAxis((0.0,)), TupleStalks(
        base.base_cell_shape, lambda bc, thr: edge if bc[0] & 1 else vertex))
    with pytest.raises(ValueError, match=r"d\^2 != 0"):
        cell.section_complex(None, -1.0, 1.0)


def _flipped(cell, bc, thr, field):
    """cell with the sign of the first differential entry of its stalk over
    (bc, thr) flipped, over field."""
    from gfsheaf.sheaves import CellSheaf, Stalk
    from tuple_stalks import TupleStalks

    def stalk_fn(c, t):
        [st] = cell.source.stalks(c, [t])
        if c == bc and t == thr:
            (x, y, v), *rest = st.diff
            st = Stalk(st.gens, ((x, y, -v), *rest))
        return st

    return CellSheaf(cell.base, cell.taxis, TupleStalks(
        cell.base.base_cell_shape, stalk_fn, field), field=field)


def test_a_flipped_stalk_sign_is_refused_at_the_reference_generator():
    # over Q the array check names the generator that the dict check of the
    # reference assembly names: the first failing one in generator order
    from gfsheaf.complexes import ChainComplex
    from gfsheaf.linalg import GF2, QQ
    cusp = to_cellular(quantize(cusp_genfun(n_base=4, n_fiber=12)),
                       spot_checks=0).cell
    ax = cusp.taxis
    tried = 0
    for bc in cusp.base.base_cells():
        for i in range(ax.m + 1):
            thr = ax.rep(("e", i))
            if not cusp.stalk(bc, thr).diff:
                continue
            cell = _flipped(cusp, bc, thr, QQ)
            ref = _reference_section_complex(cell, None, -INF, INF)
            try:
                ChainComplex(ref.gens, ref.deg, ref.d, QQ, check=True)
                continue
            except ValueError as e:
                want = str(e)
            assert want.startswith("d^2 != 0 at generator ((")
            with pytest.raises(ValueError) as got:
                cell.section_complex(None, -INF, INF)
            assert str(got.value) == want
            with pytest.raises(ValueError, match=r"d\^2 != 0"):
                sections(TameSheaf("cell", cell=cell), None, -INF, INF)
            # a flipped sign is invisible over F2
            _flipped(cusp, bc, thr, GF2).section_complex(None, -INF, INF)
            tried += 1
            break
        if tried == 3:
            break
    assert tried == 3


def test_a_stalk_lookup_caches_one_stalk_per_cell_and_stratum():
    # one lookup reads the stalks of every own stratum over its cell; a
    # repeat lookup in the same stratum returns the same object
    from gfsheaf.sheaves import ZERO_STALK, CellSheaf, RankOneStalks
    ax = TAxis((0.0, 1.0))
    base = BoxGrid((circle_grid(4),))
    opens = np.array([1.0] + [0.0] * 7)
    cell = CellSheaf(base, ax, RankOneStalks(
        base.base_cell_shape, opens, np.zeros(8, dtype=np.int64), ("k",)))
    top = cell.stalk((0,), 1.0)
    assert top.gens == ((("k",), 0),)
    for thr in (1.2, 1.5, ax.rep(("v", 1)), ax.rep(("e", 2))):
        assert cell.stalk((0,), thr) is top
    assert cell.stalk((0,), 0.999) is ZERO_STALK
    assert cell.stalk((1,), ax.with_breaks([0.5]).rep(("v", 1))).gens
    assert sorted(cell._cache) == [((0,), 0), ((0,), 1), ((0,), 2),
                                   ((1,), 0), ((1,), 1), ((1,), 2)]
    assert cell.stalk((1,), -1.0) is cell._cache[((1,), 0)] is ZERO_STALK


# ---------------------------------------------------------------------------
# stalks on the own strata, and windows read off one section barcode

def test_refined_axis_keeps_the_section_ranks_of_the_own_axis():
    # to_cellular stalks are sublevel complexes that change between the
    # breakpoints; sampled on a refined axis they gave another sheaf, which
    # put the degree-0 class of this cusp one window late
    from gfsheaf.genfun import gf_cohomology
    gf = cusp_genfun(n_base=20, n_fiber=64)
    cell = to_cellular(quantize(gf), spot_checks=0).cell
    rng = random.Random(6)
    lo, hi = cell.taxis.breaks[0] - 0.3, cell.taxis.breaks[-1] + 0.3
    windows = [(-0.0816, 0.0393), (0.0393, 0.1682)]
    windows += [_random_window(rng, lo, hi) for _ in range(3)]
    for a, b in windows:
        own = cell.section_complex(None, a, b).cohomology_ranks()
        extra = [a, b] + [rng.uniform(lo - 0.5, hi + 0.5) for _ in range(4)]
        refined = cell.section_complex(None, a, b,
                                       taxis=cell.taxis.with_breaks(extra))
        assert refined.cohomology_ranks() == own, (a, b)
    for a, b in windows[:2]:
        assert per_window_ranks(cell, None, a, b) == gf_cohomology(
            gf, None, a, b, check_regular=False), (a, b)


def per_window_ranks(cell, region, a, b):
    """Section ranks of one window from its own section complex, shifted;
    an infinite end is snapped half a unit past the extreme breakpoint,
    which keeps the same t-cells."""
    breaks = cell.taxis.breaks
    a = breaks[0] - 0.5 if a == -INF else a
    b = breaks[-1] + 0.5 if b == INF else b
    ranks = cell.section_complex(region, a, b).cohomology_ranks()
    return {k - cell.shift: r for k, r in ranks.items()}


def _oracle_inputs(grid_scale):
    """The cellular sheaves of the three-routes scenario with the windows
    its oracle-compare tasks query."""
    import os
    from gfsheaf.cli import BUNDLED_DIR
    from gfsheaf.genfun import cerf_diagram
    from gfsheaf.scenarios import ScenarioContext, load_scenario
    ctx = ScenarioContext(load_scenario(
        os.path.join(BUNDLED_DIR, "three-routes.toml")),
        grid_scale=grid_scale)
    h = ctx.functions["g"] - ctx.functions["f"]
    vals = sublevel_filtration(h).barcode().breakpoints()
    cuts = ([vals[0] - 0.5] + [(x + y) / 2 for x, y in zip(vals, vals[1:])]
            + [vals[-1] + 0.5])
    pair = to_cellular(quantize(graph_genfun(h)), spot_checks=0)
    yield pair, list(itertools.combinations(cuts, 2))
    gf = ctx.genfuns["cusp"]
    vals = list(cerf_diagram(gf).breakpoints)
    cuts = ([vals[0] - 0.3] + [(x + y) / 2 for x, y in zip(vals, vals[1:])]
            + [vals[-1] + 0.3])
    cusp = to_cellular(quantize(gf), spot_checks=0)
    yield cusp, list(zip(cuts, cuts[1:])) + [(cuts[0], cuts[-1])]


@pytest.mark.parametrize("grid_scale", [1, 2])
def test_section_barcode_reads_every_oracle_window(grid_scale):
    from gfsheaf.sheaves import section_barcode
    for F, windows in _oracle_inputs(grid_scale):
        bc = section_barcode(F)
        for a, b in windows:
            want = per_window_ranks(F.cell, None, a, b)
            assert bc.window_ranks(a, b) == want, (a, b)


def test_section_barcode_on_random_boxes_and_windows():
    from gfsheaf.sheaves import section_barcode
    rng = random.Random(66)
    sheaves = [F for F, _ in _oracle_inputs(1)]
    for trial in range(20):
        F = sheaves[trial % 2]
        breaks = F.cell.taxis.breaks
        region = _random_box(rng, F.cell.base)
        a, b = _random_window(rng, breaks[0] - 0.5, breaks[-1] + 0.5)
        if trial < 6:
            # infinite ends, snapped to the axis by per_window_ranks
            a, b = [(-INF, b), (a, INF), (-INF, INF)][trial % 3]
        got = section_barcode(F, region).window_ranks(a, b)
        assert got == per_window_ranks(F.cell, region, a, b), (trial, a, b)


def per_window_product_ranks(F, region, a, b):
    """Section ranks of one window of a product from its own carrier
    complex, shifted; an infinite end is snapped below the band floor or
    above the top corner, which keeps the same t-cell pairs."""
    from gfsheaf.sheaves import (_as_cellsheaf, _band_floor,
                                 product_section_complex)
    CA, CB = (_as_cellsheaf(G) for G in F.factors)
    a = _band_floor(F) - 0.25 if a == -INF else a
    b = CA.taxis.breaks[-1] + CB.taxis.breaks[-1] + 0.5 if b == INF else b
    C = product_section_complex(CA, CB, F.diagonal, region, a, b)
    shift = CA.shift + CB.shift
    return {k - shift: r for k, r in C.cohomology_ranks().items()}


def _products(seed):
    """Seeded diagonal and external products of graph, cusp, unit and
    cellular factors."""
    from gfsheaf.products import convolve, tensor
    rng = random.Random(seed)
    f = random_circle_morse(rng, n=6)
    g = random_circle_morse(rng, n=6)
    Ff, Fg = quantize(graph_genfun(f)), quantize(graph_genfun(g))
    cusp = quantize(cusp_genfun(n_base=4, n_fiber=12))
    return rng, {
        "graphs": tensor(Ff, Fg, strategy="cell"),
        "graph_unit": tensor(Ff, unit_sheaf(f.grid)),
        "cells": tensor(to_cellular(Fg, spot_checks=0),
                        unit_sheaf(f.grid, _random_box(rng, f.grid), 0.25)),
        "cusp_unit": tensor(cusp, unit_sheaf(cusp.base_grid, t0=-0.125)),
        "external": convolve(Ff, Fg, strategy="cell"),
    }


@pytest.mark.parametrize("seed", [1, 2])
def test_product_section_barcode_reads_every_window(seed):
    from gfsheaf.sheaves import _breaks_of, section_barcode
    rng, products = _products(seed)
    for name, F in products.items():
        assert F.kind == "prod", name
        breaks = _breaks_of(F)
        for trial in range(6):
            region = None if trial == 0 else _random_box(rng, F.base_grid)
            bc = section_barcode(F, region)
            windows = [_random_window(rng, breaks[0] - 0.5, breaks[-1] + 0.5)
                       for _ in range(3)]
            a, b = windows[0]
            windows += [(-INF, b), (a, INF), (-INF, INF)]
            for a, b in windows:
                want = per_window_product_ranks(F, region, a, b)
                assert bc.window_ranks(a, b) == want, (name, trial, a, b)
                assert sections(F, region, a, b) == want, (name, trial, a, b)


def test_section_barcode_is_built_once_per_region():
    from gfsheaf.sheaves import section_barcode
    rng, products = _products(1)
    F = products["graph_unit"]
    region = _random_box(rng, F.base_grid)
    again = BaseRegion(F.base_grid, region.membership.copy())
    assert section_barcode(F, region) is section_barcode(F, again)
    assert section_barcode(F) is section_barcode(F, None)
    assert section_barcode(F) is not section_barcode(F, region)


def test_to_cellular_builds_no_relative_complex(monkeypatch):
    # the presentation needs no cohomology of the whole base
    from gfsheaf import genfun, grids
    calls = []
    real = grids.relative_cochain_complex

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(grids, "relative_cochain_complex", counted)
    monkeypatch.setattr(genfun, "relative_cochain_complex", counted)
    f = random_circle_morse(random.Random(5), n=8)
    to_cellular(quantize(graph_genfun(f)), spot_checks=0)
    assert calls == []


def test_a_limit_sheaf_has_no_cellular_form():
    from gfsheaf.rectify import sheafify_limit
    from gfsheaf.sheaves import _as_cellsheaf, section_barcode
    L = sheafify_limit(random_circle_morse(random.Random(3), n=6))
    with pytest.raises(ValueError, match="limit presentation"):
        _as_cellsheaf(L)
    with pytest.raises(ValueError, match="limit presentation"):
        section_barcode(L)


@pytest.mark.parametrize("seed", [1, 2])
def test_section_complex_barcodes_match_the_reference_reduction(seed):
    from gfsheaf.complexes import FilteredComplex
    from test_complexes import reference_barcode
    rng, cells = _cell_sheaves(seed)
    for name, cell in cells.items():
        region = None if seed == 1 else _random_box(rng, cell.base)
        C = cell.section_complex(region, -INF, INF)
        FC = FilteredComplex(C, {g: cell.taxis.top_value(g[1])
                                 for g in C.gens})
        assert FC.barcode().bars == reference_barcode(FC).bars, name


# ---------------------------------------------------------------------------
# section barcodes through the vertical matching, and the cellular stalks

def unreduced_section_barcode(F, region):
    """section_barcode's complex, reduced without its matching."""
    from gfsheaf.complexes import Barcode, FilteredComplex
    from gfsheaf.sheaves import _as_cellsheaf, product_section_complex
    if F.kind == "prod":
        cells = [_as_cellsheaf(G) for G in F.factors]
        C = product_section_complex(*cells, F.diagonal, region, -INF, INF)
    else:
        cells = [_as_cellsheaf(F)]
        C = cells[0].section_complex(region, -INF, INF)
    tops = [[cell.taxis.top_value(tc)
             for cell, tc in zip(cells, g[1:1 + len(cells)])]
            for g in C.gens]
    FC = FilteredComplex(C, {g: t[0] if len(t) == 1 else t[0] + t[1]
                             for g, t in zip(C.gens, tops)})
    shift = sum(cell.shift for cell in cells)
    return Barcode([(k - shift, b, x) for k, b, x in FC.barcode().bars])


def _tie_heavy_graph(rng, grid):
    from gfsheaf.grids import SampledFunction
    vals = np.array([rng.randrange(3) for _ in range(
        int(np.prod(grid.vertex_shape)))], dtype=float)
    return SampledFunction(grid, vals.reshape(grid.vertex_shape))


def _over_q(F):
    """The same cellular (or product of cellular) sheaf with Q coefficients."""
    from gfsheaf.linalg import QQ
    from gfsheaf.sheaves import CellSheaf, _as_cellsheaf
    if F.kind == "prod":
        return TameSheaf("prod", factors=tuple(map(_over_q, F.factors)),
                         diagonal=F.diagonal)
    cell = _as_cellsheaf(F)
    return TameSheaf("cell", cell=CellSheaf(
        cell.base, cell.taxis, cell.source, shift=cell.shift, field=QQ))


def _sweep_sheaf(rng, kind):
    """A seeded sheaf of the given kind: tie-heavy graphs on a circle or a
    torus, a small cusp, duals, region units and their products."""
    from gfsheaf.products import convolve, dualize, tensor
    torus = BoxGrid((circle_grid(4), circle_grid(4)))
    circle = BoxGrid((circle_grid(rng.randrange(4, 11)),))
    graph = quantize(graph_genfun(_tie_heavy_graph(rng, circle)))
    if kind == "circle":
        return graph
    if kind == "torus":
        return quantize(graph_genfun(_tie_heavy_graph(rng, torus)))
    if kind == "cusp":
        return quantize(cusp_genfun(n_base=rng.randrange(4, 9), n_fiber=12))
    if kind == "dual":
        return dualize(to_cellular(graph, spot_checks=0))
    unit = unit_sheaf(circle, _random_box(rng, circle), t0=rng.randrange(3))
    if kind == "unit":
        return unit
    if kind == "dual-unit":
        return dualize(unit)
    other = quantize(graph_genfun(_tie_heavy_graph(rng, circle)))
    if kind == "diagonal":
        return tensor(graph, other, strategy="cell")
    if kind == "graph-unit":
        return tensor(graph, unit)
    return convolve(graph, other, strategy="cell")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10 ** 6),
       kind=st.sampled_from(["circle", "torus", "cusp", "dual", "unit",
                             "dual-unit", "diagonal", "graph-unit",
                             "external"]),
       over_q=st.booleans(), boxed=st.booleans())
def test_section_barcode_equals_the_unreduced_barcode(seed, kind, over_q,
                                                      boxed):
    from gfsheaf.sheaves import section_barcode
    rng = random.Random(seed)
    F = _sweep_sheaf(rng, kind)
    if over_q:
        F = _over_q(F)
    region = _random_box(rng, F.base_grid) if boxed else None
    assert section_barcode(F, region) == unreduced_section_barcode(F, region)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_verify_all_section_barcodes_equal_the_unreduced_ones(
        seed, tmp_path, monkeypatch):
    # every barcode reduced through a matching in a verify-all pass is
    # reduced again without it
    from gfsheaf.cli import main
    from gfsheaf.complexes import IndexComplex
    barcode = IndexComplex.barcode
    seen = []

    def certified(self, value, matching=None):
        got = barcode(self, value, matching)
        if matching is not None:
            assert got == barcode(self, value), seed
            seen.append((len(self.deg), len(matching[0])))
        return got

    monkeypatch.setattr(IndexComplex, "barcode", certified)
    assert main(["verify-all", "--grid-scale", "1", "--seed", str(seed),
                 "--out-dir", str(tmp_path)]) == 0
    assert len(seen) >= 10
    assert sum(n for _, n in seen) > sum(n for n, _ in seen) // 3


def reference_stalk(gf, bc, thr):
    """The fiber-cell loop that to_cellular's stalks replaced, kept as the
    reference: the floored sublevel cells of the fiber over bc in cell
    order, and their coface entries."""
    from gfsheaf.sheaves import Stalk
    floor = window_floor(gf)
    block = gf.S.cell_max()[tuple(bc)]
    fib = BoxGrid(gf.grid.fiber, ())
    gens, included = [], set()
    for fc in fib.all_cells():
        if floor <= float(block[fc]) < thr:
            included.add(fc)
            gens.append((fc, fib.cell_dim(fc)))
    diff = []
    for fc in included:
        for cf, s in cofaces(fib, fc):
            if cf in included:
                diff.append((fc, cf, s))
    return Stalk(tuple(gens), tuple(diff))


def _stalk_inputs():
    import os
    from gfsheaf.cli import BUNDLED_DIR
    from gfsheaf.genfun import box_sum
    from gfsheaf.scenarios import ScenarioContext, load_scenario
    spec = load_scenario(os.path.join(BUNDLED_DIR, "three-routes.toml"))
    for scale in (1, 2):
        ctx = ScenarioContext(spec, grid_scale=scale)
        yield ctx.genfuns["cusp"]
    yield graph_genfun(ctx.functions["f"])      # k = 0
    small = cusp_genfun(n_base=4, n_fiber=12)
    yield box_sum(small, small)     # a two-axis fiber


def test_cellular_stalks_equal_the_fiber_loop():
    count = 0
    for gf in _stalk_inputs():
        cell = to_cellular(quantize(gf), spot_checks=0).cell
        ax = cell.taxis
        for bc in cell.base.base_cells():
            for i in range(ax.m + 1):
                thr = ax.rep(("e", i))
                got = cell.stalk(bc, thr)
                want = reference_stalk(gf, bc, thr)
                assert got.gens == want.gens, (bc, thr)
                assert sorted(got.diff) == sorted(want.diff), (bc, thr)
                assert all(type(x) is int for lbl, k in got.gens
                           for x in lbl + (k,))
                assert all(type(c) is int for _, _, c in got.diff)
                count += 1
    assert count > 1584


@pytest.mark.parametrize("field", ["f2", "q"])
def test_mask_stalks_assemble_as_the_fiber_loop_stalks(field):
    # to_cellular's stalks, read off its fiber masks in one table per
    # factor, against the same sheaf sampled through the fiber loop one
    # tuple stalk at a time
    import functools
    from gfsheaf.linalg import GF2, QQ
    from gfsheaf.sheaves import (CellSheaf, FiberMasks, _same_cell,
                                 _total_complex)
    from tuple_stalks import TupleStalks
    F = {"f2": GF2, "q": QQ}[field]
    rng = random.Random(13)
    for gf in _stalk_inputs():
        cell = to_cellular(quantize(gf), spot_checks=0).cell
        assert isinstance(cell.source, FiberMasks)
        masked = CellSheaf(cell.base, cell.taxis, cell.source, field=F)
        loop = CellSheaf(cell.base, cell.taxis, TupleStalks(
            cell.base.base_cell_shape, functools.partial(reference_stalk, gf),
            F), field=F)
        for region in (None, _random_box(rng, cell.base)):
            got, want = (_total_complex(c.base, [(c, c.taxis, _same_cell)],
                                        region, -INF, INF, F)
                         for c in (masked, loop))
            assert len(got.deg) > 0 and len(got.tgt) > 0
            for name in ("deg", "indptr", "tgt", "coef", "value"):
                x, y = getattr(got, name), getattr(want, name)
                assert x.dtype == y.dtype and np.array_equal(x, y), name
            for x, y in zip(got.matching, want.matching, strict=True):
                assert np.array_equal(x, y)
            assert got.generators() == want.generators()


def test_a_mask_backed_assembly_builds_no_tuple_stalk(monkeypatch):
    # neither the fiber masks nor the rank-one stalks of unit sheaves,
    # region units and rank-one tensors build a tuple stalk to assemble
    from gfsheaf import sheaves
    from gfsheaf.sheaves import materialize_rank_one_tensor, section_barcode
    rng = random.Random(5)
    cusp = to_cellular(quantize(cusp_genfun(n_base=6, n_fiber=12)),
                       spot_checks=0)
    graphs = [to_cellular(quantize(graph_genfun(random_circle_morse(
        rng, n=8))), spot_checks=0) for _ in range(2)]
    product = TameSheaf("prod", factors=tuple(graphs), diagonal=True)
    grid = graphs[0].base_grid

    def refuse(*args, **kwargs):
        raise AssertionError("a tuple stalk was built")

    monkeypatch.setattr(sheaves, "Stalk", refuse)
    monkeypatch.setattr(sheaves.CellSheaf, "stalk", refuse)
    monkeypatch.setattr(sheaves.StalkSource, "stalks", refuse)
    units = [unit_sheaf(grid), unit_sheaf(grid, _random_box(rng, grid),
                                          t0=0.25)]
    tensor = TameSheaf("cell", cell=materialize_rank_one_tensor(
        graphs[0].cell, graphs[1].cell))
    for F in (cusp, graphs[0], product, *units, tensor):
        assert section_barcode(F).bars
        assert section_barcode(F, _random_box(rng, F.base_grid)) is not None
    assert cusp.cell.section_complex(None, -INF, INF).d


def test_a_flipped_sign_in_the_fiber_masks_is_refused():
    # one coface sign of a two-axis fiber flipped: a mask-derived stalk
    # that holds a whole square through the entry is no complex over Q, and
    # the table assembly names the generator that the reference assembly
    # names (on a one-axis fiber any signs make a complex)
    import copy
    from gfsheaf.complexes import ChainComplex
    from gfsheaf.genfun import box_sum
    from gfsheaf.linalg import GF2, QQ
    from gfsheaf.sheaves import CellSheaf
    small = cusp_genfun(n_base=4, n_fiber=8)
    cusp = to_cellular(quantize(box_sum(small, small)), spot_checks=0).cell
    sgn = cusp.source.coface.sgn
    tried = 0
    for x, k in np.argwhere(sgn != 0)[::7].tolist():
        masks = copy.copy(cusp.source)
        flipped = sgn.copy()
        flipped[x, k] *= -1
        masks.coface = masks.coface._replace(sgn=flipped)
        loop = CellSheaf(cusp.base, cusp.taxis, masks, field=QQ)
        ref = _reference_section_complex(loop, None, -INF, INF)
        try:
            ChainComplex(ref.gens, ref.deg, ref.d, QQ, check=True)
            continue
        except ValueError as e:
            want = str(e)
        assert want.startswith("d^2 != 0 at generator ((")
        for F in (QQ, GF2):
            cell = CellSheaf(cusp.base, cusp.taxis, masks, field=F)
            if F is GF2:    # a flipped sign is invisible over F2
                cell.section_complex(None, -INF, INF)
                continue
            with pytest.raises(ValueError) as got:
                cell.section_complex(None, -INF, INF)
            assert str(got.value) == want
        tried += 1
        if tried == 3:
            break
    assert tried == 3


def test_a_gf_sheaf_is_converted_to_cellular_form_once(tmp_path,
                                                       monkeypatch):
    import os
    from gfsheaf import products, scenarios, sheaves
    from gfsheaf.cli import BUNDLED_DIR
    convert = sheaves.to_cellular
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return convert(*args, **kwargs)

    for module in (sheaves, products, scenarios):
        monkeypatch.setattr(module, "to_cellular", counted)
    code, _ = scenarios.run_scenario(
        os.path.join(BUNDLED_DIR, "unit-laws.toml"), out_dir=str(tmp_path),
        seed=1)
    assert code == 0
    assert len(calls) == 2


def reference_hausdorff(A, B, scales):
    """The pairwise loop that ConeSet.hausdorff replaced, kept as the
    reference: max-norm of |a - b| / s, min over the other set, max over
    this set, both ways."""
    def dist(p, q):
        return max(abs(a - b) / s for a, b, s in zip(p, q, scales))

    def one_sided(ps, qs):
        worst = 0.0
        for p in ps:
            best = min(dist(p, q) for q in qs)
            worst = max(worst, best)
        return worst

    ps = [(x[0], t, p[0] if p else 0.0, tau) for (x, t, p, tau) in A.points]
    qs = [(x[0], t, p[0] if p else 0.0, tau) for (x, t, p, tau) in B.points]
    if not ps or not qs:
        return INF
    return max(one_sided(ps, qs), one_sided(qs, ps))


def _random_cone_set(rng, size):
    """Points on a coarse lattice (many tied coordinates, sums like 0.1 + 0.2
    that do not round evenly), some with an empty codirection."""
    pts = []
    for _ in range(size):
        x = rng.randint(-4, 4) * 0.1 + rng.choice([0.0, 0.2])
        t = rng.randint(-3, 3) * 0.3
        p = () if rng.random() < 0.2 else (rng.randint(-2, 2) * 0.7,)
        pts.append(((x,), t, p, rng.randint(0, 1)))
    return ConeSet(tuple(pts))


SCALES = (0.1, 0.3, 0.7, 1.0)


def test_hausdorff_equals_the_pairwise_loop_on_tied_point_sets():
    rng = random.Random(31)
    for _ in range(40):
        A = _random_cone_set(rng, rng.randint(1, 40))
        B = _random_cone_set(rng, rng.randint(1, 40))
        scales = rng.choice([SCALES, (0.03, 1.0, 0.1, 0.5)])
        assert A.hausdorff(B, scales) == reference_hausdorff(A, B, scales)
        assert type(A.hausdorff(B, scales)) is float


def test_hausdorff_at_the_block_boundary(monkeypatch):
    import gfsheaf.sheaves as sheaves
    rng = random.Random(32)
    # the real block: rows = block // 512 per numpy block of 512 columns
    Q = _random_cone_set(rng, 512)
    rows = sheaves._HAUSDORFF_BLOCK // 512
    for size in (rows - 1, rows, rows + 1):
        P = _random_cone_set(rng, size)
        assert P.hausdorff(Q, SCALES) == reference_hausdorff(P, Q, SCALES)
    # a small block: many boundaries, and sets larger than the block
    monkeypatch.setattr(sheaves, "_HAUSDORFF_BLOCK", 24)
    for m in (1, 5, 8, 24, 25, 30):
        Q = _random_cone_set(rng, m)
        rows = max(1, 24 // m)
        for size in (1, rows - 1, rows, rows + 1, 2 * rows + 1):
            if size:
                P = _random_cone_set(rng, size)
                assert P.hausdorff(Q, SCALES) == \
                    reference_hausdorff(P, Q, SCALES)
                assert Q.hausdorff(P, SCALES) == \
                    reference_hausdorff(Q, P, SCALES)


def test_hausdorff_with_an_empty_set_is_infinite():
    A = _random_cone_set(random.Random(33), 5)
    empty = ConeSet(())
    assert A.hausdorff(empty, SCALES) == INF
    assert empty.hausdorff(A, SCALES) == INF
    assert empty.hausdorff(empty, SCALES) == INF


@pytest.mark.parametrize("grid_scale", [1, 2])
def test_hausdorff_on_the_cusp_scenario_sets(grid_scale):
    import os
    from gfsheaf.cli import BUNDLED_DIR
    from gfsheaf.genfun import brane_of
    from gfsheaf.scenarios import ScenarioContext, load_scenario
    spec = load_scenario(os.path.join(BUNDLED_DIR, "cusp.toml"))
    task = next(t for t in spec["tasks"] if t["op"] == "ss")
    gf = ScenarioContext(spec, grid_scale=grid_scale).genfuns[task["genfun"]]
    ss = singular_support(quantize(gf), p_samples=int(task["p_samples"]))
    cone = conify(brane_of(gf))
    g = gf.grid.base[0]
    scales = (g.spacing, 2 * gf.tau_val() + 1e-6,
              float(task.get("p_scale", 5.0)) * g.spacing, 1.0)
    assert ss.hausdorff(cone, scales) == reference_hausdorff(ss, cone, scales)
