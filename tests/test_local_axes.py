"""Section barcodes on local t-axes against the global-axis assembly.

section_barcode cuts each base cell only at the breaks where a stalk of
its star changes (CellSheaf.local_axes).  The global-axis assembly of
tests/global_axis_reference.py cuts every cell at every break; the
complexes differ by the dropped pairs of its vertical matching, so the
bars must agree bar for bar, and every local generator must be a global
one with the same degree and value.
"""

import itertools
import math
import os
import random

import numpy as np
import pytest

import global_axis_reference as ref
import local_axis_reference as lref
import stalk_reference as sref
from gfsheaf.cli import BUNDLED_DIR
from gfsheaf.fixtures import cusp_genfun, random_circle_morse, torus_function
from gfsheaf.genfun import gf_cohomology, graph_genfun, window_floor
from gfsheaf.grids import BaseRegion, BoxGrid, circle_grid, sublevel_filtration
from gfsheaf.linalg import GF2, QQ
from gfsheaf.products import ProductHome, convolve, dualize, tensor
from gfsheaf.scenarios import ScenarioContext, load_scenario
from gfsheaf.sheaves import (CellSheaf, FilteredStalks, ProductSheaf, TAxis,
                             _section_arrays, _total_complex,
                             materialize_rank_one_tensor,
                             product_section_complex, quantize,
                             section_barcode, to_cellular, unit_sheaf)
from tuple_cells import base_cells, cofaces

INF = math.inf


def _bundled_cusp_genfun(scale):
    spec = load_scenario(os.path.join(BUNDLED_DIR, "three-routes.toml"))
    return ScenarioContext(spec, grid_scale=scale).genfuns["cusp"]


def _bundled_cusp(scale):
    return to_cellular(quantize(_bundled_cusp_genfun(scale)), spot_checks=0)


def _graph(rng, grid):
    """A graph sheaf of a tie-heavy function on grid."""
    from gfsheaf.grids import SampledFunction
    vals = np.array([rng.randrange(4) for _ in range(
        int(np.prod(grid.vertex_shape)))], dtype=float)
    return quantize(graph_genfun(SampledFunction(
        grid, vals.reshape(grid.vertex_shape))))


def _over_q(F):
    cell = F.cellular
    return CellSheaf(cell.base, cell.taxis, cell.source, shift=cell.shift,
                     field=QQ)


def _cells(F):
    """The cellular sheaves a section barcode of F assembles."""
    return [G.cellular for G in F.factors] if isinstance(F, ProductSheaf) \
        else [F.cellular]


CIRCLE = BoxGrid((circle_grid(7),))
TORUS = BoxGrid((circle_grid(5), circle_grid(4)))


def _arc(grid, lo, hi):
    """The base cells lo..hi of a 1-d base, wrapping past the last cell."""
    n = grid.base_cell_shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[np.arange(lo, hi + 1 if hi >= lo else hi + n + 1) % n] = True
    return BaseRegion(grid, mask)


def _torus_box(grid):
    mask = np.zeros(grid.base_cell_shape, dtype=bool)
    mask[2:7, 1:6] = True
    return BaseRegion(grid, mask)


def _sheaves():
    """(name, sheaf, regions) over every kind the sweep covers."""
    rng = random.Random(2901)
    graph, other = _graph(rng, CIRCLE), _graph(rng, CIRCLE)
    unit = unit_sheaf(CIRCLE, _arc(CIRCLE, 3, 9), t0=1.0)
    torus = _graph(rng, TORUS)
    arcs = [None, _arc(CIRCLE, 2, 8), _arc(CIRCLE, 10, 4)]
    cusp_arcs = lambda F: [None, _arc(F.base_grid, 1, 9),
                           _arc(F.base_grid, 4, 30)]
    yield "circle-graph", graph, arcs
    yield "circle-graph-q", _over_q(graph), arcs
    yield "dual-graph", dualize(to_cellular(graph, spot_checks=0)), arcs
    yield "torus-graph", torus, [None, _torus_box(TORUS)]
    yield "unit", unit, arcs
    yield "plain-unit", unit_sheaf(TORUS), [None, _torus_box(TORUS)]
    yield "rank-one-tensor", materialize_rank_one_tensor(
        graph.cellular, other.cellular), arcs
    yield "diagonal", tensor(graph, other, strategy="cell"), arcs
    yield "graph-unit", tensor(graph, unit), arcs
    yield "external", convolve(graph, other, strategy="cell"), [None]
    yield "torus-diagonal", tensor(torus, dualize(torus)), [
        None, _torus_box(TORUS)]
    for scale in (1, 2, 4):
        F = _bundled_cusp(scale)
        yield f"cusp-{scale}", F, cusp_arcs(F)[:1 if scale == 4 else 3]
    small = to_cellular(quantize(cusp_genfun(n_base=6, n_fiber=12)),
                        spot_checks=0)
    yield "cusp-q", _over_q(small), cusp_arcs(small)[:2]


SHEAVES = list(_sheaves())


def _keys_by_id(S):
    out = np.empty_like(S._keys.sorted)
    out[S._keys.order] = S._keys.sorted
    return out


@pytest.mark.parametrize("name, F, regions", SHEAVES,
                         ids=[name for name, _, _ in SHEAVES])
def test_local_axes_keep_the_bars_of_the_global_axes(name, F, regions):
    for region in regions:
        assert section_barcode(F, region) == ref.section_barcode(F, region), \
            (name, region)
        # the local complex is a subcomplex of generators of the global one,
        # in the same id order, with the same degrees and values
        base, factors, _, field = lref.local_factors(F)
        L = _total_complex(base, factors, region, -INF, INF, field)
        G = ref.section_arrays(base, ref.global_factors(F)[1], region, -INF,
                               INF, field)
        hit, gid = G._keys.search(_keys_by_id(L))
        assert hit.all() and (np.diff(gid) > 0).all(), name
        assert (G.deg[gid] == L.deg).all() and (G.value[gid] == L.value).all()
        assert L.generators() == [G._generator(i) for i in gid.tolist()]


def test_the_cusp_loses_most_of_its_generators():
    """The section complex of the bundled cusp: every stalk generator on
    the global and on the local axes, and the critical ones of the stalks'
    minimal models on the local axes (section_barcode)."""
    counts = {}
    for scale in (1, 2):
        F = _bundled_cusp(scale)
        base, factors, _, field = lref.local_factors(F)
        L = _total_complex(base, factors, None, -INF, INF, field)
        G = ref.section_arrays(base, ref.global_factors(F)[1], None, -INF,
                               INF, field)
        M = _section_arrays(base, factors, None, -INF, INF, field,
                            [F.minimal])
        counts[scale] = (len(G.deg), len(L.deg), len(M.deg))
    assert counts == {1: (6673, 3037, 347), 2: (86219, 24431, 1631)}


def _star(grid, cell):
    """cell and every cell that has it as a face."""
    out, todo = {cell}, [cell]
    while todo:
        for cf, _ in cofaces(grid, todo.pop()):
            if cf not in out:
                out.add(cf)
                todo.append(cf)
    return out


@pytest.mark.parametrize("name, F, regions", SHEAVES[:11],
                         ids=[name for name, _, _ in SHEAVES[:11]])
def test_the_local_axes_follow_the_star_rule(name, F, regions):
    """Base cell c keeps break i exactly when some cell of its star has
    different tuple stalks (labels, degrees, differential) just below and
    just above break i."""
    for cell in _cells(F):
        ax, grid = cell.taxis, cell.base
        reps = [ax.rep(("e", i)) for i in range(ax.m + 1)]
        cells = [tuple(c) for c in base_cells(grid)]
        changes = {c: [cell.stalk(c, reps[i]) != cell.stalk(c, reps[i + 1])
                       for i in range(ax.m)] for c in cells}
        cover = cell.local_axes.cover
        for flat, c in enumerate(cells):
            star = _star(grid, c)
            want = [any(changes[s][i] for s in star) for i in range(ax.m)]
            assert (cover[flat, 1::2] >= 0).tolist() == want, (name, c)


def test_a_coface_cuts_no_break_its_face_drops():
    for name, F, _ in SHEAVES:
        for cell in _cells(F):
            cof = cell.base.coface_table.cof
            kept = cell.local_axes.cover[:, 1::2] >= 0
            for k in range(cof.shape[1]):
                has = cof[:, k] >= 0
                assert not (kept[cof[has, k]] & ~kept[has]).any(), name


@pytest.mark.parametrize("early", [None, 1])
def test_the_source_is_read_once_per_sheaf(monkeypatch, early):
    """Every reader of a cellular sheaf reads its stalk record: its local
    axes, its corners, product homes at two thresholds, the unit
    composition, a section complex and 100 stalk lookups together call
    the source's record once, whether the local axes read it first
    (early None) or early stalk lookups do (early 1: one lookup)."""
    from gfsheaf.products import verify_unit_composition
    rng = random.Random(2905)
    graph = to_cellular(quantize(graph_genfun(random_circle_morse(rng, n=8))),
                        spot_checks=0)
    for F in (graph, _bundled_cusp(1)):
        cell = F
        calls, record = [], cell.source.record
        monkeypatch.setattr(cell.source, "record",
                            lambda *args: calls.append(1) or record(*args))
        cells = [tuple(c) for c in base_cells(cell.base)]
        lo, hi = cell.taxis.breaks[0] - 1.0, cell.taxis.breaks[-1] + 1.0
        for _ in range(early or 0):
            cell.stalk(rng.choice(cells), rng.uniform(lo, hi))
        assert len(calls) == (1 if early else 0), F.label
        top = 2 * cell.taxis.breaks[-1]
        assert cell.local_axes.strata
        if F is graph:
            assert cell.corners.opens.size
            assert verify_unit_composition(F, [cell.taxis.breaks[-1]
                                               - cell.taxis.breaks[0] + 1.0])
        else:
            with pytest.raises(ValueError, match="rank-one"):
                cell.corners
        for lam in (top - 1.0, top - 0.5):
            assert len(ProductHome(cell, cell, lam).complex.deg)
        assert cell.section_complex(None, -INF, INF).d
        for _ in range(100):
            cell.stalk(rng.choice(cells), rng.uniform(lo, hi))
        assert len(calls) == 1, F.label


def _dense_axis(cell):
    """A t-axis cut at every distinct finite entry value of cell's source,
    but a value with no float strictly between it and the last break
    kept."""
    breaks = []
    values = cell.source.values
    for v in np.unique(values[np.isfinite(values)]).tolist():
        if not breaks or breaks[-1] < (breaks[-1] + v) / 2 < v:
            breaks.append(v)
    return TAxis(tuple(breaks))


def _record_inputs():
    """(name, cell, reference record) of every sheaf the stalk record is
    checked on: a GF sheaf's against the fiber masks with the window floor
    of its generating family, the others against their per-stratum form."""
    reference = sref.cell_record
    for scale in (1, 2, 4, 8):
        gf = _bundled_cusp_genfun(scale)
        cusp = to_cellular(quantize(gf), spot_checks=0)
        fiber = BoxGrid(gf.grid.fiber, ())
        masks = sref.FiberMasks(fiber.coface_table, fiber.all_cells(),
                                gf.S.cell_max(), window_floor(gf))
        reps = [cusp.taxis.rep(("e", i)) for i in range(cusp.taxis.m + 1)]
        n = len(cusp.base.coface_table.dim)
        yield f"cusp-{scale}", cusp, sref.record(masks, n, reps)
        if scale <= 2:
            dense = CellSheaf(cusp.base, _dense_axis(cusp), cusp.source)
            yield f"dense-{scale}", dense, reference(dense)
    for n in (8, 12, 16):
        rng = random.Random(2906 + n)
        graph, other = (to_cellular(quantize(graph_genfun(
            random_circle_morse(rng, n=n))), spot_checks=0) for _ in "ab")
        cells = [graph, unit_sheaf(graph.base),
                 unit_sheaf(graph.base, _arc(graph.base, 1, n // 2), 0.5),
                 materialize_rank_one_tensor(graph, other)]
        for name, cell in zip(("graph", "unit", "region-unit", "tensor"),
                              cells):
            yield f"{name}-{n}", cell, reference(cell)


def test_the_stalk_record_is_the_per_stratum_reference():
    """CellSheaf.strata, built from the entry strata of its source, is the
    record of the per-stratum tables with their runs of equal stalks
    collapsed (stalk_reference), array for array.  An entry on the first
    stratum whose rep is at or above the value (not strictly above) breaks
    it on the bundled cusp at grid scales 1 and 2."""
    for name, cell, (want_index, want) in _record_inputs():
        index, st = cell.strata
        assert index.dtype == want_index.dtype, name
        assert np.array_equal(index, want_index), name
        for field in ("off", "lab", "ldeg", "dptr", "dpos", "dcoef"):
            x, y = getattr(st, field), getattr(want, field)
            assert x.dtype == y.dtype and np.array_equal(x, y), (name, field)
        assert st.labels == want.labels, name


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_the_local_total_complex_is_certified_in_both_fields(field):
    """_total_complex on local axes over F2 and Q: IndexComplex.check
    passes (the integer sum of the two-step paths over Q), and the bars
    equal the global ones in the field."""
    for scale in (1, 2):
        cusp = _bundled_cusp(scale)
        cell = CellSheaf(cusp.base, cusp.taxis, cusp.source, field=field)
        L = _total_complex(cell.base, [(cell, cell.local_axes, lambda c: c)],
                           None, -INF, INF, field)
        L.check(integral=True)
        G = ref.section_arrays(cell.base, [(cell, cell.taxis, lambda c: c)],
                               None, -INF, INF, field)
        assert L.barcode(L.value, L.matching) == G.barcode(G.value,
                                                           G.matching)
        assert len(L.deg) < len(G.deg)


# ---------------------------------------------------------------------------
# a 16 x 16 torus graph pair, which the global axes cut into too many strata

TORUS_F = "0.8*cos(2*pi*x) + 0.6*sin(2*pi*y) + 0.15*cos(2*pi*(x+y))"
TORUS_G = "0.5*sin(2*pi*(x + 0.13))*cos(2*pi*y) + 0.3*cos(4*pi*(y + 0.21))"


def _cuts(vals, margin=0.5):
    return [vals[0] - margin] + [(x + y) / 2 for x, y in
                                 zip(vals, vals[1:])] + [vals[-1] + margin]


def _torus_pair(n):
    return graph_genfun(torus_function(TORUS_G, n, n)
                        - torus_function(TORUS_F, n, n))


def _refuse(*args, **kwargs):
    raise AssertionError("a stalk record was read")


def test_a_16x16_torus_graph_pair_passes_the_three_routes():
    gf = _torus_pair(16)
    F = to_cellular(quantize(gf), spot_checks=0)
    cell = F
    # the global axes would cut 1,024 base cells at every break
    assert cell.base.base_cell_shape == (32, 32)
    assert 1024 * (2 * cell.taxis.m + 1) > 250_000
    assert cell.local_axes.strata <= 250_000
    bc = sublevel_filtration(gf.S).barcode()
    sheaf = section_barcode(F)
    # every window between cuts past the bars' ends, and a seeded sample
    # of windows between cuts past the breaks
    rng = random.Random(2902)
    windows = list(itertools.combinations(_cuts(bc.breakpoints()), 2))
    windows += sorted(rng.sample(list(itertools.combinations(
        _cuts(cell.taxis.breaks), 2)), 40))
    for a, b in windows:
        r1 = {d - gf.i_q: r for d, r in bc.window_ranks(a, b).items()}
        r2 = gf_cohomology(gf, None, a, b, check_regular=False)
        assert r1 == r2 == sheaf.window_ranks(a, b), (a, b)
    assert any(sheaf.window_ranks(a, b) for a, b in windows)
    # a 2-d box of the torus: pair and sheaf routes
    mask = np.zeros(cell.base.base_cell_shape, dtype=bool)
    mask[5:19, 9:26] = True
    box = BaseRegion(gf.base_grid, mask)
    boxed = section_barcode(F, box)
    for a, b in windows:
        assert gf_cohomology(gf, box, a, b, check_regular=False) == \
            boxed.window_ranks(a, b), (a, b)
    assert any(boxed.window_ranks(a, b) for a, b in windows)


def test_the_size_guard_counts_the_strata_of_the_local_axes(monkeypatch):
    """The scale-2 cusp's global axis cuts 2,665 strata, its local axes
    1,077; a bound between the two is decided on the local count."""
    import gfsheaf.sheaves as sheaves
    gf = _bundled_cusp_genfun(2)
    strata = to_cellular(quantize(gf), spot_checks=0).local_axes.strata
    assert strata == 1077
    monkeypatch.setattr(sheaves, "MAX_STRATA", strata)
    assert to_cellular(quantize(gf), spot_checks=0)
    monkeypatch.setattr(sheaves, "MAX_STRATA", strata - 1)
    with pytest.raises(ValueError, match=f"too large \\({strata} strata"):
        to_cellular(quantize(gf), spot_checks=0)


def test_an_oversized_stratification_is_refused_before_a_stalk_is_read(
        monkeypatch):
    """Past 4 * MAX_STRATA strata on the global axis the local axes are not
    built: with FilteredStalks.record made to raise, a 20 x 20 torus pair
    (1,275,200 global strata) is refused at the default bound, and the
    16 x 16 one (521,216) just below a quarter of its global count."""
    import gfsheaf.sheaves as sheaves
    with monkeypatch.context() as patch:
        patch.setattr(FilteredStalks, "record", _refuse)
        with pytest.raises(ValueError, match=r"too large \(1275200 strata"):
            to_cellular(quantize(_torus_pair(20)), spot_checks=0)
        patch.setattr(sheaves, "MAX_STRATA", 130_303)
        with pytest.raises(ValueError, match=r"too large \(521216 strata"):
            to_cellular(quantize(_torus_pair(16)), spot_checks=0)
    monkeypatch.setattr(sheaves, "MAX_STRATA", 130_304)
    assert to_cellular(quantize(_torus_pair(16)), spot_checks=0)


def test_the_global_axis_builders_refuse_an_oversized_stratification(
        monkeypatch):
    """The 16 x 16 torus pair passes the size guard on its local axes, but
    its global axis cuts 521,216 strata: section_complex,
    product_section_complex and ProductHome refuse it before a stalk is
    read."""
    cell = to_cellular(quantize(_torus_pair(16)), spot_checks=0)
    monkeypatch.setattr(FilteredStalks, "record", _refuse)
    for build in (lambda: cell.section_complex(None, -INF, INF),
                  lambda: product_section_complex(cell, cell, True, None,
                                                  -INF, INF),
                  lambda: ProductHome(cell, cell, 0.0)):
        with pytest.raises(ValueError, match=r"too large \(521216 strata "
                                             r"cells on a global t-axis"):
            build()


def test_a_small_cusp_is_not_cut_for_the_size_guard():
    """Under MAX_STRATA the local axes are left to the first section
    query."""
    F = to_cellular(quantize(cusp_genfun(n_base=8, n_fiber=12)),
                    spot_checks=0)
    assert "local_axes" not in vars(F)
    section_barcode(F)
    assert "local_axes" in vars(F)


def test_random_circle_graphs_keep_their_bars():
    rng = random.Random(2903)
    for _ in range(12):
        n = rng.randrange(5, 14)
        F = quantize(graph_genfun(random_circle_morse(rng, n=n)))
        lo = 2 * rng.randrange(n)
        hi = (lo + 2 * rng.randrange(1, n)) % (2 * n)
        region = _arc(F.base_grid, lo, hi)
        for R in (None, region):
            assert section_barcode(F, R) == ref.section_barcode(F, R)
