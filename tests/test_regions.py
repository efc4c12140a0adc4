"""Closed base regions read off the coface table: the face closure, the
boundary ring and the clamp vertices, each against the
tuple walkers of tests/tuple_cells.py on seeded random bases, and a 2-d
region whose corners the direct-face closure left out.  A region lives on
its base grid: a grid of another base is refused, and a region built on a
grid with fibers is the region built on its base."""

import math
import random

import numpy as np
import pytest

from gfsheaf.fixtures import (random_circle_morse, smoothed_clamp,
                              stabilized_graph_genfun)
from gfsheaf.floer import _boundary_ring, clamp_schedule
from gfsheaf.genfun import gf_cohomology, graph_genfun
from gfsheaf.grids import (BaseRegion, BoxGrid, SampledFunction, circle_grid,
                           interval_grid)
from gfsheaf.products import dualize
from gfsheaf.rectify import sheafify_limit
from gfsheaf.sheaves import (microstalk, quantize, section_barcode,
                             sections, to_cellular, unit_sheaf)
from tuple_cells import (boundary_ring, direct_face_closure, face_closure,
                         inside_vertices, smoothed_clamp_values)


INF = math.inf


# ---------------------------------------------------------------------------
# a square on the 4 x 4 torus

def torus():
    return BoxGrid((circle_grid(4), circle_grid(4)))


def square(grid):
    return BaseRegion.from_cells(grid, [(1, 1)])


def test_a_square_region_closes_with_its_corners():
    grid = torus()
    want = np.zeros(grid.base_cell_shape, dtype=bool)
    want[:3, :3] = True
    assert (square(grid).membership == want).all()


def test_every_route_sees_a_point_over_a_closed_square():
    # H^*(closed square x [-1, 1), k_{t >= 0}) is the cohomology of a
    # contractible set; without the corners it was H^* relative to them
    grid = torus()
    gf = graph_genfun(SampledFunction(grid, np.zeros(grid.vertex_shape)))
    region = square(grid)
    F = quantize(gf)
    C = to_cellular(F)
    assert gf_cohomology(gf, region, -1.0, 1.0) == {0: 1}
    assert sections(F, region, -1.0, 1.0) == {0: 1}
    assert sections(C, region, -1.0, 1.0) == {0: 1}
    assert microstalk(F, (1, 1), 0.0, eps=1.0) == {0: 1}
    assert microstalk(C, (1, 1), 0.0, eps=1.0) == {0: 1}


def test_a_region_unit_and_its_dual_open_on_closed_sets():
    grid = torus()
    region = square(grid)
    U = unit_sheaf(grid, region)
    opens = U.source.values.reshape(grid.base_cell_shape)
    assert (np.isfinite(opens) == region.membership).all()
    assert (opens[region.membership] == 0.0).all()
    D = dualize(U)
    dual_opens = D.source.values.reshape(grid.base_cell_shape)
    closure = face_closure(grid, ~region.membership)
    assert (np.isfinite(dual_opens) == closure).all()
    # all but the open square: the complement's closure takes its rim
    assert closure.sum() == closure.size - 1 and not closure[1, 1]


@pytest.mark.parametrize("cell", [(0,), (1, 1, 0), (-1, 1), (1, 8), (1.0, 1),
                                  (True, False)],
                         ids=["short", "long", "negative", "beyond", "float",
                              "bool"])
def test_a_cell_that_is_no_cell_of_the_base_is_refused(cell):
    # (0,) selected a whole row of the torus, -1 wrapped around and a bool
    # read as a mask
    grid = torus()
    with pytest.raises(ValueError, match="not one in-range integer"):
        BaseRegion.from_cells(grid, [cell])
    with pytest.raises(ValueError, match="not one in-range integer"):
        microstalk(quantize(graph_genfun(SampledFunction(
            grid, np.zeros(grid.vertex_shape)))), cell, 0.0, eps=1.0)
    assert BaseRegion.from_cells(grid, [(np.int64(1), 6)]).count() == 3


# ---------------------------------------------------------------------------
# seeded random bases against the tuple walkers

def random_base(rng, dim, topology):
    return BoxGrid(tuple(
        circle_grid(rng.randint(4, 7)) if topology == "circle"
        else interval_grid(rng.randint(4, 7), 0.0, 1.0)
        for _ in range(dim)))


def random_region(rng, grid, seen):
    """A few boxes of consecutive cell ids, and a few single cells, not
    closed.  On a circle a box may run past the last cell and wrap; on an
    interval it may start or end at an end vertex.  seen counts both."""
    shape = grid.base_cell_shape
    m = np.zeros(shape, dtype=bool)
    for _ in range(rng.randint(1, 3)):
        idx = []
        for g, s in zip(grid.base, shape):
            w = rng.randint(1, s // 2)
            start = rng.choice([rng.randrange(s), s - w, s - 1, 0])
            if g.topology == "circle":
                ids = [(start + k) % s for k in range(w)]
                seen["wraps"] += 0 in ids and s - 1 in ids
            else:
                ids = list(range(min(start, s - w), min(start, s - w) + w))
                seen["ends"] += 0 in ids or s - 1 in ids
            idx.append(ids)
        m[np.ix_(*idx)] = True
    for _ in range(rng.randint(0, 2)):
        m[tuple(rng.randrange(s) for s in shape)] = True
    return BaseRegion(grid, m), m


CASES = [(dim, topology) for dim in (1, 2) for topology in ("circle",
                                                            "interval")]


@pytest.mark.parametrize("dim, topology", CASES,
                         ids=[f"{d}d-{t}" for d, t in CASES])
def test_region_walks_match_the_tuple_walkers(dim, topology):
    rng = random.Random(100 * dim + len(topology))
    seen = {"wraps": 0, "ends": 0}
    for _ in range(25):
        grid = random_base(rng, dim, topology)
        region, given = random_region(rng, grid, seen)
        # the transitive face closure; in 1-d the direct faces were enough
        assert (region.membership == face_closure(grid, given)).all()
        if dim == 1:
            assert (region.membership ==
                    direct_face_closure(grid, given)).all()
        assert BaseRegion(grid, region.membership).membership.tobytes() == \
            region.membership.tobytes()
        ring = _boundary_ring(region)
        assert ring.dtype == bool and ring.shape == grid.base_cell_shape
        assert {tuple(c) for c in np.argwhere(ring).tolist()} == \
            boundary_ring(region)
        inside = inside_vertices(region)
        clamps = clamp_schedule(region, 1.5, ks=(4, 8))
        for k, clamp in zip((4, 8), clamps):
            assert clamp.grid == grid.base_only()
            assert clamp.values.tolist() == \
                np.where(inside, 0.0, -k * 1.5).tolist()
        if dim == 1:
            assert smoothed_clamp(region).values.tolist() == \
                smoothed_clamp_values(region).tolist()
    assert seen["wraps" if topology == "circle" else "ends"] > 0


def test_a_region_with_a_fiber_closes_over_the_base():
    grid = BoxGrid((circle_grid(4), interval_grid(4, 0.0, 1.0)),
                   (interval_grid(4, -1.0, 1.0),))
    m = np.zeros(grid.base_cell_shape, dtype=bool)
    m[7, 1] = True                    # a square that wraps the circle
    region = BaseRegion(grid, m)
    assert (region.membership == face_closure(grid, m)).all()
    assert region.count() == 9
    assert region.membership[0, 0] and region.membership[6, 2]


def test_the_full_and_the_empty_region_are_closed():
    grid = BoxGrid((interval_grid(5, 0.0, 1.0), circle_grid(4)))
    assert BaseRegion(grid).membership.all()
    empty = BaseRegion(grid, np.zeros(grid.base_cell_shape, dtype=bool))
    assert not empty.membership.any()
    assert not _boundary_ring(empty).any()
    assert not _boundary_ring(BaseRegion(grid)).any()
    assert (clamp_schedule(empty, 1.0, ks=(4,))[0].values == -4.0).all()


# ---------------------------------------------------------------------------
# a region lives on the base grid

def circle_family():
    f = random_circle_morse(random.Random(5), n=12)
    return f, stabilized_graph_genfun(f, (1.0,), radius=2.5, n_fiber=8)


def test_a_region_of_another_base_is_refused():
    f, gf = circle_family()
    C = to_cellular(quantize(graph_genfun(f)))
    section_barcode(C, BaseRegion.interval_arc(gf.base_grid, 3, 9))
    # a circle of another length: the same cells, so the same membership
    # bytes, over another base
    other = BaseRegion.interval_arc(BoxGrid((circle_grid(12, 2.0),)), 3, 9)
    assert other.membership.shape == gf.base_grid.base_cell_shape
    for route in (lambda: gf_cohomology(gf, other, -INF, INF),
                  lambda: sections(C, other, -1.0, 1.0),
                  lambda: section_barcode(C, other),
                  lambda: other.over(gf.grid)):
        with pytest.raises(ValueError, match="another base grid"):
            route()


def test_a_region_on_the_grid_and_on_its_base_are_one_region():
    f, gf = circle_family()
    on_grid = BaseRegion.interval_arc(gf.grid, 3, 9)
    on_base = BaseRegion.interval_arc(gf.base_grid, 3, 9)
    assert on_grid.grid is on_base.grid is gf.base_grid
    assert on_grid == on_base and hash(on_grid) == hash(on_base)
    assert on_grid != BaseRegion.interval_arc(gf.grid, 3, 8)
    over = on_grid.over(gf.grid)
    assert over.shape == gf.grid.cell_shape and not over.flags.writeable
    assert (over == on_grid.membership[:, None]).all()
    assert gf_cohomology(gf, on_grid, -INF, INF) == \
        gf_cohomology(gf, on_base, -INF, INF) == {0: 1}
    C = to_cellular(quantize(gf), spot_checks=0)
    assert section_barcode(C, on_grid) is section_barcode(C, on_base)
    assert list(C._barcodes) == [on_grid]
    L = sheafify_limit(f, ks=(1, 2, 3))
    lo, hi = f.range()
    assert sections(L, on_grid, lo - 1.0, hi + 1.0) == \
        sections(L, on_base, lo - 1.0, hi + 1.0)
    assert {region for region, _ in L._rungs} == {on_grid}


def test_the_dual_of_a_region_unit_is_the_old_rebuild():
    grid = torus()
    region = square(grid)
    for t0 in (0.0, 0.75):
        D = dualize(unit_sheaf(grid, region, t0))
        old = unit_sheaf(grid, BaseRegion(grid, ~region.membership), -t0)
        assert D.indicator == old.indicator == \
            ("region", region.complement_closure(), -t0)
        assert D.taxis == old.taxis
        for got, want in ((D.source, old.source),
                          (section_barcode(D), section_barcode(old))):
            assert vars(got).keys() == vars(want).keys()
            for key, value in vars(got).items():
                assert np.array_equal(value, vars(want)[key]), key
    full = dualize(unit_sheaf(grid, None, 0.75))
    assert full.indicator == ("region", None, -0.75)
