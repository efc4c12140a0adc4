"""Closed base regions read off the coface table: the face closure, the
boundary ring, the clamp vertices and the conormal rim, each against the
tuple walkers of tests/tuple_cells.py on seeded random bases, and a 2-d
region whose corners the direct-face closure left out."""

import random

import numpy as np
import pytest

from gfsheaf.fixtures import smoothed_clamp
from gfsheaf.floer import _boundary_ring, clamp_schedule
from gfsheaf.genfun import gf_cohomology, graph_genfun
from gfsheaf.grids import (BaseRegion, BoxGrid, SampledFunction, circle_grid,
                           interval_grid)
from gfsheaf.products import dualize
from gfsheaf.sheaves import (conify_conormal, microstalk, quantize, sections,
                             to_cellular, unit_sheaf)
from tuple_cells import (boundary_ring, conormal_points, direct_face_closure,
                         face_closure, inside_vertices, smoothed_clamp_values)


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
    opens = U.cell.source.opens.reshape(grid.base_cell_shape)
    assert (np.isfinite(opens) == region.membership).all()
    assert (opens[region.membership] == 0.0).all()
    D = dualize(U)
    dual_opens = D.cell.source.opens.reshape(grid.base_cell_shape)
    closure = face_closure(grid, ~region.membership)
    assert (np.isfinite(dual_opens) == closure).all()
    # all but the open square: the complement's closure takes its rim
    assert closure.sum() == closure.size - 1 and not closure[1, 1]


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
            assert conify_conormal(region).points == conormal_points(region)
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
