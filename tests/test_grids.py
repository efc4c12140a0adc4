import itertools
import math
import random

import numpy as np
import pytest

from gfsheaf.complexes import ChainComplex, cohomology_ranks, apply_d
from gfsheaf.grids import (BaseRegion, BoxGrid, CubicalSet, SampledFunction,
                           circle_grid, critical_vertices, cup_product_cochain,
                           empty_set, full_set, interval_grid,
                           relative_cochain_complex, restrict_to_region,
                           sublevel_filtration, sublevel_set)
from gfsheaf.linalg import GF2, QQ

INF = math.inf


def sf(grid, expr):
    return SampledFunction.from_expr(grid, expr)


def circle_box(n=16):
    return BoxGrid((circle_grid(n),))


def test_full_complex_circle_and_torus():
    C = relative_cochain_complex(full_set(circle_box(12)),
                                 empty_set(circle_box(12)))
    assert cohomology_ranks(C) == {0: 1, 1: 1}
    torus = BoxGrid((circle_grid(6), circle_grid(5)))
    C2 = relative_cochain_complex(full_set(torus), empty_set(torus), QQ)
    assert cohomology_ranks(C2) == {0: 1, 1: 2, 2: 1}


def test_interval_relative_endpoints():
    g = BoxGrid((interval_grid(8, 0.0, 1.0),))
    W = full_set(g)
    m = np.zeros(g.cell_shape, dtype=bool)
    m[(0,)] = True
    m[(2 * 8,)] = True
    A = CubicalSet(g, m)
    C = relative_cochain_complex(W, A)
    assert cohomology_ranks(C) == {1: 1}
    # and H^*(W, W) = 0
    assert cohomology_ranks(relative_cochain_complex(W, W)) == {}


def test_d_squared_on_3d_product_over_Q():
    grid = BoxGrid((circle_grid(4),), (interval_grid(4, -1, 1),
                                       interval_grid(4, -1, 1)))
    C = relative_cochain_complex(full_set(grid), empty_set(grid), QQ)
    C.assert_d_squared_zero()
    assert cohomology_ranks(C) == {0: 1, 1: 1}


def test_sublevel_trivial_thresholds():
    g = circle_box(16)
    f = sf(g, "cos(2*pi*x)")
    assert sublevel_set(f, -2.0).count() == 0
    assert sublevel_set(f, 2.0).count() == g.cell_shape[0] * 1
    # boundary convention: vertex value exactly t counts as outside
    fc = SampledFunction(g, np.zeros(g.vertex_shape))
    assert sublevel_set(fc, 0.0).count() == 0


def test_sublevel_one_arc():
    g = circle_box(256)
    f = sf(g, "cos(2*pi*x)")
    S = sublevel_set(f, 0.0)
    C = relative_cochain_complex(S, empty_set(g))
    # single arc: one component, no loop  [oracle: direct enumeration]
    assert cohomology_ranks(C) == {0: 1}


def test_sublevel_monotone_random():
    rng = random.Random(7)
    g = BoxGrid((circle_grid(12),), (interval_grid(6, -1, 1),))
    for _ in range(5):
        vals = np.array([[math.sin(rng.uniform(0, 6) + i * 0.3) + 0.1 * j
                          for j in range(g.vertex_shape[1])]
                         for i in range(g.vertex_shape[0])])
        f = SampledFunction(g, vals)
        lo, hi = f.range()
        ts = sorted(rng.uniform(lo - 0.2, hi + 0.2) for _ in range(20))
        prev = sublevel_set(f, ts[0])
        for t in ts[1:]:
            cur = sublevel_set(f, t)
            assert prev.issubset(cur)
            prev = cur


def test_sublevel_filtration_constant():
    g = circle_box(8)
    f = SampledFunction(g, np.full(g.vertex_shape, 2.0))
    bc = sublevel_filtration(f).barcode()
    assert bc.bars == ((0, 2.0, INF), (1, 2.0, INF))


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_sublevel_filtration_checks_d_squared(field, monkeypatch):
    checked = []
    check = ChainComplex.assert_d_squared_zero

    def counted(C):
        checked.append(len(C.gens))
        return check(C)

    monkeypatch.setattr(ChainComplex, "assert_d_squared_zero", counted)
    f = sf(BoxGrid((circle_grid(6), interval_grid(4, 0.0, 1.0))),
           "cos(2*pi*x) + y")
    FC = sublevel_filtration(f, field)
    assert checked == [len(FC.complex.gens)]


def test_sublevel_filtration_cosine_circle():
    g = circle_box(256)
    f = sf(g, "cos(2*pi*x)")
    bc = sublevel_filtration(f).barcode()
    assert bc.bars == ((0, -1.0, INF), (1, 1.0, INF))


def test_sublevel_filtration_double_well():
    # double-well on an interval: minima at 0.25 / 0.75, saddle at 0.5
    g = BoxGrid((interval_grid(128, 0.0, 1.0),))
    f = sf(g, "(4*(x-0.5)^2-0.25)^2 + 0.1*x")
    crits = critical_vertices(f)
    assert [c["index"] for c in crits] == [0, 0, 1]
    m1, m2, s = [c["value"] for c in crits]
    bc = sublevel_filtration(f).barcode()
    essential = [b for b in bc.bars if b[2] == INF]
    finite = [b for b in bc.bars if b[2] != INF]
    assert len(essential) == 1 and essential[0][0] == 0
    assert essential[0][1] == pytest.approx(m1, abs=1e-9)
    assert len(finite) == 1
    assert finite[0][0] == 0
    assert finite[0][1] == pytest.approx(m2, abs=1e-9)
    assert finite[0][2] == pytest.approx(s, abs=1e-9)


def test_excision_sanity_random():
    # H^*(f^b, f^a) via relative complex equals barcode window counts
    rng = random.Random(2024)
    g = BoxGrid((circle_grid(10),), (interval_grid(5, -1, 1),))
    for trial in range(50):
        vals = np.array([[rng.uniform(0, 1) for _ in range(g.vertex_shape[1])]
                         for _ in range(g.vertex_shape[0])])
        f = SampledFunction(g, vals)
        FC = sublevel_filtration(f)
        bc = FC.barcode()
        a, b = sorted((rng.uniform(0, 1), rng.uniform(0, 1)))
        b += 1e-6
        W = sublevel_set(f, b)
        A = sublevel_set(f, a)
        rel = relative_cochain_complex(W, A)
        assert cohomology_ranks(rel) == bc.window_ranks(a, b), trial


def test_region_restriction_and_closure():
    g = circle_box(8)
    reg = BaseRegion.from_cells(g, [(3,)])  # an edge: closure adds vertices
    assert reg.count() == 3
    W = restrict_to_region(full_set(g), reg)
    C = relative_cochain_complex(W, empty_set(g))
    assert cohomology_ranks(C) == {0: 1}


def test_critical_vertices_on_torus():
    g = BoxGrid((circle_grid(24), circle_grid(24)))
    f = sf(g, "cos(2*pi*x) + 0.5*cos(2*pi*y)")
    crits = critical_vertices(f)
    by_index = {}
    for c in crits:
        assert not c["degenerate"]
        by_index[c["index"]] = by_index.get(c["index"], 0) + 1
    assert by_index == {0: 1, 1: 2, 2: 1}


def test_cup_product_circle_ring():
    g = circle_box(8)
    one = {(2 * k,): 1 for k in range(8)}
    theta = {(1,): 1}  # single edge: generator of H^1
    assert cup_product_cochain(g, one, theta) == theta
    assert cup_product_cochain(g, one, one) == one
    # theta cup theta lands in degree 2: no 2-cells on a circle
    assert cup_product_cochain(g, theta, theta) == {}


def test_cup_product_torus_ring():
    g = BoxGrid((circle_grid(4), circle_grid(4)))
    th1 = {(1, 2 * j): 1 for j in range(4)}   # dual to a meridian circle
    th2 = {(2 * i, 1): 1 for i in range(4)}
    C = relative_cochain_complex(full_set(g), empty_set(g))
    assert not apply_d(C, th1) and not apply_d(C, th2)
    prod12 = cup_product_cochain(g, th1, th2)
    prod21 = cup_product_cochain(g, th2, th1)
    assert len(prod12) == 1  # the fundamental square: generates H^2
    assert len(prod21) == 1
    assert cup_product_cochain(g, th1, th1) == {}
    assert cup_product_cochain(g, th2, th2) == {}
