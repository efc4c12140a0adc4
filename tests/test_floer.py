import math
import random

import numpy as np
import pytest

from gfsheaf.complexes import apply_d, class_coordinates, cohomology_ranks
from gfsheaf.fixtures import (circle_function, cusp_genfun, graph_pair,
                              random_circle_morse, torus_function)
from gfsheaf.floer import (FloerDatum, GraphBrane, StabilizationError,
                           SuperlevelHome, clamp_schedule, continuation_map,
                           duality_bridge_ranks, floer_complex, floer_data,
                           floer_ranks, pant_product,
                           restrict_classes, stabilize, unit_class,
                           conormal_limit_ranks, zero_brane)
from gfsheaf.genfun import GenFun, gf_cohomology, graph_genfun, ominus
from gfsheaf.grids import BaseRegion, sublevel_filtration
from gfsheaf.linalg import GF2

INF = math.inf


def test_floer_complex_morse_example():
    # FC(0_N, graph cos) is the Morse data of cos: one min, one max
    f = circle_function("cos(2*pi*x)", n=64)
    zero = zero_brane(f.grid)
    data = floer_data(zero, GraphBrane(f))
    assert sorted((d.degree, round(d.action, 6)) for d in data) == \
        [(0, -1.0), (1, 1.0)]
    assert floer_ranks(zero, GraphBrane(f), -2.0, 2.0) == {0: 1, 1: 1}


def test_floer_disjoint_window_zero():
    f = circle_function("0.2*sin(2*pi*x)", n=32)
    g = circle_function("0.2*sin(2*pi*x) + 1.0", n=32)
    # critical values of g - f sit at 1.0; a window excluding it vanishes
    assert floer_ranks(GraphBrane(f), GraphBrane(g), 2.0, 3.0) == {}


def test_floer_degenerate_rejected():
    # (sin x + sin y)^2 / 2 has a rank-one Hessian at the origin: flagged
    f = torus_function("(sin(2*pi*x) + sin(2*pi*y))^2 / 2", n1=12, n2=12)
    with pytest.raises(ValueError, match="degenerate"):
        floer_complex(zero_brane(f.grid), GraphBrane(f), -1.0, 1.0)


def test_continuation_identity_and_zero():
    rng = random.Random(1)
    f = random_circle_morse(rng, n=24)
    L = zero_brane(f.grid)
    T = continuation_map(f, f, L, -3.0, 3.0)
    assert all(T.comp[g] == {g: 1} for g in T.source.gens)
    lo, hi = f.range()
    a, b = lo - 0.11, hi + 0.13
    C = b - a + 0.5
    Tz = continuation_map(f, f + C, L, a, b)
    assert Tz.comp == {}
    with pytest.raises(ValueError):
        continuation_map(f, f - 1.0, L, a, b)


def test_continuation_functoriality():
    rng = random.Random(2)
    f0 = random_circle_morse(rng, n=24)
    f1 = f0 + 0.3
    f2 = f1 + 0.4
    L = zero_brane(f0.grid)
    a, b = -0.911, 1.913
    T01 = continuation_map(f0, f1, L, a, b)
    T12 = continuation_map(f1, f2, L, a, b)
    T02 = continuation_map(f0, f2, L, a, b)
    for g in T01.source.gens:
        step = {}
        for h, v in T01.comp.get(g, {}).items():
            for k, w in T12.comp.get(h, {}).items():
                step[k] = step.get(k, 0) ^ (v & w)
        step = {k: v for k, v in step.items() if v}
        assert step == T02.comp.get(g, {})


def test_conormal_limit_full_region_is_plain_ranks():
    rng = random.Random(3)
    f = random_circle_morse(rng, n=24)
    L = GraphBrane(f)
    region = BaseRegion(f.grid)
    a, b = -2.17, 2.31
    ranks, cert = conormal_limit_ranks(region, L, a, b)
    assert ranks == sublevel_filtration(f).barcode().window_ranks(a, b)
    assert cert.stabilized_at <= 8


def test_conormal_limit_matches_pair_route():
    gf = cusp_genfun(n_base=24, n_fiber=48)
    grid1 = gf.grid.base[0]
    hi = grid1.n_cells - 1
    region = BaseRegion.interval_arc(gf.grid, hi - 6, hi)
    a, b = 0.52, 0.75
    direct = gf_cohomology(gf, region, a, b, check_regular=False)
    limit, cert = conormal_limit_ranks(region, gf, a, b)
    assert direct == limit
    assert cert.stabilized_at <= 64


def test_conormal_limit_stabilization_failure_reported():
    # a single-rung schedule can never certify stabilization
    rng = random.Random(5)
    f = random_circle_morse(rng, n=16)
    region = BaseRegion.from_cells(f.grid, [(0,)])
    with pytest.raises(StabilizationError) as err:
        conormal_limit_ranks(region, GraphBrane(f), -2.123, 2.117, ks=(4,))
    assert err.value.last_tables is not None


def test_stabilization_reads_no_table_past_the_stable_one():
    pulled = []

    def tables():
        for table in ({0: 1}, {0: 2}, {0: 2}, {0: 3}):
            pulled.append(table)
            yield table

    ranks, cert = stabilize(tables(), (1, 2, 3, 4))
    assert ranks == {0: 2} and len(pulled) == 3
    assert cert.k_values == (1, 2, 3) and cert.stabilized_at == 3
    assert cert.tables == ("{0: 1}", "{0: 2}", "{0: 2}")
    with pytest.raises(StabilizationError) as err:
        stabilize(iter([{0: 1}, {0: 2}, {1: 1}]), (1, 2, 3))
    assert err.value.last_tables == ({0: 2}, {1: 1})


def test_conormal_limit_stops_at_the_stable_clamp(monkeypatch):
    import gfsheaf.floer as floer
    built = []
    real = floer.sublevel_filtration

    def counted(*args):
        built.append(args[0])
        return real(*args)

    monkeypatch.setattr(floer, "sublevel_filtration", counted)
    f = random_circle_morse(random.Random(3), n=24)
    region = BaseRegion.interval_arc(f.grid, 3, 11)
    ranks, cert = conormal_limit_ranks(region, GraphBrane(f), -2.17, 2.31)
    assert len(built) == len(cert.k_values) < 5


def test_superlevel_home_ranks_circle():
    f = circle_function("cos(2*pi*x)", n=32)
    # lam below min: the whole circle
    home = SuperlevelHome(f, -2.0)
    assert home.ranks() == {0: 1, 1: 1}
    # lam between the critical values: relative class of the surviving max
    mid = SuperlevelHome(f, 0.0137)
    assert mid.ranks() == {1: 1}
    assert mid.ranks() == sublevel_filtration(f).barcode().window_ranks(
        0.0137, INF)
    # lam above max: empty
    assert SuperlevelHome(f, 2.0).ranks() == {}


def test_harmonic_basis_matches_ranks():
    rng = random.Random(6)
    for _ in range(5):
        f = random_circle_morse(rng, n=16)
        home = SuperlevelHome(f, -3.0)
        basis = home.canonical_basis()
        ranks = home.ranks()
        assert sorted(d for d, _ in basis) == sorted(
            d for d, r in ranks.items() for _ in range(r))
        for d, vec in basis:
            assert not apply_d(home.complex, vec)
            assert class_coordinates(home.complex, [vec], [vec]) == [[1]]


def test_pant_product_unit_action():
    rng = random.Random(7)
    f, g = graph_pair(rng, n=24)
    h1 = g - f
    lo1, hi1 = h1.range()
    lam = lo1 - 0.531
    home1 = SuperlevelHome(h1, lam)
    zero_fun = circle_function("0*x", n=24)
    home_u = SuperlevelHome(zero_fun, -0.731)
    u = unit_class(home_u)
    target = SuperlevelHome(h1, lam - 0.731)
    for d, vec in home1.canonical_basis():
        z = pant_product(home1, vec, home_u, u, target)
        # the product equals vec viewed in the target home
        basis_t = target.canonical_basis()
        coords_z, coords_v = class_coordinates(
            target.complex, [b for _, b in basis_t],
            [z, {c: x for c, x in vec.items()}])
        assert coords_z == coords_v


def test_pant_product_circle_ring_structure():
    # f = g = h = 0: reproduces the cohomology ring of the circle
    zero_fun = circle_function("0*x", n=16)
    home = SuperlevelHome(zero_fun, -1.0)
    target = SuperlevelHome(zero_fun, -2.0)
    basis = home.canonical_basis()
    one = unit_class(home)
    theta = next(vec for d, vec in basis if d == 1)
    z11 = pant_product(home, one, home, one, target)
    z1t = pant_product(home, one, home, theta, target)
    ztt = pant_product(home, theta, home, theta, target)
    bt = target.canonical_basis()
    vecs = [v for _, v in bt]
    c11, c1, c1t, ct = class_coordinates(
        target.complex, vecs, [z11, unit_class(target), z1t, theta])
    assert c11 == c1
    assert c1t == ct
    assert ztt == {}


def test_restrict_classes_to_point():
    f = circle_function("cos(2*pi*x)", n=32)
    home = SuperlevelHome(f, -2.0)
    basis = home.canonical_basis()
    Z = BaseRegion.from_cells(f.grid, [(2,)])  # a single vertex cell
    sub, reps = restrict_classes(home, [v for _, v in basis], Z)
    ranks = cohomology_ranks(sub)
    assert ranks == {0: 1}
    # the degree-0 class restricts to the generator, the degree-1 one to zero
    deg0 = [r for (d, _), r in zip(basis, reps) if d == 0][0]
    assert sum(deg0.values()) % 2 == 1


def test_restriction_genericity_guard():
    f = circle_function("cos(2*pi*x)", n=32)
    home = SuperlevelHome(f, -2.0)
    Z = BaseRegion.from_cells(f.grid, [(0,)])  # contains the max vertex
    with pytest.raises(ValueError):
        restrict_classes(home, [], Z)


def test_duality_bridge_on_graphs():
    rng = random.Random(11)
    for _ in range(5):
        f, g = graph_pair(rng, n=24)
        a, b = -0.977, 1.021
        direct, mirrored = duality_bridge_ranks(
            GraphBrane(f), GraphBrane(g), a, b)
        assert direct == mirrored


def test_reduce_to_Z_wrapper():
    from gfsheaf.floer import reduce_to_Z
    rng = random.Random(404)
    h = random_circle_morse(rng, n=16)
    Z = BaseRegion.from_cells(h.grid, [(6,)])
    lam = float(h.values.min()) - 0.41
    restricted, limit, cert = reduce_to_Z(h, lam, Z)
    assert restricted == limit
    assert cert.stabilized_at >= 1


def test_continuation_as_cup_with_shifted_unit():
    # cupping with the unit class of a constant non-positive shift acts as
    # the window-shift continuation on canonical coordinates
    from gfsheaf.complexes import class_coordinates
    rng = random.Random(505)
    g = random_circle_morse(rng, n=16)
    c = 0.37
    lam = float(g.values.min()) - 0.53
    home = SuperlevelHome(g, lam)
    basis = home.canonical_basis()
    shift_fun = g.grid  # constant -c function on the same grid
    import numpy as np
    from gfsheaf.grids import SampledFunction
    f_shift = SampledFunction(g.grid, np.full(g.grid.vertex_shape, -c))
    mu = -c - 0.11
    home_u = SuperlevelHome(f_shift, mu)
    u = unit_class(home_u)
    target = SuperlevelHome(g - c, lam + mu)
    basis_t = target.canonical_basis()
    for d, vec in basis:
        z = pant_product(home, vec, home_u, u, target)
        # continuation route: the same cocycle lives in the shifted home
        direct, cupped = class_coordinates(
            target.complex, [v for _, v in basis_t],
            [{cell: x for cell, x in vec.items()}, z])
        assert direct == cupped
