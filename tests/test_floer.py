import math
import random

import numpy as np
import pytest

from gfsheaf.complexes import apply_d, class_coordinates, cohomology_ranks
from gfsheaf.fixtures import (circle_function, cusp_genfun, graph_pair,
                              random_circle_morse, torus_function)
from gfsheaf.floer import (StabilizationError, SuperlevelHome, pant_product,
                           restrict_classes, stabilize, conormal_limit_ranks)
from gfsheaf.genfun import gf_cohomology, graph_genfun
from gfsheaf.grids import BaseRegion, critical_vertices, sublevel_filtration
from gfsheaf.linalg import GF2, QQ
from class_reference import unit_class
from limit_reference import filtered_limit_ranks

INF = math.inf


def window_ranks(h, a, b):
    """Ranks of the window [a, b) of the sublevel filtration of h: the pair
    (graph f, graph g) has the action h = g - f."""
    return cohomology_ranks(sublevel_filtration(h).window(a, b))


def duality_bridge_ranks(f, g, a, b):
    """Window ranks of the pair (graph f, graph g) alongside the
    reversed-dual window of the swapped pair: rank_d of g - f on [a, b)
    vs rank_{n-d} of f - g on [-b, -a)."""
    n = len(f.grid.base)
    direct = window_ranks(g - f, a, b)
    swapped = window_ranks(f - g, -b, -a)
    mirrored = {n - d: r for d, r in swapped.items()}
    return direct, mirrored


def test_floer_complex_morse_example():
    # the pair (0_N, graph cos) is the Morse data of cos: one min, one max
    f = circle_function("cos(2*pi*x)", n=64)
    assert sorted((c["index"], round(c["value"], 6))
                  for c in critical_vertices(f)) == [(0, -1.0), (1, 1.0)]
    assert window_ranks(f, -2.0, 2.0) == {0: 1, 1: 1}


def test_floer_disjoint_window_zero():
    f = circle_function("0.2*sin(2*pi*x)", n=32)
    g = circle_function("0.2*sin(2*pi*x) + 1.0", n=32)
    # critical values of g - f sit at 1.0; a window excluding it vanishes
    assert window_ranks(g - f, 2.0, 3.0) == {}


def test_floer_degenerate_flagged():
    # (sin x + sin y)^2 / 2 has a rank-one Hessian at the origin: flagged
    f = torus_function("(sin(2*pi*x) + sin(2*pi*y))^2 / 2", n1=12, n2=12)
    assert [c["degenerate"] for c in critical_vertices(f)
            if c["vertex"] == (0, 0)] == [True]


def test_conormal_limit_full_region_is_plain_ranks():
    rng = random.Random(3)
    f = random_circle_morse(rng, n=24)
    region = BaseRegion(f.grid)
    a, b = -2.17, 2.31
    ranks, cert = conormal_limit_ranks(region, graph_genfun(f), a, b)
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
        conormal_limit_ranks(region, graph_genfun(f), -2.123, 2.117,
                             ks=(4,))
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
    real = floer.gf_cohomology

    def counted(*args, **kwargs):
        built.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(floer, "gf_cohomology", counted)
    f = random_circle_morse(random.Random(3), n=24)
    region = BaseRegion.interval_arc(f.grid, 3, 11)
    ranks, cert = conormal_limit_ranks(region, graph_genfun(f), -2.17, 2.31)
    assert len(built) == len(cert.k_values) < 5


def _random_closed_arc(rng, grid):
    """A closed arc of the circle base from a random vertex, wrapping
    around, of 0 to n - 1 edges."""
    n_cells = grid.base[0].n_cells
    start = 2 * rng.randrange(grid.base[0].n_vertices)
    length = 2 * rng.randrange(grid.base[0].n_edges)
    return BaseRegion.from_cells(
        grid, [((start + i) % n_cells,) for i in range(length + 1)])


def _random_windows(rng, f):
    """Eight windows over the value range of f: all of R, two half-lines
    and five bounded windows."""
    lo, hi = f.range()
    ends = [rng.uniform(lo - 0.5, hi + 0.5) for _ in range(12)]
    bounded = [tuple(sorted(ends[i:i + 2])) for i in range(2, 12, 2)]
    return [(-INF, INF), (-INF, ends[0]), (ends[1], INF)] + bounded


def test_conormal_limit_of_a_graph_matches_the_filtered_reference():
    """The pair route of graph_genfun(f) minus each clamp gives the ranks,
    the certificate tables and the stable rung of the per-rung filtered
    barcodes of f minus each clamp.  The tables are compared as the
    strings the certificates hold: both routes list degrees in ascending
    order."""
    rng = random.Random(27)
    cases = 0
    for n in (12, 16, 24):
        for _ in range(14 if n == 16 else 13):
            f = random_circle_morse(rng, n=n)
            region = _random_closed_arc(rng, f.grid)
            for a, b in _random_windows(rng, f):
                for field in (GF2, QQ):
                    got, cert = conormal_limit_ranks(
                        region, graph_genfun(f), a, b, field)
                    want, ref = filtered_limit_ranks(region, f, a, b, field)
                    assert (str(got), cert.tables, cert.stabilized_at) == \
                        (str(want), ref.tables, ref.stabilized_at), (n, a, b)
                    cases += 1
    assert cases == 640


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


def in_home(target, home, vec):
    """An id-keyed vector of home viewed in target, cell for cell."""
    at = np.searchsorted(target.cells, home.cells)
    assert np.array_equal(target.cells[at], home.cells)
    return {int(at[i]): x for i, x in vec.items()}


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
            [z, in_home(target, home1, vec)])
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
        target.complex, vecs,
        [z11, unit_class(target), z1t, in_home(target, home, theta)])
    assert c11 == c1
    assert c1t == ct
    assert ztt == {}


def test_pant_product_refuses_homes_over_q():
    # the cubical cup product reads its cochains mod 2; an integer class
    # over Q would lose its even entries
    f = circle_function("cos(2*pi*x)", n=16)
    home, target = SuperlevelHome(f, -2.0, QQ), SuperlevelHome(f + f, -4.0, QQ)
    (_, one), = [b for b in home.canonical_basis() if b[0] == 0]
    with pytest.raises(ValueError, match="over F2"):
        pant_product(home, one, home, one, target)
    with pytest.raises(ValueError, match="over F2"):
        pant_product(SuperlevelHome(f, -2.0), one, home, one, target)


def test_restrict_classes_to_point():
    f = circle_function("cos(2*pi*x)", n=32)
    home = SuperlevelHome(f, -2.0)
    basis = home.canonical_basis()
    Z = BaseRegion.from_cells(f.grid, [(2,)])  # a single vertex cell
    sub, reps = restrict_classes(home, [v for _, v in basis], Z)
    ranks = sub.cohomology_ranks()
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
        direct, mirrored = duality_bridge_ranks(f, g, a, b)
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
            [in_home(target, home, vec), z])
        assert direct == cupped
