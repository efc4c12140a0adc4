import math
import random

import numpy as np
import pytest

from gfsheaf.complexes import cohomology_basis
from gfsheaf.fixtures import circle_function, cusp_genfun, random_circle_morse
from gfsheaf.genfun import graph_genfun
from gfsheaf.grids import (BaseRegion, BoxGrid, SampledFunction,
                           ThresholdRefusal, circle_grid, sublevel_filtration)
from gfsheaf.linalg import GF2
from gfsheaf.products import (ProductHome, class_table, convolve,
                              cup_product, dualize, floer_to_product_classes,
                              pushforward_barcode, rhom_tensor, tensor, unit,
                              unit_morphisms, verify_unit_composition)
from gfsheaf.sheaves import (ZERO_STALK, CellSheaf, ProductSheaf,
                             Quantization, Stalk, TAxis,
                             materialize_rank_one_tensor, quantize,
                             section_barcode, sections, to_cellular,
                             unit_sheaf)
from convolution_reference import (corner_table, corners as reference_corners,
                                   decoupled_home)
from tuple_stalks import TupleStalks

INF = math.inf


def grid16():
    return circle_function("0*x", n=16).grid


def random_boxes(rng, grid, count=20):
    g = grid.base[0]
    out = []
    for _ in range(count):
        start = rng.randrange(g.n_cells)
        width = rng.randrange(1, g.n_cells // 2)
        cells = [(start + k) % g.n_cells for k in range(width)]
        mask = np.zeros(grid.base_cell_shape, dtype=bool)
        for c in cells:
            mask[(c,)] = True
        out.append(BaseRegion(grid, mask))
    return out


def window_ladder(*sheaf_breaks, pad=0.77):
    vals = sorted(set(b for bs in sheaf_breaks for b in bs))
    cuts = [vals[0] - pad] + [
        (a + b) / 2 for a, b in zip(vals, vals[1:])] + [vals[-1] + pad]
    return cuts


def test_tensor_of_graphs_is_sum_graph():
    rng = random.Random(17)
    f = random_circle_morse(rng, n=16)
    g = random_circle_morse(rng, n=16)
    Ff, Fg = quantize(graph_genfun(f)), quantize(graph_genfun(g))
    T_gf = tensor(Ff, Fg)                      # GF strategy
    T_cell = tensor(Ff, Fg, strategy="cell")   # product carrier
    for strategy in ("gf", "cel"):
        with pytest.raises(ValueError, match="strategy must be one of"):
            tensor(Ff, Fg, strategy=strategy)
    Fsum = quantize(graph_genfun(f + g))
    bc_sum = sublevel_filtration(f + g).barcode()
    boxes = random_boxes(rng, f.grid, 6)
    cuts = window_ladder(bc_sum.breakpoints())
    for region in [None] + boxes[:3]:
        for i in range(len(cuts)):
            for j in range(i + 1, len(cuts)):
                a, b = cuts[i], cuts[j]
                want = sections(Fsum, region, a, b, check_regular=False)
                assert sections(T_gf, region, a, b,
                                check_regular=False) == want
                assert sections(T_cell, region, a, b) == want, (a, b)


def test_unit_is_neutral():
    rng = random.Random(23)
    f = random_circle_morse(rng, n=16)
    F = quantize(graph_genfun(f))
    U = unit(f.grid)
    T = tensor(F, U)   # mixed kinds: product carrier
    bc = sublevel_filtration(f).barcode()
    cuts = window_ladder(bc.breakpoints() + [0.0])
    for region in [None] + random_boxes(rng, f.grid, 3):
        for a, b in zip(cuts, cuts[2:]):
            assert sections(T, region, a, b) == \
                sections(F, region, a, b, check_regular=False)


def test_unit_times_unit_on_point_like_windows():
    # k_[lam,oo) tensor k_[mu,oo) = k_[lam+mu,oo): realized by shifted units
    grid = grid16()
    A = unit_sheaf(grid, None, 0.7)
    B = unit_sheaf(grid, None, -0.2)
    T = tensor(A, B)
    for lam, want in [(-0.1, {}), (0.1, {0: 1, 1: 1})]:
        got = sections(T, None, -INF, 0.5 + lam)
        assert got == want, (lam, got)


def test_convolve_different_bases():
    f = circle_function("0.4*cos(2*pi*x)", n=8)
    g = circle_function("0.3*sin(2*pi*x)", n=12)
    F, G = quantize(graph_genfun(f)), quantize(graph_genfun(g))
    C = convolve(F, G)
    assert isinstance(C, Quantization) and len(C.gf.grid.base) == 2
    # sections over the full torus-like base at a top window: Kunneth ranks
    top = sections(C, None, -INF, INF, check_regular=False)
    assert top == {0: 1, 1: 2, 2: 1}
    C2 = convolve(F, G, strategy="cell")
    got = sections(C2, None, -INF, INF)
    assert got == top
    for strategy in ("gf", "cel"):
        with pytest.raises(ValueError, match="strategy must be one of"):
            convolve(F, G, strategy=strategy)


def test_dualize_gf_and_cellular_agree():
    rng = random.Random(31)
    f = random_circle_morse(rng, n=16)
    F = quantize(graph_genfun(f))
    D_gf = dualize(F)
    D_cell = dualize(to_cellular(F, spot_checks=0))
    bc = sublevel_filtration(-f).barcode()
    cuts = window_ladder(bc.breakpoints())
    for a, b in zip(cuts, cuts[1:]):
        want = sections(D_gf, None, a, b, check_regular=False)
        assert sections(D_cell, None, a, b) == want


def test_dualize_region_unit():
    grid = grid16()
    reg = BaseRegion.interval_arc(grid, 3, 9)
    KU = unit_sheaf(grid, reg)
    D = dualize(KU)
    # k on the closure of the complement
    comp = reg.complement_closure()
    for lam in (0.5, 2.0):
        assert sections(D, None, -INF, lam) == \
            sections(unit_sheaf(grid, comp), None, -INF, lam)
    # dual of the dual has the ranks of the original
    DD = dualize(D)
    for lam in (0.5, 2.0):
        assert sections(DD, None, -INF, lam) == \
            sections(KU, None, -INF, lam)


def test_dual_conormal_tensor_is_unit():
    # the conormal object realized by its stabilized smooth clamp (the
    # region indicator itself is the limit; tensors are taken before the
    # limit, where both strategies resolve)
    from gfsheaf.fixtures import smoothed_clamp
    grid = grid16()
    reg = BaseRegion.interval_arc(grid, 5, 11)
    clamp = smoothed_clamp(reg, depth=2.0, ramp_cells=4)
    F = quantize(graph_genfun(clamp))
    T_gf = tensor(dualize(F), F)
    T_cell = tensor(dualize(to_cellular(F, spot_checks=0)),
                    to_cellular(F, spot_checks=0))
    U = unit(grid)
    for lam in (-0.3, 0.8, 1.3):
        want = sections(U, None, -INF, lam)
        assert sections(T_gf, None, -INF, lam,
                        check_regular=False) == want, lam
        assert sections(T_cell, None, -INF, lam) == want, lam


def test_rhom_tensor_self_full_window():
    rng = random.Random(37)
    f = random_circle_morse(rng, n=16)
    F = quantize(graph_genfun(f))
    R = rhom_tensor(F, F)
    # sections over (-oo, lam) for lam > 0: H^*(N)
    assert sections(R, None, -INF, 0.123, check_regular=False) == \
        {0: 1, 1: 1}
    # for lam < 0: zero
    assert sections(R, None, -INF, -0.123, check_regular=False) == {}


def test_pushforward_barcode_rhom():
    rng = random.Random(41)
    f = random_circle_morse(rng, n=16)
    F = quantize(graph_genfun(f))
    bars = pushforward_barcode(rhom_tensor(F, F))
    essential = [(d, b) for (d, b, x) in bars if x == INF]
    finite = [bar for bar in bars if bar[2] != INF]
    assert sorted(essential) == [(0, 0.0), (1, 0.0)]
    assert not finite


def test_pushforward_barcode_cell_route():
    # the product carrier resolves the self-pairing up to the per-cell value
    # spread (the degree-1 class enters within that collar; degree 0 exactly)
    rng = random.Random(43)
    f = random_circle_morse(rng, n=12)
    spread = float(np.max(np.abs(np.diff(
        np.append(f.values, f.values[0])))))
    F = quantize(graph_genfun(f))
    R = tensor(dualize(to_cellular(F, spot_checks=0)),
               to_cellular(F, spot_checks=0))
    bars = pushforward_barcode(R)
    essential = sorted((d, b) for (d, b, x) in bars if x == INF)
    assert len(essential) == 2
    assert essential[0] == (0, 0.0)
    assert essential[1][0] == 1 and 0.0 <= essential[1][1] <= spread + 1e-9
    # transient pairing noise stays inside the spread collar
    for (d, b, x) in bars:
        if x != INF:
            assert -spread <= b and x <= spread + 1e-9, (d, b, x)


def test_pushforward_pairs_a_birth_and_a_death_on_one_breakpoint():
    # at 0 the component born at -0.5 dies and another is born; pairing
    # rank differences youngest-first merged the two into (0, -0.5, 1)
    f = SampledFunction(BoxGrid((circle_grid(6),)), [-1, 0, -0.5, 1, 0, 2])
    want = ((0, -1.0, INF), (0, -0.5, 0.0), (0, 0.0, 1.0), (1, 2.0, INF))
    assert sublevel_filtration(f).barcode().bars == want
    F = quantize(graph_genfun(f))
    for G in (F, to_cellular(F, spot_checks=0), tensor(F, unit(f.grid))):
        assert pushforward_barcode(G) == want, G


@pytest.mark.parametrize("seed", range(8))
def test_pushforward_of_a_graph_is_its_sublevel_barcode(seed):
    # tie-heavy values in {0, 1, 2} on circles and a small torus
    rng = random.Random(seed)
    shapes = [(rng.randrange(4, 13),) for _ in range(5)] + [(4, 5)]
    for shape in shapes:
        grid = BoxGrid(tuple(circle_grid(n) for n in shape))
        vals = np.array([rng.choice([0.0, 1.0, 2.0])
                         for _ in range(int(np.prod(grid.vertex_shape)))])
        f = SampledFunction(grid, vals.reshape(grid.vertex_shape))
        want = sublevel_filtration(f).barcode().bars
        assert pushforward_barcode(quantize(graph_genfun(f))) == want, \
            (shape, list(vals))


def test_unit_morphisms_take_a_diagonal_product_through_its_corners():
    rng = random.Random(47)
    f = random_circle_morse(rng, n=12)
    F = quantize(graph_genfun(f))
    T = tensor(F, unit(f.grid))
    assert isinstance(T, ProductSheaf)
    um, ut = unit_morphisms(F), unit_morphisms(T)
    assert [corner_table(C) for C in (ut.CA, ut.CB)] == \
        [corner_table(C) for C in (um.CA, um.CB)]
    assert verify_unit_composition(T, [ut.collar + 0.31])


def test_unit_morphisms_refuse_stalks_of_more_than_one_generator():
    # the cusp's cellular presentation: its fiber stalks are complexes
    with pytest.raises(ValueError, match="rank-one stalks"):
        unit_morphisms(quantize(cusp_genfun(n_base=12, n_fiber=24)))


def _hand_made_sheaf(low, mid, high):
    """A hand-made sheaf on two breaks, 0 and 1, whose stalk over every
    base cell is low, mid and high on the three strata."""
    base = grid16().base_only()

    def stalk_fn(bc, thr):
        return low if thr <= 0 else mid if thr <= 1 else high

    return CellSheaf(base, TAxis((0.0, 1.0)), TupleStalks(
        base.base_cell_shape, stalk_fn, GF2, "hand-made"))


ONE_A, ONE_B = Stalk(((("a",), 0),)), Stalk(((("b",), 0),))
WIDE = Stalk(((("a",), 0), (("b",), 0)))


def _widening_sheaf():
    """The stalk opens on one generator above break 0 and widens to two
    above break 1."""
    return _hand_made_sheaf(ZERO_STALK, ONE_A, WIDE)


@pytest.mark.parametrize("low, mid, high, error", [
    (ZERO_STALK, WIDE, WIDE, ValueError),           # wide where it opens
    (ZERO_STALK, ONE_A, ONE_B, ValueError),         # changes its generator
    (ZERO_STALK, ONE_A, ZERO_STALK, ValueError),    # closes again
    (ONE_A, ONE_A, ONE_A, AssertionError),          # open below every break
], ids=["wide", "changes", "closes", "open-below"])
def test_the_corners_refuse_every_stalk_that_is_not_rank_one(low, mid, high,
                                                             error):
    C = _hand_made_sheaf(low, mid, high)
    match = "rank-one stalks" if error is ValueError else "breakpoint"
    with pytest.raises(error, match=match):
        C.corners


def test_unit_morphisms_refuse_a_stalk_that_widens_above_its_corner(
        monkeypatch):
    import gfsheaf.products as products
    C = _widening_sheaf()
    with pytest.raises(ValueError, match="rank-one stalks"):
        C.corners
    monkeypatch.setattr(products, "dualize", lambda F: F)
    with pytest.raises(ValueError, match="rank-one stalks"):
        unit_morphisms(C)


def test_a_stalk_that_widens_above_its_corner_has_no_rank_one_tensor():
    # a corner-sum tensor of one generator per cell would have two bars
    # here, where the carrier has eight
    C = _widening_sheaf()
    with pytest.raises(ValueError, match="rank-one stalks"):
        materialize_rank_one_tensor(C, C)
    P = ProductSheaf(C, C, True)
    with pytest.raises(ValueError, match="rank-one stalks"):
        P.cellular
    assert len(section_barcode(P).bars) == 8


def test_unit_morphisms_composition():
    rng = random.Random(47)
    f = random_circle_morse(rng, n=12)
    F = quantize(graph_genfun(f))
    collar = unit_morphisms(F).collar
    assert verify_unit_composition(F, [collar + 0.31, collar + 1.1])
    U = unit(f.grid)
    assert verify_unit_composition(U, [0.7])


def test_corner_table_rank_one():
    grid = grid16()
    U = unit_sheaf(grid)
    table, degs = corner_table(U)
    assert all(v == 0.0 for v in table.values())
    assert all(d == 0 for d in degs.values())


def _rank_one_sheaves(n):
    """(name, sheaf) of every rank-one family the library builds on a
    random circle of n cells, and the pairs whose tensor it materializes."""
    rng = random.Random(3800 + n)
    graph, other = (to_cellular(quantize(graph_genfun(
        random_circle_morse(rng, n=n))), spot_checks=0) for _ in "ab")
    grid = graph.base
    empty = BaseRegion(grid, np.zeros(grid.base_cell_shape, dtype=bool))
    sheaves = {"graph": graph, "dual-graph": dualize(graph),
               "unit": unit_sheaf(grid),
               "region-unit": unit_sheaf(
                   grid, BaseRegion.interval_arc(grid, 1, n // 2), 0.5),
               "empty-unit": unit_sheaf(grid, empty)}
    pairs = [(graph, other), (sheaves["dual-graph"], graph),
             (sheaves["region-unit"], graph), (sheaves["unit"], other)]
    sheaves["tensor"] = materialize_rank_one_tensor(graph, other)
    return sheaves, pairs


@pytest.mark.parametrize("n", [8, 12, 16])
def test_the_corners_are_the_old_corners_on_every_rank_one_sheaf(n):
    """CellSheaf.corners against the old per-stratum corners
    (convolution_reference.corners): the same openings and degrees, and
    the label of the top stratum; and each rank-one tensor has the bars of
    its diagonal carrier."""
    sheaves, pairs = _rank_one_sheaves(n)
    for name, cell in sheaves.items():
        got, want = cell.corners, reference_corners(cell)
        assert np.array_equal(got.opens, want.opens), name
        assert np.array_equal(got.deg, want.deg), name
        assert np.array_equal(got.label, want.label[:, -1]), name
        assert got.labels == want.labels, name
    assert (sheaves["empty-unit"].corners.opens == -1).all()
    assert len(sheaves["empty-unit"].strata[1].off) == 1   # no stalk
    for CA, CB in pairs:
        assert section_barcode(materialize_rank_one_tensor(CA, CB)).bars \
            == section_barcode(ProductSheaf(CA, CB, True)).bars, \
            (CA.label, CB.label)


def test_nested_tensor_associativity_ranks():
    rng = random.Random(53)
    f = random_circle_morse(rng, n=12)
    g = random_circle_morse(rng, n=12)
    Ff = quantize(graph_genfun(f))
    Fg = quantize(graph_genfun(g))
    U = unit(f.grid)
    left = tensor(tensor(Ff, U), Fg)
    right = tensor(Ff, tensor(U, Fg))
    bc = sublevel_filtration(f + g).barcode()
    cuts = window_ladder(bc.breakpoints())
    boxes = random_boxes(rng, f.grid, 4)
    for region in [None] + boxes[:2]:
        for a, b in zip(cuts, cuts[1:]):
            assert sections(left, region, a, b) == \
                sections(right, region, a, b), (a, b)


def test_commutativity_ranks():
    rng = random.Random(59)
    f = random_circle_morse(rng, n=12)
    g = random_circle_morse(rng, n=12)
    Ff = quantize(graph_genfun(f))
    Fg = quantize(graph_genfun(g))
    ab = tensor(Ff, Fg, strategy="cell")
    ba = tensor(Fg, Ff, strategy="cell")
    bc = sublevel_filtration(f + g).barcode()
    cuts = window_ladder(bc.breakpoints())
    for a, b in zip(cuts, cuts[1:]):
        assert sections(ab, None, a, b) == sections(ba, None, a, b)


def decoupled_classes(home, CA, CB, lam):
    """The classes of the decoupled superlevel complex at lam, pushed into
    home."""
    D = decoupled_home(CA, CB, lam)
    return floer_to_product_classes(home, D, cohomology_basis(D.complex))


def _cup_setup(rng, n=12):
    f = random_circle_morse(rng, n=n)
    g = random_circle_morse(rng, n=n)
    h = random_circle_morse(rng, n=n)
    return f, g, h


def test_cup_product_unit_ring_on_circle():
    # f = g = h = 0: the product reproduces the circle cohomology ring
    grid = grid16()
    zero = circle_function("0*x", n=16)
    F = to_cellular(quantize(graph_genfun(zero)), spot_checks=0)
    CA = dualize(F).cellular
    CB = F.cellular
    lam = -0.51
    cls = decoupled_classes(ProductHome(CA, CB, lam), CA, CB, lam)
    by_deg = {c.degree: c for c in cls}
    one, theta = by_deg[0], by_deg[1]
    home2 = ProductHome(CA, CB, 2 * lam)
    basis2 = decoupled_classes(home2, CA, CB, 2 * lam)
    t11 = class_table(home2, [cup_product(one, one, home2)], basis2)
    t1t = class_table(home2, [cup_product(one, theta, home2)], basis2)
    tt1 = class_table(home2, [cup_product(theta, one, home2)], basis2)
    ttt = cup_product(theta, theta, home2)
    by_deg2 = {c.degree: i for i, c in enumerate(basis2)}
    assert t11[0][by_deg2[0]] == 1 and t11[0][by_deg2[1]] == 0
    assert t1t[0][by_deg2[1]] == 1 and t1t[0][by_deg2[0]] == 0
    assert tt1 == t1t
    assert ttt.rep == {}


def test_monoid_laws_with_duals():
    # associativity and commutativity at rank level over random boxes for
    # triples drawn from the unit, two graph quantizations, and a dual
    rng = random.Random(61)
    f = random_circle_morse(rng, n=12)
    g = random_circle_morse(rng, n=12)
    grid = f.grid
    U = unit(grid)
    objs = {"unit": U, "F": quantize(graph_genfun(f)),
            "G": quantize(graph_genfun(g)),
            "Fdual": dualize(quantize(graph_genfun(f)))}
    boxes = random_boxes(rng, grid, 6)
    triples = [("F", "G", "Fdual"), ("F", "unit", "G"),
               ("Fdual", "G", "unit")]
    for (x, y, z) in triples:
        left = tensor(tensor(objs[x], objs[y]), objs[z])
        right = tensor(objs[x], tensor(objs[y], objs[z]))
        sym = tensor(objs[y], objs[x])
        sym2 = tensor(objs[x], objs[y])
        vals = sorted(set(left.breaks()))
        cuts = [vals[0] - 0.47] + [
            (p + q) / 2 for p, q in zip(vals, vals[1:]) if q - p > 1e-9] + \
            [vals[-1] + 0.53]
        windows = list(zip(cuts, cuts[1:]))[::4] + [(cuts[0], cuts[-1])]
        for region in [None] + boxes[:2]:
            for a, b in windows:
                assert sections(left, region, a, b, check_regular=False) == \
                    sections(right, region, a, b, check_regular=False), \
                    (x, y, z, a, b)
        vals2 = sorted(set(sym.breaks()))
        cuts2 = [vals2[0] - 0.47, vals2[-1] + 0.53]
        for region in [None] + boxes[2:4]:
            assert sections(sym, region, *cuts2, check_regular=False) == \
                sections(sym2, region, *cuts2, check_regular=False)


def test_cup_associativity_on_unit_based_classes():
    zero = circle_function("0*x", n=12)
    F0 = to_cellular(quantize(graph_genfun(zero)), spot_checks=0)
    CA = dualize(F0).cellular
    CB = F0.cellular
    lam = -0.51

    # one home per threshold; lam + 2 lam is the sum cup_product checks
    homes = {k: ProductHome(CA, CB, v)
             for k, v in ((1, lam), (2, lam + lam), (3, lam + (lam + lam)))}

    def classes_at(k):
        return decoupled_classes(homes[k], CA, CB, homes[k].lam)

    def cup(a, b):
        return cup_product(a, b, homes[2 if a.home is b.home else 3])

    cls = {c.degree: c for c in classes_at(1)}
    one, theta = cls[0], cls[1]
    basis3 = classes_at(3)
    for trip in [(one, one, theta), (one, theta, one), (theta, one, one),
                 (one, one, one)]:
        left = cup(cup(trip[0], trip[1]), trip[2])
        right = cup(trip[0], cup(trip[1], trip[2]))
        assert class_table(homes[3], [left], basis3) == \
            class_table(homes[3], [right], basis3)
    # theta twice in any association is zero
    assert cup(cup(theta, theta), one).rep == {}
    assert cup(theta, cup(theta, one)).rep == {}


def test_cup_product_rejects_a_home_of_another_key():
    zero = circle_function("0*x", n=12)

    def carriers():
        F = to_cellular(quantize(graph_genfun(zero)), spot_checks=0)
        return dualize(F).cellular, F.cellular

    CA, CB = carriers()
    lam = -0.51
    home = ProductHome(CA, CB, lam)
    one = decoupled_classes(home, CA, CB, lam)[0]
    out = ProductHome(CA, CB, lam + lam)
    assert cup_product(one, one, out).home is out
    CA2, CB2 = carriers()  # equal sheaves, other objects
    for bad in (home, ProductHome(CA, CB, 2 * lam + 1e-9),
                ProductHome(CA2, CB, lam + lam),
                ProductHome(CA, CB2, lam + lam)):
        with pytest.raises(ValueError):
            cup_product(one, one, bad)
    with pytest.raises(ValueError):
        class_table(out, [one], floer_to_product_classes(out, None, []))


def _run_cup_task(tmp_path, seed=29, triples=2):
    """The products scenario's cup task; returns its result and the
    (triple, entry) key of every row of its table."""
    import re
    import types
    from gfsheaf.scenarios import _task_cup
    result = _task_cup(types.SimpleNamespace(seed=seed),
                       {"triples": triples, "n": 12}, str(tmp_path))
    lines = (tmp_path / "cup_tables.csv").read_text().splitlines()[1:]
    return result, [re.match(r"(\d+),(\(\d+,\d+\)),", line).groups()
                    for line in lines]


def test_cup_task_keeps_no_rows_of_a_failed_triple(tmp_path, monkeypatch):
    import gfsheaf.products as products
    cup, calls = products.cup_product, []

    def fail_second_entry(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:  # a refusal the task redraws on
            raise ThresholdRefusal("injected: window endpoints sit too "
                                   "close to the value spectrum")
        return cup(*args, **kwargs)

    monkeypatch.setattr(products, "cup_product", fail_second_entry)
    result, keys = _run_cup_task(tmp_path)
    assert len(calls) > 2  # the failed triple was followed by others
    assert len(keys) == len(set(keys)) == 8
    assert {triple for triple, _ in keys} == {"0", "1"}
    assert result == {"status": "pass", "triples": 2, "mismatches": 0}


def test_cup_task_builds_each_home_once_and_reduces_each_table_once(
        tmp_path, monkeypatch):
    import gfsheaf.complexes as complexes
    import gfsheaf.products as products
    import gfsheaf.sheaves as sheaves
    build, solve = products._total_complex, complexes.solve_columns
    homes, tables = [], []

    def counted_build(base, factors, *args):
        homes.append(tuple(cell for cell, _, _ in factors) + args)
        return build(base, factors, *args)

    def counted_solve(cols, targets, field):
        tables.append(len(targets))
        return solve(cols, targets, field)

    def no_tuples(self, gens):
        # both sides of the cup task hold their classes on ids
        raise AssertionError("a cup task built a tuple complex")

    def refuse(*args, **kwargs):
        raise AssertionError("a cup task walked a corner table")

    monkeypatch.setattr(products, "_total_complex", counted_build)
    monkeypatch.setattr(complexes, "solve_columns", counted_solve)
    monkeypatch.setattr(complexes.IndexComplex, "chain_complex", no_tuples)
    monkeypatch.setattr(sheaves.SectionArrays, "generators", refuse)
    result, rows = _run_cup_task(tmp_path)
    assert result["triples"] == 2
    assert len(homes) == 3 * result["triples"]
    assert len({tuple(map(id, h[:2])) + h[2:] for h in homes}) == len(homes)
    # one pant table and one cup table per triple, each solving every entry
    assert tables == [len(rows) // result["triples"]] * 2 * result["triples"]


@pytest.mark.parametrize("name, error", [
    ("class_table", AssertionError("class does not lie in the pushed basis "
                                   "span; presentation mismatch")),
    ("cup_product", ValueError("homes are not composable: base grids "
                               "differ"))])
def test_cup_task_fails_on_an_error_that_is_no_threshold_refusal(
        tmp_path, monkeypatch, capsys, name, error):
    import os
    import gfsheaf.products as products
    from gfsheaf.cli import BUNDLED_DIR, main
    real = getattr(products, name)

    def failing(*args, **kwargs):
        real(*args, **kwargs)
        raise error

    monkeypatch.setattr(products, name, failing)
    path = os.path.join(BUNDLED_DIR, "products.toml")
    assert main(["run", path, "--out-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"[fail] products#0 cup certifies=product-tables-two-routes " \
           f":: {error}" in out, out


def test_cup_task_fails_when_refusals_leave_fewer_triples_than_asked(
        tmp_path, monkeypatch, capsys):
    import json
    import os
    import gfsheaf.scenarios as scenarios
    from gfsheaf.cli import BUNDLED_DIR, main
    home, calls = scenarios.SuperlevelHome, []

    def refuse_after_one_triple(*args):
        calls.append(args)
        if len(calls) > 3:  # each triple builds three homes first
            raise ThresholdRefusal("injected: threshold too close to the "
                                   "value spectrum")
        return home(*args)

    monkeypatch.setattr(scenarios, "SuperlevelHome", refuse_after_one_triple)
    path = os.path.join(BUNDLED_DIR, "products.toml")
    assert main(["run", path, "--out-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "[fail] products#0 cup certifies=product-tables-two-routes :: " \
           "only 1 of the 2 triples asked for completed in 30 draws" in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["tasks"][0]["triples"] == 1
    assert summary["tasks"][0]["mismatches"] == 0


def test_a_limit_sheaf_has_no_dual_and_no_support_band():
    from gfsheaf.rectify import sheafify_limit
    f = random_circle_morse(random.Random(3), n=6)
    L = sheafify_limit(f)
    with pytest.raises(ValueError,
                       match=r"LimitSheaf\(sheafify_limit\) has no dual"):
        dualize(L)
    with pytest.raises(ValueError, match=r"LimitSheaf\(sheafify_limit\) "
                                         r"has no support band"):
        tensor(L, unit(f.grid))


# ---------------------------------------------------------------------------
# the unit-laws task against its three old comparison loops

def reference_unit_laws(ctx, task, out_dir):
    """The body of scenarios._task_unit_laws before its three region x
    window loops became one, kept as the reference."""
    from gfsheaf import io as iox
    from gfsheaf import scenarios as sc
    rng = random.Random(ctx.seed)
    n = sc._integer(task.get("n", 12), "n", 4, sc.MAX_AXIS_N)
    f = random_circle_morse(rng, n=n)
    g = random_circle_morse(rng, n=n)
    grid = f.grid
    failures = []
    Ff, Fg = sc.quantize(graph_genfun(f)), sc.quantize(graph_genfun(g))
    Fsum = sc.quantize(graph_genfun(f + g))
    U = sc.unit(grid)
    boxes = sc._integer(task.get("boxes", 8), "boxes", 0)
    regions = [None]
    g1 = grid.base[0]
    for _ in range(boxes):
        start = rng.randrange(g1.n_cells)
        width = rng.randrange(1, g1.n_cells // 2)
        mask = np.zeros(grid.base_cell_shape, dtype=bool)
        for k in range(width):
            mask[((start + k) % g1.n_cells,)] = True
        regions.append(BaseRegion(grid, mask))
    vals = sorted(set(np.round((f + g).cell_max().ravel(), 9)))
    cuts_exact = [vals[0] - 0.51] + [
        (x + y) / 2 for x, y in zip(vals, vals[1:]) if y - x > 1e-6] + \
        [vals[-1] + 0.49]
    T_gf = sc.tensor(Ff, Fg)
    for region in regions:
        for a, b in zip(cuts_exact, cuts_exact[2:]):
            want = sc.sections(Fsum, region, a, b, check_regular=False)
            got = sc.sections(T_gf, region, a, b, check_regular=False)
            if got != want:
                failures.append(("sum", a, b, str(got), str(want)))
    T = sc.tensor(Ff, Fg, strategy="cell")
    cuts = sc._carrier_safe_cuts(f, g)
    for region in regions[:3]:
        for a, b in zip(cuts, cuts[1:]):
            want = sc.sections(Fsum, region, a, b, check_regular=False)
            got = sc.sections(T, region, a, b)
            if got != want:
                failures.append(("sum-carrier", a, b, str(got), str(want)))
    bcf = sc.sublevel_filtration(f).barcode()
    valsf = bcf.breakpoints()
    cutsf = [valsf[0] - 0.51] + [(x + y) / 2 for x, y in
                                 zip(valsf, valsf[1:])] + [valsf[-1] + 0.49]
    TU = sc.tensor(Ff, U)
    for region in regions:
        for a, b in zip(cutsf, cutsf[1:]):
            want = sc.sections(Ff, region, a, b, check_regular=False)
            got = sc.sections(TU, region, a, b)
            if got != want:
                failures.append(("neutral", a, b, str(got), str(want)))
    status = "pass" if not failures else "fail"
    iox.write_csv(sc._out(task, out_dir, "unit_laws.csv"),
                  [("identity", "a", "b", "got", "want")] + failures
                  if failures else [("identity", "a", "b", "got", "want"),
                                    ("all", "-", "-", "equal", "equal")])
    return {"status": status, "failures": len(failures)}


@pytest.mark.parametrize("seed", [11, 3])
def test_unit_laws_compares_as_the_three_old_loops(seed, tmp_path,
                                                   monkeypatch):
    # every third comparison is made to fail on its second (got) side, so
    # the failure rows show the order of the comparisons
    import os
    from gfsheaf import scenarios as sc
    from gfsheaf.cli import BUNDLED_DIR
    real = sc.sections
    calls = []

    def recorded(F, region, a, b, **kwargs):
        out = real(F, region, a, b, **kwargs)
        key = None if region is None else region.membership.tobytes()
        calls.append((key, a, b))
        if len(calls) % 2 == 0 and len(calls) % 3 == 0:
            out = dict(out, rigged=len(calls))
        return out

    monkeypatch.setattr(sc, "sections", recorded)
    spec = sc.load_scenario(os.path.join(BUNDLED_DIR, "unit-laws.toml"))
    task = spec["tasks"][0]
    results, texts, sequences = [], [], []
    for fn in (sc._task_unit_laws, reference_unit_laws):
        calls.clear()
        out_dir = tmp_path / fn.__name__
        out_dir.mkdir()
        ctx = sc.ScenarioContext(spec, seed=seed, field="f2", grid_scale=1.0)
        results.append(fn(ctx, task, str(out_dir)))
        texts.append((out_dir / task["out"]).read_text())
        sequences.append(list(calls))
    assert results[0] == results[1]
    assert results[0]["failures"] > 10
    assert {row.split(",")[0] for row in texts[0].splitlines()[1:]} == \
        {"sum", "sum-carrier", "neutral"}
    assert texts[0] == texts[1]
    assert sequences[0] == sequences[1]
