import math
import random

import numpy as np
import pytest

from gfsheaf.complexes import apply_d, class_coordinates, cohomology_basis
from gfsheaf.fixtures import circle_function, random_circle_morse
from gfsheaf.floer import SuperlevelHome
from gfsheaf.genfun import graph_genfun
from gfsheaf.grids import (BaseRegion, BoxGrid, SampledFunction,
                           circle_grid, sublevel_filtration)
from gfsheaf.linalg import GF2
from gfsheaf.products import (ProductHome, class_table, convolve,
                              cup_product, decoupled_superlevel_complex,
                              dualize, external_box_sum,
                              floer_to_product_classes, pushforward_barcode,
                              restricted_unit, rhom_tensor, tensor, unit,
                              unit_morphisms, verify_unit_composition)
from gfsheaf.sheaves import (TameSheaf, corner_table, quantize, sections,
                             to_cellular, unit_sheaf, _as_cellsheaf)

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
    assert C.kind == "gf" and len(C.gf.grid.base) == 2
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
    KU = restricted_unit(grid, reg)
    D = dualize(KU)
    # k on the closure of the complement
    comp = reg.complement_closure()
    for lam in (0.5, 2.0):
        assert sections(D, None, -INF, lam) == \
            sections(restricted_unit(grid, comp), None, -INF, lam)
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
    assert T.kind == "prod"
    um, ut = unit_morphisms(F), unit_morphisms(T)
    assert (ut.corner_a, ut.corner_b) == (um.corner_a, um.corner_b)
    assert verify_unit_composition(T, [ut.collar + 0.31])


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
    table, degs = corner_table(U.cell)
    assert all(v == 0.0 for v in table.values())
    assert all(d == 0 for d in degs.values())


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
    CA = _as_cellsheaf(dualize(F))
    CB = _as_cellsheaf(F)
    lam = -0.51
    D = decoupled_superlevel_complex(CA, CB, lam)
    basis = cohomology_basis(D)
    cls = floer_to_product_classes(ProductHome(CA, CB, lam), basis)
    by_deg = {c.degree: c for c in cls}
    one, theta = by_deg[0], by_deg[1]
    home2 = ProductHome(CA, CB, 2 * lam)
    basis2 = floer_to_product_classes(
        home2,
        cohomology_basis(decoupled_superlevel_complex(CA, CB, 2 * lam)))
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
        from gfsheaf.sheaves import _breaks_of
        vals = sorted(set(_breaks_of(left)))
        cuts = [vals[0] - 0.47] + [
            (p + q) / 2 for p, q in zip(vals, vals[1:]) if q - p > 1e-9] + \
            [vals[-1] + 0.53]
        windows = list(zip(cuts, cuts[1:]))[::4] + [(cuts[0], cuts[-1])]
        for region in [None] + boxes[:2]:
            for a, b in windows:
                assert sections(left, region, a, b, check_regular=False) == \
                    sections(right, region, a, b, check_regular=False), \
                    (x, y, z, a, b)
        vals2 = sorted(set(_breaks_of(sym)))
        cuts2 = [vals2[0] - 0.47, vals2[-1] + 0.53]
        for region in [None] + boxes[2:4]:
            assert sections(sym, region, *cuts2, check_regular=False) == \
                sections(sym2, region, *cuts2, check_regular=False)


def test_cup_associativity_on_unit_based_classes():
    from gfsheaf.complexes import cohomology_basis
    from gfsheaf.products import decoupled_superlevel_complex
    zero = circle_function("0*x", n=12)
    F0 = to_cellular(quantize(graph_genfun(zero)), spot_checks=0)
    CA = _as_cellsheaf(dualize(F0))
    CB = _as_cellsheaf(F0)
    lam = -0.51

    # one home per threshold; lam + 2 lam is the sum cup_product checks
    homes = {k: ProductHome(CA, CB, v)
             for k, v in ((1, lam), (2, lam + lam), (3, lam + (lam + lam)))}

    def classes_at(k):
        return floer_to_product_classes(
            homes[k], cohomology_basis(
                decoupled_superlevel_complex(CA, CB, homes[k].lam)))

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
        return _as_cellsheaf(dualize(F)), _as_cellsheaf(F)

    CA, CB = carriers()
    lam = -0.51
    home = ProductHome(CA, CB, lam)
    basis = cohomology_basis(decoupled_superlevel_complex(CA, CB, lam))
    one = floer_to_product_classes(home, basis)[0]
    out = ProductHome(CA, CB, lam + lam)
    assert cup_product(one, one, out).home is out
    CA2, CB2 = carriers()  # equal sheaves, other objects
    for bad in (home, ProductHome(CA, CB, 2 * lam + 1e-9),
                ProductHome(CA2, CB, lam + lam),
                ProductHome(CA, CB2, lam + lam)):
        with pytest.raises(ValueError):
            cup_product(one, one, bad)
    with pytest.raises(ValueError):
        class_table(out, [one], floer_to_product_classes(out, []))


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
            raise AssertionError("injected: window endpoints sit too close "
                                 "to the value spectrum")
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
    to_tuples = complexes.IndexComplex.chain_complex
    homes, tables = [], []

    def counted_build(base, factors, *args):
        homes.append(tuple(cell for cell, _, _ in factors) + args)
        return build(base, factors, *args)

    def counted_solve(cols, targets, field):
        tables.append(len(targets))
        return solve(cols, targets, field)

    def no_section_tuples(self, gens):
        # the pant route's cubical superlevel complexes stay tuple complexes
        if isinstance(self, sheaves.SectionArrays):
            raise AssertionError("a product home built a tuple complex")
        return to_tuples(self, gens)

    def refuse(*args, **kwargs):
        raise AssertionError("a cup task walked a corner table")

    monkeypatch.setattr(products, "_total_complex", counted_build)
    monkeypatch.setattr(complexes, "solve_columns", counted_solve)
    monkeypatch.setattr(complexes.IndexComplex, "chain_complex",
                        no_section_tuples)
    monkeypatch.setattr(sheaves.SectionArrays, "generators", refuse)
    monkeypatch.setattr(products, "corner_table", refuse)
    monkeypatch.setattr(sheaves, "corner_table", refuse)
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


def test_a_limit_sheaf_has_no_dual_and_no_support_band():
    from gfsheaf.rectify import sheafify_limit
    f = random_circle_morse(random.Random(3), n=6)
    L = sheafify_limit(f)
    with pytest.raises(ValueError, match="limit presentation"):
        dualize(L)
    with pytest.raises(ValueError, match="limit presentation"):
        tensor(L, unit(f.grid))
