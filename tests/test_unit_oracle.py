"""Unit sheaves, rank-one tensors and the unit composition against the
tuple routes they replaced.

The references below are the old code unchanged: unit_sheaf and
materialize_rank_one_tensor as stalk_fn closures taken through the tuple
stalk path (tuple_stalks.TupleStalks), and verify_unit_composition on the
tuple section complexes, with its corner cocycle and evaluation keyed by
tuple generators, the unit's complex on its own t-axis refined at the
window ends as before (the global-axis reference assembles it).  The
section arrays of the rank-one stalk tables must equal those of the tuple
stalks over F2 and Q, and both unit composition routes must agree.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from gfsheaf import products
from gfsheaf.complexes import apply_d, class_coordinates, cohomology_basis
from gfsheaf.fixtures import random_circle_morse
from gfsheaf.genfun import graph_genfun
from gfsheaf.grids import BaseRegion
from gfsheaf.linalg import GF2, QQ
from gfsheaf.products import dualize, tensor, unit, verify_unit_composition
from gfsheaf.sheaves import (ZERO_STALK, CellSheaf, FilteredStalks,
                             LocalAxes, Stalk, TAxis, _full_axes,
                             _product_factors, _same_cell, _total_complex,
                             materialize_rank_one_tensor,
                             product_section_complex, quantize, sections,
                             to_cellular, unit_sheaf)
import global_axis_reference
from class_reference import (tuple_apply_d, tuple_class_coordinates,
                             tuple_cohomology_basis)
from convolution_reference import corner_table
from tuple_stalks import TupleStalks
from tuple_taxis import with_breaks

INF = math.inf
CONST_STALK = Stalk(((("k",), 0),))


# ---------------------------------------------------------------------------
# the stalk_fn closures (reference)

def reference_unit_sheaf(grid, region=None, t0=0.0, field=GF2):
    """unit_sheaf's constant sheaf on (closed region) x [t0, oo), its
    stalks sampled from the closure."""
    base = grid.base_only()
    mask = None if region is None else region.membership

    def stalk_fn(bc, thr):
        if mask is not None and not mask[tuple(bc)]:
            return ZERO_STALK
        return CONST_STALK if thr > t0 else ZERO_STALK

    return CellSheaf(base, TAxis((t0,)), TupleStalks(
        base.base_cell_shape, stalk_fn, field, "unit"), label="unit",
        field=field)


def reference_rank_one_tensor(CA, CB, field=GF2):
    """materialize_rank_one_tensor's corner-sum presentation, its stalks
    sampled from the closure over the corner tables."""
    ta, da = corner_table(CA)
    tb, db = corner_table(CB)
    theta = {}
    deg = {}
    for bc in ta:
        if ta[bc] is None or tb[bc] is None:
            theta[bc] = None
            deg[bc] = None
        else:
            theta[bc] = ta[bc] + tb[bc]
            deg[bc] = da[bc] + db[bc]
    breaks = sorted({v for v in theta.values() if v is not None})
    if not breaks:
        breaks = [0.0]

    def stalk_fn(bc, thr):
        th = theta.get(tuple(bc))
        if th is None or thr <= th:
            return ZERO_STALK
        return Stalk(((("t",), deg[tuple(bc)]),))

    label = f"({CA.label})(x)({CB.label})"
    return CellSheaf(CA.base, TAxis(tuple(breaks)), TupleStalks(
        CA.base.base_cell_shape, stalk_fn, field, label),
        shift=CA.shift + CB.shift, label=label, field=field)


def _over(cell, field):
    return CellSheaf(cell.base, cell.taxis, cell.source, shift=cell.shift,
                     label=cell.label, field=field)


def _assert_same_arrays(got, want):
    for name in ("deg", "indptr", "tgt", "coef", "value"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    for x, y in zip(got.matching, want.matching, strict=True):
        assert np.array_equal(x, y)
    assert got.generators() == want.generators()


def _graph(seed, n=10):
    f = random_circle_morse(random.Random(seed), n=n)
    return f, to_cellular(quantize(graph_genfun(f)), spot_checks=0)


def _windows(cell):
    lo, hi = cell.taxis.breaks[0], cell.taxis.breaks[-1]
    return [(-INF, INF), (lo - 0.5, hi + 0.5), ((lo + hi) / 2, INF)]


def _unit_pairs(seed):
    """(name, table sheaf, tuple sheaf) per unit kind: the full unit, a
    region unit, a unit opening at a break of a graph, a unit on an empty
    region; and the graph."""
    f, G = _graph(seed)
    grid = f.grid
    rng = random.Random(seed)
    box = BaseRegion.interval_arc(grid, rng.randrange(4),
                                  4 + rng.randrange(8))
    empty = BaseRegion(grid, np.zeros(grid.base_cell_shape, dtype=bool))
    brk = G.taxis.breaks[len(G.taxis.breaks) // 2]
    return [
        ("unit", unit_sheaf(grid), reference_unit_sheaf(grid)),
        ("region", unit_sheaf(grid, box, 0.25),
         reference_unit_sheaf(grid, box, 0.25)),
        ("at-break", unit_sheaf(grid, t0=brk),
         reference_unit_sheaf(grid, t0=brk)),
        ("empty", unit_sheaf(grid, empty),
         reference_unit_sheaf(grid, empty)),
    ], G


@pytest.mark.parametrize("field", [GF2, QQ], ids=["f2", "q"])
@pytest.mark.parametrize("seed", [1, 2])
def test_unit_stalk_tables_assemble_as_the_tuple_stalks(seed, field):
    pairs, G = _unit_pairs(seed)
    box = BaseRegion.interval_arc(G.base_grid, 2, 9)
    for name, new, ref in pairs:
        new, ref = _over(new, field), _over(ref, field)
        for region in (None, box):
            for a, b in _windows(new):
                got, want = (_total_complex(c.base, [(
                    c, LocalAxes.full(c), _same_cell)], region, a, b, field)
                    for c in (new, ref))
                _assert_same_arrays(got, want)
        assert np.array_equal(new.corners.opens, ref.corners.opens), name
        if name != "empty":
            assert len(_total_complex(new.base, [(
                new, LocalAxes.full(new), _same_cell)],
                None, -INF, INF, field).deg), name


@pytest.mark.parametrize("field", [GF2, QQ], ids=["f2", "q"])
@pytest.mark.parametrize("seed", [3, 4])
def test_a_rank_one_tensor_assembles_as_its_tuple_stalks(seed, field):
    # the graph shifted into stalk degree 1, so the degrees add visibly
    _, G = _graph(seed)
    D = dualize(G)
    k = G.corners
    up = CellSheaf(G.base, G.taxis, FilteredStalks(
        np.array(G.taxis.breaks)[k.opens], (k.deg + 1)[:, None], [("u",)],
        None))
    for CA, CB in ((G, D), (D, G), (G, G), (D, up)):
        new = _over(materialize_rank_one_tensor(CA, CB), field)
        ref = reference_rank_one_tensor(CA, CB, field)
        assert new.taxis == ref.taxis and new.shift == ref.shift
        assert new.label == ref.label
        box = BaseRegion.interval_arc(new.base, 1, 12)
        for region in (None, box):
            for a, b in _windows(new):
                got, want = (_total_complex(c.base, [(
                    c, LocalAxes.full(c), _same_cell)], region,
                    a, b, field) for c in (new, ref))
                _assert_same_arrays(got, want)
                if region is None and a == -INF:
                    assert len(got.tgt)


@pytest.mark.parametrize("field", [GF2, QQ], ids=["f2", "q"])
def test_unit_products_assemble_as_their_tuple_stalks(field):
    # tensor(F, unit) and its mirror on the diagonal, and an external
    # product, through the carrier of two factors
    pairs, G = _unit_pairs(5)
    F = _over(G, field)
    for name, new, ref in pairs:
        new, ref = _over(new, field), _over(ref, field)
        for diagonal in (True, False):
            for left in (True, False):
                got, want = (
                    _total_complex(base, _full_axes(halves), None, -INF, INF,
                                   field)
                    for base, halves in (_product_factors(
                        *((F, u) if left else (u, F)), diagonal)
                        for u in (new, ref)))
                _assert_same_arrays(got, want)
                assert name == "empty" or len(got.tgt), name


# ---------------------------------------------------------------------------
# the unit composition on tuple section complexes (reference)

def reference_u_cocycle(um, complex_):
    """The corner cocycle representing u in a W-section complex."""
    one = GF2.one()
    corner_a, _ = corner_table(um.CA)
    corner_b, _ = corner_table(um.CB)
    vec = {}
    for g in complex_.gens:
        (bc, t1, t2, la, lb) = g
        if complex_.deg[g] != 0:
            continue
        if t1[0] != "v" or t2[0] != "v":
            continue
        b1 = um.CA.taxis.breaks[t1[1]]
        b2 = um.CB.taxis.breaks[t2[1]]
        ca = corner_a[bc]
        cb = corner_b[bc]
        if ca is not None and cb is not None and b1 >= ca and b2 >= cb:
            vec[g] = one
    return vec


def reference_v_apply(um, vec, unit_taxis, t0=0.0):
    """Evaluation at the fixed top corner; lands in unit sections whose
    t-axis is the given (possibly refined) one."""
    b1s, b2s = um.top_corner
    i0 = next(i for i, b in enumerate(unit_taxis.breaks)
              if abs(b - t0) < 1e-12)
    out = {}
    for g, c in vec.items():
        (bc, t1, t2, la, lb) = g
        if t1 == ("v", b1s) and t2 == ("v", b2s):
            tgt = (bc, ("v", i0), ("k",))
            out[tgt] = GF2.add(out.get(tgt, 0), c)
    return {k: v for k, v in out.items() if v}


def _window(um, eps=None):
    sums = [um.CA.taxis.breaks[i] + um.CB.taxis.breaks[j]
            for i in range(len(um.CA.taxis.breaks))
            for j in range(len(um.CB.taxis.breaks))]
    if eps is None:
        below = [abs(s) for s in sums if abs(s) > 1e-9]
        eps = min(below) / 2 if below else 0.5
    return eps, max(sums) + 1.0


def reference_tuple_cochains(um, U, eps, ceil):
    """(WC, z, UC, img): the tuple W complex, the corner cocycle, the tuple
    unit complex and the evaluated image."""
    WC = product_section_complex(um.CA, um.CB, True, None, -eps, ceil)
    z = reference_u_cocycle(um, WC)
    unit_taxis = with_breaks(U.taxis, [-eps, ceil])
    UA = global_axis_reference.section_arrays(
        U.base, [(U, unit_taxis, _same_cell)], None, -eps, ceil,
        GF2)
    UC = UA.chain_complex(UA.generators())
    return WC, z, UC, reference_v_apply(um, z, unit_taxis)


def reference_verify_unit_composition(F, lambdas, eps=None):
    """verify_unit_composition on the tuple section complexes."""
    um = products.unit_morphisms(F)
    U = unit(F.base_grid)
    eps, ceil = _window(um, eps)
    WC, z, UC, img = reference_tuple_cochains(um, U, eps, ceil)
    if not z or tuple_apply_d(WC, z):
        raise AssertionError("u image is missing or not closed")
    if tuple_apply_d(UC, img):
        raise AssertionError("v o u image is not closed")
    basis = [vec for d, vec in tuple_cohomology_basis(UC) if d == 0]
    if len(basis) != 1:
        raise AssertionError("unit degree-0 sections not rank one")
    [coords] = tuple_class_coordinates(UC, basis, [img])
    if coords != [GF2.one()]:
        raise AssertionError("v o u is not the identity on degree-0 sections")
    for lam in lambdas:
        if not lam > 0:
            raise ValueError("rank ladder needs lambda > 0")
        if lam <= um.collar:
            raise ValueError(
                f"threshold {lam} sits inside the pairing resolution collar "
                f"({um.collar:.4g}); refine the grid or raise the threshold")
        want = sections(U, None, -INF, lam)
        got = sections(um.W, None, -INF, lam)
        if got != want:
            raise AssertionError(
                f"(dual F) tensor F deviates from the unit at {lam}: "
                f"{got} != {want}")
    return True


def _composition_inputs():
    """name -> (sheaf, ladder): a graph, tensor(graph, unit) and the
    unit."""
    rng = random.Random(47)
    f = random_circle_morse(rng, n=12)
    F = quantize(graph_genfun(f))
    T = tensor(F, unit(f.grid))
    collar = products.unit_morphisms(F).collar
    return {"graph": (F, [collar + 0.31, collar + 1.1]),
            "graph-unit": (T, [products.unit_morphisms(T).collar + 0.31]),
            "unit": (unit(f.grid), [0.7])}


@pytest.mark.parametrize("name", ["graph", "graph-unit", "unit"])
def test_both_unit_composition_routes_pass(name):
    F, ladder = _composition_inputs()[name]
    assert verify_unit_composition(F, ladder)
    assert reference_verify_unit_composition(F, ladder)
    # the id cochains are the tuple cochains, generator for generator
    um = products.unit_morphisms(F)
    U = unit(F.base_grid)
    eps, ceil = _window(um)
    _, z_ref, _, img_ref = reference_tuple_cochains(um, U, eps, ceil)
    WC, z, UC, img = _own_axis_cochains(um, U, eps, ceil)
    assert {WC.generators()[i] for i in z} == set(z_ref)
    refined = with_breaks(U.taxis, [-eps, ceil])
    gens = UC.generators()
    assert {_by_value(gens[i], U.taxis) for i in img} == {
        _by_value(g, refined) for g in img_ref}
    assert img and not apply_d(WC, z)


def _own_axis_cochains(um, U, eps, ceil):
    """(WC, z, UC, img) as verify_unit_composition builds them: the W
    complex and the unit's complex over [-eps, ceil) on the full own axes,
    the corner cocycle of u and its image under v."""
    base, pairs = _product_factors(um.CA, um.CB, True)
    WC = _total_complex(base, _full_axes(pairs), None, -eps, ceil, GF2)
    UC = _total_complex(U.base, _full_axes([(U, _same_cell)]),
                        None, -eps, ceil, GF2)
    z = um.u_cocycle(WC)
    return WC, z, UC, um.v_apply(z, WC, UC)


def _by_value(gen, taxis):
    """A unit generator (bc, tc, label) on taxis named with the kind and
    the top value of its t-cell in place of its index, so generators of two
    axes compare."""
    bc, tc, lbl = gen
    return bc, tc[0], taxis.top_value(tc), lbl


def _unit_class(C, img):
    """The coordinates of img, a cochain of the IndexComplex C, in C's
    degree-0 basis."""
    basis = [vec for d, vec in cohomology_basis(C) if d == 0]
    return len(basis), class_coordinates(C, basis, [img])


def _tuple_unit_class(C, img):
    """_unit_class on a tuple complex, through the tuple calculus."""
    basis = [vec for d, vec in tuple_cohomology_basis(C) if d == 0]
    return len(basis), tuple_class_coordinates(C, basis, [img])


@pytest.mark.parametrize("seed", range(20))
def test_the_own_axis_unit_complex_is_the_refined_reference(seed):
    # verify_unit_composition assembles the unit on its own t-axis; the
    # tuple reference on the axis refined at the window ends has the same
    # generators (by t-cell value), degrees and bars, the same v o u image
    # and the same class, the generator of H^0
    _, G = _graph(seed)
    assert verify_unit_composition(G, [])
    um = products.unit_morphisms(G)
    U = unit(G.base_grid)
    eps, ceil = _window(um)
    refined = with_breaks(U.taxis, [-eps, ceil])
    assert refined.m == 3
    _, _, UC, img = _own_axis_cochains(um, U, eps, ceil)
    _, _, UC_ref, img_ref = reference_tuple_cochains(um, U, eps, ceil)
    UA_ref = global_axis_reference.section_arrays(
        U.base, [(U, refined, _same_cell)], None, -eps, ceil, GF2)
    C = UC.chain_complex(UC.generators())
    own = {_by_value(g, U.taxis): C.deg[g] for g in C.gens}
    assert own and own == {_by_value(g, refined): UC_ref.deg[g]
                           for g in UC_ref.gens}
    assert UC.barcode(UC.value, UC.matching) == UA_ref.barcode(
        UA_ref.value, UA_ref.matching)
    own_img = {C.gens[i]: GF2.one() for i in img}
    assert {_by_value(g, U.taxis) for g in own_img} == {
        _by_value(g, refined) for g in img_ref}
    assert _unit_class(UC, img) == _tuple_unit_class(C, own_img) == \
        _tuple_unit_class(UC_ref, img_ref) == (1, [[GF2.one()]])


@pytest.mark.parametrize("seed", range(20))
def test_the_unit_composition_home_is_the_hand_built_complex(seed):
    # verify_unit_composition takes its (dual F) (x) F complex over
    # [-eps, ceil) from ProductHome, whose ceiling, the sum of the two last
    # breaks plus one, is the largest corner sum plus one
    _, G = _graph(seed)
    um = products.unit_morphisms(G)
    eps, ceil = _window(um)
    assert ceil == um.CA.taxis.breaks[-1] + um.CB.taxis.breaks[-1] + 1.0
    WC = _own_axis_cochains(um, unit(G.base_grid), eps, ceil)[0]
    _assert_same_arrays(products.ProductHome(um.CA, um.CB, -eps).complex, WC)


@pytest.mark.parametrize("move", [(-1, 0), (0, -1), (-1, -1), "first"],
                         ids=["dual-back", "back", "both-back", "first"])
def test_a_top_corner_off_the_last_breaks_fails_both_routes(move,
                                                            monkeypatch):
    # the evaluation at any other corner misses the unit class
    F, ladder = _composition_inputs()["graph"]
    morphisms = products.unit_morphisms

    def moved(G):
        um = morphisms(G)
        if move == "first":
            top = (0, 0)
        else:
            top = tuple(t + m for t, m in zip(um.top_corner, move))
        return dataclasses.replace(um, top_corner=top)

    monkeypatch.setattr(products, "unit_morphisms", moved)
    with pytest.raises(AssertionError) as got:
        verify_unit_composition(F, ladder)
    with pytest.raises(AssertionError) as want:
        reference_verify_unit_composition(F, ladder)
    assert str(got.value) == str(want.value)
    assert str(got.value) in ("v o u image is not closed",
                              "v o u is not the identity on degree-0 "
                              "sections")


def test_the_id_route_builds_no_chain_complex(monkeypatch):
    from gfsheaf import complexes

    def refuse(*args, **kwargs):
        raise AssertionError("a tuple section complex was built")

    monkeypatch.setattr(complexes.IndexComplex, "chain_complex", refuse)
    inputs = _composition_inputs()
    for name, (F, ladder) in inputs.items():
        assert verify_unit_composition(F, ladder), name
    with pytest.raises(AssertionError, match="tuple section complex"):
        reference_verify_unit_composition(*inputs["unit"])
