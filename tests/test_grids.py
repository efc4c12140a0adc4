import itertools
import math
import random

import numpy as np
import pytest

from gfsheaf.complexes import IndexComplex, cohomology_ranks, apply_d
from gfsheaf.fixtures import random_circle_morse
from gfsheaf.floer import SuperlevelHome
from gfsheaf.genfun import graph_genfun
from gfsheaf.grids import (BaseRegion, BoxGrid, SampledFunction,
                           _axis_cell_reduce, cell_extreme, circle_grid,
                           critical_vertices, cup_product_cochain,
                           interval_grid, relative_cochain_complex,
                           sublevel_filtration, sublevel_set)
from gfsheaf.linalg import GF2, QQ
from gfsheaf.products import dualize
from gfsheaf.sheaves import quantize, to_cellular
from convolution_reference import (corner_table, cup_product_cochain as
                                   reference_cup_product_cochain,
                                   decoupled_superlevel_complex,
                                   front_back_table)
from class_reference import tuple_cup_product_cochain
from tuple_cells import base_cells, cell_dim, cofaces
import foundation_reference

INF = math.inf


def sf(grid, expr):
    return SampledFunction.from_expr(grid, expr)


def circle_box(n=16):
    return BoxGrid((circle_grid(n),))


def all_and_none(grid):
    """The masks of all cells and of no cell of grid."""
    return (np.ones(grid.cell_shape, dtype=bool),
            np.zeros(grid.cell_shape, dtype=bool))


def test_full_complex_circle_and_torus():
    circle = circle_box(12)
    C = relative_cochain_complex(circle, *all_and_none(circle))
    assert cohomology_ranks(C) == {0: 1, 1: 1}
    torus = BoxGrid((circle_grid(6), circle_grid(5)))
    C2 = relative_cochain_complex(torus, *all_and_none(torus), QQ)
    assert cohomology_ranks(C2) == {0: 1, 1: 2, 2: 1}


def test_interval_relative_endpoints():
    g = BoxGrid((interval_grid(8, 0.0, 1.0),))
    W, A = all_and_none(g)
    A[(0,)] = True
    A[(2 * 8,)] = True
    C = relative_cochain_complex(g, W, A)
    assert cohomology_ranks(C) == {1: 1}
    # and H^*(W, W) = 0
    assert cohomology_ranks(relative_cochain_complex(g, W, W)) == {}


def test_d_squared_on_3d_product_over_Q():
    grid = BoxGrid((circle_grid(4),), (interval_grid(4, -1, 1),
                                       interval_grid(4, -1, 1)))
    C = relative_cochain_complex(grid, *all_and_none(grid), QQ)
    C.assert_d_squared_zero()
    assert cohomology_ranks(C) == {0: 1, 1: 1}


def test_sublevel_trivial_thresholds():
    g = circle_box(16)
    f = sf(g, "cos(2*pi*x)")
    assert sublevel_set(f, -2.0).sum() == 0
    assert sublevel_set(f, 2.0).sum() == g.cell_shape[0] * 1
    # boundary convention: vertex value exactly t counts as outside
    fc = SampledFunction(g, np.zeros(g.vertex_shape))
    assert sublevel_set(fc, 0.0).sum() == 0


def test_sublevel_one_arc():
    g = circle_box(256)
    f = sf(g, "cos(2*pi*x)")
    S = sublevel_set(f, 0.0)
    C = relative_cochain_complex(g, S, np.zeros(g.cell_shape, dtype=bool))
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
            assert not np.any(prev & ~cur)
            prev = cur


def test_sublevel_filtration_constant():
    g = circle_box(8)
    f = SampledFunction(g, np.full(g.vertex_shape, 2.0))
    bc = sublevel_filtration(f).barcode()
    assert bc.bars == ((0, 2.0, INF), (1, 2.0, INF))


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_sublevel_filtration_checks_d_squared(field, monkeypatch):
    # the shared integer check, once, on the whole complex
    checked = []
    check = IndexComplex.check

    def counted(self, integral=False):
        checked.append((len(self.deg), integral))
        return check(self, integral)

    monkeypatch.setattr(IndexComplex, "check", counted)
    f = sf(BoxGrid((circle_grid(6), interval_grid(4, 0.0, 1.0))),
           "cos(2*pi*x) + y")
    FC = sublevel_filtration(f, field)
    assert checked == [(len(FC.complex.gens), True)]


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
        rel = relative_cochain_complex(g, W, A)
        assert cohomology_ranks(rel) == bc.window_ranks(a, b), trial


def test_relative_complex_refuses_a_bad_pair():
    g = circle_box(8)
    W, A = all_and_none(g)
    # a mask of another shape would broadcast silently
    for bad in ((W[:1], A), (W, A[:1])):
        with pytest.raises(ValueError, match="membership shape mismatch"):
            relative_cochain_complex(g, *bad)
    W[3], A[3] = False, True
    with pytest.raises(ValueError, match="A must be contained in W"):
        relative_cochain_complex(g, W, A)


def test_region_restriction_and_closure():
    g = circle_box(8)
    reg = BaseRegion.from_cells(g, [(3,)])  # an edge: closure adds vertices
    assert reg.count() == 3
    C = relative_cochain_complex(g, reg.over(g),
                                 np.zeros(g.cell_shape, dtype=bool))
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


def flat_cells(grid, vec):
    """The flat cells (C order) of the odd entries of a cochain keyed by
    cell tuples, in ascending order."""
    return np.array(sorted(np.ravel_multi_index(c, grid.cell_shape)
                           for c, v in vec.items() if v & 1), dtype=np.int64)


def test_cup_product_circle_ring():
    g = circle_box(8)
    one = np.arange(0, 16, 2)       # every vertex: the unit
    theta = np.array([1])           # single edge: generator of H^1
    assert cup_product_cochain(g, one, theta).tolist() == [1]
    assert cup_product_cochain(g, one, one).tolist() == one.tolist()
    # theta cup theta lands in degree 2: no 2-cells on a circle
    assert cup_product_cochain(g, theta, theta).size == 0


def test_cup_product_torus_ring():
    g = BoxGrid((circle_grid(4), circle_grid(4)))
    th1 = flat_cells(g, {(1, 2 * j): 1 for j in range(4)})  # a meridian's dual
    th2 = flat_cells(g, {(2 * i, 1): 1 for i in range(4)})
    # every cell is kept, so the ids are the flat cells
    C = relative_cochain_complex(g, *all_and_none(g)).index_complex()
    for th in (th1, th2):
        assert not apply_d(C, dict.fromkeys(th.tolist(), 1))
    prod12 = cup_product_cochain(g, th1, th2)
    prod21 = cup_product_cochain(g, th2, th1)
    assert len(prod12) == 1  # the fundamental square: generates H^2
    assert len(prod21) == 1
    assert cup_product_cochain(g, th1, th1).size == 0
    assert cup_product_cochain(g, th2, th2).size == 0
    with pytest.raises(ValueError, match="homogeneous"):
        cup_product_cochain(g, np.concatenate([th1, [0]]), th2)


CUP_GRIDS = {
    "interval": BoxGrid((interval_grid(7, -1.0, 2.0),)),
    "circle": circle_box(6),
    "torus": BoxGrid((circle_grid(4), circle_grid(4))),
    "cylinder": BoxGrid((interval_grid(4, 0.0, 1.0), circle_grid(5))),
}


@pytest.mark.parametrize("name", CUP_GRIDS)
def test_splitting_table_is_the_per_cell_splitting(name):
    grid = CUP_GRIDS[name]
    got = grid.splitting_table
    for part, want in zip(got, front_back_table(grid)):
        assert part.dtype == np.int64
        assert np.array_equal(part, want)
    assert grid.base_only().splitting_table is grid.base_only(
        ).splitting_table


@pytest.mark.parametrize("name", CUP_GRIDS)
def test_cup_product_cochain_matches_the_per_cell_reference(name):
    grid = CUP_GRIDS[name]
    rng = random.Random(61)
    by_dim = {}
    for c in grid.all_cells():
        by_dim.setdefault(cell_dim(c), []).append(c)
    for p, q in itertools.product(by_dim, repeat=2):
        for _ in range(6):
            a, b = ({c: rng.choice((0, 1, 1)) for c in by_dim[d]
                     if rng.random() < 0.5} for d in (p, q))
            got = cup_product_cochain(grid, flat_cells(grid, a),
                                      flat_cells(grid, b))
            want = reference_cup_product_cochain(grid, a, b)
            assert tuple_cup_product_cochain(grid, a, b) == want
            assert got.tolist() == flat_cells(grid, want).tolist(), \
                (p, q, a, b)
            assert list(got) == sorted(got)


# ---------------------------------------------------------------------------
# cell extremes: the one edge rule against the two-branch reference

EXTREME_GRIDS = {
    "interval": BoxGrid((interval_grid(5, -1.0, 1.0),)),
    "circle": BoxGrid((circle_grid(6),)),
    "torus": BoxGrid((circle_grid(4), circle_grid(5))),
    "cylinder": BoxGrid((circle_grid(5), interval_grid(4, 0.0, 1.0))),
    "one-fiber": BoxGrid((circle_grid(4),), (interval_grid(6, -2.0, 2.0),)),
    "two-fibers": BoxGrid((interval_grid(4, 0.0, 1.0),),
                          (interval_grid(4, -1.0, 1.0),) * 2),
}


def extreme_inputs(shape, rng):
    """Vertex values: generic, tied on a coarse lattice, and with signed
    zeros, infinities and nan among them."""
    special = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0], shape)
    return (rng.normal(size=shape),
            rng.integers(-2, 3, size=shape).astype(float),
            np.where(rng.random(shape) < 0.5, special, rng.normal(size=shape)))


@pytest.mark.parametrize("name", EXTREME_GRIDS)
def test_cell_extremes_match_the_two_branch_reference(name):
    grid = EXTREME_GRIDS[name]
    rng = np.random.default_rng(71)
    for values in extreme_inputs(grid.vertex_shape, rng):
        for op in (np.maximum, np.minimum):
            got = cell_extreme(values, grid, op)
            want = foundation_reference.cell_extreme(values, grid, op)
            assert got.shape == want.shape == grid.cell_shape
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    # one axis at a time, on integer values too
    ints = rng.integers(-9, 9, size=grid.vertex_shape)
    for axis, g in enumerate(grid.axes):
        for values in (ints,) + extreme_inputs(grid.vertex_shape, rng):
            got = _axis_cell_reduce(values, g, axis, np.maximum)
            want = foundation_reference.axis_cell_reduce(values, g, axis,
                                                         np.maximum)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the cubical builder against the cell-by-cell assembly it replaced

def random_grid(rng):
    """1-2 base axes (circle or interval) and 0-2 fiber intervals."""
    def axis(topology):
        n = rng.randint(4, 6)
        if topology == "circle":
            return circle_grid(n)
        return interval_grid(n, -1.0, 1.0)
    base = tuple(axis(rng.choice(("circle", "interval")))
                 for _ in range(rng.randint(1, 2)))
    fiber = tuple(axis("interval") for _ in range(rng.randint(0, 2)))
    return BoxGrid(base, fiber)


def random_function(rng, grid):
    vals = [rng.uniform(-1, 1) for _ in range(int(np.prod(grid.vertex_shape)))]
    return SampledFunction(grid, np.reshape(vals, grid.vertex_shape))


def reference_complex(grid, cells, field):
    """Generators, degrees and coboundary dicts assembled cell by cell
    through the tuple walker cofaces, as the four builders did before the
    table."""
    gens = [tuple(c) for c in cells]
    genset = set(gens)
    deg = {c: cell_dim(c) for c in gens}
    d = {}
    for cell in gens:
        cb = {}
        for cf, s in cofaces(grid, cell):
            if cf in genset:
                cb[cf] = field.coerce(s)
        if cb:
            d[cell] = cb
    return gens, deg, d


def assert_same_complex(C, gens, deg, d, field):
    assert list(C.gens) == gens
    assert all(type(x) is int for g in C.gens for x in g)
    assert C.deg == deg
    assert all(type(k) is int for k in C.deg.values())
    assert list(C.d) == list(d)
    for g, cb in d.items():
        assert list(C.d[g].items()) == list(cb.items())
        assert all(type(v) is type(field.one()) for v in C.d[g].values())


def test_coface_table_matches_cofaces():
    rng = random.Random(11)
    for _ in range(12):
        grid = random_grid(rng)
        table = grid.coface_table
        assert table.cof.dtype == np.int32 and table.sgn.dtype == np.int8
        for flat, cell in enumerate(grid.all_cells()):
            row = [(tuple(int(v) for v in np.unravel_index(c, grid.cell_shape)),
                    int(s))
                   for c, s in zip(table.cof[flat], table.sgn[flat]) if c >= 0]
            assert row == cofaces(grid, cell), cell
            assert table.dim[flat] == cell_dim(cell)


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_relative_complex_matches_cell_by_cell(field):
    rng = random.Random(12)
    for _ in range(15):
        grid = random_grid(rng)
        f = random_function(rng, grid)
        a, b = sorted((rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)))
        W, A = sublevel_set(f, b), sublevel_set(f, a)
        C = relative_cochain_complex(grid, W, A, field)
        keep = W & ~A
        ref = reference_complex(grid, np.argwhere(keep).tolist(), field)
        assert_same_complex(C, *ref, field)


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_sublevel_filtration_matches_cell_by_cell(field):
    rng = random.Random(13)
    for _ in range(8):
        grid = random_grid(rng)
        f = random_function(rng, grid)
        FC = sublevel_filtration(f, field)
        gens = list(grid.all_cells())
        assert_same_complex(FC.complex, *reference_complex(grid, gens, field),
                            field)
        cm = f.cell_max()
        assert list(FC.action.items()) == [(c, float(cm[c])) for c in gens]


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_superlevel_home_matches_cell_by_cell(field):
    rng = random.Random(14)
    for _ in range(8):
        grid = random_grid(rng)
        f = random_function(rng, grid)
        lam = rng.uniform(-1, 1)
        cm = f.cell_max()
        cells = [c for c in grid.all_cells() if cm[c] >= lam]
        home = SuperlevelHome(f, lam, field)
        assert home.cells.tolist() == [
            np.ravel_multi_index(c, grid.cell_shape) for c in cells]
        assert_same_complex(home.complex.chain_complex(cells),
                            *reference_complex(grid, cells, field), field)


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_decoupled_superlevel_complex_matches_cell_by_cell(field):
    rng = random.Random(15)
    for _ in range(2):
        F = to_cellular(quantize(graph_genfun(random_circle_morse(rng, n=8))),
                        spot_checks=0)
        CA, CB = dualize(F).cellular, F.cellular
        corner_a, _ = corner_table(CA)
        corner_b, _ = corner_table(CB)
        sums = {bc: corner_a[bc] + corner_b[bc] for bc in corner_a
                if corner_a[bc] is not None and corner_b[bc] is not None}
        values = sorted(sums.values())
        for lam in (values[0] - 1, values[len(values) // 2], values[-1] + 1):
            cells = [bc for bc in base_cells(CA.base)
                     if bc in sums and sums[bc] >= lam]
            assert_same_complex(decoupled_superlevel_complex(CA, CB, lam, field),
                                *reference_complex(CA.base, cells, field),
                                field)


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_builder_rejects_a_flipped_sign(field, monkeypatch):
    # over F2 a flipped sign leaves an even path count: only the integer
    # check sees it
    grid = BoxGrid((circle_grid(5),), (interval_grid(4, -1.0, 1.0),))
    table = grid.coface_table
    cell = (2, 4)                       # a vertex: cofaces on both axes
    flat = int(np.ravel_multi_index(cell, grid.cell_shape))
    sgn = table.sgn.copy()
    sgn[flat, 0] = -sgn[flat, 0]
    monkeypatch.setitem(grid.__dict__, "coface_table",
                        table._replace(sgn=sgn))
    with pytest.raises(ValueError, match=r"d\^2 != 0") as err:
        relative_cochain_complex(grid, *all_and_none(grid), field)
    assert str(err.value) == f"d^2 != 0 at generator {cell}"


def test_builder_rejects_a_wrong_dimension(monkeypatch):
    # the edge (3, 4) claims dimension 2; the first entry that meets it, in
    # generator order and then slot order, comes from its face (2, 4)
    grid = BoxGrid((circle_grid(5),), (interval_grid(4, -1.0, 1.0),))
    table = grid.coface_table
    dim = table.dim.copy()
    dim[np.ravel_multi_index((3, 4), grid.cell_shape)] = 2
    monkeypatch.setitem(grid.__dict__, "coface_table",
                        table._replace(dim=dim))
    with pytest.raises(ValueError) as err:
        relative_cochain_complex(grid, *all_and_none(grid))
    assert str(err.value) == "differential not degree +1 at (2, 4) -> (3, 4)"
