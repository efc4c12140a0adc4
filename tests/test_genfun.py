import itertools
import math
import random

import numpy as np
import pytest

from gfsheaf.fixtures import (circle_function, cusp_front, cusp_genfun,
                              pure_quad_genfun, random_circle_morse,
                              stabilized_graph_genfun)
from gfsheaf.genfun import (GenFun, QuadForm, assert_window_regular, box_sum,
                            brane_of, cerf_diagram, gf_cohomology,
                            graph_genfun, negate, normalized_window,
                            stacked_sum, strand_value_range, window_ceiling,
                            window_floor)
from gfsheaf.grids import (BaseRegion, BoxGrid, SampledFunction, circle_grid,
                           critical_vertices, interval_grid,
                           sublevel_filtration)
from gfsheaf.linalg import GF2, QQ
from gfsheaf.products import external_box_sum
from test_complexes import index_complex
import convolution_reference as reference
import foundation_reference
import pair_reference

INF = math.inf


def difference(g0, g1):
    """The stacked difference S0(x, xi0) - S1(x, xi1) on one base."""
    return stacked_sum(g0, g1, -1.0, shared_base=True)


def test_quadform_index():
    assert QuadForm.diagonal(1.0, -2.0).index == 1
    assert QuadForm.diagonal(-1.0, -2.0).index == 2
    assert QuadForm(()).index == 0
    with pytest.raises(ValueError):
        QuadForm.diagonal(1.0, 0.0).index


@pytest.mark.parametrize("matrix, message", [
    # the asymmetric q whose lower triangle has index 1 and whose symmetric
    # part, which Q(xi) evaluates, has index 0
    (((1.0, 0.0), (1.5, 1.0)), "a quadratic form needs a symmetric matrix, "
     "got entry (0, 1) = 0.0 and (1, 0) = 1.5"),
    (((1.0, 2.0, 3.0), (2.0, 1.0, 0.0), (3.0, 1e-12, 1.0)),
     "got entry (1, 2) = 0.0 and (2, 1) = 1e-12"),
    (((1.0,), (0.0, 1.0)), "a quadratic form needs a square matrix"),
    (((1.0, 0.0),), "a quadratic form needs a square matrix"),
    (((),), "a quadratic form needs a square matrix"),
])
def test_quadform_refuses_a_matrix_that_is_not_square_and_symmetric(
        matrix, message):
    with pytest.raises(ValueError) as e:
        QuadForm(matrix)
    assert message in str(e.value)


def test_quadform_takes_a_symmetric_matrix_off_the_diagonal():
    q = QuadForm(((1.0, 0.75), (0.75, 1.0)))
    assert q.index == 0
    assert QuadForm(((1.0, 1.5), (1.5, 1.0))).index == 1
    xi = np.array([[1.0, 2.0], [-3.0, 0.5]])
    assert q(xi).tolist() == [1.0 + 3.0 + 4.0, 9.0 - 2.25 + 0.25]


def test_pure_quadratic_critical_data():
    gf = pure_quad_genfun((circle_grid(8),), (-1.0,))
    cps = gf.critical_table[(0,)]
    assert len(cps) == 1
    cp = cps[0]
    assert cp.value == pytest.approx(0.0, abs=1e-12)
    assert cp.index == 1
    assert abs(cp.xi[0]) < 1e-9


def test_cusp_critical_values_and_indices():
    gf = cusp_genfun(n_base=32, n_fiber=64)
    # base vertex nearest to x = 1
    bv = (gf.grid.base[0].n_vertices - 1,)
    x = gf.grid.base[0].vertex_coords()[bv[0]]
    assert x == pytest.approx(1.0)
    cps = gf.critical_table[bv]
    assert len(cps) == 3
    lo, hi, far = cps
    # inner strands: values -2/3, +2/3 with fiber indices 0 and 1
    h = gf.grid.fiber[0].spacing
    assert lo.value == pytest.approx(-2.0 / 3.0, abs=2 * h)
    assert lo.index == 0
    assert hi.value == pytest.approx(+2.0 / 3.0, abs=2 * h)
    assert hi.index == 1
    assert far.value > 5.0 and far.index == 1
    # every base vertex carries exactly three strands, cusp band well formed
    for j in range(0, gf.grid.base[0].n_vertices, 7):
        cps = gf.critical_table[(j,)]
        assert len(cps) == 3
        xj = gf.grid.base[0].vertex_coords()[j]
        lo_t, hi_t = cusp_front(xj)
        assert cps[0].value == pytest.approx(lo_t, abs=3 * h)
        assert cps[1].value == pytest.approx(hi_t, abs=3 * h)


def test_cerf_diagram_shapes():
    quad = pure_quad_genfun((circle_grid(8),), (-1.0,))
    d = cerf_diagram(quad)
    assert all(abs(t) < 1e-9 for (_x, t, _i, _p, _dg) in d.strands)
    assert len(d.breakpoints) == 1
    f = circle_function("0.4*cos(2*pi*x)", n=16)
    graft = stabilized_graph_genfun(f, coeffs=(2.0,), n_fiber=16)
    d2 = cerf_diagram(graft)
    for (x, t, idx, _p, _dg) in d2.strands:
        assert t == pytest.approx(0.4 * math.cos(2 * math.pi * x[0]), abs=1e-6)
        assert idx == 0
    assert d2.cusp_x == ()


def test_one_cerf_diagram_per_front_table_task(monkeypatch, tmp_path):
    """The bundled cusp's front-table task reads the Cerf breaks on every
    microstalk probe (sheaves._local_gap); the diagram is built once, on
    the family, and kept there."""
    import os
    from gfsheaf import genfun, scenarios
    from gfsheaf.cli import BUNDLED_DIR
    builds, build = [], genfun.CerfDiagram
    monkeypatch.setattr(genfun, "CerfDiagram",
                        lambda *args: builds.append(1) or build(*args))
    spec = scenarios.load_scenario(os.path.join(BUNDLED_DIR, "cusp.toml"))
    ctx = scenarios.ScenarioContext(spec)
    task = next(t for t in spec["tasks"] if t["op"] == "front-table")
    assert scenarios.run_task(ctx, task, str(tmp_path)) == {"status": "done"}
    assert len(builds) == 1
    gf = ctx.genfuns["cusp"]
    assert cerf_diagram(gf) is cerf_diagram(gf) is gf.cerf
    assert len(builds) == 1


def test_window_regularity_guard():
    gf = cusp_genfun(n_base=16, n_fiber=48)
    with pytest.raises(ValueError):
        assert_window_regular(gf, BaseRegion(gf.grid), 0.0, 2.0 / 3.0)
    # region near x = 1: strands at +-0.45..0.67; a mid-band window is regular
    hi = gf.grid.base[0].n_cells - 1
    region = BaseRegion.interval_arc(gf.grid, hi - 6, hi)
    gf_cohomology(gf, region, -0.2, 0.2)


def test_gf_cohomology_pure_quadratic_circle():
    # Thom pair on the truncated fiber: ranks of H^*(N) after the shift
    gf = pure_quad_genfun((circle_grid(12),), (-1.0,), n_fiber=16)
    ranks = gf_cohomology(gf, None, -0.5, 0.5)
    assert ranks == {0: 1, 1: 1}
    gf2 = pure_quad_genfun((circle_grid(12),), (1.0, -1.0), n_fiber=12)
    assert gf2.i_q == 1
    assert gf_cohomology(gf2, None, -0.5, 0.5) == {0: 1, 1: 1}


def test_gf_cohomology_graph_case_matches_sublevel():
    f = circle_function("cos(2*pi*x)", n=64)
    gf = graph_genfun(f)
    bc = sublevel_filtration(f).barcode()
    for (a, b) in [(-2.0, 2.0), (-2.0, 0.0123), (0.1017, 2.0),
                   (-0.5013, 0.5013)]:
        assert gf_cohomology(gf, None, a, b) == bc.window_ranks(a, b)


def test_gf_cohomology_over_Q_field():
    f = circle_function("cos(2*pi*x)", n=32)
    gf = graph_genfun(f)
    assert gf_cohomology(gf, None, -2.0, 2.0, field=QQ) == {0: 1, 1: 1}


def test_gf_cohomology_over_q_builds_no_fraction(monkeypatch):
    """The pair route over Q reduces the integer lifts of the cubical
    coefficients fraction-free: with QQ.coerce and Fraction construction
    made to raise, the ranks of a stabilized family (one fiber axis, so
    signs -1 among the entries) still come out, equal to the F2 ones."""
    from fractions import Fraction
    f = circle_function("cos(2*pi*x) + 0.3*sin(4*pi*x)", n=24)
    gf = stabilized_graph_genfun(f, coeffs=(1.0, -1.0), n_fiber=8)
    windows = [(-2.0, 2.0), (-2.0, 0.0123), (0.1017, 2.0), (-0.5013, 0.5013)]
    want = [gf_cohomology(gf, None, a, b, GF2) for a, b in windows]

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(QQ, "coerce", refuse)
    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert [gf_cohomology(gf, None, a, b, QQ) for a, b in windows] == want
    assert any(want)


def test_cusp_window_rank_one_at_cusp_value():
    gf = cusp_genfun(n_base=32, n_fiber=64)
    grid1 = gf.grid.base[0]
    # narrow region at x0 = 1; window containing the upper strand band
    hi_cell = grid1.n_cells - 1
    region = BaseRegion.interval_arc(gf.grid, hi_cell - 4, hi_cell)
    ranks = gf_cohomology(gf, region, 0.55, 0.73)
    assert sum(ranks.values()) == 1
    # straddling no strand: zero
    assert gf_cohomology(gf, region, 0.1, 0.2) == {}


def test_stabilization_invariance():
    from gfsheaf.grids import critical_vertices
    rng = random.Random(11)
    for _ in range(10):
        f = random_circle_morse(rng, n=24)
        gf0 = graph_genfun(f)
        coeffs = rng.choice([(1.0,), (-1.0,), (1.0, -1.0)])
        gfs = stabilized_graph_genfun(f, coeffs=coeffs, n_fiber=16)
        vals = sorted({c["value"] for c in critical_vertices(f)})
        cuts = [vals[0] - 0.5] + [
            (a + b) / 2 for a, b in zip(vals, vals[1:])] + [vals[-1] + 0.5]
        for a in cuts:
            for b in cuts:
                if a < b:
                    assert gf_cohomology(gfs, None, a, b,
                                         check_regular=False) == \
                        gf_cohomology(gf0, None, a, b,
                                      check_regular=False), (a, b, coeffs)


def test_ominus_and_box_sum_indices():
    q1 = pure_quad_genfun((circle_grid(8),), (-1.0,), n_fiber=8)
    q2 = pure_quad_genfun((circle_grid(8),), (1.0,), n_fiber=8)
    om = difference(q1, q2)
    assert om.k == 2
    assert om.i_q == q1.i_q + (q2.k - q2.i_q)  # 1 + (1 - 0) = 2
    bs = box_sum(q1, q2)
    assert bs.i_q == q1.i_q + q2.i_q


STACK_FACTORS = {
    "graph": lambda: graph_genfun(circle_function("0.3*cos(2*pi*x)", n=8)),
    "quad-": lambda: GenFun(pure_quad_genfun(
        (circle_grid(8),), (-1.0,), n_fiber=8).S, QuadForm.diagonal(-1.0),
        tau_q=3e-7, check_collar=False),
    "quad+": lambda: pure_quad_genfun((circle_grid(8),), (2.0,), n_fiber=6),
    "stabilized": lambda: stabilized_graph_genfun(
        circle_function("0.5*sin(2*pi*x) + 0.1", n=8), coeffs=[1.0, -1.0],
        n_fiber=5),
}


@pytest.mark.parametrize("first", STACK_FACTORS)
@pytest.mark.parametrize("second", STACK_FACTORS)
def test_stacked_sums_match_the_old_stacking_bodies(first, second):
    g0, g1 = STACK_FACTORS[first](), STACK_FACTORS[second]()
    for new, old in ((difference, reference.ominus),
                     (box_sum, reference.box_sum),
                     (external_box_sum, reference.external_box_sum)):
        if g0.k + g1.k > 2:     # no grid has more than two fiber axes
            for stack in (new, old):
                with pytest.raises(ValueError, match="fiber k <= 2"):
                    stack(g0, g1)
            continue
        got, want = new(g0, g1), old(g0, g1)
        assert got.grid == want.grid
        assert got.S.values.dtype == want.S.values.dtype
        assert got.S.values.tobytes() == want.S.values.tobytes()
        assert (got.Q, got.tau_q, got.i_q) == (want.Q, want.tau_q, want.i_q)


def test_a_shared_base_stacked_sum_refuses_two_bases():
    g0 = graph_genfun(circle_function("0*x", n=8))
    g1 = graph_genfun(circle_function("0*x", n=9))
    for stack in (difference, box_sum, reference.ominus,
                  reference.box_sum):
        with pytest.raises(ValueError, match="base grids must match"):
            stack(g0, g1)


def test_box_sum_of_graphs_is_sum_graph():
    f = circle_function("0.3*cos(2*pi*x)", n=32)
    g = circle_function("0.5*sin(2*pi*x)", n=32)
    bs = box_sum(graph_genfun(f), graph_genfun(g))
    np.testing.assert_allclose(bs.S.values, (f + g).values)


def test_box_sum_neutral():
    f = circle_function("0.3*cos(2*pi*x)", n=16)
    zero = graph_genfun(circle_function("0*x", n=16))
    bs = box_sum(graph_genfun(f), zero)
    np.testing.assert_allclose(bs.S.values, f.values)


def test_negate_index():
    gf = cusp_genfun(n_base=16, n_fiber=48)
    ng = negate(gf)
    assert ng.i_q == gf.k - gf.i_q


def test_grading_consistency_graph_branes():
    # degree of each generator equals the Morse index at the critical point
    rng = random.Random(8)
    f = random_circle_morse(rng, n=32)
    g = random_circle_morse(rng, n=32)
    from gfsheaf.grids import critical_vertices
    h = g - f
    crits = critical_vertices(h)
    bc = sublevel_filtration(h).barcode()
    lo, hi = h.range()
    full = gf_cohomology(difference(graph_genfun(g), graph_genfun(f)),
                         None, lo - 1, hi + 1, check_regular=False)
    euler_crit = sum((-1) ** c["index"] for c in crits)
    euler_coh = sum(((-1) ** d) * r for d, r in full.items())
    assert euler_crit == euler_coh == 0  # circle


def test_brane_of_graph():
    f = circle_function("0.2*sin(2*pi*x)", n=32)
    br = brane_of(graph_genfun(f))
    for (x, p, t, m) in br.points:
        assert m == 0
        assert t == pytest.approx(0.2 * math.sin(2 * math.pi * x[0]), abs=1e-9)
        assert p[0] == pytest.approx(
            0.4 * math.pi * math.cos(2 * math.pi * x[0]), abs=1e-2)


def test_brane_of_cusp_has_two_band_gradings():
    gf = cusp_genfun(n_base=16, n_fiber=48)
    br = brane_of(gf)
    gradings = {m for (_x, _p, t, m) in br.points if abs(t) < 1.0}
    assert gradings == {-1, 0}


def test_boundary_critical_cell_rejected():
    # a family whose fiber-critical locus touches the truncation collar
    from gfsheaf.grids import BoxGrid, SampledFunction, interval_grid
    base = circle_grid(8)
    fiber = interval_grid(16, -1.0, 1.0)
    grid = BoxGrid((base,), (fiber,))
    S = SampledFunction.from_expr(grid, "(xi - 0.9)^2")
    with pytest.raises(ValueError, match="collar|boundary"):
        GenFun(S, QuadForm.diagonal(1.0), tau_q=10.0)


def test_window_perturbation_invariance():
    # away from the strands, small moves of the window endpoints cannot
    # change the pair ranks
    gf = cusp_genfun(n_base=16, n_fiber=48)
    vals = sorted(cerf_diagram(gf).breakpoints)
    gaps = [(x, y) for x, y in zip(vals, vals[1:]) if y - x > 0.1]
    (a0, a1), (b0, b1) = gaps[0], gaps[-1]
    a, b = (a0 + a1) / 2, (b0 + b1) / 2
    base = gf_cohomology(gf, None, a, b, check_regular=False)
    for da in (-0.2, 0.2):
        for db in (-0.2, 0.2):
            a2 = a + da * (a1 - a0) / 2
            b2 = b + db * (b1 - b0) / 2
            assert gf_cohomology(gf, None, a2, b2,
                                 check_regular=False) == base


# ---------------------------------------------------------------------------
# the collar mask and the pure quadratic against the old code paths

def outcome(fn, *args, **kwargs):
    """fn(*args, **kwargs) as ('ok', the type and repr of its value) or
    ('refused', its message)."""
    try:
        value = fn(*args, **kwargs)
        return "ok", type(value), repr(value)
    except ValueError as e:
        return "refused", str(e)


def bumped(gf, where, by):
    """gf with S raised by `by` at one vertex (base then fiber indices)."""
    vals = gf.S.values.copy()
    vals[where] += by
    return GenFun(SampledFunction(gf.grid, vals), gf.Q, tau_q=gf.tau_q,
                  check_collar=False)


def skewed_genfun():
    """A sampled Q(xi) + f(x) with a symmetric form off the diagonal."""
    base = (circle_grid(6),)
    fiber = (interval_grid(8, -2.0, 2.0),) * 2
    S = SampledFunction.from_expr(
        BoxGrid(base, fiber),
        "0.3*cos(2*pi*x) + xi^2 + 1.5*xi*eta + 3*eta^2")
    return GenFun(S, QuadForm(((1.0, 0.75), (0.75, 3.0))))


def collar_cases():
    f = circle_function("0.4*cos(2*pi*x) + 0.1*sin(4*pi*x)", n=8)
    one = stabilized_graph_genfun(f, (1.0,), radius=3.0, n_fiber=12)
    two = stabilized_graph_genfun(f, (1.0, -1.0), radius=3.0, n_fiber=10)
    cusp = cusp_genfun(n_base=8, n_fiber=32)
    return {
        "one-axis": one,
        "two-axes": two,
        "cusp": cusp,
        "skewed": skewed_genfun(),
        "pure-two-axes": pure_quad_genfun((circle_grid(6),), (2.0, 0.5),
                                          radius=2.0, n_fiber=8),
        # collars that break tau_q = 1e-7, and one bump within it
        "one-axis-bumped": bumped(one, (3, 0), 1e-3),
        "one-axis-bumped-top": bumped(one, (5, 12), -0.25),
        "two-axes-corner": bumped(two, (0, 10, 0), 2.0),
        "two-axes-edge": bumped(two, (7, 4, 10), 1e-6),
        "cusp-bumped": bumped(cusp, (2, 0), 0.5),
        "two-axes-within": bumped(two, (1, 0, 3), 5e-8),
        # the fiber ends sit below the strand band's ceiling
        "one-axis-low-caps": stabilized_graph_genfun(f, (1.0,), radius=0.4,
                                                     n_fiber=8),
        "two-axes-low-caps": pure_quad_genfun((circle_grid(5),), (1.0, 1.0),
                                              radius=0.4, n_fiber=8),
        "mixed-low-caps": pure_quad_genfun((circle_grid(5),), (1.0, -1.0),
                                           radius=0.4, n_fiber=8),
    }


COLLAR_CASES = collar_cases()
# (1, -1) at radius 3: S = f(x) + 9 - 9 at the corners rounds onto the band
# top or just above it, and the reference took that for a cap
CORNER_CAPS = ("two-axes", "two-axes-corner", "two-axes-edge",
               "two-axes-within")


@pytest.mark.parametrize("name", COLLAR_CASES)
def test_the_collar_mask_matches_the_boundary_ring(name):
    gf = COLLAR_CASES[name]
    ring = foundation_reference.fiber_boundary_ring(gf)
    assert np.argwhere(gf.collar_mask).tolist() == [list(v) for v in ring]
    assert gf.collar_mask is gf.collar_mask
    check = outcome(GenFun._check_collar, gf)
    assert check == outcome(foundation_reference.check_collar, gf)
    ceiling = outcome(window_ceiling, gf)
    if name in CORNER_CAPS:
        assert outcome(foundation_reference.window_ceiling, gf)[0] == \
            "refused"
        _, hi = strand_value_range(gf)
        assert ceiling == ("ok", float,
                           repr(hi + 0.25 * (1.0 + gf.tau_val())))
    else:
        assert ceiling == outcome(foundation_reference.window_ceiling, gf)


def test_the_collar_cases_cover_both_refusals():
    checks = {name: outcome(GenFun._check_collar, gf)[0]
              for name, gf in COLLAR_CASES.items()}
    ceilings = {name: outcome(window_ceiling, gf)[0]
                for name, gf in COLLAR_CASES.items()}
    assert checks["one-axis"] == checks["two-axes-within"] == "ok"
    assert checks["one-axis-bumped"] == checks["two-axes-corner"] == \
        checks["cusp-bumped"] == "refused"
    assert ceilings["one-axis"] == ceilings["cusp"] == \
        ceilings["two-axes"] == "ok"
    assert ceilings["one-axis-low-caps"] == ceilings["two-axes-low-caps"] == \
        ceilings["mixed-low-caps"] == "refused"


@pytest.mark.parametrize("radius", [3.0, 8.0, 20.0])
def test_an_indefinite_family_has_a_ceiling_at_every_radius(radius):
    # the reference refused at radii 3 and 8, where the corners S = f + 0
    # round above the band top, and accepted at 20, where they round below
    f = circle_function("0.4*cos(2*pi*x)", n=8)
    gf = stabilized_graph_genfun(f, (1.0, -1.0), radius=radius, n_fiber=10)
    _, hi = strand_value_range(gf)
    assert window_ceiling(gf) == hi + 0.25 * (1.0 + gf.tau_val())
    assert gf_cohomology(gf, None, -np.inf, np.inf) == \
        gf_cohomology(graph_genfun(f), None, -np.inf, np.inf)


def test_the_cap_rule_refuses_only_what_the_reference_refused():
    rng = random.Random(5)
    refused = {"reference": 0, "caps": 0}
    for _ in range(3):
        f = random_circle_morse(rng, n=12)
        for form in ((1.0, -1.0), (1.0,), (-1.0,), (2.0, 1.0)):
            for radius in (2.0, 3.0, 8.0):
                gf = stabilized_graph_genfun(f, form, radius=radius,
                                             n_fiber=10)
                want = outcome(foundation_reference.window_ceiling, gf)
                got = outcome(window_ceiling, gf)
                refused["reference"] += want[0] == "refused"
                refused["caps"] += got[0] == "refused"
                assert got == want or want[0] == "refused"
    assert refused["reference"] > refused["caps"] > 0


@pytest.mark.parametrize("args", [
    ((circle_grid(8),), (-1.0,)),
    ((circle_grid(12),), (1.0, -1.0), 4.0, 12),
    ((interval_grid(6, 0.0, 1.0),), (2.0,), 3.0, 6),
    ((circle_grid(5), interval_grid(4, -1.0, 1.0)), (0.5, -0.25), 2.0, 8),
    ((interval_grid(4, -1.0, 1.0),), ()),
])
def test_pure_quad_genfun_is_the_old_builder_bit_for_bit(args):
    got = pure_quad_genfun(*args)
    want = foundation_reference.pure_quad_genfun(*args)
    assert got.grid == want.grid
    assert got.S.values.dtype == want.S.values.dtype
    assert got.S.values.tobytes() == want.S.values.tobytes()
    assert (got.Q, got.tau_q, got.i_q) == (want.Q, want.tau_q, want.i_q)


# ---------------------------------------------------------------------------
# the pair route on ids against the tuple reference, and the lower ends

def pair_cases(rng):
    """Stabilized circle families with one and two fiber axes, each with
    its cuts: far below and far above the values of S, every critical value
    of the graph and a level between each two."""
    for form in ((1.0,), (-1.0,), (1.0, -1.0), (2.0, 1.0)):
        f = random_circle_morse(rng, n=8)
        gf = stabilized_graph_genfun(f, form, radius=2.5,
                                     n_fiber=5 if len(form) == 2 else 8)
        vals = sorted({c["value"] for c in critical_vertices(f)})
        lo, hi = gf.S.range()
        cuts = sorted([lo - 1.0, lo - 0.5, hi + 0.5, hi + 1.0] + vals +
                      [(a + b) / 2 for a, b in zip(vals, vals[1:])])
        yield form, gf, [-INF] + cuts + [INF]


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_the_id_ranks_equal_the_tuple_reference(field):
    # the reference refused a window whose normalized ends are inverted
    # (it misses the band: one end infinite, the other beyond the band)
    # with "A must be contained in W"; the pair route answers {} there,
    # and everywhere else the two agree exactly
    kept, beyond = set(), 0
    for form, gf, cuts in pair_cases(random.Random(24)):
        cell_max = gf.S.cell_max()
        arc = BaseRegion.interval_arc(gf.grid, 3, 9)
        for a, b in itertools.combinations(cuts, 2):
            for region in (None, arc):
                want = outcome(pair_reference.gf_cohomology, gf, region,
                               a, b, field, check_regular=False)
                got = outcome(gf_cohomology, gf, region, a, b, field,
                              check_regular=False)
                if want == ("refused", "A must be contained in W"):
                    a2, b2 = normalized_window(gf, a, b)
                    assert INF in (-a, b) and not a2 < b2, (form, a, b)
                    assert got == ("ok", dict, "{}"), (form, a, b)
                    beyond += 1
                else:
                    assert got == want, (form, a, b)
            if -INF < a and b < INF:
                n = int(((a <= cell_max) & (cell_max < b)).sum())
                kept.add("empty" if n == 0 else
                         "full" if n == cell_max.size else "part")
    # W == A (no cell kept) and W the whole grid with A empty
    assert kept == {"empty", "full", "part"}
    assert beyond == 20


def gapped_complex(rng, field):
    """An IndexComplex with generators in degrees -1, 0, 2, 3 and 4 only,
    ids shuffled: unimodular pairs x -> y and lone cocycles under a random
    unimodular triangular change of basis in each degree, with the ranks it
    must have.  The columns sit in degrees -1, 2 and 3: degree 0 is cleared
    by degree -1, then the gap, then degree 3 is cleared by degree 2.  The
    integer complex is certified over Z; over F2 its even entries, zero
    there, are then dropped."""
    deg, d, known = [], {}, {}
    for k, pairs, lone in ((-1, 3, 1), (0, 0, 2), (2, 3, 1), (3, 2, 1),
                           (4, 0, 1)):
        for _ in range(pairs):
            deg.append(k)
            deg.append(k + 1)
            d[len(deg) - 2] = {len(deg) - 1: rng.choice((1, -1))}
        deg.extend([k] * lone)
        known[k] = lone
    order = list(range(len(deg)))
    rng.shuffle(order)
    d = {order[g]: {order[h]: v for h, v in cb.items()}
         for g, cb in d.items()}
    deg = [deg[order.index(i)] for i in range(len(deg))]
    # d -> S d S^-1 for S = 1 + c E_ab, a before b in one degree
    for _ in range(2 * len(deg)):
        a, b = sorted(rng.sample(range(len(deg)), 2))
        if deg[a] != deg[b]:
            continue
        c = rng.choice((1, -1))
        for col in d.values():
            if b in col:
                col[a] = col.get(a, 0) + c * col[b]
                if not col[a]:
                    del col[a]
        for h, v in d.get(a, {}).items():
            d.setdefault(b, {})[h] = d.get(b, {}).get(h, 0) - c * v
            if not d[b][h]:
                del d[b][h]
    names = [f"g{i}" for i in range(len(deg))]
    d = {names[g]: {names[h]: v for h, v in sorted(cb.items())}
         for g, cb in d.items()}
    deg = dict(zip(names, deg))
    index_complex(names, deg, d, QQ).check()
    if field is GF2:
        d = {g: {h: v for h, v in cb.items() if v & 1} for g, cb in d.items()}
    K = index_complex(names, deg, d, field)
    K.check()
    return K, names, {k: n for k, n in known.items() if n}


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_the_id_ranks_hold_across_a_gap_in_the_degrees(field):
    for seed in range(20):
        K, names, known = gapped_complex(random.Random(seed), field)
        assert sorted(set(K.deg[np.diff(K.indptr) > 0].tolist())) == \
            [-1, 2, 3]
        want = pair_reference.cohomology_ranks(K.chain_complex(names))
        # the reference lists degrees by first id, the package ascending
        assert list(K.cohomology_ranks().items()) == sorted(want.items())
        assert want == known


def test_gf_cohomology_builds_no_chain_complex(monkeypatch):
    from gfsheaf import complexes

    def refuse(*args, **kwargs):
        raise AssertionError("a tuple pair complex was built")

    monkeypatch.setattr(complexes.IndexComplex, "chain_complex", refuse)
    f = random_circle_morse(random.Random(3), n=8)
    gf = stabilized_graph_genfun(f, (1.0, -1.0), radius=4.0, n_fiber=6)
    assert gf_cohomology(gf, None, -INF, INF, QQ) == \
        gf_cohomology(graph_genfun(f), None, -INF, INF, QQ)
    with pytest.raises(AssertionError, match="tuple pair complex"):
        pair_reference.gf_cohomology(gf, None, -INF, INF, QQ)


def test_a_window_beyond_the_band_is_empty_on_every_route(monkeypatch):
    # the normalized window of the stabilized family is inverted: above the
    # band the reference refused it ("A must be contained in W"), below it
    # the reference's pair was empty; the filtered and sheaf routes of the
    # graph answer {}, and so does the pair route, without building a pair
    # complex
    from gfsheaf import genfun
    from gfsheaf.sheaves import quantize, sections, to_cellular
    f = random_circle_morse(random.Random(24), n=8)
    gf = stabilized_graph_genfun(f, (1.0,), radius=2.5, n_fiber=8)
    graph = graph_genfun(f)
    filtered = sublevel_filtration(f).barcode()
    sheaf = to_cellular(quantize(graph))
    above = [(window_ceiling(gf) + 0.5, INF), (gf.S.range()[1] + 1.0, INF)]
    windows = above + [(-INF, window_floor(gf) - 0.5)]
    for a, b in windows:
        a2, b2 = normalized_window(gf, a, b)
        assert not a2 < b2
        if (a, b) in above:
            with pytest.raises(ValueError, match="A must be contained in W"):
                pair_reference.gf_cohomology(gf, None, a, b)
        else:
            assert pair_reference.gf_cohomology(gf, None, a, b) == {}
        assert filtered.window_ranks(a, b) == {}
        assert sections(sheaf, None, a, b) == {}
        assert sections(quantize(gf), None, a, b) == {}
        for field in (GF2, QQ):
            assert gf_cohomology(gf, None, a, b, field) == {}

    def refuse(*args, **kwargs):
        raise AssertionError("a pair complex was built")

    monkeypatch.setattr(genfun, "cubical_index_complex", refuse)
    for a, b in windows:
        assert gf_cohomology(gf, None, a, b) == {}
    with pytest.raises(AssertionError, match="pair complex"):
        gf_cohomology(gf, None, -INF, INF)


def test_gf_cohomology_builds_no_cubical_set():
    f = random_circle_morse(random.Random(3), n=8)
    gf = stabilized_graph_genfun(f, (1.0, -1.0), radius=4.0, n_fiber=6)
    arc = BaseRegion.interval_arc(gf.grid, 3, 9)
    want = [pair_reference.gf_cohomology(gf, region, -INF, INF)
            for region in (None, arc)]
    assert [gf_cohomology(gf, region, -INF, INF)
            for region in (None, arc)] == want
    assert want[0] == gf_cohomology(graph_genfun(f), None, -INF, INF)


@pytest.mark.parametrize("field", [GF2, QQ], ids=str)
def test_the_pair_route_refuses_a_flipped_sign(field, monkeypatch):
    # over F2 a flipped sign leaves an even path count: only the integer
    # check sees it
    gf = stabilized_graph_genfun(random_circle_morse(random.Random(4), n=6),
                                 (1.0,), radius=2.5, n_fiber=6)
    grid = gf.grid
    table = grid.coface_table
    cell = (2, 4)                       # a vertex: cofaces on both axes
    flat = int(np.ravel_multi_index(cell, grid.cell_shape))
    sgn = table.sgn.copy()
    sgn[flat, 0] = -sgn[flat, 0]
    monkeypatch.setitem(grid.__dict__, "coface_table",
                        table._replace(sgn=sgn))
    lo, hi = gf.S.range()
    with pytest.raises(ValueError) as err:
        gf_cohomology(gf, None, lo - 1.0, hi + 1.0, field,
                      check_regular=False)
    assert str(err.value) == f"d^2 != 0 at generator {cell}"


def test_window_floor_refuses_a_fiber_too_short_for_the_band():
    # max f - r^2 = -2.22 lies above the floor -2.65 at radius 2: the
    # floor's sublevel set misses the fiber over the top of f, and the old
    # floor answered {0: 2} for the whole window
    f = random_circle_morse(random.Random(2), n=12)
    want = gf_cohomology(graph_genfun(f), None, -INF, INF)
    assert want == {0: 1, 1: 1}
    short = stabilized_graph_genfun(f, (-1.0,), radius=2.0, n_fiber=8)
    assert pair_reference.gf_cohomology(short, None, -INF, INF) == {0: 2}
    for fn in (window_floor,
               lambda gf: gf_cohomology(gf, None, -INF, INF)):
        with pytest.raises(ValueError, match="enlarge the fiber radius"):
            fn(short)
    wide = stabilized_graph_genfun(f, (-1.0,), radius=3.0, n_fiber=8)
    assert window_floor(wide) == pair_reference.window_floor(wide)
    assert gf_cohomology(wide, None, -INF, INF) == want


def test_the_floor_rule_refuses_only_wrong_answers():
    # families whose oscillation lies on either side of r^2 - 1/4 at
    # radius 2: the new floor refuses exactly those where the old floor
    # gave some (-inf, c) window ranks other than the graph's
    refused = wrong = 0
    for seed in range(3):
        f0 = random_circle_morse(random.Random(seed), n=10)
        spread = float(f0.values.max() - f0.values.min())
        for osc in (3.5, 3.7, 3.8, 4.5):
            f = f0 * (osc / spread)
            vals = sorted({c["value"] for c in critical_vertices(f)})
            cuts = [(a + b) / 2 for a, b in zip(vals, vals[1:])] + [INF]
            for form in ((-1.0,), (1.0, -1.0)):
                gf = stabilized_graph_genfun(f, form, radius=2.0, n_fiber=6)
                old = [outcome(pair_reference.gf_cohomology, gf, None,
                               -INF, c, check_regular=False)
                       for c in cuts]
                graph = [outcome(gf_cohomology, graph_genfun(f), None,
                                 -INF, c) for c in cuts]
                floor = outcome(window_floor, gf)
                # a window the old ceiling refused answers nothing
                bad = any(o != g for o, g in zip(old, graph)
                          if o[0] == "ok")
                refused += floor[0] == "refused"
                wrong += bad
                assert (floor[0] == "refused") == bad, (osc, form)
                if floor[0] == "ok":
                    assert floor == outcome(pair_reference.window_floor, gf)
    assert 0 < refused < 24 and wrong == refused
