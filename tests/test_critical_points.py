"""The vectorised critical-point stencil against the per-vertex loops it
replaced.

critical_vertices and GenFun's fiber-critical table are one numpy stencil
(grids.critical_stencil).  The reference functions below are the loops they
replaced, kept verbatim: one Python pass per vertex for critical_vertices and
one per base vertex, on a fresh fiber grid, for the fiber-critical table.  The
records must agree under repr, so the scalar types (Python or numpy) must
agree as well as the values.
"""

import itertools
import random

import numpy as np
import pytest

from gfsheaf import genfun, grids
from gfsheaf.fixtures import (circle_function, cusp_genfun,
                              random_circle_morse, stabilized_graph_genfun,
                              torus_function)
from gfsheaf.genfun import (FiberCriticalPoint, GenFun, QuadForm, box_sum,
                            brane_of, cerf_diagram, graph_genfun, negate,
                            stacked_sum, window_ceiling, window_floor)
from gfsheaf.grids import (BoxGrid, SampledFunction, circle_grid,
                           critical_vertices, interval_grid)
from gfsheaf.sheaves import quantize, singular_support


def reference_critical_vertices(f):
    """Discrete critical vertices by sign-change stencils of the gradient.

    A vertex is critical when on every axis the forward and backward
    differences change sign; exact plateaus contribute their left edge.
    Returns a list of dicts with keys: vertex, value, index, degenerate,
    gradient.
    """
    grid = f.grid
    vals = f.values
    scale = max(1.0, float(np.abs(vals).max()))
    ez = 1e-12 * scale
    out = []
    shape = grid.vertex_shape
    for v in itertools.product(*(range(s) for s in shape)):
        crit = True
        grads = []
        for i, g in enumerate(grid.axes):
            h = g.spacing
            nv = shape[i]

            def at(j):
                idx = list(v)
                if g.topology == "circle":
                    idx[i] = j % nv
                else:
                    idx[i] = min(max(j, 0), nv - 1)
                return vals[tuple(idx)]

            if g.topology == "interval" and (v[i] == 0 or v[i] == nv - 1):
                crit = False  # boundary vertices are never interior criticals
                break
            fwd = (at(v[i] + 1) - at(v[i])) / h
            bwd = (at(v[i]) - at(v[i] - 1)) / h
            grads.append((fwd + bwd) / 2)
            sign_change = fwd * bwd < 0 and abs(fwd) > ez and abs(bwd) > ez
            plateau_edge = abs(fwd) <= ez and abs(bwd) > ez
            if not (sign_change or plateau_edge):
                crit = False
                break
        if not crit:
            continue
        # sampled Hessian, central differences
        k = len(shape)
        H = np.zeros((k, k))
        for i in range(k):
            gi = grid.axes[i]
            hi = gi.spacing

            def atv(delta):
                idx = list(v)
                ok = True
                for ax, dd in enumerate(delta):
                    g2 = grid.axes[ax]
                    j = idx[ax] + dd
                    if g2.topology == "circle":
                        j %= shape[ax]
                    elif not (0 <= j < shape[ax]):
                        ok = False
                        j = min(max(j, 0), shape[ax] - 1)
                    idx[ax] = j
                return vals[tuple(idx)] if ok else None

            d0 = [0] * k
            d0[i] = 1
            dm = [0] * k
            dm[i] = -1
            a, b, c = atv(d0), atv([0] * k), atv(dm)
            H[i, i] = (a - 2 * b + c) / hi ** 2
            for j in range(i + 1, k):
                hj = grid.axes[j].spacing
                dpp = [0] * k
                dpp[i] = 1
                dpp[j] = 1
                dpm = [0] * k
                dpm[i] = 1
                dpm[j] = -1
                dmp = [0] * k
                dmp[i] = -1
                dmp[j] = 1
                dmm = [0] * k
                dmm[i] = -1
                dmm[j] = -1
                H[i, j] = H[j, i] = (
                    atv(dpp) - atv(dpm) - atv(dmp) + atv(dmm)) / (4 * hi * hj)
        eigs = np.linalg.eigvalsh(H)
        tol = 1e-8 * max(1.0, float(np.abs(eigs).max()))
        degenerate = bool(np.any(np.abs(eigs) <= tol))
        index = int(np.sum(eigs < -tol))
        out.append({
            "vertex": v,
            "value": float(vals[v]),
            "index": index,
            "degenerate": degenerate,
            "gradient": tuple(float(x) for x in grads),
        })
    out.sort(key=lambda r: r["value"])
    return out


def reference_fiber_critical_data(gf, base_vertex):
    """All discrete fiber-critical points over one base vertex, by value."""
    base_vertex = tuple(base_vertex)
    x = tuple(g.origin + g.spacing * j
              for g, j in zip(gf.grid.base, base_vertex))
    if gf.k == 0:
        val = float(gf.S.values[base_vertex])
        out = [FiberCriticalPoint(
            x, (), (), val, 0,
            reference_base_derivative(gf, base_vertex, ()))]
        return out
    fib_grid = BoxGrid(gf.grid.fiber, ())
    fib_vals = gf.S.values[base_vertex]
    fib_fun = SampledFunction(fib_grid, fib_vals)
    out = []
    for rec in reference_critical_vertices(fib_fun):
        v = rec["vertex"]
        xi = tuple(g.origin + g.spacing * j
                   for g, j in zip(gf.grid.fiber, v))
        out.append(FiberCriticalPoint(
            x, v, xi, rec["value"], rec["index"],
            reference_base_derivative(gf, base_vertex, v), rec["degenerate"],
            reference_value_resolution(gf, fib_vals, v)))
    out.sort(key=lambda c: c.value)
    return out


def reference_value_resolution(gf, fib_vals, v):
    """Newton-style estimate of the critical-value sampling error."""
    est = 0.0
    for ax, g in enumerate(gf.grid.fiber):
        h = g.spacing
        j = v[ax]

        def at(dj):
            idx = list(v)
            idx[ax] = min(max(j + dj, 0), g.n_vertices - 1)
            return fib_vals[tuple(idx)]

        grad_c = (at(1) - at(-1)) / (2 * h)
        hess = (at(1) - 2 * at(0) + at(-1)) / h ** 2
        if abs(hess) > 1e-9:
            est += grad_c ** 2 / (2 * abs(hess))
        else:
            est += abs(grad_c) * h
    return 2 * est + 1e-9


def reference_base_derivative(gf, base_vertex, fiber_vertex):
    vals = gf.S.values
    p = []
    for i, g in enumerate(gf.grid.base):
        nv = g.n_vertices

        def at(j):
            idx = list(base_vertex) + list(fiber_vertex)
            idx[i] = j % nv if g.topology == "circle" else j
            return vals[tuple(idx)]

        j0 = base_vertex[i]
        if g.topology == "interval" and j0 == 0:
            der = (at(1) - at(0)) / g.spacing
        elif g.topology == "interval" and j0 == nv - 1:
            der = (at(j0) - at(j0 - 1)) / g.spacing
        else:
            der = (at(j0 + 1) - at(j0 - 1)) / (2 * g.spacing)
        p.append(float(der))
    return tuple(p)


def _interval(expr, n=32):
    return SampledFunction.from_expr(BoxGrid((interval_grid(n, 0.0, 1.0),)),
                                     expr)


def _morse(n, seed=0):
    return random_circle_morse(random.Random(seed), n=n)


def _rounded(f, decimals):
    return SampledFunction(f.grid, np.round(f.values, decimals))


def _tied_torus():
    """Three critical values shared by 144 critical vertices."""
    return _rounded(torus_function("cos(12*pi*x) + cos(12*pi*y)", 24, 24), 12)


FUNCTIONS = {
    "circle": lambda: circle_function("sin(2*pi*x) + 0.3*cos(6*pi*x)", 64),
    "interval": lambda: _interval("sin(7*x) + x"),
    "interval-monotone": lambda: _interval("x"),
    "torus": lambda: torus_function(
        "cos(2*pi*x) + 0.5*cos(2*pi*y) + 0.2*sin(2*pi*(x + y))", 16, 12),
    **{f"morse-{n}": (lambda n=n: _morse(n, seed=n)) for n in
       (8, 12, 16, 24, 32, 48, 64)},
    "plateaus": lambda: _rounded(_morse(64, seed=3), 1),
    "constant": lambda: SampledFunction(BoxGrid((circle_grid(16),)),
                                        np.zeros(16)),
    "repeated-values": _tied_torus,
}


@pytest.mark.parametrize("name", FUNCTIONS)
def test_critical_vertices_match_the_loop(name):
    f = FUNCTIONS[name]()
    assert list(map(repr, critical_vertices(f))) == \
        list(map(repr, reference_critical_vertices(f)))


def test_the_tie_inputs_have_ties():
    assert critical_vertices(FUNCTIONS["constant"]()) == []
    tied = critical_vertices(_tied_torus())
    assert len(tied) == 144 and len({r["value"] for r in tied}) == 3
    plateaus = _rounded(_morse(64, seed=3), 1)
    assert len(set(plateaus.values.tolist())) < 30
    tied = _tied_fibers().critical_table[(0,)]
    assert len(tied) == 121 and len({cp.value for cp in tied}) == 3


def _stabilized(coeffs, seed=1, n_fiber=16):
    return stabilized_graph_genfun(_morse(24, seed), coeffs=coeffs,
                                   n_fiber=n_fiber)


def _two_slices():
    """Five base vertices over a fiber of spacing 1.  Slice 2 is small, the
    others reach 9e6.  On slice 2 the fiber step 1 - (1 + 5e-9) is a real
    change at that slice's tolerance (5e-12), so vertex 2 is a sign change;
    at a tolerance of the whole array (9e-6) it would be a plateau, making
    vertex 1 its left edge instead."""
    grid = BoxGrid((interval_grid(4, 0.0, 1.0),), (interval_grid(6, 0, 6),))
    j = np.arange(7.0)
    vals = np.tile(1e6 * (j - 3) ** 2, (5, 1))
    vals[2] = [3.0, 1.0 + 5e-9, 1.0, 2.0, 3.0, 4.0, 5.0]
    return GenFun(SampledFunction(grid, vals), QuadForm.diagonal(1.0),
                  check_collar=False)


def _tied_fibers():
    """Many critical points of equal value over each base vertex."""
    fiber = interval_grid(24, -1.0, 1.0)
    grid = BoxGrid((circle_grid(4),), (fiber, fiber))
    xi = fiber.vertex_coords()
    vals = np.cos(6 * np.pi * xi)[:, None] + np.cos(6 * np.pi * xi)[None, :]
    vals = np.broadcast_to(np.round(vals, 12), grid.vertex_shape).copy()
    return GenFun(SampledFunction(grid, vals), QuadForm.diagonal(1.0, -1.0),
                  check_collar=False)


def _off_grid_criticals():
    """Fiber critical points off the grid, with central gradients far from
    zero: under x * x in place of C pow, two of their val_tol change."""
    grid = BoxGrid((circle_grid(16),), (interval_grid(64, -2.0, 2.0),))
    x = grid.base[0].vertex_coords()[:, None]
    xi = grid.fiber[0].vertex_coords()[None, :]
    return GenFun(SampledFunction(grid, np.cos(7 * xi + 2 * np.pi * x + 0.26)),
                  QuadForm.diagonal(1.0), check_collar=False)


def _rounded_cusp():
    gf = cusp_genfun(n_base=32, n_fiber=64)
    return GenFun(_rounded(gf.S, 2), gf.Q, check_collar=False)


GENFUNS = {
    **{f"cusp-scale-{s}": (lambda s=s: cusp_genfun(n_base=32 * s,
                                                   n_fiber=64 * s))
       for s in (1, 2, 4)},
    "stabilized+": lambda: _stabilized((1.0,)),
    "stabilized-": lambda: _stabilized((-1.0,), seed=2),
    "stabilized+-": lambda: _stabilized((1.0, -1.0), seed=3, n_fiber=8),
    "ominus": lambda: stacked_sum(_stabilized((1.0,)), _stabilized((-1.0,)),
                                  -1.0, shared_base=True),
    "box-sum": lambda: box_sum(_stabilized((1.0,)), _stabilized((1.0,), 4)),
    "negate": lambda: negate(cusp_genfun(n_base=16, n_fiber=32)),
    "graph-circle": lambda: graph_genfun(_morse(32, seed=5)),
    "graph-interval": lambda: graph_genfun(_interval("sin(7*x) + x")),
    "graph-torus": lambda: graph_genfun(FUNCTIONS["torus"]()),
    "two-slices": _two_slices,
    "tied-fibers": _tied_fibers,
    "rounded-cusp": _rounded_cusp,
    "off-grid-criticals": _off_grid_criticals,
}


@pytest.mark.parametrize("name", GENFUNS)
def test_fiber_critical_table_matches_the_loop(name):
    gf = GENFUNS[name]()
    base = list(itertools.product(*(range(g.n_vertices)
                                    for g in gf.grid.base)))
    assert list(gf.critical_table) == base
    for bv in base:
        assert list(map(repr, gf.critical_table[bv])) == \
            list(map(repr, reference_fiber_critical_data(gf, bv))), bv


def test_the_tolerance_is_per_slice():
    gf = _two_slices()
    assert [cp.xi_vertex for cp in gf.critical_table[(2,)]] == [(2,)]


def test_one_stencil_per_genfun(monkeypatch):
    calls = []
    stencil = grids.critical_stencil

    def counted(*args):
        calls.append(args)
        return stencil(*args)

    monkeypatch.setattr(grids, "critical_stencil", counted)
    monkeypatch.setattr(genfun, "critical_stencil", counted)
    gf = cusp_genfun(n_base=32, n_fiber=64)
    cerf_diagram(gf)
    window_floor(gf)
    window_ceiling(gf)
    brane_of(gf)
    singular_support(quantize(gf))
    assert len(calls) == 1
