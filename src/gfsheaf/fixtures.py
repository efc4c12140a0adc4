"""Bundled test instances: the cusp front, pure quadratics, stabilized graphs,
and seeded random Morse functions used across the demo scripts and the
verification suite.
"""

from __future__ import annotations

import numpy as np

from .genfun import GenFun, QuadForm
from .grids import BoxGrid, SampledFunction, circle_grid, interval_grid


def smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return 3 * s ** 2 - 2 * s ** 3


def cusp_genfun(n_base=48, n_fiber=64, x_lo=0.1, x_hi=1.0, radius=8.0,
                blend=(3.0, 4.0)):
    """Swallowtail-free cusp front S = -xi^3/3 + x*xi, completed to a genuine
    quadratic-at-infinity profile Q = -xi^2 by a collar blend.

    The completion necessarily adds one far strand (a fiber maximum) at
    t ~ 9.9 - 3.1 x, far above the cusp band |t| <= (2/3) x^(3/2); callers
    must keep windows below it.
    """
    base = interval_grid(n_base, x_lo, x_hi)
    fiber = interval_grid(n_fiber, -radius, radius)
    grid = BoxGrid((base,), (fiber,))
    x = base.vertex_coords()[:, None]
    xi = fiber.vertex_coords()[None, :]
    core = -xi ** 3 / 3 + x * xi
    quad = -xi ** 2
    b0, b1 = blend
    w = 1.0 - smoothstep((np.abs(xi) - b0) / (b1 - b0))
    vals = w * core + (1.0 - w) * quad
    vals = np.broadcast_to(vals, grid.vertex_shape).copy()
    return GenFun(SampledFunction(grid, vals), QuadForm.diagonal(-1.0))


def cusp_front(x):
    """The two cusp strand values at base point x."""
    c = (2.0 / 3.0) * x ** 1.5
    return -c, c


def pure_quad_genfun(base_axes, coeffs, radius=4.0, n_fiber=32):
    """S(x, xi) = Q(xi) with Q diagonal, the stabilized graph of the zero
    function on the base; the zero-brane quantization input."""
    base = BoxGrid(tuple(base_axes))
    zero = SampledFunction(base, np.zeros(base.vertex_shape))
    return stabilized_graph_genfun(zero, coeffs, radius, n_fiber)


def stabilized_graph_genfun(f: SampledFunction, coeffs=(1.0,), radius=4.0,
                            n_fiber=32):
    """S(x, xi) = f(x) + Q(xi): the graph brane with auxiliary fiber variables."""
    fibers = tuple(interval_grid(n_fiber, -radius, radius) for _ in coeffs)
    grid = BoxGrid(f.grid.base, fibers)
    mesh = np.meshgrid(*(g.vertex_coords() for g in grid.axes), indexing="ij")
    nb = len(f.grid.base)
    vals = f.values.reshape(f.values.shape + (1,) * len(coeffs))
    vals = np.broadcast_to(vals, grid.vertex_shape).copy()
    for c, m in zip(coeffs, mesh[nb:]):
        vals = vals + c * m ** 2
    return GenFun(SampledFunction(grid, vals), QuadForm.diagonal(*coeffs))


def circle_function(expr, n=64, length=1.0):
    grid = BoxGrid((circle_grid(n, length),))
    return SampledFunction.from_expr(grid, expr)


def torus_function(expr, n1=16, n2=16):
    grid = BoxGrid((circle_grid(n1), circle_grid(n2)))
    return SampledFunction.from_expr(grid, expr)


def smoothed_clamp(region, depth=2.0, ramp_cells=4):
    """0 over the closed region, -depth outside, smoothstep ramp in between.

    The per-cell value spread is bounded by depth / ramp_cells, so windows
    clearing that margin see the conormal limit exactly.
    """
    grid = region.grid
    if len(grid.base) != 1:
        raise ValueError("smoothed clamps implemented for 1-d bases")
    g = grid.base[0]
    inside = region.membership[::2]   # the vertex cells of the closed region
    dist = np.full(g.n_vertices, np.inf)
    dist[inside] = 0.0
    for _ in range(g.n_vertices):
        if g.topology == "circle":
            neighbor = np.minimum(np.roll(dist, 1), np.roll(dist, -1)) + 1
        else:
            neighbor = np.full_like(dist, np.inf)
            neighbor[1:] = np.minimum(neighbor[1:], dist[:-1] + 1)
            neighbor[:-1] = np.minimum(neighbor[:-1], dist[1:] + 1)
        dist = np.minimum(dist, neighbor)
    vals = -depth * smoothstep(dist / ramp_cells)
    return SampledFunction(grid, vals)


def random_circle_morse(rng, n=32, terms=2, amp=1.0):
    """Seeded random trigonometric polynomial on the circle (Morse for
    generic draws; resampled until the critical data is nondegenerate)."""
    from .grids import critical_vertices
    grid = BoxGrid((circle_grid(n),))
    x = grid.base[0].vertex_coords()
    for _ in range(64):
        vals = np.zeros_like(x)
        for k in range(1, terms + 1):
            vals = vals + rng.uniform(-amp, amp) * np.cos(2 * np.pi * k * x)
            vals = vals + rng.uniform(-amp, amp) * np.sin(2 * np.pi * k * x)
        f = SampledFunction(grid, vals)
        crits = critical_vertices(f)
        values = [c["value"] for c in crits]
        if crits and not any(c["degenerate"] for c in crits):
            gaps = np.diff(sorted(values))
            if len(values) < 2 or gaps.min() > 4.0 / n:
                return f
    raise RuntimeError("failed to draw a Morse function; widen parameters")


def graph_pair(rng, n=32):
    f = random_circle_morse(rng, n)
    g = random_circle_morse(rng, n)
    return f, g
