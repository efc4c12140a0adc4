#!/usr/bin/env python3
"""Estimated codirection cone of a quantization against the conified front."""

import math

from gfsheaf.fixtures import circle_function, cusp_genfun
from gfsheaf.genfun import brane_of, graph_genfun
from gfsheaf.io import write_front_svg
from gfsheaf.sheaves import conify, quantize, singular_support

f = circle_function("0.3*cos(2*pi*x)", n=16)
graph = graph_genfun(f)
ss = singular_support(quantize(graph), p_samples=7)
cone = conify(brane_of(graph))
g = f.grid.base[0]
curv = 0.3 * (2 * math.pi) ** 2
scales = (g.spacing, 0.1, 1.5 * curv * g.spacing, 1.0)
print("graph brane distance (grid cells):",
      round(ss.hausdorff(cone, scales), 2))
write_front_svg("cone_graph.svg",
                [(x, t, (), 0) for (x, t, p, tau) in cone.points if tau == 0],
                cone_points=ss.points)

gf = cusp_genfun(n_base=16, n_fiber=64)
ss2 = singular_support(quantize(gf), p_samples=9)
cone2 = conify(brane_of(gf))
g2 = gf.grid.base[0]
scales2 = (g2.spacing, 2 * gf.tau_val(), 1.5 * 5.0 * g2.spacing, 1.0)
print("cusp distance (grid cells):", round(ss2.hausdorff(cone2, scales2), 2))
write_front_svg("cone_cusp.svg",
                [(x, t, (), 0) for (x, t, p, tau) in cone2.points if tau == 0],
                cone_points=ss2.points)
