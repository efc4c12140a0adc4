#!/usr/bin/env python3
"""Quantization of a graph brane: sections, microstalks, and the cellular
presentation cross-checked against the generating-family route."""

import math

from gfsheaf.fixtures import circle_function
from gfsheaf.genfun import graph_genfun
from gfsheaf.grids import BaseRegion
from gfsheaf.sheaves import microstalk, quantize, sections, to_cellular

f = circle_function("0.4*cos(2*pi*x)", n=32)
F = quantize(graph_genfun(f))

print("sections over the whole circle up to 1.0:",
      sections(F, None, -math.inf, 1.0))
# ranks near -oo (up to the support band's floor) and near +oo
minus = sections(F, None, -math.inf, F.band_floor(), check_regular=False)
plus = sections(F, None, -math.inf, math.inf, check_regular=False)
print("behavior at -oo / +oo:", (minus, plus))

cell = (8,)
x = f.grid.base[0].cell_coord(8)
t = 0.4 * math.cos(2 * math.pi * x)
print(f"microstalk at the front point (x={x:.3f}, t={t:.3f}):",
      microstalk(F, cell, t, eps=0.01))
print("microstalk just above the front:",
      microstalk(F, cell, t + 0.1, eps=0.01))

# the stratified presentation recomputes the same ranks cell by cell
C = to_cellular(F)  # spot-checks itself on random boxes
arc = BaseRegion.interval_arc(f.grid, 3, 13)
for (a, b) in [(-0.513, 0.017), (0.017, 1.013)]:
    print(f"window [{a}, {b}) over an arc:",
          sections(F, arc, a, b, check_regular=False),
          "==", sections(C, arc, a, b))
