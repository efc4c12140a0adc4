#!/usr/bin/env python3
"""Sublevel-set persistence on sampled circles and tori.

Builds the filtered cochain complex of a sampled function, reads off its
barcode, and checks a window against a directly computed relative pair.
"""

from gfsheaf.fixtures import circle_function, torus_function
from gfsheaf.grids import (relative_cochain_complex, sublevel_filtration,
                           sublevel_set)
from gfsheaf.complexes import cohomology_ranks
from gfsheaf.io import write_barcode_svg, write_csv

f = circle_function("cos(2*pi*x)", n=256)
bc = sublevel_filtration(f).barcode()
print("barcode of cos on the circle:", bc.bars)

write_csv("persistence_circle.csv", bc.to_csv_rows())
write_barcode_svg("persistence_circle.svg", bc.bars)

# a window straddling only the maximum value
print("window [0.31, 1.27):", bc.window_ranks(0.31, 1.27))

# the same window as a relative pair of cubical sublevel sets (cell masks)
W = sublevel_set(f, 1.27)
A = sublevel_set(f, 0.31)
pair = cohomology_ranks(relative_cochain_complex(f.grid, W, A))
print("relative pair route:", pair)

ft = torus_function("0.8*cos(2*pi*x) + 0.5*sin(2*pi*y)", n1=24, n2=24)
bct = sublevel_filtration(ft).barcode()
print("torus essential ranks:", bct.essential_ranks())
