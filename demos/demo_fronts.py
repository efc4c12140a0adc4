#!/usr/bin/env python3
"""A generating family with a cusp front: strands, windows, and the shift.

The bundled fixture completes the local cubic model to a genuine
quadratic-at-infinity profile; its front has two strands meeting the cusp
plus one far strand created by the completion.
"""

from gfsheaf.fixtures import cusp_front, cusp_genfun
from gfsheaf.genfun import cerf_diagram, gf_cohomology
from gfsheaf.grids import BaseRegion
from gfsheaf.io import write_csv, write_front_svg

gf = cusp_genfun(n_base=32, n_fiber=64)
print("fiber dimension:", gf.k, " index at infinity:", gf.i_q)

diagram = cerf_diagram(gf)
print("strand samples:", len(diagram.strands),
      " breakpoints:", len(diagram.breakpoints))
write_csv("cusp_cerf.csv", diagram.to_csv_rows())
write_front_svg("cusp_front.svg", diagram.strands)

# fiber-critical data over x = 1: values near +-2/3 with indices 0 and 1
cps = gf.critical_table[(gf.grid.base[0].n_vertices - 1,)]
for cp in cps:
    print(f"  strand at t={cp.value:+.4f} index={cp.index} p={cp.p[0]:+.3f}")

# a window catching the upper strand over a small arc near x = 1
hi = gf.grid.base[0].n_cells - 1
region = BaseRegion.interval_arc(gf.grid, hi - 4, hi)
print("window (0.55, 0.73) near x=1:",
      gf_cohomology(gf, region, 0.55, 0.73))
print("window (0.10, 0.20) between the strands:",
      gf_cohomology(gf, region, 0.10, 0.20))
print("front at x=1:", cusp_front(1.0))
