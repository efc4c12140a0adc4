"""The size table of the bundled cusp's section complex, at any grid scale.

One row per scale: the local strata (base cell, local t-cell) of the
cellular presentation, the sum of the stalk sizes and of the stalk
cohomology ranks over those strata, the generators of the complex with
every stalk generator (the test reference, local_axis_reference) and of the
complex of section_barcode on the stalks' minimal models, and the bars.

    PYTHONPATH=src:tests python tests/section_sizes.py 1 2 4 8
"""

import os
import sys

import numpy as np

import local_axis_reference as ref
from gfsheaf.cli import BUNDLED_DIR
from gfsheaf.scenarios import ScenarioContext, load_scenario
from gfsheaf.sheaves import (INF, _rank_signatures, _section_arrays,
                             quantize, to_cellular)

HEADER = ("scale", "local strata", "stalk sizes", "stalk H ranks",
          "reference generators", "minimal generators", "bars")


def bundled_cusp(scale):
    """The cellular presentation of the three-routes scenario's cusp."""
    spec = load_scenario(os.path.join(BUNDLED_DIR, "three-routes.toml"))
    gf = ScenarioContext(spec, grid_scale=scale).genfuns["cusp"]
    return to_cellular(quantize(gf), spot_checks=0)


def row(F):
    """(local strata, stalk sizes, stalk H ranks, reference generators,
    minimal generators, bars) of a cellular sheaf F."""
    cell = F
    cover = cell.local_axes.cover
    c, t = np.nonzero(cover == np.arange(cover.shape[1]))
    index, st = cell.strata
    k = index[c, (t + 1) // 2]
    size = np.append(np.diff(st.off), 0)[k]
    rank = np.array([sum(r for _, r in sig)
                     for sig in _rank_signatures(st, cell.field)] + [0])[k]
    factors = [(cell, cell.local_axes, lambda flat: flat)]
    S = _section_arrays(cell.base, factors, None, -INF, INF, cell.field,
                        [cell.minimal])
    S.check()
    bars = S.barcode(S.value, S.matching).bars
    return (len(k), int(size.sum()), int(rank.sum()),
            len(ref.section_arrays(F).deg), len(S.deg), len(bars))


def main(scales):
    print(" | ".join(HEADER))
    for scale in scales:
        print(" | ".join(f"{x:,}" if isinstance(x, int) else x
                         for x in (scale, *row(bundled_cusp(float(scale))))))


if __name__ == "__main__":
    main(sys.argv[1:] or ["1"])
