"""One contract for every presentation of a tame sheaf: a Quantization, a
CellSheaf, a ProductSheaf and a LimitSheaf each give their base grid,
breaks, support band floor (or refuse it), cellular form (or refuse it)
and sections on three windows, each equal to a pinned value; and only a
Quantization answers over Q."""

import math
import os
import random

import pytest

from gfsheaf.cli import BUNDLED_DIR
from gfsheaf.fixtures import random_circle_morse
from gfsheaf.genfun import graph_genfun
from gfsheaf.grids import BaseRegion
from gfsheaf.linalg import QQ
from gfsheaf.products import convolve, tensor
from gfsheaf.rectify import LimitSheaf, sheafify_limit
from gfsheaf.scenarios import ScenarioContext, load_scenario
from gfsheaf.sheaves import (CellSheaf, ProductSheaf, Quantization,
                             TameSheaf, quantize, sections, to_cellular,
                             unit_sheaf)

INF = math.inf
WINDOWS = [(-INF, INF), (-0.5, 0.5), (0.1, INF)]


def _sheaves():
    spec = load_scenario(os.path.join(BUNDLED_DIR, "three-routes.toml"))
    cusp = quantize(ScenarioContext(spec, grid_scale=1).genfuns["cusp"])
    rng = random.Random(35)
    f, g = random_circle_morse(rng, n=8), random_circle_morse(rng, n=8)
    graph, other = quantize(graph_genfun(f)), quantize(graph_genfun(g))
    arc = BaseRegion.interval_arc(f.grid, 2, 5)
    return {
        "cusp": cusp,
        "graph": graph,
        "to-cellular": to_cellular(graph, spot_checks=0),
        "unit": unit_sheaf(f.grid, arc, 0.25),
        "diagonal": tensor(graph, other, strategy="cell"),
        "external": convolve(graph, other, strategy="cell"),
        "limit": sheafify_limit(f, ks=(1, 2, 3)),
    }


SHEAVES = _sheaves()

# name -> (class, base cell shape, (count, first, last) of the breaks, band
# floor or the refusal's words, (breaks, shift, record slots) of the
# cellular form or the refusal's words, ranks on WINDOWS)
PINNED = {
    "cusp": (Quantization, (21,), (10, -0.6666666666666665, 8.7),
             -0.8372451511161365, (10, 1, 1627), [{0: 1}, {0: 1}, {0: 1}]),
    "graph": (Quantization, (16,),
              (8, -1.0155440861493774, 1.153273229581183),
              -1.1405440862935365, (8, 0, 16),
              [{0: 1, 1: 1}, {}, {1: 2}]),
    "to-cellular": (CellSheaf, (16,),
                    (8, -1.0155440861493774, 1.153273229581183),
                    -1.2655440861493774, (8, 0, 16),
                    [{0: 1, 1: 1}, {}, {1: 2}]),
    "unit": (CellSheaf, (16,), (1, 0.25, 0.25), 0.0, (1, 0, 5),
             [{0: 1}, {0: 1}, {0: 1}]),
    "diagonal": (ProductSheaf, (16,),
                 (64, -2.249760806601471, 2.4634476969521257),
                 -2.4997608069094017, (12, 0, 16),
                 [{0: 1, 1: 1}, {0: 1, 1: 1}, {1: 2}]),
    "external": (ProductSheaf, (16, 16),
                 (64, -2.249760806601471, 2.4634476969521257),
                 -2.4997608069094017,
                 "nested external products are not materialized",
                 [{0: 1, 1: 2, 2: 1}, {1: 2}, {1: 1, 2: 1}]),
    "limit": (LimitSheaf, (16,), (8, -1.015544086, 1.15327323),
              r"LimitSheaf\(sheafify_limit\) has no support band",
              r"LimitSheaf\(sheafify_limit\) has no cellular form",
              [{0: 1, 1: 1}, {}, {1: 2}]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_every_presentation_keeps_the_contract(name):
    F = SHEAVES[name]
    cls, shape, breaks, band, cellular, ranks = PINNED[name]
    assert type(F) is cls and isinstance(F, TameSheaf)
    assert F.base_grid.base_cell_shape == shape
    got = F.breaks()
    assert (len(got), got[0], got[-1]) == pytest.approx(breaks, rel=1e-12)
    if isinstance(band, str):
        with pytest.raises(ValueError, match=band):
            F.band_floor()
    else:
        assert F.band_floor() == pytest.approx(band, rel=1e-12, abs=1e-12)
    if isinstance(cellular, str):
        with pytest.raises(ValueError, match=cellular):
            F.cellular
    else:
        C = F.cellular
        assert isinstance(C, CellSheaf) and F.cellular is C
        assert (C.taxis.m, C.shift, len(C.strata[1].lab)) == cellular
    assert [sections(F, None, a, b, check_regular=False)
            for a, b in WINDOWS] == ranks


@pytest.mark.parametrize("name", sorted(PINNED))
def test_only_a_quantization_answers_over_q(name):
    F = SHEAVES[name]
    if isinstance(F, Quantization):
        assert sections(F, None, -INF, INF, field=QQ, check_regular=False) \
            == PINNED[name][-1][0]
    else:
        with pytest.raises(ValueError,
                           match=rf"{type(F).__name__}\(.*\) is F2-only"):
            sections(F, None, -INF, INF, field=QQ, check_regular=False)
