#!/usr/bin/env python3
"""The sum product: monoid laws, duals, and the self-pairing barcode."""

import math
import random

from gfsheaf.fixtures import random_circle_morse
from gfsheaf.genfun import graph_genfun
from gfsheaf.products import (dualize, pushforward_barcode, rhom_tensor,
                              tensor, verify_unit_composition,
                              unit_morphisms)
from gfsheaf.sheaves import quantize, sections

rng = random.Random(1)
f = random_circle_morse(rng, n=16)
g = random_circle_morse(rng, n=16)
Ff, Fg = quantize(graph_genfun(f)), quantize(graph_genfun(g))

T = tensor(Ff, Fg)            # generating-family strategy
Fsum = quantize(graph_genfun(f + g))
print("sum law at a sample window:",
      sections(T, None, -3.017, 2.013, check_regular=False),
      "==", sections(Fsum, None, -3.017, 2.013, check_regular=False))

D = dualize(Ff)
print("dual sections mirror the negated function:",
      sections(D, None, -math.inf, 0.513, check_regular=False))

bars = pushforward_barcode(rhom_tensor(Ff, Ff))
print("self-pairing pushforward bars:", bars)

um = unit_morphisms(Ff)
print("pairing resolution collar:", round(um.collar, 4))
print("unit composition certified:",
      verify_unit_composition(Ff, [um.collar + 0.37]))
