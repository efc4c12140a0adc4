#!/usr/bin/env python3
"""Homotopy-coherent diagrams, their rectification, and the limit sheaf."""

import random

from gfsheaf.complexes import is_quasi_iso
from gfsheaf.fixtures import random_circle_morse
from gfsheaf.genfun import graph_genfun
from gfsheaf.rectify import (index_complex_homology, check_coherence, e2_page,
                             perturb_coherent, rectify_at, sheafify_limit,
                             strict_synthetic_diagram)
from gfsheaf.sheaves import quantize, sections

rng = random.Random(7)
diagram = strict_synthetic_diagram(rng, n_functions=3, max_gens=10)
print("strict diagram coherent:", check_coherence(diagram)[0])

perturbed = perturb_coherent(diagram, seed=3, density=0.3)
higher = sum(1 for c, m in perturbed.maps.items() if len(c) >= 3 and m)
print("perturbed diagram coherent:", check_coherence(perturbed)[0],
      "with", higher, "nonzero higher homotopies")

R, inc = rectify_at(perturbed, 0)
print("rectified ranks:", R.cohomology_ranks(),
      " inclusion is a quasi-isomorphism:", is_quasi_iso(inc))
print("two-step page:", e2_page(diagram, 0))

print("index-complex pattern for m=3:", index_complex_homology(3))

# the conormal limit recomputes the quantization through the machinery
target = random_circle_morse(rng, n=8)
Sh = sheafify_limit(target, ks=(1, 2, 3))
F = quantize(graph_genfun(target))
lo, hi = target.range()
win = (lo - 0.4, (lo + hi) / 2 + 0.0123)
print("limit route:", sections(Sh, None, *win), "  direct route:",
      sections(F, None, *win, check_regular=False))
