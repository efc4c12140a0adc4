"""The section-barcode assembly with every stalk generator on local t-axes,
kept as a test reference.

Before the stalks were reduced to their minimal models, section_barcode
assembled every generator of every record stalk on each local stratum
(sheaves._total_complex on cell.local_axes) and reduced that complex
through its vertical matching.  section_barcode below is that route
unchanged; its bars are the reference the minimal models must keep, bar
for bar.
"""

from gfsheaf.complexes import Barcode
from gfsheaf.sheaves import INF, _total_complex

import global_axis_reference as gref


def local_factors(F):
    """(base, factors, shift, field) of a cellular or product sheaf, each
    factor on its local axes."""
    base, factors, shift, field = gref.global_factors(F)
    return base, [(cell, cell.local_axes, project)
                  for cell, _, project in factors], shift, field


def section_arrays(F, region=None):
    """The checked complex of every stalk generator on the local axes."""
    base, factors, _, field = local_factors(F)
    return _total_complex(base, factors, region, -INF, INF, field)


def section_barcode(F, region=None):
    """The barcode of sheaves.section_barcode, from every stalk
    generator."""
    S = section_arrays(F, region)
    shift = local_factors(F)[2]
    return Barcode([(k - shift, b, x)
                    for k, b, x in S.barcode(S.value, S.matching).bars])
