"""gfsheaf: exact sublevel-set persistence, generating-function cohomology,
and a cubical sheaf calculus with convolution products on N x R."""

from .complexes import (Barcode, ChainComplex, ChainMap, FilteredComplex,
                        cohomology_basis, cohomology_ranks, dual_complex,
                        is_quasi_iso, mapping_cone)
from .genfun import (GenFun, QuadForm, box_sum, brane_of, cerf_diagram,
                     gf_cohomology, graph_genfun, ominus)
from .grids import (BaseRegion, BoxGrid, Grid1D, SampledFunction, circle_grid,
                    interval_grid, relative_cochain_complex,
                    sublevel_filtration, sublevel_set)
from .linalg import GF2, QQ
from .products import (convolve, cup_product, dualize, pushforward_barcode,
                       rhom_tensor, tensor, unit, unit_morphisms)
from .rectify import (CoherentDiagram, FunPoset, RectifiedComplex,
                      index_complex_homology, check_coherence, perturb_coherent,
                      rectify_at, sheafify_limit)
from .sheaves import (ConeSet, TameSheaf, conify, microstalk, quantize,
                      sections, singular_support, to_cellular, unit_sheaf)
from .floer import pant_product, reduce_to_Z, conormal_limit_ranks

__all__ = [
    "GF2", "QQ", "Barcode", "ChainComplex", "ChainMap", "FilteredComplex",
    "cohomology_basis", "cohomology_ranks", "dual_complex", "is_quasi_iso",
    "mapping_cone", "GenFun", "QuadForm", "box_sum", "brane_of",
    "cerf_diagram", "gf_cohomology", "graph_genfun", "ominus",
    "BaseRegion", "BoxGrid", "Grid1D", "SampledFunction", "circle_grid",
    "interval_grid", "relative_cochain_complex", "sublevel_filtration",
    "sublevel_set", "convolve", "cup_product", "dualize",
    "pushforward_barcode", "rhom_tensor", "tensor", "unit", "unit_morphisms",
    "CoherentDiagram", "FunPoset", "RectifiedComplex",
    "index_complex_homology", "check_coherence", "perturb_coherent",
    "rectify_at", "sheafify_limit", "ConeSet", "TameSheaf", "conify",
    "microstalk", "quantize", "sections", "singular_support", "to_cellular",
    "unit_sheaf", "pant_product", "reduce_to_Z",
    "conormal_limit_ranks",
]
__version__ = "0.1.0"
