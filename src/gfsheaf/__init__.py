"""gfsheaf: exact sublevel-set persistence, generating-function cohomology,
and a cubical sheaf calculus with convolution products on N x R.

The package namespace is lazy (PEP 562): ``import gfsheaf`` loads no
submodule, and a name of ``__all__`` is imported from its home module on
first access, then kept in the package globals.  A process that uses only
the pair route (``gfsheaf.genfun``) never compiles the sheaf modules."""

from importlib import import_module

# home module -> the names the package exports from it
_EXPORTS = {
    "linalg": ("GF2", "QQ"),
    "complexes": ("Barcode", "ChainComplex", "ChainMap", "FilteredComplex",
                  "cohomology_basis", "cohomology_ranks", "is_quasi_iso",
                  "mapping_cone"),
    "genfun": ("GenFun", "QuadForm", "box_sum", "brane_of", "cerf_diagram",
               "gf_cohomology", "graph_genfun"),
    "grids": ("BaseRegion", "BoxGrid", "Grid1D", "SampledFunction",
              "circle_grid", "interval_grid", "relative_cochain_complex",
              "sublevel_filtration", "sublevel_set"),
    "products": ("convolve", "cup_product", "dualize", "pushforward_barcode",
                 "rhom_tensor", "tensor", "unit", "unit_morphisms"),
    "rectify": ("CoherentDiagram", "FunPoset", "RectifiedComplex",
                "index_complex_homology", "check_coherence",
                "perturb_coherent", "rectify_at", "sheafify_limit"),
    "sheaves": ("ConeSet", "TameSheaf", "conify", "microstalk", "quantize",
                "sections", "singular_support", "to_cellular", "unit_sheaf"),
    "floer": ("pant_product", "reduce_to_Z", "conormal_limit_ranks"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
