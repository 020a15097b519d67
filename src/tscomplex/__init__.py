"""Total simplicial complexes of finite simple graphs.

Build the complex of a labeled graph, compute exact simplicial homology
over the rationals or a prime field, decide Cohen-Macaulay / Buchsbaum /
CM_t properties, and enumerate minimal vertex covers and facet-ideal
decompositions.

``import tscomplex`` loads no submodule.  A public name, or a submodule
such as ``tscomplex.covers``, is imported when it is first read
(PEP 562), so a caller pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each submodule with the public names it defines.
_EXPORTS = {
    "cohen_macaulay": ("CmReport", "CmWitness", "is_cm", "is_cm_t", "vertex_links_connected"),
    "complexes": ("Face", "SimplicialComplex", "complex_dumps", "complex_loads"),
    "covers": ("CoverReport", "PrimeComponent", "facet_ideal_decomposition",
               "friendship_cover_count", "minimal_vertex_covers", "stanley_reisner_generators"),
    "graphs": ("Graph", "TotalLabeling", "default_labeling", "gen_c42", "gen_friendship",
               "graph_dumps", "graph_loads", "is_connected", "total_graph"),
    "homology": ("DEFAULT_FIELD", "BoundaryMatrix", "FieldSpec", "HomologySummary",
                 "PrimeField", "Rationals", "boundary_matrix", "homology_summary",
                 "matrix_rank", "parse_field"),
    "tsc": ("build_tsc", "c42_fixture"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        # The import binds the submodule as a global here, so this runs once.
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not cached: each read goes to the submodule, so a name rebound there
    # (by a test's monkeypatch, say) reads the same here, and is undone with it.
    return getattr(globals().get(module) or __getattr__(module), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
