"""sheafcalc: exact invariants of codimension-one distributions and rank-2
reflexive sheaves on smooth projective threefolds with Picard rank one.

Everything is computed in exact integer arithmetic; every value is
immutable and every operation is a pure function.

The package imports its modules on first use of a name (PEP 562), so that a
command-line process loads only the modules its subcommand needs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "chow": "P3 PRESETS QUADRIC QUINTIC ChernData ThreefoldData chi_at_twist "
    "dual_chern line_chern load_threefold reflexive_dual_rank2 ses_third "
    "sum_chern threefold_from_dict threefold_to_dict twist_chern",
    "cohomology": "CohomTable DimEntry bott_h generic_dist_cohom les_chase",
    "dist": "ConnReport DistributionProfile StabilityVerdict SubfoliationReport "
    "conn_components dist_chern singular_length stability_classify "
    "subfoliation_analyze",
    "errors": "EngineError",
    "modulispec": "CurveFamilyReport ModuliReport ResolutionReport SpectrumPoint "
    "curve_family ext2_dim global_gen_resolution moduli_report normalize "
    "normalize_chern pic_act spectrum_point",
    "sheafdsl": "NamedDecl SheafExpr chern_of cohom_of parse pretty",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return __all__ + [name for name in globals() if name.startswith("__")]
