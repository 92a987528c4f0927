"""Regular cubical complexes from quaternion arithmetic, with numerical certification
of spectral (Ramanujan) bounds, cohomology vanishing, and girth bounds."""

import importlib
import os

__version__ = "0.1.0"
# OpenBLAS reads this when numpy loads it (README, "Threads"); a value the user set stays.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

# The public names by module, each module imported at the first use of a name (PEP 562).
_MODULE_OF = {name: module for module, names in {
    "arithmetic": "GeneratorSystem GirthResult build_complex find_valid_level girth "
        "girth_bound irreducibility_report",
    "complexes": "CubicalComplex LinkGraph box_complex complete_graph_complex "
        "connected_components cycle_complex disjoint_union export_dot graph_complex "
        "infer_parities link_graph product verify_axioms verify_parities",
    "errors": "CentralConditionError ConfigError ConstructionError GeneratorCountError "
        "InvalidModulusError LevelRejectedError RamcubeError ResourceError VerificationError",
    "harmonics": "Harmonics RamanujanVerdict SpectrumReport classify_ramanujan spectrum "
        "spectrum_report",
    "localsystems": "LocalSystem build_symm_system central_condition_check external_product "
        "symm_rep trivial_system verify_flatness verify_unitarity",
    "quaternions": "Quaternion ResiduePair build_group embed enumerate_generators solve_residue",
}.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
