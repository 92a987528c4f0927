"""Regular cubical complexes from quaternion arithmetic, with numerical
certification of spectral (Ramanujan) bounds, cohomology vanishing, and
girth bounds."""

__version__ = "0.1.0"

from .arithmetic import (GeneratorSystem, GirthResult, build_complex,
                         find_valid_level, girth, girth_bound,
                         irreducibility_report)
from .complexes import (CubicalComplex, LinkGraph, box_complex,
                        complete_graph_complex, connected_components,
                        cycle_complex, disjoint_union, export_dot,
                        graph_complex, infer_parities, link_graph, product,
                        verify_axioms, verify_parities)
from .errors import (CentralConditionError, ConfigError, ConstructionError,
                     GeneratorCountError, InvalidModulusError,
                     LevelRejectedError, RamcubeError, ResourceError,
                     VerificationError)
from .harmonics import (Harmonics, RamanujanVerdict, SpectrumReport,
                        classify_ramanujan, spectrum, spectrum_report)
from .localsystems import (LocalSystem, build_symm_system,
                           central_condition_check, external_product,
                           symm_rep, trivial_system, verify_flatness,
                           verify_unitarity)
from .quaternions import (Quaternion, ResiduePair, build_group, embed,
                          enumerate_generators, solve_residue)
