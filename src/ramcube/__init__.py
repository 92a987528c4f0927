"""Regular cubical complexes from quaternion arithmetic, with numerical
certification of spectral (Ramanujan) bounds, cohomology vanishing, and
girth bounds."""

__version__ = "0.1.0"

import os

# An idle OpenBLAS worker thread busy-waits 2^N cycles before it sleeps,
# N = 28 by default (about 0.1 s), once after the library loads and again
# after every BLAS call.  No command keeps two cores busy at typical sizes,
# so that spin was a third of the CPU time of a CLI run on a 2-vCPU host
# (`import numpy` alone: 0.33 s of CPU for 0.20 s of wall time).  2^20
# cycles is under a millisecond, and large solves still use every thread.
# OpenBLAS reads the variable when it loads, so this must run before the
# first import of numpy; a value the user set is kept, and other BLAS
# builds ignore it.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

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
