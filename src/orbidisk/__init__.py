"""orbidisk: exact disk potentials and SYZ mirrors of toric CY orbifolds."""

from .fan import (StackyFan, BoxElement, ToricData, CompactifiedData,
                  parse_stacky_fan, kernel_data, box_elements,
                  verify_calabi_yau, verify_semi_fano,
                  validate_compactification)
from .effective import EffClass, enumerate_effective, sector, dual_class
from .series import Series, invert_map
from .hyper import hyper_factor, z_extract, relative_ifunction_oracle
from .mirrormap import (MirrorMap, g_series, toric_mirror_map,
                        relative_mirror_map, inverse_mirror_map)
from .invariants import (DiskPotential, InvariantTable, disk_potential,
                         disk_potentials, extract_invariants, oracle_potential,
                         compare_potentials)
from .syz import (GaugeChoice, MirrorPotential, solve_coefficient_system,
                  mirror_potential, emit_lg_model)

__version__ = "0.1.0"

__all__ = [
    "StackyFan", "BoxElement", "ToricData", "CompactifiedData", "EffClass",
    "Series", "MirrorMap", "DiskPotential", "InvariantTable", "GaugeChoice",
    "MirrorPotential",
    "parse_stacky_fan", "kernel_data", "box_elements", "verify_calabi_yau",
    "verify_semi_fano", "validate_compactification", "enumerate_effective",
    "sector", "dual_class", "invert_map", "hyper_factor", "z_extract",
    "relative_ifunction_oracle", "g_series", "toric_mirror_map",
    "relative_mirror_map", "inverse_mirror_map", "disk_potential",
    "disk_potentials",
    "extract_invariants", "oracle_potential", "compare_potentials",
    "solve_coefficient_system", "mirror_potential", "emit_lg_model",
]
