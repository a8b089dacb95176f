"""orbidisk: exact disk potentials and SYZ mirrors of toric CY orbifolds.

Each layer module is registered here through importlib's LazyLoader and
runs the first time one of its attributes is read, so a process compiles
only the layers its command uses.  The names in __all__ are served from
their layers on first access (PEP 562).  On Python 3.11 the LazyLoader takes
no lock, so two threads must not be the first to touch one layer at once.
"""
import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

_LAYERS = {
    "linalg": (),
    "fan": ("StackyFan", "BoxElement", "ToricData", "CompactifiedData",
            "parse_stacky_fan", "kernel_data", "box_elements",
            "verify_semi_fano", "validate_compactification"),
    "effective": ("EffClass", "enumerate_effective", "sector"),
    "series": ("Series", "invert_map"),
    "hyper": ("z_extract", "relative_ifunction_oracle"),
    "mirrormap": ("MirrorMap", "g_series", "toric_mirror_map",
                  "relative_mirror_map", "inverse_mirror_map"),
    "invariants": ("DiskPotential", "InvariantTable", "disk_potential",
                   "disk_potentials", "extract_invariants", "oracle_potential",
                   "compare_potentials"),
    "syz": ("MirrorPotential", "solve_coefficient_system", "mirror_potential",
            "emit_lg_model"),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_HOME)


def _register(layer):
    spec = find_spec(f"{__name__}.{layer}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _LAYERS:
    globals()[_layer] = _register(_layer)


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
