"""Anisotropic EIT on the disk: electrode-model simulation, quasi-conformal
flattening, and linearized Fourier reconstruction of the conductivity
multiplier.

A lazy namespace (PEP 562): a submodule is imported on first access to one
of its names, so ``import anisoeit`` loads neither numpy nor a submodule.
"""

import importlib

__version__ = "0.1.0"

_HOME = {name: module for module, names in {   # public name -> its module
    "mesh": ("Mesh", "ElectrodeLayout", "build_disk_mesh", "place_electrodes"),
    "forward": ("CEMSystem", "VoltageData", "DNMatrix",
                "trig_current_patterns", "assemble_cem_system",
                "solve_forward", "simulate_voltages", "dn_matrix",
                "save_voltages", "save_dn", "load_dn"),
    "beltrami": ("MuGrid", "QCMap", "BeltramiConvergenceError",
                 "beltrami_coefficient", "extend_mu", "affine_map",
                 "solve_beltrami", "pushforward_tensor", "save_qcmap"),
    "calderon": ("FhatGrid", "ReconstructedField", "cgo_traces",
                 "bilinear_form", "fhat_grid", "inverse_fourier",
                 "reconstruct_field", "save_field", "load_field", "save_fhat"),
    "phantoms": ("PhantomSpec", "constant_tensor", "sigma_profile",
                 "make_phantom", "phantom_by_name"),
    "config": ("RunConfig", "ConfigError", "load_config"),
}.items() for name in names}
_SUBMODULES = frozenset({*_HOME.values(), "atomic", "cli"})
__all__ = list(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
