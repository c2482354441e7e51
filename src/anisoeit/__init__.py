"""Anisotropic EIT on the disk: electrode-model simulation, quasi-conformal
flattening, and linearized Fourier reconstruction of the conductivity
multiplier."""

from .mesh import (Mesh, ElectrodeLayout, build_disk_mesh, place_electrodes,
                   save_mesh, load_mesh)
from .forward import (CurrentPatternSet, CEMSystem, VoltageData, DNMatrix,
                      trig_current_patterns, assemble_cem_system,
                      solve_forward, simulate_voltages, dn_matrix,
                      save_voltages, save_dn, load_dn)
from .beltrami import (MuGrid, QCMap, BeltramiConvergenceError,
                       beltrami_coefficient, extend_mu, hilbert_transform,
                       cauchy_transform, solve_beltrami, evaluate_map,
                       pushforward_tensor, save_qcmap, load_qcmap)
from .calderon import (FhatGrid, ReconstructedField,
                       cgo_traces, bilinear_form, fhat_grid,
                       inverse_fourier, reconstruct_scalar, assemble_tensor,
                       reconstruct_field, save_field, load_field,
                       save_fhat, load_fhat)
from .phantoms import (PhantomSpec, constant_tensor, sigma_profile, a0_catalog,
                       make_phantom, phantom_by_name, analytic_disk_dn)
from .config import RunConfig, ConfigError, load_config, save_config

__version__ = "0.1.0"
