"""Microscopic thermal Casimir force between conducting slabs.

Loop-gas representation of mobile quantum charges in equilibrium with the
photon field: pinned Brownian paths, their pair kernels, Debye-Hueckel-type
screening in slab geometry, perfect-screening sum rules, and the universal
large-separation force assembly.

Importing the package loads numpy and the standard library only: each scipy
import sits inside the function that uses it.
"""
from .errors import (ConfigError, ContractViolationError, ParameterError,
                     SingularArgumentError, SolverError)
from .loops import (Loop, SpeciesParams, ThermoState, bridge_covariance,
                    line_integral, point_loop, sample_bridge,
                    sample_bridge_ensemble)
from .potentials import (FormFactor, coulomb_force_kernel,
                         coulomb_force_kernel_oracle, eval_Q, transverse_delta,
                         v_transverse_partial, v_transverse_partial_oracle,
                         vel_fourier, wm_pair_fourier)
from .screening import (DensityProfile, LoopBasis, SpeciesDensity,
                        build_loop_basis, check_perfect_screening,
                        factorize_phi_ab)
from .force import (ZETA3, assemble_force, capacitor_force, leading_force,
                    lifshitz_reference, zeta3_quadrature, zeta3_series_oracle)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ConfigError", "ContractViolationError", "ParameterError",
    "SingularArgumentError", "SolverError",
    # loops
    "Loop", "SpeciesParams", "ThermoState",
    "bridge_covariance", "line_integral", "point_loop",
    "sample_bridge", "sample_bridge_ensemble",
    # potentials
    "FormFactor", "coulomb_force_kernel", "coulomb_force_kernel_oracle",
    "eval_Q", "transverse_delta", "v_transverse_partial",
    "v_transverse_partial_oracle", "vel_fourier", "wm_pair_fourier",
    # screening
    "DensityProfile", "LoopBasis", "SpeciesDensity", "build_loop_basis",
    "check_perfect_screening", "factorize_phi_ab",
    # force
    "ZETA3", "assemble_force", "capacitor_force", "leading_force",
    "lifshitz_reference",
    "zeta3_quadrature", "zeta3_series_oracle",
]
