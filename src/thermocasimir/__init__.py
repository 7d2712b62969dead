"""Microscopic thermal Casimir force between conducting slabs.

Loop-gas representation of mobile quantum charges in equilibrium with the
photon field: pinned Brownian paths, their pair kernels, Debye-Hueckel-type
screening in slab geometry, perfect-screening sum rules, and the universal
large-separation force assembly.
"""
from .errors import (ConfigError, ContractViolationError, DependencyError,
                     ParameterError, SingularArgumentError, SolverError)
from .loops import (Loop, SpeciesParams, ThermoState, bridge_covariance,
                    line_integral, loop_activity, point_loop, sample_bridge,
                    sample_bridge_ensemble, shift_origin)
from .potentials import (FormFactor, coulomb_force_kernel,
                         coulomb_force_kernel_oracle, eval_Q,
                         loop_self_energy, transverse_delta,
                         v_transverse_partial, v_transverse_partial_oracle,
                         vc_pair, vel_fourier, vel_pair, wab_asymptotic,
                         wc_pair, wm_pair_fourier)
from .screening import (DensityProfile, LoopBasis, SlabGeometry,
                        SpeciesDensity, build_F_bond, build_FR_bond,
                        build_loop_basis, check_perfect_screening,
                        factorize_phi_ab, leading_ursell,
                        solve_screened_potential)
from .force import (ZETA3, ForceBreakdown, ForceRegimeParams, assemble_force,
                    capacitor_force, leading_force, lifshitz_reference,
                    zeta3_quadrature, zeta3_series_oracle)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ConfigError", "ContractViolationError", "DependencyError",
    "ParameterError", "SingularArgumentError", "SolverError",
    # loops
    "Loop", "SpeciesParams", "ThermoState",
    "bridge_covariance", "line_integral", "loop_activity", "point_loop",
    "sample_bridge", "sample_bridge_ensemble", "shift_origin",
    # potentials
    "FormFactor", "coulomb_force_kernel", "coulomb_force_kernel_oracle",
    "eval_Q", "loop_self_energy", "transverse_delta", "v_transverse_partial",
    "v_transverse_partial_oracle", "vc_pair", "vel_fourier", "vel_pair",
    "wab_asymptotic", "wc_pair", "wm_pair_fourier",
    # screening
    "DensityProfile", "LoopBasis", "SlabGeometry",
    "SpeciesDensity", "build_F_bond", "build_FR_bond", "build_loop_basis",
    "check_perfect_screening", "factorize_phi_ab", "leading_ursell",
    "solve_screened_potential",
    # force
    "ZETA3", "ForceBreakdown", "ForceRegimeParams", "assemble_force",
    "capacitor_force", "leading_force", "lifshitz_reference",
    "zeta3_quadrature", "zeta3_series_oracle",
]
