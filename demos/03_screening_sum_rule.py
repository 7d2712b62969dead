#!/usr/bin/env python3
# Debye-Hueckel-type screening in a conducting slab and the perfect-screening
# sum rule.
#
# The wire-wire Coulomb kernel is chain-resummed into a screened potential by
# a structured sparse solve on (cells along the normal) x (species, charge
# number, path samples).  Fixing a test charge at the inner face, the
# charge-weighted integral of the linear bond tends to exactly -1 as the
# in-plane wavenumber goes to zero: the screening cloud carries exactly the
# opposite charge.
# This identity is what makes the asymptotic force universal.
# One solver serves both parts: a classical plasma is a basis of point charges
# (de Broglie length lambda_ = 0), one entry per cell, whose solve is checked
# against the homogeneous closed form first.

import numpy as np

from thermocasimir.loops import SpeciesParams, ThermoState
from thermocasimir.screening import (DensityProfile, SpeciesDensity,
                                     assemble_kernel_matrix, build_loop_basis,
                                     bulk_phi_analytic,
                                     check_perfect_screening, source_column)

thermo = ThermoState(beta=1.0, hbar=0.02, c=100.0)
plus = SpeciesParams.from_thermo("plus", +1.0, 1.0, thermo)
minus = SpeciesParams.from_thermo("minus", -1.0, 2.0, thermo)
rho = 1.0 / (8.0 * np.pi)                    # screening length = 1
cells = (SpeciesDensity(plus, 1, rho), SpeciesDensity(minus, 1, rho))
profile = DensityProfile(beta=1.0, cells=cells)   # one plasma, both slabs
print(f"plasma: kappa^2 = {profile.kappa2():.3f}, "
      f"net charge density: {profile.charge_density():.3g}")

print("\n=== solver sanity: wide slab against the homogeneous closed form ===")
# the same kappa^2 = 1 carried by one unit-charge point species
point = SpeciesParams("point", 1.0, 1.0, 0.0)
classical = DensityProfile(beta=1.0, cells=(
    SpeciesDensity(point, 1, 1.0 / (4.0 * np.pi)),))
span, k = 30.0, 0.7
wide = build_loop_basis(classical, span, 1200, n_paths=1, n_steps=2, seed=0)
x_src = -span / 2                                    # the middle of [-span, 0]
phi = assemble_kernel_matrix(wide, k).solve(source_column(wide, x_src, k)).real
xc = wide.x_cells
mask = np.abs(xc - x_src) < 2.0
exact = bulk_phi_analytic(xc[mask], x_src, k, 1.0)
print(f"max relative deviation in the bulk region: "
      f"{np.max(np.abs(phi[mask] - exact) / exact):.2e}")

print("\n=== perfect screening in slab geometry (full loop basis) ===")
basis = build_loop_basis(profile, 6.0, 20, n_paths=4, n_steps=16, seed=3)
print(f"basis size: {basis.size} "
      "(cells x species x charge numbers x path samples)")
k_seq = [0.2 / 2**i for i in range(6)]
res = check_perfect_screening(basis, 0.0, k_seq)   # unit charge on the inner face
print(f"{'k':>10} {'charge-weighted bracket':>26}")
for k, v in zip(k_seq, res["per_k"]):
    print(f"{k:10.5f} {v.real:+26.6f}")
print(f"extrapolated to k -> 0: {res['bracket'].real:+.10f}   (exact: -1)")
print(f"sum-rule residual: {res['residual_rel']:.2e}")
