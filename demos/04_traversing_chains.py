#!/usr/bin/env python3
# Interplate screening: the factorized closed form of the traversing chains.
#
# Chains of wire-kernel links that cross the gap an odd number of times resum
# into (q / 4 pi sinh q) / d times a product of single-plate border columns.
# This demo solves the coupled two-slab system exactly and watches the
# deviation from the factorized form die off like 1/d.  The plasma is
# classical: one unit-charge point species (lambda_ = 0), one basis entry per
# cell, solved by the same screened solver as the loop-resolved plasmas; the
# far slab is the near slab's basis moved across the gap.

import numpy as np

from thermocasimir.force import fit_loglog_slope
from thermocasimir.loops import SpeciesParams
from thermocasimir.screening import (DensityProfile, SpeciesDensity,
                                     assemble_kernel_matrix, build_loop_basis,
                                     coupled_two_slab_solve, factorize_phi_ab,
                                     geometric_chain_prefactor,
                                     richardson_extrapolate, source_column)

kappa, a, q = 1.0, 6.0, 1.0
nx = 300
point = SpeciesParams("point", 1.0, 1.0, 0.0)
plasma = DensityProfile(beta=1.0, cells=(
    SpeciesDensity(point, 1, kappa**2 / (4.0 * np.pi)),))
basis = build_loop_basis(plasma, a, nx, n_paths=1, n_steps=2, seed=0)

print("=== resummed chain weight: geometric series of odd crossings ===")
d0 = 100.0
partial = sum(np.exp(-2 * n * q) * q * np.exp(-q) / (2 * np.pi * d0)
              for n in range(50))
closed = geometric_chain_prefactor(q, d0)
print(f"series over 2n+1 crossings: {partial:.16e}")
print(f"closed form q/(4 pi d sinh q): {closed:.16e}")

print("\n=== single-plate border column, extrapolated to zero wavenumber ===")
cols = [assemble_kernel_matrix(basis, k).solve(source_column(basis, 0.0, k)).real
        for k in (0.2 / 2**n for n in range(6))]
phi_a0, corr = richardson_extrapolate(cols)
phi_a0 = np.real(phi_a0)
print(f"value at the inner face: {phi_a0[-1]:.6f} "
      f"(extrapolation correction {corr:.1e})")

print("\n=== coupled two-slab solve vs the factorized form ===")
phi_b0 = phi_a0[::-1]
print(f"{'d/lambda_s':>10} {'median rel deviation':>22}")
dlist = np.array([20.0, 50.0, 120.0, 250.0, 500.0])
devs = []
for d in dlist:
    phi_ab = coupled_two_slab_solve(basis, d, q / d)
    fact = factorize_phi_ab(phi_a0, phi_b0, q, d)
    sel_i, sel_j = [nx - 1, nx - 10, nx - 40], [0, 9, 39]
    devs.append(np.median([abs(phi_ab[i, j] - fact[i, j]) / abs(fact[i, j])
                           for i in sel_i for j in sel_j]))
    print(f"{d:10.0f} {devs[-1]:22.4e}")
slope, err = fit_loglog_slope(dlist, devs)
print(f"deviation decays with log-log slope {slope:.3f} +/- {err:.3f} "
      "(leading corrections are O(1/d))")
