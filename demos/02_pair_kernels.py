#!/usr/bin/env python3
# Pair interactions between charged wires, and their closed-form transforms.
#
# Two wires interact through an equal-time Coulomb kernel (the quantum
# constraint) and a magnetic current-current kernel mediated by the transverse
# field.  Averaged over the common re-anchoring orbit of the pair, the
# equal-time force reduces to the monopole force p_i p_j d/dx 1/r of point
# charges; the closed-form Fourier kernels used by the large-separation
# analysis are checked against quadrature oracles.

import numpy as np

from thermocasimir.loops import Loop, SpeciesParams, ThermoState, sample_bridge
from thermocasimir.potentials import (FormFactor, coulomb_force_full,
                                      coulomb_force_kernel,
                                      coulomb_force_kernel_oracle,
                                      coulomb_force_monopole_shifted,
                                      v_transverse_partial,
                                      v_transverse_partial_oracle,
                                      wm_pair_fourier)

thermo = ThermoState(beta=1.0, hbar=0.5, c=12.0)
sp = SpeciesParams.from_thermo("demo", charge=1.0, mass=1.0, thermo=thermo)
l1 = Loop(0.0, sp, 1, sample_bridge(1, 24, [1, 0]))

print("=== equal-time Coulomb force vs its shift-averaged monopole reduction ===")
print(f"{'p_i p_j':>7} {'offset':>7} {'equal-time':>13} {'monopole':>13} "
      f"{'difference':>11}")
for p_i, p_j in ((1, 2), (2, 3), (2, 2)):
    li = Loop(-0.5, sp, p_i, sample_bridge(p_i, 24, [1, 1]))
    lj = Loop(0.5, sp, p_j, sample_bridge(p_j, 24, [1, 2]), y=np.array([0.3, -0.2]))
    for offset in (2.0, 8.0):
        full = coulomb_force_full(li, lj, offset)
        mono = coulomb_force_monopole_shifted(li, lj, offset)
        print(f"{p_i:3d} {p_j:3d} {offset:7.1f} {full:+13.6e} {mono:+13.6e} "
              f"{full - mono:+11.1e}")
print("coprime charge numbers: the orbit covers every equal-time node pair and "
      "the two agree to rounding;\np_i = p_j = 2: it covers half of them, and the "
      "gap shrinks fast with the offset")

print("\n=== magnetic kernel with the photon occupation factor ===")
ff = FormFactor(k_cut=3.0)
l2 = Loop(0.5, sp, 1, sample_bridge(1, 24, [1, 2]))
for kmag in (0.3, 1.0, 3.0):
    kvec = np.array([kmag, 0.2, 0.0])
    wq = wm_pair_fourier(l1, l2, kvec, thermo, ff)
    wcl = wm_pair_fourier(l1, l2, kvec, thermo, ff, photon="classical")
    print(f"  |K| ~ {kmag:4.1f}:  quantum {wq:+.4e}   classical-field {wcl:+.4e}")

print("\n=== closed forms vs quadrature oracles ===")
args = (-0.8, 1.3, 1.7, 25.0)
closed = coulomb_force_kernel(*args)
oracle = coulomb_force_kernel_oracle(*args)
print(f"slab Coulomb force kernel:     closed {closed:.10f}   "
      f"Hankel oracle {oracle:.10f}")
vt_closed = v_transverse_partial(0.7, [1.3, 0.4], 1, 0)
vt_oracle = v_transverse_partial_oracle(0.7, [1.3, 0.4], 1, 0)
print(f"transverse partial transform:  closed {vt_closed:.10f}")
print(f"                               oracle {vt_oracle:.10f}")
