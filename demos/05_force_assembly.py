#!/usr/bin/env python3
# The universal large-separation force, assembled from the microscopic chain.
#
# The scaled-wavenumber integral q^2 e^{-q}/sinh q equals half of Apery's
# constant; multiplied by the two plate brackets (each -1 by perfect
# screening) it gives f(d) = -zeta(3)/(8 pi beta d^3) -- independent of every
# microscopic detail of the plates.  The pipeline below computes the brackets
# numerically for two different plasmas and compares against the closed form
# and the regime reference laws.

import copy

from thermocasimir.config import load_config
from thermocasimir.force import (leading_force, lifshitz_reference,
                                 zeta3_quadrature, zeta3_series_oracle)
from thermocasimir.loops import ThermoState
from thermocasimir.pipeline import run_pipeline

print("=== the force amplitude ===")
print(f"quadrature of q^2 e^-q / sinh q : {zeta3_quadrature():.15f}")
print(f"series sum 1/(2 n^3)            : {zeta3_series_oracle():.15f}")

BASE = {
    "units": "reduced",
    "thermo": {"beta": 1.0, "hbar": 0.02, "c": 100.0},
    "slabs": {"a": 6.0, "b": 6.0, "neutral": True, "species": []},
    "sweep": {"d_values": [100.0, 200.0, 400.0]},
    "seed": 5,
    "numerics": {"nx": 16, "n_paths_kernel": 4},
}
rho2 = 0.039788735772973836
rho3 = rho2 / 3.0
MIXES = {
    "two-species symmetric": [
        {"name": "plus", "charge": 1.0, "mass": 1.0, "density": rho2},
        {"name": "minus", "charge": -1.0, "mass": 1.0, "density": rho2},
    ],
    "three-species asymmetric": [
        {"name": "double", "charge": 2.0, "mass": 3.0, "density": rho3},
        {"name": "light", "charge": -1.0, "mass": 0.8, "density": rho3},
        {"name": "heavy", "charge": -1.0, "mass": 2.5, "density": rho3},
    ],
}

for tag, species in MIXES.items():
    cfg = copy.deepcopy(BASE)
    cfg["slabs"]["species"] = species
    report = run_pipeline(load_config(cfg), magnetic_check=False)["report"]
    br = report["brackets"]
    print(f"\n=== {tag} plasma ===")
    print(f"plate brackets: {br['bracket_a']:+.8f}, {br['bracket_b']:+.8f} "
          "(exact: -1)")
    print(f"{'d':>8} {'assembled':>14} {'universal law':>14} {'ratio':>10}")
    for row in report["results"]:
        print(f"{row['d']:8.0f} {row['f_assembled']:14.5e} "
              f"{row['f_leading']:14.5e} "
              f"{row['f_assembled'] / row['f_leading']:10.6f}")

print("\n=== regime reference laws at d = 200 ===")
thermo = ThermoState(beta=1.0, hbar=0.02, c=100.0)
d = 200.0
r1 = lifshitz_reference(thermo, d, "rTE1")   # alpha = 0.01: high-T/large-d
r0 = lifshitz_reference(thermo, d, "rTE0")
print(f"unit transverse-electric reflection : {r1:.5e}")
print(f"vanishing reflection                : {r0:.5e}")
print(f"ratio {r1 / r0:.1f}: the microscopic result selects the smaller value "
      f"(= universal law {leading_force(thermo, d):.5e})")
