"""Metamorphic relations: transformations of the input whose effect on the
output is known exactly, checked bit for bit.

Length scaling: multiplying hbar, the slab widths and the separations by s
and the densities by 1/s^2 multiplies every length (de Broglie, screening,
photon) by s and leaves every dimensionless quantity alone.  With s a power
of two every product and quotient of the chain scales without rounding, so
the plate brackets, the hierarchy ratios, the screening record and the
grid-doubling record are bit-identical, except the brackets' slope at k = 0,
a length, which scales as s; kappa scales as 1/s and the force as 1/s^3.  The magnetic capacitor block is left out: it comes from a fixed probe
that does not read the configuration.

Charge conjugation: charges enter the screened solve only squared, so
flipping every sign gives the same solution.

Species split and species order: a point species at density rho is two
copies at rho / 2, and the order of the species is a labelling, so neither
moves the bordered k = 0 solve beyond rounding (checked to 1e-13 relative,
not bit for bit: the sums run over other entries in another order).
"""
import copy

import numpy as np
import pytest

from thermocasimir import loops as lo
from thermocasimir import screening as scr
from thermocasimir.config import load_config
from thermocasimir.pipeline import run_pipeline

CONFIG = {
    "units": "reduced",
    "thermo": {"beta": 1.0, "hbar": 0.02, "c": 100.0},
    "slabs": {
        "a": 6.0, "b": 5.0, "neutral": True,
        "species": [
            {"name": "plus", "charge": 1.0, "mass": 1.0,
             "density": 0.039788735772973836, "p_weights": [0.8, 0.2]},
            {"name": "minus", "charge": -1.0, "mass": 2.0,
             "density": 0.039788735772973836},
        ],
    },
    "sweep": {"d_values": [50.0, 100.0, 200.0]},
    "seed": 5,
    "numerics": {"nx": 8, "n_paths_kernel": 2, "n_steps_kernel": 8},
}


def _scaled(cfg, s):
    out = copy.deepcopy(cfg)
    out["thermo"]["hbar"] *= s
    out["slabs"]["a"] *= s
    out["slabs"]["b"] *= s
    for sp in out["slabs"]["species"]:
        sp["density"] /= s * s
    out["sweep"]["d_values"] = [d * s for d in out["sweep"]["d_values"]]
    return out


def test_length_scaling_is_exact():
    s = 4.0
    base, scaled = (run_pipeline(load_config(cfg), magnetic_check=False)["report"]
                    for cfg in (copy.deepcopy(CONFIG), _scaled(CONFIG, s)))
    assert not base["brackets"]["mirror_reused"]      # both plates solved
    for slab in base["screening"].values():
        slab["bracket_slope"] = {part: s * v for part, v in slab["bracket_slope"].items()}
    for block in ("brackets", "hierarchy", "screening", "convergence"):
        assert scaled[block] == base[block], block
    assert scaled["kappa"] * s == base["kappa"]
    assert [r["f_assembled"] * s**3 for r in scaled["results"]] == [
        r["f_assembled"] for r in base["results"]]


@pytest.mark.parametrize("d", [None, 3.0])    # one slab, and two slabs 3 apart
def test_charge_conjugation_is_exact_on_point_basis(point_profile, d):
    conjugate = scr.DensityProfile(point_profile.beta, tuple(
        scr.SpeciesDensity(lo.SpeciesParams(c.species.name, -c.species.charge,
                                            c.species.mass), c.p, c.loop_density)
        for c in point_profile.cells))
    bases = [scr.build_loop_basis(prof, 4.0, 12, n_paths=1, n_steps=2, seed=0)
             for prof in (point_profile, conjugate)]
    assert np.array_equal(bases[0].charge, -bases[1].charge)
    if d is None:
        for solve in (lambda b: scr.check_perfect_screening(b, 0.0, [0.2, 0.1, 0.05]),
                      lambda b: scr.perfect_screening_k0(b, 0.0)):
            first, second = (solve(b) for b in bases)
            assert first.keys() == second.keys()
            assert all(np.array_equal(first[key], second[key]) for key in first)
    else:
        phis = [scr.coupled_two_slab_solve(b, d, 0.3) for b in bases]
        assert np.array_equal(phis[0], phis[1])


def _split_first(cells):
    first = cells[0]
    half = scr.SpeciesDensity(first.species, first.p, 0.5 * first.loop_density)
    return (half, half) + tuple(cells[1:])


@pytest.mark.parametrize("change", [_split_first, lambda cells: cells[::-1]],
                         ids=["split", "swap"])
def test_species_split_and_order_leave_the_k0_solve_alone(point_profile, change):
    # the entries of a cell change in number or order, so phi is compared as
    # each cell's screening charge, the matrix-weighted sum of its entries
    changed = scr.DensityProfile(point_profile.beta, change(point_profile.cells))
    bases = [scr.build_loop_basis(prof, 4.0, 12, n_paths=1, n_steps=2, seed=0)
             for prof in (point_profile, changed)]
    assert bases[0].size != bases[1].size or not np.array_equal(bases[0].charge,
                                                                bases[1].charge)
    results = [scr.perfect_screening_k0(b, 0.0) for b in bases]
    per_cell = [np.bincount(b.cell, weights=b.matrix_weight * res["phi"])
                for b, res in zip(bases, results)]
    assert np.max(np.abs(per_cell[1] - per_cell[0])) <= 1e-13 * np.max(np.abs(per_cell[0]))
    for key in ("mu", "bracket"):
        assert abs(results[1][key] - results[0][key]) <= 1e-13 * abs(results[0][key]), key
