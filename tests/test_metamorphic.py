"""Metamorphic relations: transformations of the input whose effect on the
output is known exactly, checked bit for bit.

Length scaling: multiplying hbar, the slab widths and the separations by s
and the densities by 1/s^2 multiplies every length (de Broglie, screening,
photon) by s and leaves every dimensionless quantity alone.  With s a power
of two every product and quotient of the chain scales without rounding, so
every report value is checked bit for bit: the plate brackets, the
hierarchy ratios, the screening record and the grid-doubling record are
identical, except the brackets' slope at k = 0, a length, which scales as
s; kappa scales as 1/s, the separations as s and the forces as 1/s^3; the
capacitor block (the magnetic probe off: it does not read the
configuration), the seed, the units and the certification are identical.
Only config_hash differs, as it hashes the scaled document.

Charge conjugation: charges enter the screened solve only squared, so
flipping every sign gives the same solution.

Species split and species order: a point species at density rho is two
copies at rho / 2, and the order of the species is a labelling, so neither
moves the bordered k = 0 solve beyond rounding (checked to 1e-13 relative,
not bit for bit: the sums run over other entries in another order).  A
species written as two halves under two names, or a species of density 0
added, leaves kappa and the length hierarchy identical.

hbar -> 0: the bridges are drawn by the seed and scale with lambda, so the
gap Re mu(hbar) - Re mu of the lambda = 0 twin (every species a point
charge) is a deterministic function of hbar.  Where no pair straddles a
cell face it is O(hbar^2) to three digits; where many do, the straddling
sums keep it positive and the halving ratio between 2.8 and 4.1.
"""
import copy
import dataclasses

import numpy as np
import pytest

from thermocasimir import loops as lo
from thermocasimir import screening as scr
from thermocasimir.config import load_config
from thermocasimir.pipeline import run_pipeline
from test_acceptance import THREE_SPECIES, TWO_SPECIES

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
    assert "b" in base["screening"]                    # both plates solved
    for slab in base["screening"].values():
        slab["bracket_slope"] = {part: s * v for part, v in slab["bracket_slope"].items()}
    same = ("brackets", "hierarchy", "screening", "convergence", "capacitor",
            "seed", "units", "certified_all")
    assert set(base) == set(scaled) == {*same, "kappa", "results", "config_hash"}
    for key in same:
        assert scaled[key] == base[key], key
    assert scaled["config_hash"] != base["config_hash"]
    assert scaled["kappa"] * s == base["kappa"]
    for row, base_row in zip(scaled["results"], base["results"], strict=True):
        assert set(row) == set(base_row) == {"d", "f_leading", "f_assembled"}
        assert row["d"] == s * base_row["d"]
        for key in ("f_leading", "f_assembled"):
            assert row[key] * s**3 == base_row[key], key


@pytest.mark.parametrize("d", [None, 3.0])    # one slab, and two slabs 3 apart
def test_charge_conjugation_is_exact_on_point_basis(point_profile, d):
    conjugate = scr.DensityProfile(point_profile.beta, tuple(
        scr.SpeciesDensity(lo.SpeciesParams(c.species.name, -c.species.charge,
                                            c.species.mass, c.species.lambda_),
                           c.p, c.loop_density)
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


def _halved(raw, name):
    """raw with its species `name` written as two halves, name_a and name_b."""
    out = copy.deepcopy(raw)
    species = out["slabs"]["species"]
    i = [sp["name"] for sp in species].index(name)
    species[i:i + 1] = [{**species[i], "name": f"{name}_{tag}",
                         "density": 0.5 * species[i]["density"]} for tag in "ab"]
    return out


def _with_ghost(raw):
    """raw with one more species of density 0, of its own charge and mass."""
    out = copy.deepcopy(raw)
    out["slabs"]["species"].append({"name": "ghost", "charge": 1.0, "mass": 50.0,
                                    "density": 0.0})
    return out


def test_species_split_leaves_the_hierarchy_alone():
    # two halves of one species are the same charge and mass, and a species of
    # density 0 is no medium, so neither kappa nor the mean mass of the length
    # hierarchy moves
    base, split, ghost = (
        run_pipeline(load_config(cfg), magnetic_check=False)["report"]
        for cfg in (copy.deepcopy(THREE_SPECIES), _halved(THREE_SPECIES, "light"),
                    _with_ghost(THREE_SPECIES)))
    for other in (split, ghost):
        assert other["kappa"] == base["kappa"]
        assert other["hierarchy"] == base["hierarchy"]


def _loop_bases_and_twin_mu(raw, hbars, nx):
    """raw's loop basis at each hbar (seed 2024, 6 paths, nx cells) and Re mu
    of the bordered k = 0 solve of its lambda = 0 twin, which no hbar moves."""
    bases = []
    for hbar in hbars:
        cfg = copy.deepcopy(raw)
        cfg["thermo"]["hbar"] = hbar
        config = load_config(cfg)
        bases.append(scr.build_loop_basis(config.profile, config.a, nx, 6,
                                          config.numerics["n_steps_kernel"], 2024))
    twin = dataclasses.replace(config.profile, cells=tuple(
        dataclasses.replace(c, species=dataclasses.replace(c.species, lambda_=0.0))
        for c in config.profile.cells))
    return bases, _re_mu(scr.build_loop_basis(twin, config.a, nx, 6,
                                              config.numerics["n_steps_kernel"], 2024))


def _re_mu(basis):
    return scr.perfect_screening_k0(basis, 0.0)["mu"].real


@pytest.mark.parametrize("raw", [TWO_SPECIES, THREE_SPECIES], ids=["two", "three"])
def test_hbar_to_zero_gap_is_quadratic_without_straddling_pairs(raw):
    bases, mu_point = _loop_bases_and_twin_mu(raw, (0.04, 0.02, 0.01), 24)
    gap = [_re_mu(b) - mu_point for b in bases]
    for coarse, fine in zip(gap, gap[1:]):
        assert coarse / fine == pytest.approx(4.0, abs=0.02)


def test_hbar_to_zero_gap_stays_positive_with_straddling_pairs(monkeypatch):
    bases, mu_point = _loop_bases_and_twin_mu(TWO_SPECIES, (0.08, 0.04, 0.02), 96)
    assert all(b.plan.straddling.size > 0 for b in bases)
    gap = [_re_mu(b) - mu_point for b in bases]
    assert all(g > 0.0 for g in gap)
    for coarse, fine in zip(gap, gap[1:]):
        assert 2.8 <= coarse / fine <= 4.1
    # without its straddling sums the loop basis falls below its twin
    monkeypatch.setattr(scr, "_straddling_k0",
                        lambda plan, basis: np.zeros(plan.straddling.size))
    assert all(_re_mu(b) - mu_point < 0.0 for b in bases)
