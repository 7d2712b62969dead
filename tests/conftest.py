import numpy as np
import pytest

from thermocasimir import loops as lo
from thermocasimir import screening as scr


@pytest.fixture(scope="session")
def thermo():
    # reduced units: kB = 1, photon length = beta*hbar*c = 2
    return lo.ThermoState(beta=1.0, hbar=0.02, c=100.0)


@pytest.fixture(scope="session")
def species_pair(thermo):
    plus = lo.SpeciesParams.from_thermo("plus", +1.0, 1.0, thermo)
    minus = lo.SpeciesParams.from_thermo("minus", -1.0, 2.0, thermo)
    return plus, minus


@pytest.fixture(scope="session")
def neutral_profile(thermo, species_pair):
    plus, minus = species_pair
    rho = 1.0 / (8.0 * np.pi)        # kappa = 1 for the p=1-only plasma
    cells = (scr.SpeciesDensity(plus, 1, rho),
             scr.SpeciesDensity(minus, 1, rho))
    return scr.DensityProfile(beta=thermo.beta, cells=cells)


@pytest.fixture(scope="session")
def point_profile(thermo):
    # neutral_profile's plasma with lambda = 0: classical point charges
    rho = 1.0 / (8.0 * np.pi)
    cells = (scr.SpeciesDensity(lo.SpeciesParams("plus", +1.0, 1.0), 1, rho),
             scr.SpeciesDensity(lo.SpeciesParams("minus", -1.0, 2.0), 1, rho))
    return scr.DensityProfile(beta=thermo.beta, cells=cells)


@pytest.fixture(scope="session")
def big_thermo():
    # order-one de Broglie lengths for kernel-level probes
    return lo.ThermoState(beta=1.0, hbar=0.5, c=12.0)


@pytest.fixture(scope="session")
def probe_loops(big_thermo):
    sp1 = lo.SpeciesParams.from_thermo("p1", +1.0, 1.0, big_thermo)
    sp2 = lo.SpeciesParams.from_thermo("p2", -1.0, 0.6, big_thermo)
    l1 = lo.Loop(-0.4, sp1, 1, lo.sample_bridge(1, 48, [7, 0]))
    l2 = lo.Loop(0.6, sp2, 1, lo.sample_bridge(1, 48, [7, 1]))
    return l1, l2
