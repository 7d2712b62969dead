import tracemalloc

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
    cells = (scr.SpeciesDensity(lo.SpeciesParams("plus", +1.0, 1.0, 0.0), 1, rho),
             scr.SpeciesDensity(lo.SpeciesParams("minus", -1.0, 2.0, 0.0), 1, rho))
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


@pytest.fixture
def peak_mib():
    """peak_mib(fn) -> (peak MiB that fn() allocates over its start, its value),
    traced by tracemalloc, which numpy reports its array buffers to."""
    def measure(fn):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            value = fn()
            return (tracemalloc.get_traced_memory()[1] - start) / 2**20, value
        finally:
            if not tracing:
                tracemalloc.stop()
    return measure


@pytest.fixture(scope="session")
def pinned_reference():
    """The pinning as one out-of-place expression over all paths at once: the
    walks of the increments dw (count, N, 3) minus their drift (k/N) W_N."""
    def pin(dw):
        count, n = dw.shape[:2]
        w = np.concatenate([np.zeros((count, 1, 3)), np.cumsum(dw, axis=1)], axis=1)
        return w - (np.arange(n + 1) / n)[None, :, None] * w[:, -1:, :]
    return pin
