import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermocasimir import loops as lo
from thermocasimir.errors import ParameterError
from thermocasimir.pipeline import _BRIDGE_BLOCK, bridge_statistics


def test_bridge_pinning_exact():
    path = lo.sample_bridge(2, 16, 123)
    assert path.shape == (33, 3)
    assert np.all(path[0] == 0.0)
    assert np.all(path[-1] == 0.0)


@settings(max_examples=30, deadline=None)
@given(p=st.integers(1, 4), n_steps=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_bridge_pinning_property(p, n_steps, seed):
    path = lo.sample_bridge(p, n_steps, seed)
    assert path.shape == (p * n_steps + 1, 3)
    assert np.all(path[0] == 0.0) and np.all(path[-1] == 0.0)


def test_bridge_covariance_midpoint():
    # E[X(1/2)^2] = 1/4 for p = 1
    n = 100_000
    paths = lo.sample_bridge_ensemble(1, 16, 2024, n)
    prod = paths[:, 8, 0] ** 2
    se = prod.std(ddof=1) / np.sqrt(n)
    assert abs(prod.mean() - 0.25) < 3.0 * se


def test_bridge_covariance_off_diagonal():
    # E[X(1/4) X(3/4)] = 1/4 - 3/16 = 1/16 = 0.0625
    n = 100_000
    paths = lo.sample_bridge_ensemble(1, 16, 77, n)
    prod = paths[:, 4, 0] * paths[:, 12, 0]
    se = prod.std(ddof=1) / np.sqrt(n)
    assert lo.bridge_covariance(1, 0.25, 0.75) == 0.0625
    assert abs(prod.mean() - 0.0625) < 3.0 * se


def test_bridge_covariance_scales_with_p():
    # covariance min(s,s') - s s'/p at s = s' = p/2 equals p/4
    n = 60_000
    paths = lo.sample_bridge_ensemble(3, 8, 5, n)
    mid = 12  # s = 1.5 on the 24-interval grid
    prod = paths[:, mid, 1] ** 2
    se = prod.std(ddof=1) / np.sqrt(n)
    assert abs(prod.mean() - 0.75) < 3.0 * se


def test_sampler_determinism():
    a = lo.sample_bridge(2, 32, [9, 4])
    b = lo.sample_bridge(2, 32, [9, 4])
    assert np.array_equal(a, b)
    assert np.array_equal(a, lo.sample_bridge_ensemble(2, 32, [9, 4], 1)[0])


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("blocks", [(1, -1), (1, 0), (1, 1), (2, 3)],
                         ids=["block-1", "block", "block+1", "2block+3"])
def test_streamed_ensemble_is_the_one_shot_draw(p, blocks, pinned_reference):
    # the ensemble is drawn and pinned in blocks of whole paths; the Generator
    # stream does not depend on the blocks, so every path is bit for bit that
    # of one draw of all increments, pinned at once
    n = 16 * p
    block, extra = blocks
    count = block * (lo._CHUNK // (3 * n)) + extra
    dw = np.random.default_rng(5).normal(0.0, np.sqrt(p / n), (count, n, 3))
    reference = pinned_reference(dw)
    assert np.array_equal(lo.sample_bridge_ensemble(p, 16, 5, count), reference)


def test_ensemble_calls_on_one_generator_continue_its_stream():
    # a Generator seed is used as it is, so calls of 3 and 5 paths on one
    # Generator draw the paths of one call of 8
    gen = np.random.default_rng([4, 2])
    parts = [lo.sample_bridge_ensemble(2, 16, gen, count) for count in (3, 5)]
    assert np.array_equal(np.concatenate(parts),
                          lo.sample_bridge_ensemble(2, 16, [4, 2], 8))


def _one_draw_bridge_statistics(n_samples, ensemble_seed, pair_seed):
    """bridge_statistics from one draw of all n_samples bridges."""
    paths = lo.sample_bridge_ensemble(1, 16, ensemble_seed, n_samples)
    rng = np.random.default_rng(pair_seed)
    z = []
    for _ in range(10):
        i, j = sorted(rng.integers(1, 16, size=2))
        prod = paths[:, i, 0] * paths[:, j, 0]
        target = lo.bridge_covariance(1, i / 16.0, j / 16.0)
        z.append(abs(prod.mean() - target) / (prod.std(ddof=1) / np.sqrt(n_samples)))
    ito = lo.line_integral(paths[0], lambda s, x: np.array([1.0, -2.0, 0.5]))
    return float(np.max(z)), ito


@pytest.mark.parametrize("ensemble_seed", [11, [5, 101]])
def test_bridge_statistics_stream_is_the_one_draw(ensemble_seed):
    # drawn in blocks of _BRIDGE_BLOCK bridges, keeping only the products the
    # z-scores read: bit for bit the statistic of one draw, also when the
    # last block is partial
    n_samples = 2 * _BRIDGE_BLOCK + 37
    assert bridge_statistics(n_samples, ensemble_seed, [3, 102]) == \
        _one_draw_bridge_statistics(n_samples, ensemble_seed, [3, 102])


def test_ensemble_memory_is_the_output_plus_one_block(peak_mib):
    # 100,000 bridges (38.9 MiB): the draws and the drift product of one
    # block come on top, not four arrays of the output's size
    peak, paths = peak_mib(lambda: lo.sample_bridge_ensemble(1, 16, 2024, 100_000))
    assert paths.shape == (100_000, 17, 3)
    assert peak <= paths.nbytes / 2**20 + 4.0


def test_sampler_parameter_errors():
    with pytest.raises(ParameterError):
        lo.sample_bridge(0, 16, 1)
    with pytest.raises(ParameterError):
        lo.sample_bridge(1, 1, 1)
    for count in (-1, 2.5, 2.0, "3", None):
        with pytest.raises(ParameterError):
            lo.sample_bridge_ensemble(1, 16, 1, count)
    assert lo.sample_bridge_ensemble(1, 16, 1, 0).shape == (0, 17, 3)
    assert lo.sample_bridge_ensemble(2, 4, 1, np.int64(2)).shape == (2, 9, 3)


def test_line_integral_constant_is_exactly_zero():
    path = lo.sample_bridge(1, 64, 31)
    val = lo.line_integral(path, lambda s, x: np.array([1.0, 0.0, 0.0]))
    assert val == 0.0
    val3 = lo.line_integral(path, lambda s, x: np.array([0.3, -1.2, 2.0]))
    assert val3 == 0.0


def test_line_integral_zero_wavevector_phase():
    path = lo.sample_bridge(1, 32, 8)
    lam = 0.7
    val = lo.line_integral(
        path, lambda s, x: np.exp(1j * (x @ np.zeros(3)) * lam)[:, None]
        * np.array([1.0, 0.0, 0.0]))
    assert val == 0.0


def test_line_integral_phase_is_the_complex_midpoint_sum():
    # a phase with k != 0: the summation by parts returns the complex
    # midpoint sum sum_k g(X_mid) . (X_{k+1} - X_k)
    path = lo.sample_bridge(1, 32, 8)
    kvec = np.array([0.9, -0.4, 0.3])

    def phase(s, x):
        return np.exp(1j * (x @ kvec))[:, None] * np.array([1.0, 0.5, 0.0])

    val = lo.line_integral(path, phase)
    direct = np.sum(phase(None, 0.5 * (path[:-1] + path[1:])) * np.diff(path, axis=0))
    assert isinstance(val, complex) and val.imag != 0.0
    assert val == pytest.approx(direct, rel=1e-12)


def test_line_integral_linear_integrand_averages_to_zero():
    # odd functional of a symmetric process
    n = 4000
    paths = lo.sample_bridge_ensemble(1, 16, 13, n)
    vals = [lo.line_integral(p, lambda s, x: x) for p in paths]
    vals = np.array(vals)
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean()) < 4.0 * se + 1e-12


def test_line_integral_requires_closed_path():
    path = lo.sample_bridge(1, 8, 3).copy()
    path[-1, 0] = 0.1
    with pytest.raises(ParameterError):
        lo.line_integral(path, lambda s, x: x)


def test_thermo_and_species_invariants(thermo):
    assert thermo.lambda_ph == pytest.approx(thermo.beta * thermo.hbar * thermo.c)
    with pytest.raises(ParameterError):
        lo.ThermoState(beta=-1.0, hbar=1.0, c=1.0)
    with pytest.raises(TypeError):      # hbar and c have no default
        lo.ThermoState(beta=1.0)
    with pytest.raises(ParameterError):
        lo.SpeciesParams("x", 1.0, 0.0, 0.0)
    with pytest.raises(TypeError):      # lambda_ has no default
        lo.SpeciesParams("x", 1.0, 1.0)
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 2.0, thermo)
    assert sp.lambda_ == pytest.approx(thermo.hbar * np.sqrt(thermo.beta / 2.0),
                                       rel=1e-15)
