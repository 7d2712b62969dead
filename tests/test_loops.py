import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermocasimir import loops as lo
from thermocasimir.errors import ContractViolationError, ParameterError


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


def test_sampler_parameter_errors():
    with pytest.raises(ParameterError):
        lo.sample_bridge(0, 16, 1)
    with pytest.raises(ParameterError):
        lo.sample_bridge(1, 1, 1)


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
    with pytest.raises(ContractViolationError):
        lo.line_integral(path, lambda s, x: x)


def test_loop_activity_reference_value(thermo):
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 1.0, thermo, spin=0.5, mu=0.0)
    loop = lo.point_loop(0.0, sp, n_steps=4)
    z = lo.loop_activity(loop, self_energy=0.0, beta=thermo.beta)
    expected = 2.0 / (2.0 * np.pi * sp.lambda_**2) ** 1.5
    assert z == pytest.approx(expected, rel=1e-14)


def test_loop_activity_fermion_sign(thermo):
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 1.0, thermo, eta=-1)
    loop2 = lo.Loop(0.0, sp, 2, lo.sample_bridge(2, 8, 1))
    assert lo.loop_activity(loop2, 0.0, thermo.beta) < 0.0


@settings(max_examples=25, deadline=None)
@given(delta=st.floats(0.1, 5.0))
def test_loop_activity_self_energy_factor(delta):
    thermo = lo.ThermoState(beta=1.3)
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 1.0, thermo)
    loop = lo.point_loop(0.0, sp, n_steps=4)
    z0 = lo.loop_activity(loop, 1.0, thermo.beta)
    z1 = lo.loop_activity(loop, 1.0 + delta, thermo.beta)
    assert z1 / z0 == pytest.approx(np.exp(-0.5 * thermo.beta * delta), rel=1e-12)


def test_shift_origin_identity_and_periodicity(thermo):
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 1.0, thermo)
    loop = lo.Loop(0.4, sp, 2, lo.sample_bridge(2, 8, 17))
    same = lo.shift_origin(loop, 0.0)
    assert same.x == loop.x and np.array_equal(same.path, loop.path)
    wrapped = lo.shift_origin(loop, 2.0)
    assert wrapped.x == loop.x
    assert np.allclose(wrapped.path, loop.path, atol=1e-15)


def test_shift_origin_preserves_spatial_points(thermo):
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 1.0, thermo)
    loop = lo.Loop(-0.7, sp, 2, lo.sample_bridge(2, 8, 23), y=np.array([0.2, -0.1]))
    shifted = lo.shift_origin(loop, 0.75)
    pts0 = np.sort(loop.spatial_nodes(), axis=0)
    pts1 = np.sort(shifted.spatial_nodes(), axis=0)
    assert np.allclose(pts0, pts1, atol=1e-12)


def test_shift_origin_off_grid_rejected(thermo):
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 1.0, thermo)
    loop = lo.Loop(0.0, sp, 1, lo.sample_bridge(1, 8, 2))
    with pytest.raises(ParameterError):
        lo.shift_origin(loop, 0.1234567)


def test_shift_invariance_of_activity(thermo):
    # self-energy recomputed on the shifted loop leaves the activity unchanged
    from thermocasimir.potentials import loop_self_energy
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 1.0, thermo)
    loop = lo.Loop(0.0, sp, 3, lo.sample_bridge(3, 16, 4))
    z0 = lo.loop_activity(loop, sp.charge**2 * loop_self_energy(loop), thermo.beta)
    for u in (0.25, 1.0, 1.5, 2.75):
        shifted = lo.shift_origin(loop, u)
        z = lo.loop_activity(shifted, sp.charge**2 * loop_self_energy(shifted),
                             thermo.beta)
        assert z == pytest.approx(z0, rel=1e-10)


def test_thermo_and_species_invariants(thermo):
    assert thermo.lambda_ph == pytest.approx(thermo.beta * thermo.hbar * thermo.c)
    with pytest.raises(ParameterError):
        lo.ThermoState(beta=-1.0)
    with pytest.raises(ParameterError):
        lo.SpeciesParams("x", 1.0, 1.0, eta=2)
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 2.0, thermo)
    assert sp.lambda_ == pytest.approx(thermo.hbar * np.sqrt(thermo.beta / 2.0),
                                       rel=1e-15)
