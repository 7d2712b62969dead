import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermocasimir import force as fc
from thermocasimir import loops as lo
from thermocasimir.errors import ParameterError


def test_zeta3_quadrature_vs_series_oracle():
    quad_val = fc.zeta3_quadrature()
    series_val = fc.zeta3_series_oracle()
    assert abs(quad_val - series_val) < 1e-10
    assert series_val == pytest.approx(0.60102845157, abs=1e-11)


def test_zeta3_literal_is_twice_the_series_oracle():
    assert fc.ZETA3 == 2.0 * fc.zeta3_series_oracle() == 2.0 * fc.zeta3_quadrature()


def test_zeta3_literal_is_correctly_rounded():
    assert fc.ZETA3 == float("1.20205690315959428539973816151")


def test_zeta3_series_oracle_memory(peak_mib):
    # 10^3 terms: a few arrays of 8 KiB
    peak, value = peak_mib(fc.zeta3_series_oracle)
    assert peak <= 0.05
    assert 2.0 * value == fc.ZETA3


def test_force_integrand_regular_at_origin():
    # q^2 e^{-q} / sinh q = q (1 - q + ...): finite, tends to q
    q = np.array([1e-10, 1e-6, 1e-3])
    vals = fc._force_integrand(q)
    assert np.all(np.abs(vals / q - 1.0) < 2.0 * q + 1e-12)


def test_leading_force_reference_value():
    th = lo.ThermoState(beta=1.0)
    val = fc.leading_force(th, 10.0)
    assert val == pytest.approx(-4.7830e-5, rel=5e-4)
    assert val == -fc.ZETA3 / (8.0 * np.pi * 1000.0)


def test_leading_force_pure_cubic_scaling():
    th = lo.ThermoState(beta=0.7)
    assert fc.leading_force(th, 20.0) / fc.leading_force(th, 10.0) == 0.125


@settings(max_examples=40, deadline=None)
@given(hbar=st.floats(1e-3, 1e3), c=st.floats(1e-3, 1e3))
def test_leading_force_universality(hbar, c):
    # hbar and c never enter: bit-identical output across microscopic knobs
    d = 37.0
    ref = fc.leading_force(lo.ThermoState(beta=2.0), d)
    val = fc.leading_force(lo.ThermoState(beta=2.0, hbar=hbar, c=c), d)
    assert val == ref


def test_leading_force_parameter_errors():
    with pytest.raises(ParameterError):
        fc.leading_force(lo.ThermoState(beta=1.0), -1.0)


def test_lifshitz_high_temperature_values():
    th = lo.ThermoState(beta=2.0, hbar=0.01, c=1.0)
    d = 500.0
    r1 = fc.lifshitz_reference(th, d, "rTE1")
    r0 = fc.lifshitz_reference(th, d, "rTE0")
    assert r1 / r0 == 2.0
    assert r0 == fc.leading_force(th, d)
    assert r1 < 0.0 and r0 < 0.0


def test_lifshitz_low_temperature_values():
    th = lo.ThermoState(beta=1.0, hbar=1.0, c=100.0)   # lambda_ph = 100
    d = 1.0
    r1 = fc.lifshitz_reference(th, d, "rTE1")
    r0 = fc.lifshitz_reference(th, d, "rTE0")
    casimir = -np.pi**2 * th.hbar * th.c / 240.0
    assert r1 == casimir
    correction = r0 - r1
    assert correction == pytest.approx(fc.ZETA3 / (8.0 * np.pi), rel=1e-12)
    assert correction > 0.0          # the explicitly repulsive piece
    assert r1 < 0.0 and r0 < 0.0     # dominant term shared, both attractive


def test_lifshitz_crossover_raises():
    # the regime follows from alpha = lambda_ph / d = 1 / d here; between
    # the two limits (0.1 <= alpha <= 10) neither reference law applies
    th = lo.ThermoState(beta=1.0, hbar=1.0, c=1.0)
    for d in (0.1, 1.0, 10.0):
        with pytest.raises(ParameterError, match="crossover"):
            fc.lifshitz_reference(th, d, "rTE1")
    assert fc.lifshitz_reference(th, 1000.0, "rTE1") < 0.0
    with pytest.raises(ParameterError):
        fc.lifshitz_reference(th, 1000.0, "bogus")
    with pytest.raises(ParameterError):
        fc.lifshitz_reference(th, -1.0, "rTE1")


def test_assemble_force_unit_brackets_reproduce_universal_law():
    th = lo.ThermoState(beta=1.0, hbar=0.02, c=100.0)
    rows = fc.assemble_force(th, [150.0, 300.0], -1.0, -1.0)
    assert [row["d"] for row in rows] == [150.0, 300.0]
    for row in rows:
        assert row["f_assembled"] == pytest.approx(row["f_leading"], rel=1e-14)
        assert row["f_leading"] < 0.0


def test_assemble_force_json_keys():
    # a row holds only what depends on d; the plate brackets, residuals,
    # certification and capacitor constants are stored once per report
    th = lo.ThermoState(beta=1.0, hbar=0.02, c=100.0)
    [row] = fc.assemble_force(th, [100.0], -1.0, -1.0)
    assert set(row) == {"d", "f_leading", "f_assembled"}


def test_assemble_force_takes_the_amplitude_from_zeta3(monkeypatch):
    # the amplitude is ZETA3 / 2, not a quadrature per call
    def no_quadrature():
        raise AssertionError("assemble_force called zeta3_quadrature")

    monkeypatch.setattr(fc, "zeta3_quadrature", no_quadrature)
    th = lo.ThermoState(beta=1.0, hbar=0.02, c=100.0)
    d_values = [100.0, 200.0, 400.0]
    rows = fc.assemble_force(th, d_values, -1.0, -1.0)
    assert len(rows) == 3
    for d, row in zip(d_values, rows):
        exact = -fc.ZETA3 / (8.0 * np.pi * th.beta * d**3)
        assert abs(row["f_assembled"] - exact) <= np.spacing(abs(exact))


@pytest.mark.parametrize("d", [1e-300, 1e-105, 1e120, 1e300])
def test_assemble_force_rejects_unrepresentable_powers(d):
    # d**3 over- or underflows (at 1e-105 it is subnormal and the leading
    # force overflows)
    th = lo.ThermoState(beta=1.0, hbar=0.02, c=100.0)
    with pytest.raises(ParameterError):
        fc.assemble_force(th, [d], -1.0, -1.0)


def test_capacitor_force_neutral_and_charged():
    assert fc.capacitor_force(0.0, 0.0) == 0.0
    el = fc.capacitor_force(1.0, -1.0)
    assert el == pytest.approx(-2.0 * np.pi)
    assert el < 0.0     # attractive, separation-independent


def test_capacitor_force_magnetic_exponent_fit():
    x = np.geomspace(5.0, 50.0, 12)
    decay = {"x_values": x, "m_values": 3.0 * x**-6.0, "m_floor": 0.0}
    expo, n_points = fc.magnetic_decay_fit(decay)
    assert expo == pytest.approx(6.0, rel=1e-10) and n_points == 12
    assert expo > 4.0


def _power_table_with_noise_tail():
    # x^-6 on [5, 50], then four sign-flipping values at the rounding floor
    x = np.concatenate([np.geomspace(5.0, 50.0, 12), np.geomspace(60.0, 90.0, 4)])
    m = 3.0 * x**-6.0
    m[12:] = [1e-16, -1e-16, 1e-16, -1e-16]
    return x, m, np.full(x.size, 1e-15)


def test_capacitor_force_fits_above_floor_only():
    x, m, floor = _power_table_with_noise_tail()
    expo, n_points = fc.magnetic_decay_fit({"x_values": x, "m_values": m,
                                            "m_floor": floor})
    assert expo == pytest.approx(6.0, rel=1e-10) and n_points == 12
    # with a zero floor the noise tail enters the fit
    expo_all, _ = fc.magnetic_decay_fit({"x_values": x, "m_values": m,
                                         "m_floor": 0.0})
    assert abs(expo_all - 6.0) > 0.5


def test_magnetic_decay_fit_needs_three_points_above_floor():
    x, m, floor = _power_table_with_noise_tail()
    floor[:10] = 1.0       # only x[10], x[11] stay above the floor
    table = {"x_values": x, "m_values": m, "m_floor": floor}
    assert fc.magnetic_decay_fit(table) == (None, 2)
    floor[9] = 0.0         # three points: the fit is made again
    expo, n_points = fc.magnetic_decay_fit(table)
    assert n_points == 3 and expo == pytest.approx(6.0, rel=1e-10)


def test_fit_loglog_slope_recovers_power():
    x = np.geomspace(1.0, 100.0, 8)
    slope, err = fc.fit_loglog_slope(x, 2.0 * x**-2.5)
    assert slope == pytest.approx(-2.5, abs=1e-12)
    assert err < 1e-12
