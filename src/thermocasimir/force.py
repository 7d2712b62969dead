"""Force assembly, the universal large-separation amplitude, capacitor terms,
and the regime reference formulas."""
from __future__ import annotations

import numpy as np

from ._quadrature import gauss_panels
from .errors import ParameterError
from .loops import ThermoState

__all__ = [
    "zeta3_quadrature",
    "zeta3_series_oracle",
    "ZETA3",
    "leading_force",
    "lifshitz_reference",
    "assemble_force",
    "capacitor_force",
    "magnetic_decay_fit",
    "fit_loglog_slope",
]


def _force_integrand(q):
    """q^2 e^{-q} / sinh(q), continued by its q -> 0 limit (the integrand is
    ~ q there, no singularity)."""
    q = np.asarray(q, dtype=float)
    out = np.empty_like(q)
    small = q < 1e-8
    out[small] = q[small]
    qs = q[~small]
    out[~small] = qs * qs * np.exp(-qs) / np.sinh(qs)
    return out if out.ndim else float(out)


def zeta3_quadrature() -> float:
    """Gauss-Legendre quadrature of int_0^inf q^2 e^{-q} / sinh(q) dq on 20
    panels of [0, 40], 16 nodes each.

    The tail beyond q = 40 is bounded by int_40^inf 2 q^2 e^{-2q} dq < 1e-31;
    the nearest poles of the integrand, q = +-i pi, are far enough from each
    panel that the rule is exact to rounding.  The value equals half of
    Apery's constant.
    """
    return float(gauss_panels(_force_integrand, np.linspace(0.0, 40.0, 21)).sum())


def zeta3_series_oracle() -> float:
    """Independent series value: sum_{n>=1} 1/(2 n^3), the first N = 10^3 terms
    summed ascending from the tail, plus the Euler-Maclaurin remainder
    1/(4 N^2) - 1/(4 N^3) + 1/(8 N^4) (the next term, 1/(24 N^6), is 4e-20)."""
    n_terms = 1000
    n = np.arange(n_terms, 0, -1, dtype=float)
    partial = float(np.sum(0.5 / n**3))
    tail = 0.25 / n_terms**2 - 0.25 / n_terms**3 + 0.125 / n_terms**4
    return partial + tail


ZETA3 = 1.2020569031595942          # Apery's constant rounded, = 2 * zeta3_series_oracle()


def _finite_nonzero(value: float, what: str) -> float:
    if not 0.0 < abs(value) < np.inf:
        raise ParameterError(f"{what} is {value!r}, not a finite nonzero double")
    return value


def _power(d: float, n: int) -> float:
    """d**n, or ParameterError when it is not a finite nonzero double."""
    try:
        dn = d**n
    except OverflowError:
        dn = np.inf
    return _finite_nonzero(dn, f"d**{n} at d = {d!r}")


def leading_force(thermo: ThermoState, d: float) -> float:
    """Universal large-separation force per unit area: -zeta(3)/(8 pi beta d^3).

    Depends on the inverse temperature and the separation only; every species
    parameter and both hbar and c drop out.
    """
    if thermo.beta <= 0.0 or d <= 0.0:
        raise ParameterError("beta and d must be positive")
    return _finite_nonzero(-ZETA3 / (8.0 * np.pi * thermo.beta * _power(d, 3)),
                           f"the leading force at d = {d!r}")


_ALPHA_HIGH, _ALPHA_LOW = 10.0, 0.1


def _regime(alpha: float) -> str:
    """Regime of alpha = photon thermal length / separation."""
    if alpha > _ALPHA_HIGH:
        return "low-T/small-d"
    if alpha < _ALPHA_LOW:
        return "high-T/large-d"
    return "crossover"


def lifshitz_reference(thermo: ThermoState, d: float, mode: str) -> float:
    """Reference force laws of the fluctuation theory for the two limiting
    regimes, keyed by whether the zero-frequency transverse-electric
    reflection is unity ("rTE1") or vanishes ("rTE0").  The regime is that of
    alpha = lambda_ph / d (_regime); in the crossover ParameterError.

    low-T/small-d:  -pi^2 hbar c / 240 d^4  (minus leading_force for rTE0)
    high-T/large-d: twice leading_force (rTE1) or leading_force (rTE0).
    """
    if mode not in ("rTE1", "rTE0"):
        raise ParameterError("mode must be 'rTE1' or 'rTE0'")
    if not d > 0.0:
        raise ParameterError("d must be positive")
    alpha = thermo.lambda_ph / d
    regime = _regime(alpha)
    if regime == "crossover":
        raise ParameterError(f"alpha = {alpha:.3g} lies in the crossover")
    if regime == "high-T/large-d":
        force = (2.0 if mode == "rTE1" else 1.0) * leading_force(thermo, d)
    else:
        force = -np.pi**2 * thermo.hbar * thermo.c / (240.0 * _power(d, 4))
        if mode == "rTE0":
            force = force - leading_force(thermo, d)
    return _finite_nonzero(force, f"the {mode} {regime} force at d = {d!r}")


def assemble_force(thermo: ThermoState, d_values, bracket_a: float,
                   bracket_b: float) -> list:
    """Assemble the fluctuation force from the factorized leading correlation,
    one report row per separation in d_values, holding only what depends on d.

    The scaled-wavenumber integral of the monopole force kernel against the
    single-traversing-bond correlation factorizes into the two charge-weighted
    plate brackets, so the assembled force is the universal law times both
    brackets; with exact perfect screening both brackets are -1 and the
    assembly reproduces the universal law exactly.
    """
    rows = []
    for d in d_values:
        f_lead = leading_force(thermo, d)
        alpha = thermo.lambda_ph / d
        low_t = _regime(alpha) == "low-T/small-d"
        rows.append({
            "d": d,
            "f_leading": f_lead,
            "f_assembled": _finite_nonzero(float(f_lead * bracket_a * bracket_b),
                                           f"the assembled force at d = {d!r}"),
            "lifshitz": {
                "eq2": lifshitz_reference(thermo, d, "rTE1") if low_t else None,
                "eq3": lifshitz_reference(thermo, d, "rTE0") if low_t else None,
                "alpha": alpha,
            },
        })
    return rows


def fit_loglog_slope(x, y):
    """Least-squares slope of log|y| against log x; returns (slope, stderr)."""
    x = np.log(np.asarray(x, dtype=float))
    y = np.log(np.abs(np.asarray(y, dtype=float)))
    n = x.size
    coeffs, residuals, *_ = np.polyfit(x, y, 1, full=True)
    slope = coeffs[0]
    if n > 2 and len(residuals):
        var = residuals[0] / (n - 2)
        stderr = float(np.sqrt(var / np.sum((x - x.mean())**2)))
    else:
        stderr = 0.0
    return float(slope), stderr


def magnetic_decay_fit(magnetic_decay: dict):
    """Decay exponent of a tabulated magnetic kernel, fitted as the log-log
    slope of |m| against X on the points above the table's rounding floor.

    magnetic_decay has keys "x_values", "m_values" and "m_floor" (per-X
    floor), as standard_magnetic_probe returns it.  Returns (exponent,
    n_points), where exponent is None when fewer than 3 points lie above the
    floor.
    """
    xv = np.asarray(magnetic_decay["x_values"], dtype=float)
    mv = np.asarray(magnetic_decay["m_values"], dtype=float)
    keep = np.abs(mv) > np.asarray(magnetic_decay["m_floor"], dtype=float)
    n_points = int(np.count_nonzero(keep))
    if n_points < 3:
        return None, n_points
    slope, _ = fit_loglog_slope(xv[keep], mv[keep])
    return -slope, n_points


def capacitor_force(surface_charge_a: float, surface_charge_b: float) -> float:
    """Electrostatic force of the net plate charges, 2 pi sigma_A sigma_B: no
    d-dependence, exactly 0 for neutral plates (magnetic: magnetic_decay_fit)."""
    return 2.0 * np.pi * surface_charge_a * surface_charge_b
