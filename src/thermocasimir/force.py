"""Force assembly, the universal large-separation amplitude, capacitor terms,
and the regime reference formulas."""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import ParameterError
from .loops import ThermoState

__all__ = [
    "zeta3_quadrature",
    "zeta3_series_oracle",
    "ZETA3",
    "leading_force",
    "ForceRegimeParams",
    "lifshitz_reference",
    "assemble_force",
    "capacitor_force",
    "fit_loglog_slope",
    "ForceBreakdown",
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


def zeta3_quadrature(eps_abs: float = 1e-12) -> float:
    """Adaptive quadrature of int_0^inf q^2 e^{-q} / sinh(q) dq.

    The tail beyond q = 40 is bounded by 2 q^2 e^{-2q} and is far below the
    requested tolerance; the value equals half of Apery's constant.
    """
    val, err = quad(lambda q: float(_force_integrand(np.array([q]))[0]),
                    0.0, 40.0, epsabs=eps_abs, epsrel=eps_abs, limit=200)
    tail_bound = quad(lambda q: 2.0 * q * q * np.exp(-2.0 * q), 40.0, np.inf)[0]
    if tail_bound > 10.0 * eps_abs:
        raise RuntimeError("tail bound unexpectedly large")
    return val


def zeta3_series_oracle(n_terms: int = 1_000_000) -> float:
    """Independent series value: sum_{n>=1} 1/(2 n^3), summed ascending from the
    tail with the analytic remainder 1/(4 N^2) - 1/(4 N^3) appended."""
    n = np.arange(n_terms, 0, -1, dtype=float)
    partial = float(np.sum(0.5 / n**3))
    tail = 0.25 / n_terms**2 - 0.25 / n_terms**3
    return partial + tail


ZETA3 = 2.0 * zeta3_series_oracle()


def leading_force(thermo, d: float) -> float:
    """Universal large-separation force per unit area: -zeta(3)/(8 pi beta d^3).

    Depends on the inverse temperature and the separation only; every species
    parameter and both hbar and c drop out.
    """
    beta = thermo.beta if isinstance(thermo, ThermoState) else float(thermo)
    if beta <= 0.0 or d <= 0.0:
        raise ParameterError("beta and d must be positive")
    return -ZETA3 / (8.0 * np.pi * beta * d**3)


_ALPHA_HIGH, _ALPHA_LOW = 10.0, 0.1


@dataclass(frozen=True)
class ForceRegimeParams:
    """Dimensionless regime parameter alpha = photon thermal length / separation."""

    alpha: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ParameterError("alpha must be positive")

    @classmethod
    def from_state(cls, thermo: ThermoState, d: float):
        return cls(alpha=thermo.lambda_ph / d)

    @property
    def label(self) -> str:
        if self.alpha > _ALPHA_HIGH:
            return "low-T/small-d"
        if self.alpha < _ALPHA_LOW:
            return "high-T/large-d"
        return "crossover"


def lifshitz_reference(thermo: ThermoState, d: float, mode: str, regime: str) -> float:
    """Reference force laws of the fluctuation theory for the two limiting
    regimes, keyed by whether the zero-frequency transverse-electric
    reflection is unity ("rTE1") or vanishes ("rTE0").

    low-T/small-d:  -pi^2 hbar c / 240 d^4  (+ zeta3 kB T / 8 pi d^3 for rTE0)
    high-T/large-d: -zeta3 kB T / 4 pi d^3  (rTE1)  or half of it (rTE0).
    """
    if mode not in ("rTE1", "rTE0"):
        raise ParameterError("mode must be 'rTE1' or 'rTE0'")
    if regime not in ("low-T/small-d", "high-T/large-d"):
        raise ParameterError("regime must name one of the two limits")
    params = ForceRegimeParams.from_state(thermo, d)
    if params.label != regime:
        warnings.warn(
            f"alpha = {params.alpha:.3g} is not in the {regime} regime",
            stacklevel=2)
    kt = 1.0 / thermo.beta
    if regime == "low-T/small-d":
        base = -np.pi**2 * thermo.hbar * thermo.c / (240.0 * d**4)
        if mode == "rTE0":
            return base + ZETA3 * kt / (8.0 * np.pi * d**3)
        return base
    if mode == "rTE1":
        return -ZETA3 * kt / (4.0 * np.pi * d**3)
    return -ZETA3 * kt / (8.0 * np.pi * d**3)


@dataclass
class ForceBreakdown:
    """Everything the pipeline reports for one separation."""

    d: float
    f_leading: float
    f_assembled: float
    bracket_a: float
    bracket_b: float
    f_electrostatic_integrand: dict
    f_capacitor_el: float
    f_capacitor_mag_exponent: float | None
    f_capacitor_mag_bound: dict
    lifshitz: dict
    sumrule_residuals: dict
    certified: bool
    notes: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "f_leading": self.f_leading,
            "f_assembled": self.f_assembled,
            "bracket_a": self.bracket_a,
            "bracket_b": self.bracket_b,
            "f_electrostatic_integrand": self.f_electrostatic_integrand,
            "capacitor_el": self.f_capacitor_el,
            "capacitor_mag_exponent": self.f_capacitor_mag_exponent,
            "capacitor_mag_bound": self.f_capacitor_mag_bound,
            "lifshitz": self.lifshitz,
            "residuals": self.sumrule_residuals,
            "certified": self.certified,
            "notes": self.notes,
        }


def assemble_force(thermo: ThermoState, d: float, bracket_a: float,
                   bracket_b: float, sumrule_residuals: dict,
                   residual_tolerance: float = 1e-2,
                   capacitor_el: float = 0.0,
                   capacitor_mag_exponent: float | None = None,
                   wab_scale: float | None = None,
                   quad_abs_tol: float = 1e-12) -> ForceBreakdown:
    """Assemble the fluctuation force from the factorized leading correlation.

    The scaled-wavenumber integral of the monopole force kernel against the
    single-traversing-bond correlation factorizes into the two charge-weighted
    plate brackets; with exact perfect screening both brackets are -1 and the
    assembly reproduces the universal law exactly.  The magnetic contribution
    enters only as an order d^-5 remainder bound, never as an addend.
    """
    if d <= 0.0:
        raise ParameterError("d must be positive")
    beta = thermo.beta
    amplitude = zeta3_quadrature(eps_abs=quad_abs_tol)
    f_assembled = -(amplitude / (4.0 * np.pi * beta * d**3)) * bracket_a * bracket_b
    f_lead = leading_force(thermo, d)
    qgrid = np.linspace(0.0, 12.0, 121)
    integrand = (_force_integrand(qgrid) * bracket_a * bracket_b
                 / (-4.0 * np.pi * beta * d**3))
    residual_max = max(abs(v) for v in sumrule_residuals.values()) \
        if sumrule_residuals else np.inf
    certified = residual_max < residual_tolerance
    notes = []
    if not certified:
        notes.append(
            f"sum-rule residual {residual_max:.3e} above tolerance "
            f"{residual_tolerance:.1e}: force values not certified")
    mag_bound = {
        "exponent": -5,
        "coefficient_estimate": (abs(wab_scale) if wab_scale is not None else 0.0),
        "bound_at_d": (abs(wab_scale) / d**5 if wab_scale is not None else 0.0),
        "comment": "remainder estimate only; excluded from assembled values",
    }
    alpha = thermo.lambda_ph / d
    lifshitz = {
        "eq2": lifshitz_reference(thermo, d, "rTE1", "low-T/small-d")
        if alpha > _ALPHA_HIGH else None,
        "eq3": lifshitz_reference(thermo, d, "rTE0", "low-T/small-d")
        if alpha > _ALPHA_HIGH else None,
        "eq4": -ZETA3 / (4.0 * np.pi * beta * d**3),
        "eq5": -ZETA3 / (8.0 * np.pi * beta * d**3),
        "alpha": alpha,
    }
    return ForceBreakdown(
        d=d,
        f_leading=f_lead,
        f_assembled=float(f_assembled),
        bracket_a=float(bracket_a),
        bracket_b=float(bracket_b),
        f_electrostatic_integrand={"q": qgrid.tolist(),
                                   "integrand": integrand.tolist()},
        f_capacitor_el=float(capacitor_el),
        f_capacitor_mag_exponent=capacitor_mag_exponent,
        f_capacitor_mag_bound=mag_bound,
        lifshitz=lifshitz,
        sumrule_residuals=dict(sumrule_residuals),
        certified=certified,
        notes=notes,
    )


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


def capacitor_force(surface_charge_a: float, surface_charge_b: float,
                    magnetic_decay: dict | None = None):
    """Direct interplate force of the net (non-fluctuating) charge densities.

    The electrostatic term is 2 pi sigma_A sigma_B, separation-independent;
    it vanishes identically for neutral plates.  The magnetic part carries no
    power-law tail: when a probe is supplied, its in-plane-integrated kernel
    is fitted on a log-log window and the decay exponent is reported.

    magnetic_decay, when given, is a dict with keys "x_values" and "m_values"
    (the tabulated kernel); returns (electrostatic, exponent or None).
    """
    electrostatic = 2.0 * np.pi * surface_charge_a * surface_charge_b
    exponent = None
    if magnetic_decay is not None:
        xv = np.asarray(magnetic_decay["x_values"], dtype=float)
        mv = np.asarray(magnetic_decay["m_values"], dtype=float)
        keep = np.abs(mv) > 0.0
        slope, _ = fit_loglog_slope(xv[keep], mv[keep])
        exponent = -slope
    return electrostatic, exponent
