"""Run configuration: one human-readable JSON document, schema-validated,
with explicit units (the dominant user error in this domain is a Gaussian/SI
mix-up, so the units tag is mandatory)."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .loops import SpeciesParams, ThermoState
from .screening import DensityProfile, SpeciesDensity

_ALLOWED_UNITS = ("reduced", "gaussian-cgs")

_CGS = {"kB": 1.380649e-16, "hbar": 1.054571817e-27, "c": 2.99792458e10}

DEFAULT_NUMERICS = {
    "n_steps_kernel": 16,     # path resolution inside the dense solve
    "p_max": 3,
    "n_paths": 256,           # Monte Carlo paths per (species, p) cell
    "n_paths_kernel": 8,      # paths per cell carried by the dense solve
    "nx": 32,                 # cells per slab
    "k0_factor": 0.2,         # first wavenumber of the k -> 0 sequence, in kappa units
    "n_k": 6,
    "residual_tolerance": 1e-2,
    "quad_abs_tol": 1e-12,
}

# integer knobs and their smallest meaningful value
_INTEGER_MIN = {"n_steps_kernel": 2, "p_max": 1, "n_paths": 1,
                "n_paths_kernel": 1, "nx": 2, "n_k": 2}


@dataclass
class RunConfig:
    units: str
    thermo: ThermoState
    a: float
    b: float
    species: list
    p_weights: dict
    densities: dict          # species name -> particle number density
    neutral: bool
    numerics: dict
    d_values: list
    seed: int
    out_dir: str
    raw: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def density_profile(self) -> DensityProfile:
        cells = []
        for sp in self.species:
            weights = self.p_weights[sp.name]
            dens = self.densities[sp.name]
            for p, w in enumerate(weights, start=1):
                if w > 0.0:
                    cells.append(SpeciesDensity(species=sp, p=p,
                                                loop_density=w * dens / p))
        cells = tuple(cells)
        return DensityProfile(beta=self.thermo.beta, slab_a=cells, slab_b=cells)


def _need(d, key, typ, where):
    if key not in d:
        raise ConfigError(f"missing '{key}' in {where}")
    val = d[key]
    if typ is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, typ):
        raise ConfigError(f"'{key}' in {where} must be {typ.__name__}")
    return val


def _positive(value, name):
    if not value > 0:
        raise ConfigError(f"{name} must be positive")
    return value


def load_config(path_or_dict) -> RunConfig:
    """Parse and validate a run configuration (path to a JSON file, or a dict)."""
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        with open(path_or_dict) as fh:
            raw = json.load(fh)
    units = _need(raw, "units", str, "config")
    if units not in _ALLOWED_UNITS:
        raise ConfigError(f"units must be one of {_ALLOWED_UNITS}")

    th = _need(raw, "thermo", dict, "config")
    if units == "reduced":
        beta = _positive(_need(th, "beta", float, "thermo"), "beta")
        thermo = ThermoState(beta=beta, hbar=th.get("hbar", 1.0),
                             c=th.get("c", 1.0), kB=1.0)
    else:
        t_kelvin = _positive(_need(th, "temperature_K", float, "thermo"),
                             "temperature_K")
        thermo = ThermoState(beta=1.0 / (_CGS["kB"] * t_kelvin),
                             hbar=_CGS["hbar"], c=_CGS["c"], kB=_CGS["kB"])

    slabs = _need(raw, "slabs", dict, "config")
    a = _positive(_need(slabs, "a", float, "slabs"), "a")
    b = _positive(_need(slabs, "b", float, "slabs"), "b")
    neutral = bool(slabs.get("neutral", True))

    species_raw = _need(slabs, "species", list, "slabs")
    if not species_raw:
        raise ConfigError("species list must not be empty")
    species, p_weights, densities = [], {}, {}
    numerics = dict(DEFAULT_NUMERICS)
    numerics.update(raw.get("numerics", {}))
    for key, val in numerics.items():
        if key not in DEFAULT_NUMERICS:
            raise ConfigError(f"unknown numerics knob '{key}'")
        if isinstance(val, bool) or not isinstance(val, (int, float)) or val <= 0:
            raise ConfigError(f"numerics knob '{key}' must be a positive number")
        if key in _INTEGER_MIN and not (isinstance(val, int)
                                        and val >= _INTEGER_MIN[key]):
            raise ConfigError(f"numerics knob '{key}' must be an integer "
                              f">= {_INTEGER_MIN[key]}")
    for entry in species_raw:
        name = _need(entry, "name", str, "species")
        charge = _need(entry, "charge", float, "species")
        mass = _positive(_need(entry, "mass", float, "species"), "mass")
        density = _need(entry, "density", float, "species")
        if density < 0:
            raise ConfigError("density must be >= 0")
        weights = entry.get("p_weights", [0.9, 0.1])
        if len(weights) > numerics["p_max"]:
            raise ConfigError("p_weights longer than p_max")
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise ConfigError("p_weights must be nonnegative and sum to 1")
        sp = SpeciesParams.from_thermo(
            name=name, charge=charge, mass=mass, thermo=thermo,
            spin=entry.get("spin", 0.5), eta=entry.get("eta", -1),
            mu=entry.get("mu", 0.0))
        species.append(sp)
        p_weights[name] = list(weights)
        densities[name] = density

    if neutral:
        import math
        net = math.fsum(sp.charge * densities[sp.name] for sp in species)
        scale = sum(abs(sp.charge) * densities[sp.name] for sp in species) or 1.0
        if abs(net) > 1e-12 * scale:
            raise ConfigError("neutrality flag set but sum(e * density) != 0")

    sweep = _need(raw, "sweep", dict, "config")
    d_values = _need(sweep, "d_values", list, "sweep")
    if not d_values or any(not isinstance(d, (int, float)) or d <= 0
                           for d in d_values):
        raise ConfigError("sweep.d_values must be a nonempty list of positive numbers")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")

    out_dir = raw.get("output", {}).get("dir", "out")
    return RunConfig(units=units, thermo=thermo, a=a, b=b, species=species,
                     p_weights=p_weights, densities=densities, neutral=neutral,
                     numerics=numerics, d_values=[float(d) for d in d_values],
                     seed=seed, out_dir=str(out_dir), raw=raw)
