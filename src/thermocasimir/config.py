"""Run configuration: one human-readable JSON document, schema-validated,
with explicit units (the dominant user error in this domain is a Gaussian/SI
mix-up, so the units tag is mandatory)."""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .loops import SpeciesParams, ThermoState
from .screening import DensityProfile, SpeciesDensity

_ALLOWED_UNITS = ("reduced", "gaussian-cgs")

_CGS = {"kB": 1.380649e-16, "hbar": 1.054571817e-27, "c": 2.99792458e10}

DEFAULT_NUMERICS = {
    "n_steps_kernel": 16,     # path resolution inside the screened solve
    "n_paths_kernel": 8,      # paths per cell carried by the screened solve
    "nx": 32,                 # cells per slab
    "k0_factor": 0.2,         # first wavenumber of the k -> 0 sequence, in kappa units
    "n_k": 6,
    "residual_tolerance": 1e-2,
}

# integer knobs and their smallest meaningful value
_INTEGER_MIN = {"n_steps_kernel": 2, "n_paths_kernel": 1, "nx": 2, "n_k": 2}

_SPECIES_KEYS = ("name", "charge", "mass", "density", "p_weights")
_TOP_KEYS = ("units", "thermo", "slabs", "sweep", "seed", "numerics", "output")
_THERMO_KEYS = {"reduced": ("beta", "hbar", "c"), "gaussian-cgs": ("temperature_K",)}


@dataclass
class RunConfig:
    units: str
    thermo: ThermoState
    a: float
    b: float
    species: list
    profile: DensityProfile  # the one plasma that fills both slabs
    numerics: dict
    d_values: list
    seed: int
    out_dir: str
    raw: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _need(d, key, typ, where):
    if key not in d:
        raise ConfigError(f"missing '{key}' in {where}")
    val = d[key]
    if typ is float and _is_number(val):
        val = float(val)
    if not isinstance(val, typ):
        raise ConfigError(f"'{key}' in {where} must be {typ.__name__}")
    return val


def _is_number(value) -> bool:
    """A JSON number: int or float, but not a boolean (True is an int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def optional_block(raw: dict, key: str) -> dict:
    """raw[key] if it is an object, {} if absent; ConfigError otherwise."""
    return _need({key: {}, **raw}, key, dict, "config")


def _known(block: dict, allowed, what: str) -> dict:
    """block itself, or ConfigError naming its first key not in allowed."""
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown {what} '{key}' (allowed: "
                              f"{', '.join(allowed)})")
    return block


def _positive(value, name):
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be a finite positive number")
    return value


def load_config(path_or_dict) -> RunConfig:
    """Parse and validate a run configuration (path to a JSON file, or a dict)."""
    raw = path_or_dict
    if isinstance(raw, (str, os.PathLike)):
        with open(raw) as fh:
            raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("the configuration must be a JSON object")
    _known(raw, _TOP_KEYS, "config key")
    units = _need(raw, "units", str, "config")
    if units not in _ALLOWED_UNITS:
        raise ConfigError(f"units must be one of {_ALLOWED_UNITS}")

    th = _known(_need(raw, "thermo", dict, "config"), _THERMO_KEYS[units],
                f"{units} thermo key")
    if units == "reduced":
        th = {"hbar": 1.0, "c": 1.0, **th}
        beta, hbar, c = (_positive(_need(th, key, float, "thermo"), key)
                         for key in ("beta", "hbar", "c"))
        thermo = ThermoState(beta=beta, hbar=hbar, c=c)
    else:
        t_kelvin = _positive(_need(th, "temperature_K", float, "thermo"),
                             "temperature_K")
        thermo = ThermoState(beta=1.0 / (_CGS["kB"] * t_kelvin),
                             hbar=_CGS["hbar"], c=_CGS["c"])

    slabs = _known(_need(raw, "slabs", dict, "config"),
                   ("a", "b", "neutral", "species"), "slabs key")
    a = _positive(_need(slabs, "a", float, "slabs"), "a")
    b = _positive(_need(slabs, "b", float, "slabs"), "b")
    neutral = _need({"neutral": True, **slabs}, "neutral", bool, "slabs")

    species_raw = _need(slabs, "species", list, "slabs")
    if not species_raw:
        raise ConfigError("species list must not be empty")
    species, cells, net_terms = [], [], []
    numerics = {**DEFAULT_NUMERICS, **_known(optional_block(raw, "numerics"),
                                              DEFAULT_NUMERICS, "numerics knob")}
    for key, val in numerics.items():
        if not _is_number(val) or not 0 < val < math.inf:
            raise ConfigError(f"numerics knob '{key}' must be a finite "
                              f"positive number")
        if key in _INTEGER_MIN and not (isinstance(val, int)
                                        and val >= _INTEGER_MIN[key]):
            raise ConfigError(f"numerics knob '{key}' must be an integer "
                              f">= {_INTEGER_MIN[key]}")
    for entry in species_raw:
        if not isinstance(entry, dict):
            raise ConfigError("each species must be an object")
        _known(entry, _SPECIES_KEYS, "species key")
        name = _need(entry, "name", str, "species")
        if any(sp.name == name for sp in species):
            raise ConfigError(f"duplicate species name '{name}'")
        charge = _need(entry, "charge", float, "species")
        if not math.isfinite(charge):
            raise ConfigError("charge must be finite")
        mass = _positive(_need(entry, "mass", float, "species"), "mass")
        density = _need(entry, "density", float, "species")
        if not 0 <= density < math.inf:
            raise ConfigError("density must be finite and >= 0")
        weights = entry.get("p_weights", [0.9, 0.1])
        if not isinstance(weights, list) or not all(
                _is_number(w) and 0 <= w < math.inf for w in weights):
            raise ConfigError("p_weights must be a list of finite numbers >= 0")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ConfigError("p_weights must sum to 1")
        sp = SpeciesParams.from_thermo(name=name, charge=charge, mass=mass,
                                       thermo=thermo)
        species.append(sp)
        # charge number p ascending: this order fixes the loop-basis entries
        cells += [SpeciesDensity(species=sp, p=p, loop_density=w * density / p)
                  for p, w in enumerate(weights, start=1) if w > 0.0]
        net_terms.append(charge * density)

    profile = DensityProfile(beta=thermo.beta, cells=tuple(cells))
    try:    # math.fsum raises on an intermediate overflow and on inf - inf
        net = math.fsum(net_terms)
        finite = all(map(math.isfinite, (net, profile.kappa2(),
                                         profile.charge_density())))
    except (OverflowError, ValueError):
        finite = False
    if not finite:
        raise ConfigError("the species charge and density give a plasma whose "
                          "net charge, kappa^2 or charge density is not finite")
    if neutral and abs(net) > 1e-12 * (sum(map(abs, net_terms)) or 1.0):
        raise ConfigError("neutrality flag set but sum(e * density) != 0")

    sweep = _known(_need(raw, "sweep", dict, "config"), ("d_values",), "sweep key")
    d_values = _need(sweep, "d_values", list, "sweep")
    if not d_values or any(not _is_number(d) or not 0 < d < math.inf
                           for d in d_values):
        raise ConfigError("sweep.d_values must be a nonempty list of finite "
                          "positive numbers")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")

    output = _known(optional_block(raw, "output"), ("dir",), "output key")
    out_dir = _need({"dir": "out", **output}, "dir", str, "output")
    return RunConfig(units=units, thermo=thermo, a=a, b=b, species=species,
                     profile=profile, numerics=numerics,
                     d_values=[float(d) for d in d_values],
                     seed=seed, out_dir=out_dir, raw=raw)
