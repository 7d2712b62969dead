"""Run configuration: one human-readable JSON document, schema-validated,
with explicit units (the dominant user error in this domain is a Gaussian/SI
mix-up, so the units tag is mandatory)."""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .loops import SpeciesParams, ThermoState
from .screening import DensityProfile, SpeciesDensity

_ALLOWED_UNITS = ("reduced", "gaussian-cgs")

_CGS = {"kB": 1.380649e-16, "hbar": 1.054571817e-27, "c": 2.99792458e10}

DEFAULT_NUMERICS = {   # none sets verify's k-sweep: it follows its k = 0 solve
    "n_steps_kernel": 16,     # path resolution of every screened solve
    "n_paths_kernel": 8,      # paths per cell of run's plate solves (verify's: 4)
    "nx": 32,                 # cells per slab of run's solves (verify's plates: 16)
    "residual_tolerance": 1e-2,   # run's certification gate on |bracket + 1|
}

# integer knobs and their smallest meaningful value
_INTEGER_MIN = {"n_steps_kernel": 2, "n_paths_kernel": 1, "nx": 3}

_SPECIES_KEYS = ("name", "charge", "mass", "density", "p_weights")
_TOP_KEYS = ("units", "thermo", "slabs", "sweep", "seed", "numerics", "output")
_THERMO_KEYS = {"reduced": ("beta", "hbar", "c"), "gaussian-cgs": ("temperature_K",)}


@dataclass(frozen=True)
class RunConfig:
    units: str
    thermo: ThermoState
    a: float
    b: float
    profile: DensityProfile  # the one plasma that fills both slabs, species in order
    numerics: dict
    d_values: list
    seed: int
    out_dir: str
    raw: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        """Hash of the raw document without its output block (hashlib, and
        with it OpenSSL, is imported here, so importing the CLI or loading a
        config does not load it)."""
        import hashlib
        blob = json.dumps({k: v for k, v in self.raw.items() if k != "output"},
                          sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _need(d, key, typ, where):
    if key not in d:
        raise ConfigError(f"missing '{key}' in {where}")
    if not isinstance(d[key], typ):
        raise ConfigError(f"'{key}' in {where} must be {typ.__name__}")
    return d[key]


def _number(value, name, low=0.0, closed=False) -> float:
    """float(value); ConfigError naming the key unless value is a JSON number
    (not a boolean), finite as a double (a huge integer is not) and above low
    (at or above it if closed)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not (math.isfinite(number) and (low <= number if closed else low < number)):
        bound = f" {'>=' if closed else '>'} {low:g}" if low > -math.inf else ""
        raise ConfigError(f"{name} must be a finite number{bound}")
    return number


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
        beta, hbar, c = (_number(_need(th, key, object, "thermo"), f"thermo.{key}")
                         for key in ("beta", "hbar", "c"))
        thermo = ThermoState(beta=beta, hbar=hbar, c=c)
    else:
        t_kelvin = _number(_need(th, "temperature_K", object, "thermo"),
                           "thermo.temperature_K")
        thermo = ThermoState(beta=1.0 / (_CGS["kB"] * t_kelvin),
                             hbar=_CGS["hbar"], c=_CGS["c"])

    slabs = _known(_need(raw, "slabs", dict, "config"),
                   ("a", "b", "neutral", "species"), "slabs key")
    a, b = (_number(_need(slabs, key, object, "slabs"), f"slabs.{key}")
            for key in ("a", "b"))
    neutral = _need({"neutral": True, **slabs}, "neutral", bool, "slabs")

    species_raw = _need(slabs, "species", list, "slabs")
    if not species_raw:
        raise ConfigError("species list must not be empty")
    names, cells = [], []
    numerics = {**DEFAULT_NUMERICS, **_known(optional_block(raw, "numerics"),
                                              DEFAULT_NUMERICS, "numerics knob")}
    for key, val in numerics.items():
        _number(val, f"numerics.{key}")
        if key in _INTEGER_MIN and not (isinstance(val, int)
                                        and val >= _INTEGER_MIN[key]):
            raise ConfigError(f"numerics.{key} must be an integer "
                              f">= {_INTEGER_MIN[key]}")
    for entry in species_raw:
        if not isinstance(entry, dict):
            raise ConfigError("each species must be an object")
        _known(entry, _SPECIES_KEYS, "species key")
        name = _need(entry, "name", str, "species")
        if name in names:
            raise ConfigError(f"duplicate species name '{name}'")
        names.append(name)
        charge = _number(_need(entry, "charge", object, "species"),
                         "species.charge", -math.inf)
        mass = _number(_need(entry, "mass", object, "species"), "species.mass")
        density = _number(_need(entry, "density", object, "species"),
                          "species.density", closed=True)
        weights = _need({"p_weights": [0.9, 0.1], **entry}, "p_weights", list, "species")
        weights = [_number(w, "species.p_weights entries", closed=True) for w in weights]
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ConfigError("p_weights must sum to 1")
        sp = SpeciesParams.from_thermo(name=name, charge=charge, mass=mass,
                                       thermo=thermo)
        # charge number p ascending: this order fixes the loop-basis entries
        cells += [SpeciesDensity(species=sp, p=p, loop_density=w * density / p)
                  for p, w in enumerate(weights, start=1) if w > 0.0]

    profile = DensityProfile(beta=thermo.beta, cells=tuple(cells))
    try:    # math.fsum raises on an intermediate overflow and on inf - inf
        kappa2 = profile.kappa2()
        finite = all(map(math.isfinite, (kappa2, profile.charge_density())))
    except (OverflowError, ValueError):
        finite = False
    if not finite:
        raise ConfigError("the species charge and density give a plasma whose "
                          "kappa^2 or charge density is not finite")
    if kappa2 == 0.0:
        raise ConfigError("no screening medium: every species has charge or density "
                          "0, so kappa = 0 and nothing screens the border charge")
    if neutral and profile.charge_imbalance() != 0.0:
        raise ConfigError("neutrality flag set but sum(e * density) != 0")

    sweep = _known(_need(raw, "sweep", dict, "config"), ("d_values",), "sweep key")
    d_values = _need(sweep, "d_values", list, "sweep")
    if not d_values:
        raise ConfigError("sweep.d_values (--d-list) must not be empty")
    d_values = [_number(d, "sweep.d_values (--d-list) entries") for d in d_values]

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")

    output = _known(optional_block(raw, "output"), ("dir",), "output key")
    out_dir = _need({"dir": "out", **output}, "dir", str, "output")
    return RunConfig(units=units, thermo=thermo, a=a, b=b, profile=profile,
                     numerics=numerics, d_values=d_values, seed=seed,
                     out_dir=out_dir, raw=raw)
