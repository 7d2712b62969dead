import argparse
import contextlib
import copy
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thermocasimir
from thermocasimir import cli, pipeline, potentials
from thermocasimir.config import DEFAULT_NUMERICS, load_config
from thermocasimir.errors import ConfigError, ParameterError, SolverError
from thermocasimir.loops import line_integral, point_loop
from thermocasimir.pipeline import run_pipeline, verify_suite
from thermocasimir.screening import (build_loop_basis, check_perfect_screening,
                                     perfect_screening_k0)

BASE_CONFIG = {
    "units": "reduced",
    "thermo": {"beta": 1.0, "hbar": 0.02, "c": 100.0},
    "slabs": {
        "a": 6.0, "b": 6.0, "neutral": True,
        "species": [
            {"name": "plus", "charge": 1.0, "mass": 1.0,
             "density": 0.039788735772973836},
            {"name": "minus", "charge": -1.0, "mass": 2.0,
             "density": 0.039788735772973836},
        ],
    },
    "sweep": {"d_values": [50.0, 100.0, 200.0, 400.0]},
    "seed": 11,
    "numerics": {"nx": 8, "n_paths_kernel": 2},
}


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _out_dir(verb, out):
    """--out-dir for run, the one verb that writes files; verify takes none."""
    return ["--out-dir", str(out)] if verb == "run" else []


@pytest.fixture(scope="module")
def fast_config():
    return copy.deepcopy(BASE_CONFIG)


# --------------------------------------------------------------- validation

def test_config_roundtrip(fast_config):
    cfg = load_config(copy.deepcopy(fast_config))
    assert cfg.thermo.beta == 1.0
    assert cfg.a == 6.0 and cfg.b == 6.0
    species = dict.fromkeys(c.species for c in cfg.profile.cells)
    assert [sp.name for sp in species] == ["plus", "minus"]
    assert len(cfg.config_hash()) == 16


@pytest.mark.parametrize("mutate", [
    lambda c: c.pop("units"),
    lambda c: c.update(units="imperial"),
    lambda c: c["thermo"].update(beta=-1.0),
    lambda c: c["slabs"].update(a=-2.0),
    lambda c: c["slabs"].update(species=[]),
    lambda c: c["slabs"]["species"][0].update(density=-0.5),
    lambda c: c["sweep"].update(d_values=[]),
    lambda c: c["sweep"].update(d_values=[-3.0]),
    lambda c: c.update(seed=-4),
    lambda c: c["slabs"]["species"][0].update(p_weights=[0.5, 0.2]),
    lambda c: c.setdefault("numerics", {}).update(bogus_knob=3),
    lambda c: c.setdefault("numerics", {}).update(nx=0),
    lambda c: c["slabs"]["species"].append(3),
    lambda c: c["slabs"]["species"][1].update(name="plus"),
    lambda c: c.update(numerics=[1]),
    lambda c: c.update(output="x"),
    lambda c: c["slabs"].update(neutral="no"),
    # every block rejects a key it does not know
    lambda c: c["thermo"].update(hbr=0.02),
    lambda c: c.update(numerix={"nx": 8}),
    lambda c: c["slabs"].update(nuetral=False),
    lambda c: c["sweep"].update(d_list=[60.0]),
    lambda c: c.update(output={"directory": "x"}),
    lambda c: c.update(units="gaussian-cgs",
                       thermo={"temperature_K": 300.0, "beta": 1.0}),
    lambda c: c.update(output={"dir": None}),
    # no screening medium: kappa = 0
    lambda c: [sp.update(charge=0.0) for sp in c["slabs"]["species"]],
])
def test_config_schema_violations(fast_config, mutate):
    cfg = copy.deepcopy(fast_config)
    mutate(cfg)
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_config_neutrality_enforced(fast_config):
    cfg = copy.deepcopy(fast_config)
    cfg["slabs"]["species"][0]["density"] = 0.05
    with pytest.raises(ConfigError):
        load_config(cfg)
    cfg["slabs"]["neutral"] = False
    load_config(cfg)        # non-neutral allowed when the flag is off


def test_config_builds_one_plasma(tmp_path, fast_config, capsys):
    # one profile for both slabs: species in config order, then charge number
    # ascending with zero weights skipped, w * density / p loops per cell
    cfg = copy.deepcopy(fast_config)
    cfg["thermo"]["beta"] = 2.0
    plus, minus = cfg["slabs"]["species"]
    plus["p_weights"] = [0.7, 0.0, 0.3]
    minus["p_weights"] = [1.0]
    config = load_config(cfg)
    profile = config.profile
    species = list(dict.fromkeys(c.species for c in profile.cells))
    assert [(c.species, c.p) for c in profile.cells] == [
        (species[0], 1), (species[0], 3), (species[1], 1)]
    assert [sp.name for sp in species] == ["plus", "minus"]
    assert [c.loop_density for c in profile.cells] == [
        0.7 * plus["density"] / 1, 0.3 * plus["density"] / 3,
        1.0 * minus["density"] / 1]
    assert profile.beta == config.thermo.beta == 2.0
    basis = build_loop_basis(profile, 6.0, 2, n_paths=1, n_steps=4, seed=0)
    assert basis.beta == profile.beta
    assert basis.pnum.tolist() == [1, 3, 1] * 2          # cell by cell
    # the largest charge number is the p_weights length: p_max is no knob
    cfg["numerics"]["p_max"] = 3
    with pytest.raises(ConfigError, match="p_max"):
        load_config(cfg)
    assert cli.main(["run", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown numerics knob 'p_max'")


def test_gaussian_units_ingestion(fast_config):
    cfg = copy.deepcopy(fast_config)
    cfg["units"] = "gaussian-cgs"
    cfg["thermo"] = {"temperature_K": 300.0}
    parsed = load_config(cfg)
    assert parsed.thermo.beta == pytest.approx(1.0 / (1.380649e-16 * 300.0))
    assert parsed.thermo.c == pytest.approx(2.99792458e10)


# ------------------------------------------------------------------ pipeline

@pytest.fixture(scope="module")
def fast_report(fast_config):
    return run_pipeline(load_config(copy.deepcopy(fast_config)))


def test_pipeline_produces_row_per_separation(fast_report, fast_config):
    rows = fast_report["report"]["results"]
    assert len(rows) == len(BASE_CONFIG["sweep"]["d_values"])
    assert fast_report["report"]["certified_all"] is True


def test_pipeline_deviation_dominated_by_inverse_d(fast_report):
    # convergence to the universal law is at least 1/d relative: the observed
    # deviation must fit under a 1/d envelope anchored at the 2% gate
    rows = fast_report["report"]["results"]
    d_min = min(r["d"] for r in rows)
    for r in rows:
        deviation = abs(r["f_assembled"] / r["f_leading"] - 1.0)
        assert deviation <= 0.02 * d_min / r["d"]


def test_pipeline_report_keys(fast_report):
    # each value is stored once: rows hold what depends on d, the report the
    # plate brackets, the capacitor constants and the certification, and no
    # key restates another (1 / kappa, "b" in screening) or a constant (the
    # d^-3 slope of f_leading times d-independent brackets)
    report = fast_report["report"]
    assert set(report) == {"config_hash", "seed", "units", "kappa", "hierarchy",
                           "brackets", "screening", "capacitor", "results",
                           "convergence", "certified_all"}
    for row in report["results"]:
        assert set(row) == {"d", "f_leading", "f_assembled"}
    # the bordered k = 0 solve has no k-sequence and no Richardson step
    assert set(report["brackets"]) == {
        "bracket_a", "bracket_b", "residual_a", "residual_b"}
    assert set(report["screening"]["a"]) == {"basis_size", "pairs", "band_cells",
                                             "bracket_slope"}
    capacitor = report["capacitor"]
    assert set(capacitor) == {"electrostatic", "magnetic_exponent", "magnetic_fit"}
    assert capacitor["electrostatic"] == 0.0
    fit = capacitor["magnetic_fit"]
    assert fit["n_quad"] == 400 and 3 <= fit["points_fitted"] <= 12
    assert 0.0 < fit["floor_max"] < 1e-9


def test_pipeline_screening_diagnostics(fast_report):
    # identical slabs: only slab a is solved, and its stored operator pairs
    # (each in one class) are at most every pair of its basis
    screening = fast_report["report"]["screening"]
    assert list(screening) == ["a"]
    size = screening["a"]["basis_size"]
    assert size > 0
    pairs = screening["a"]["pairs"]
    assert sorted(pairs) == ["inside", "straddling"]
    assert pairs["inside"] + pairs["straddling"] <= size**2


def _perturb_residuals(monkeypatch, **residuals):
    """Let the plate sweep report the given sum-rule residuals."""
    plate_brackets = pipeline._plate_brackets

    def perturbed(*args):
        plates = plate_brackets(*args)
        plates["brackets"].update(residuals)
        return plates

    monkeypatch.setattr(pipeline, "_plate_brackets", perturbed)


def test_pipeline_certification_gate(monkeypatch, fast_config):
    _perturb_residuals(monkeypatch, residual_a=0.1)
    report = run_pipeline(load_config(copy.deepcopy(fast_config)),
                          magnetic_check=False)["report"]
    assert report["brackets"]["residual_a"] == 0.1
    assert report["certified_all"] is False


@pytest.mark.parametrize("residuals", [{"residual_a": 0.0, "residual_b": math.nan},
                                       {"residual_a": math.nan, "residual_b": 0.0}])
def test_pipeline_never_certifies_a_nan_residual(monkeypatch, fast_config, residuals):
    # the NaN must not be skipped by the maximum, whichever slab carries it
    _perturb_residuals(monkeypatch, **residuals)
    report = run_pipeline(load_config(copy.deepcopy(fast_config)),
                          magnetic_check=False)["report"]
    assert report["certified_all"] is False


def test_pipeline_unequal_slabs_solve_both_plates(fast_config):
    cfg = copy.deepcopy(fast_config)
    cfg["slabs"]["b"] = 4.5
    config = load_config(cfg)
    report = run_pipeline(config, magnetic_check=False)["report"]
    brackets = report["brackets"]
    assert sorted(report["screening"]) == ["a", "b"]     # both plates solved
    # both brackets are -1 to rounding; their slopes at k = 0 tell the plates apart
    assert (report["screening"]["b"]["bracket_slope"]
            != report["screening"]["a"]["bracket_slope"])
    tolerance = config.numerics["residual_tolerance"]
    assert brackets["residual_a"] < tolerance
    assert brackets["residual_b"] < tolerance
    assert report["certified_all"]
    # the length hierarchy is read at the smallest separation
    d_min = min(cfg["sweep"]["d_values"])
    ratios = report["hierarchy"]["ratios"]
    assert ratios["a_over_d"] == 6.0 / d_min and ratios["b_over_d"] == 4.5 / d_min
    assert ratios["screen_over_a"] == 1 / report["kappa"] / 6.0
    assert ratios["screen_over_b"] == 1 / report["kappa"] / 4.5


def test_pipeline_slab_b_is_the_mirror_image_of_slab_a(fast_config):
    # slab b is solved as the slab [-b, 0] on the substream seed + 1: the
    # plate a of a config with a = b and seed + 1 is the same problem
    unequal, equal = copy.deepcopy(fast_config), copy.deepcopy(fast_config)
    unequal["slabs"]["b"] = 4.5
    equal["slabs"].update(a=4.5, b=4.5)
    equal["seed"] = unequal["seed"] + 1
    rep_b, rep_a = (run_pipeline(load_config(cfg), magnetic_check=False)["report"]
                    for cfg in (unequal, equal))
    assert rep_b["brackets"]["bracket_b"] == rep_a["brackets"]["bracket_a"]
    assert rep_b["brackets"]["residual_b"] == rep_a["brackets"]["residual_a"]
    assert rep_b["screening"]["b"] == rep_a["screening"]["a"]


_REPORT_HASH = """
import hashlib, json, sys
from thermocasimir.config import load_config
from thermocasimir.pipeline import run_pipeline
out = run_pipeline(load_config(json.loads(sys.argv[1])), magnetic_check=False)
print(hashlib.sha256(json.dumps(out["report"], sort_keys=True).encode()).hexdigest())
"""


def test_report_hash_independent_of_blas_threads(fast_config):
    # every screened solve is a block LU that eliminates its small blocks one
    # after another, so the report must not depend on the BLAS thread count;
    # checked on the tiny config and on the two-species acceptance config
    from test_acceptance import TWO_SPECIES
    src_dir = os.path.dirname(os.path.dirname(thermocasimir.__file__))
    for cfg in (fast_config, TWO_SPECIES):
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src_dir] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
            proc = subprocess.run([sys.executable, "-c", _REPORT_HASH, json.dumps(cfg)],
                                  env=env, capture_output=True, text=True,
                                  timeout=600, check=True)
            hashes.append(proc.stdout.split()[-1])
        assert hashes[0] == hashes[1], cfg["slabs"]["species"]


_SCIPY_MODULES = """
import contextlib, io, json, sys
import thermocasimir, thermocasimir.cli
from thermocasimir.config import load_config
from thermocasimir.force import zeta3_quadrature
from thermocasimir.pipeline import run_pipeline, verify_suite

def unwanted_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])

stages = {}
config = load_config(json.loads(sys.argv[1]))
stages["load"] = unwanted_modules()
with contextlib.redirect_stdout(io.StringIO()):
    thermocasimir.cli.main(["zeta3"])
stages["zeta3_verb"] = unwanted_modules()
run_pipeline(config, magnetic_check=True)
stages["run"] = unwanted_modules()
zeta3_quadrature()
stages["zeta3_quadrature"] = unwanted_modules()
verify_suite(config)
stages["verify"] = unwanted_modules()
print(json.dumps(stages))
"""


def test_cold_start_imports_no_scipy(fast_config):
    # importing the package, loading a config, the zeta3 verb, a run with the
    # magnetic probe, zeta3_quadrature and verify_suite load no scipy module
    # (the quadratures are numpy and the screened solve is a numpy block LU)
    # and no numpy.ma (which the first np.unique call of a process imports)
    src_dir = os.path.dirname(os.path.dirname(thermocasimir.__file__))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_MODULES, json.dumps(fast_config)],
                          env=dict(os.environ, PYTHONPATH=src_dir),
                          capture_output=True, text=True, timeout=600, check=True)
    stages = json.loads(proc.stdout.splitlines()[-1])
    assert stages == {stage: [] for stage in
                      ("load", "zeta3_verb", "run", "zeta3_quadrature", "verify")}


_LOADED = ("import sys, {}; print(*sorted(m for m in sys.modules "
           "if m.split('.')[0] in ('numpy', 'thermocasimir')))")


def test_import_loads_no_numpy_random():
    # numpy.random (~12 ms of imports) loads at a basis's first draw, so a
    # process that never draws, and every process's set-up, does not pay it;
    # the package root binds no names, so a bare import of it loads no
    # submodule and no numpy
    src_dir = os.path.dirname(os.path.dirname(thermocasimir.__file__))

    def loaded(module):
        proc = subprocess.run([sys.executable, "-c", _LOADED.format(module)],
                              env=dict(os.environ, PYTHONPATH=src_dir),
                              capture_output=True, text=True, timeout=600, check=True)
        return proc.stdout.split()

    assert "numpy.random" not in loaded("thermocasimir.cli")
    assert loaded("thermocasimir") == ["thermocasimir"]


_HASHLIB = """
import json, sys
import thermocasimir.cli
from thermocasimir.config import load_config

def loaded():
    return sorted(m for m in sys.modules if m.endswith("hashlib"))

stages = {"import": loaded()}
config = load_config(json.loads(sys.argv[1]))
stages["load_config"] = loaded()
config.config_hash()
stages["config_hash"] = loaded()
print(json.dumps(stages))
"""


def test_import_and_config_load_no_hashlib(fast_config):
    # hashlib, and with it OpenSSL's _hashlib (~3 MiB resident), loads when a
    # config is hashed, not when the CLI is imported or a config loaded (a
    # basis's first draw still loads it: numpy.random imports secrets)
    src_dir = os.path.dirname(os.path.dirname(thermocasimir.__file__))
    proc = subprocess.run([sys.executable, "-c", _HASHLIB, json.dumps(fast_config)],
                          env=dict(os.environ, PYTHONPATH=src_dir),
                          capture_output=True, text=True, timeout=600, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import": [], "load_config": [], "config_hash": ["_hashlib", "hashlib"]}


def test_pipeline_reproducibility(fast_config):
    cfg = load_config(copy.deepcopy(fast_config))
    a = run_pipeline(cfg, magnetic_check=False)
    b = run_pipeline(cfg, magnetic_check=False)
    assert set(a["meta"]) == {"timestamp", "wallclock_s"}   # the only run-dependent values
    assert (json.dumps(a["report"], sort_keys=True)
            == json.dumps(b["report"], sort_keys=True))


def test_pipeline_in_physical_units():
    # electron-proton plasma at 300 K, number density 1e15 / cm^3:
    # Debye length ~ 27 nm, separations in the tens of microns
    cfg = {
        "units": "gaussian-cgs",
        "thermo": {"temperature_K": 300.0},
        "slabs": {
            "a": 1.8e-5, "b": 1.8e-5, "neutral": True,
            "species": [
                {"name": "electron", "charge": -4.80320425e-10,
                 "mass": 9.1093837015e-28, "density": 1.0e15,
                 "p_weights": [1.0]},
                {"name": "proton", "charge": 4.80320425e-10,
                 "mass": 1.67262192369e-24, "density": 1.0e15,
                 "p_weights": [1.0]},
            ],
        },
        "sweep": {"d_values": [8.0e-3, 1.6e-2]},
        "seed": 4,
        "numerics": {"nx": 10, "n_paths_kernel": 2},
    }
    report = run_pipeline(load_config(cfg), magnetic_check=False)["report"]
    assert report["certified_all"]
    hier = report["hierarchy"]["satisfied"]
    assert all(hier.values()), hier
    for row in report["results"]:
        assert abs(row["f_assembled"] / row["f_leading"] - 1.0) < 0.02
        assert row["f_leading"] < 0.0


def test_pipeline_universality_across_masses(fast_config):
    heavy = copy.deepcopy(fast_config)
    heavy["slabs"]["species"][0]["mass"] = 7.0
    heavy["slabs"]["species"][1]["mass"] = 0.5
    rep_light = run_pipeline(load_config(copy.deepcopy(fast_config)),
                             magnetic_check=False)
    rep_heavy = run_pipeline(load_config(heavy), magnetic_check=False)
    f_light = [r["f_leading"] for r in rep_light["report"]["results"]]
    f_heavy = [r["f_leading"] for r in rep_heavy["report"]["results"]]
    assert f_light == f_heavy     # bit-identical universal column


# ----------------------------------------------------------------- CLI verbs

def test_cli_zeta3(capsys):
    assert cli.main(["zeta3"]) == 0
    out = capsys.readouterr().out
    assert "0.601028451" in out


def test_cli_run_and_outputs(tmp_path, fast_config, capsys):
    path = _write(tmp_path, fast_config)
    code = cli.main(["run", path, "--out-dir", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
    assert report["certified_all"]
    with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
        sweep = list(csv.DictReader(fh))
    assert list(sweep[0]) == ["d", "f_assembled", "f_leading", "ratio_to_leading",
                              "bracket_a", "bracket_b", "certified"]
    assert len(sweep) == len(fast_config["sweep"]["d_values"])
    assert [row["d"] for row in sweep] == [str(r["d"]) for r in report["results"]]
    # the plate columns repeat the report's brackets and certification
    for row in sweep:
        assert float(row["bracket_a"]) == report["brackets"]["bracket_a"]
        assert float(row["bracket_b"]) == report["brackets"]["bracket_b"]
        assert row["certified"] == str(report["certified_all"])


def test_cli_sweep_with_d_list(tmp_path, fast_config, capsys):
    path = _write(tmp_path, fast_config)
    code = cli.main(["run", path, "--out-dir", str(tmp_path / "out2"),
                     "--d-list", "60", "120", "240"])
    assert code == 0
    out = capsys.readouterr().out
    assert "slope" not in out
    assert out.count("d = ") == 3
    report = json.loads((tmp_path / "out2" / "report.json").read_text())["report"]
    assert [row["d"] for row in report["results"]] == [60.0, 120.0, 240.0]
    sweep = (tmp_path / "out2" / "sweep.csv").read_text().splitlines()
    assert len(sweep) == 4


def test_cli_run_leaves_no_report_when_the_table_cannot_be_written(
        tmp_path, fast_config, capsys):
    # sweep.csv is a directory: the run exits 2 and removes the report.json
    # it had written, so no half of the output is left behind
    out = tmp_path / "out"
    (out / "sweep.csv").mkdir(parents=True)
    cfg = copy.deepcopy(fast_config)
    cfg["numerics"] = dict(TINY_NUMERICS)
    assert cli.main(["run", _write(tmp_path, cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (out / "report.json").exists()
    assert (out / "sweep.csv").is_dir()


def test_cli_verbs_are_documented():
    # the verbs the parser knows are exactly those README's command-line
    # block shows: a verb added or removed without its docs fails here
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    documented = {line.split()[1] for line in block.splitlines()
                  if line.startswith("thermocasimir ")}
    assert set(sub.choices) == {"run", "verify", "zeta3"} == documented


def test_cli_config_error_exit_code(tmp_path, fast_config, capsys):
    bad = copy.deepcopy(fast_config)
    bad["units"] = "imperial"
    path = _write(tmp_path, bad)
    assert cli.main(["run", path]) == 2
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2
    # a directory, a file that is not UTF-8, and an output directory that
    # names an existing file
    (tmp_path / "latin1.json").write_bytes(b'{"units": "r\xe9duced"}')
    (tmp_path / "taken").write_text("")
    good = _write(tmp_path, fast_config, "good.json")
    capsys.readouterr()
    for argv in (["run", str(tmp_path)], ["run", str(tmp_path / "latin1.json")],
                 ["run", good, "--out-dir", str(tmp_path / "taken")]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("config error:"), argv


@pytest.mark.parametrize("knob, value", [
    ("nx", 4.7), ("nx", 1), ("nx", 2), ("n_k", 1), ("n_steps_kernel", 1),
    ("n_paths", 2.5), ("n_paths_kernel", 1.5), ("p_max", 2.0), ("n_k", 3.5),
])
def test_cli_rejects_bad_integer_knob(tmp_path, fast_config, capsys, knob, value):
    bad = copy.deepcopy(fast_config)
    bad["numerics"][knob] = value
    assert cli.main(["run", _write(tmp_path, bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and knob in err
    assert "Traceback" not in err


@pytest.mark.parametrize("where, key, value", [
    ("thermo", "beta", float("inf")),
    ("thermo", "hbar", -0.02),
    ("thermo", "hbar", "x"),
    ("thermo", "hbar", float("inf")),
    ("thermo", "c", 0.0),
    ("thermo", "c", float("nan")),
    ("slabs", "a", float("inf")),
    ("slabs", "b", float("inf")),
    ("species", "mass", float("inf")),
    ("species", "density", float("inf")),
    ("species", "charge", float("inf")),
    ("species", "charge", float("nan")),
    ("numerics", "k0_factor", float("nan")),
    ("numerics", "residual_tolerance", float("inf")),
    ("species", "p_weights", [float("nan"), 1.0]),
    # JSON booleans where numbers belong, and species keys the schema does
    # not know, are malformed too
    ("thermo", "beta", True),
    ("species", "charge", True),
    ("species", "spin", "x"),
    # a non-object block, also where --out-dir writes into it
    ("config", "output", "x"),
])
def test_cli_rejects_non_finite_parameter(tmp_path, fast_config, capsys,
                                          where, key, value):
    bad = copy.deepcopy(fast_config)
    block = {"config": bad, "thermo": bad["thermo"], "slabs": bad["slabs"],
             "species": bad["slabs"]["species"][0],
             "numerics": bad["numerics"]}[where]
    block[key] = value
    path = _write(tmp_path, bad)     # json writes Infinity / NaN
    assert cli.main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert "Traceback" not in err


_HUGE = 10**400      # a JSON integer literal whose float() overflows


@pytest.mark.parametrize("where, key", [
    ("thermo", "beta"), ("thermo", "hbar"), ("thermo", "c"),
    ("gaussian-cgs", "temperature_K"), ("slabs", "a"), ("slabs", "b"),
    ("species", "charge"), ("species", "mass"), ("species", "density"),
    ("species", "p_weights"), ("sweep", "d_values"),
    *[("numerics", knob) for knob in DEFAULT_NUMERICS]])
def test_cli_rejects_huge_integer(tmp_path, fast_config, capsys, where, key):
    # every numeric field is checked the same way: an integer too large for
    # a double is not finite and exits 2 naming the key
    bad = copy.deepcopy(fast_config)
    if where == "gaussian-cgs":
        bad.update(units="gaussian-cgs", thermo={})
    block = {"thermo": bad["thermo"], "gaussian-cgs": bad["thermo"],
             "slabs": bad["slabs"], "species": bad["slabs"]["species"][0],
             "sweep": bad["sweep"], "numerics": bad["numerics"]}[where]
    block[key] = {"p_weights": [0.5, _HUGE], "d_values": [50.0, _HUGE]}.get(key, _HUGE)
    path = _write(tmp_path, bad)
    assert str(_HUGE) in (tmp_path / "config.json").read_text()
    assert cli.main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert "Traceback" not in err


NO_MEDIUM = ("config error: no screening medium: every species has charge or "
             "density 0, so kappa = 0 and nothing screens the border charge\n")


def test_cli_run_without_screening_medium(tmp_path, fast_config, capsys):
    bad = copy.deepcopy(fast_config)
    for sp in bad["slabs"]["species"]:
        sp["density"] = 0.0
    path = _write(tmp_path, bad)
    assert cli.main(["run", path, "--out-dir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == NO_MEDIUM


@pytest.mark.parametrize("verb", ["run", "verify"])
@pytest.mark.parametrize("key", ["density", "charge"])
def test_no_screening_medium_is_a_config_error(tmp_path, fast_config, capsys,
                                               key, verb):
    # load_config rejects kappa = 0 for every verb, with one message
    bad = copy.deepcopy(fast_config)
    for sp in bad["slabs"]["species"]:
        sp[key] = 0.0
    path, out = _write(tmp_path, bad), tmp_path / "out"
    assert cli.main([verb, path, *_out_dir(verb, out)]) == 2
    assert capsys.readouterr().err == NO_MEDIUM
    assert not out.exists()


@pytest.mark.parametrize("d", [float("inf"), float("nan")])
def test_cli_rejects_non_finite_separation(tmp_path, fast_config, capsys, d):
    bad = copy.deepcopy(fast_config)
    bad["sweep"]["d_values"] = [50.0, d]
    path = _write(tmp_path, bad)     # json writes Infinity / NaN
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "d_values" in err
    assert "Traceback" not in err
    good = _write(tmp_path, fast_config, name="good.json")
    assert cli.main(["run", good, "--d-list", "60", str(d)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--d-list" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb, where, key, value", [
    ("run", "sweep", "d_values", [1e-300]),    # d**3 underflows to 0
    ("run", "sweep", "d_values", [1e120]),     # d**3 overflows
    ("run", "sweep", "d_values", [1e300]),
    ("run", "thermo", "beta", 1e300),          # the leading force underflows
    ("verify", "thermo", "beta", 1e300),       # the plate bracket is NaN
])
def test_cli_force_overflow_is_a_config_error(tmp_path, fast_config, capsys,
                                              verb, where, key, value):
    bad = copy.deepcopy(fast_config)
    bad[where][key] = value
    bad["numerics"] = {"nx": 4, "n_paths_kernel": 1}
    path = _write(tmp_path, bad)
    assert cli.main([verb, path, *_out_dir(verb, tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "not a finite nonzero" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("beta", 1e-300), ("hbar", 1e-300), ("c", 1e300), ("c", 1e-300)])
def test_cli_verify_runs_at_extreme_scales(tmp_path, fast_config, capsys, key, value):
    # verify's Lifshitz row runs in unit beta, hbar and c at d = 1e4, so no
    # d**3 of the config's own units underflows or overflows there
    cfg = copy.deepcopy(fast_config)
    cfg["thermo"][key] = value
    cfg["numerics"] = {"nx": 4, "n_paths_kernel": 1}
    assert cli.main(["verify", _write(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_runs_at_a_huge_separation_with_a_finite_force(tmp_path, fast_config,
                                                          capsys):
    # at d = 1e70, d**3 and the leading force are finite doubles (d**5 would
    # overflow): the separation runs
    cfg = copy.deepcopy(fast_config)
    cfg["numerics"] = {"nx": 4, "n_paths_kernel": 1}
    path, out = _write(tmp_path, cfg), tmp_path / "out"
    assert cli.main(["run", path, "--out-dir", str(out), "--d-list", "1e70"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    [row] = json.loads((out / "report.json").read_text())["report"]["results"]
    assert row["d"] == 1e70
    assert all(np.isfinite(row[key]) and row[key] != 0.0
               for key in ("f_leading", "f_assembled"))


TINY_NUMERICS = {"nx": 4, "n_paths_kernel": 1}


@pytest.mark.parametrize("where, key, value, d_values", [
    ("thermo", "beta", 1e300, [1e-3]),    # sinh(k h / 2) overflows
    ("thermo", "hbar", 1e300, None),
    ("slabs", "a", 1e300, None),
    ("slabs", "a", 5e-324, None),         # the cell width underflows to 0
    ("slabs", "b", 1e300, None),          # only the second plate's sweep
    ("species", "mass", 1e-300, None),
    # subnormal cells: mu is not finite, so verify has no k-sweep to start
    ("slabs", "a", 1e-310, None),
    ("slabs", "b", 1e-310, None),
])
def test_cli_non_finite_screening_bracket_is_a_config_error(
        tmp_path, fast_config, capsys, where, key, value, d_values):
    # the overflowing plate solve exits 2 without a NumPy warning on every
    # verb: run's bordered k = 0 solve and verify's, which is followed by the
    # k-sweep and covers both plates too, name the slab that overflows
    bad = copy.deepcopy(fast_config)
    bad["numerics"] = dict(TINY_NUMERICS)
    bad["sweep"]["d_values"] = d_values or bad["sweep"]["d_values"]
    {"thermo": bad["thermo"], "slabs": bad["slabs"],
     "species": bad["slabs"]["species"][0], "numerics": bad["numerics"]}[where][key] = value
    out = tmp_path / "out"
    for verb in ("run", "verify"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([verb, _write(tmp_path, bad), *_out_dir(verb, out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "screening bracket" in err, verb
        assert ("slab-b" if key == "b" else "slab-a") in err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()


@pytest.mark.parametrize("verb", ["run", "verify"])
def test_cli_sweep_knobs_are_unknown(tmp_path, fast_config, capsys, verb):
    # verify takes its k-sweep from the bordered k = 0 solve, so k0_factor and
    # n_k are no numerics knobs: any value of either exits 2 naming the key
    for key, value in (("k0_factor", 0.2), ("n_k", 6), ("k0_factor", 5e-324),
                       ("n_k", 1030)):
        bad = copy.deepcopy(fast_config)
        bad["numerics"] = dict(TINY_NUMERICS, **{key: value})
        out = tmp_path / "out"
        assert cli.main([verb, _write(tmp_path, bad), *_out_dir(verb, out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown numerics knob '{key}'"), key
        assert "Traceback" not in err
        assert not (out / "report.json").exists()


@pytest.mark.parametrize("slabs, species, message", [
    # subnormal cells: the border pivot m.X_1 underflows, so mu overflows and
    # the k = 0 bracket reads NaN
    ({"a": 1e-310, "b": 1e-310}, {}, "not a finite nonzero"),
    # e * e overflows in kappa^2
    ({"neutral": False}, {"charge": 1e200}, "not finite"),
    # the net charge is inf, which the neutrality tolerance cannot catch
    ({}, {"charge": 1e300, "density": 1e300}, "not finite"),
])
def test_cli_degenerate_plasma_or_slabs_is_a_config_error(
        tmp_path, fast_config, capsys, slabs, species, message):
    bad = copy.deepcopy(fast_config)
    bad["numerics"] = dict(TINY_NUMERICS)
    bad["slabs"].update(slabs)
    bad["slabs"]["species"][0].update(species)
    out = tmp_path / "out"
    assert cli.main(["run", _write(tmp_path, bad), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_cli_very_thin_slabs_run_at_the_k0_limit(tmp_path, fast_config):
    # slabs 1e-300 thick: the bordered k = 0 solve reaches the limit that the
    # k-sweep could not, so the brackets are -1 to rounding and the run is
    # certified; the bracket's slope at k = 0 says how small k must be, and
    # the hierarchy flags the thin slabs
    cfg = copy.deepcopy(fast_config)
    cfg["numerics"] = dict(TINY_NUMERICS)
    cfg["slabs"].update(a=1e-300, b=1e-300)
    out = tmp_path / "out"
    assert cli.main(["run", _write(tmp_path, cfg), "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())["report"]
    assert abs(report["brackets"]["bracket_a"] + 1.0) <= 1e-15
    assert report["screening"]["a"]["bracket_slope"]["re"] > 1e299
    assert not report["hierarchy"]["satisfied"]["screen_over_a"]


@pytest.mark.parametrize("width, code", [(1e-3, 0), (1e-300, 4)])
def test_cli_verify_thin_slabs(tmp_path, fast_config, capsys, width, code):
    # verify sweeps from k0 = 0.2 min(kappa, 1/|mu|), so on slabs 1e-3 thick
    # (|mu| ~ 1.8e3, far above 1/kappa) its sweep reaches the k = 0 limit and
    # every row passes; on slabs 1e-300 thick the sweep's wavenumbers of
    # ~1e-301 lose its digits, and the two rows that compare it fail
    cfg = copy.deepcopy(fast_config)
    cfg["numerics"] = dict(TINY_NUMERICS)
    cfg["slabs"].update(a=width, b=width)
    json_out = tmp_path / "verdicts.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", _write(tmp_path, cfg),
                         "--json-out", str(json_out)]) == code
    assert capsys.readouterr().err == ""
    failed = {c["name"] for c in json.loads(json_out.read_text())["checks"]
              if not c["passed"]}
    assert failed == (set() if code == 0 else
                      {"perfect_screening_slab", "k0_matches_sweep"})


def test_cli_overflowing_grid_doubling_record_is_a_config_error(tmp_path, fast_config,
                                                               capsys):
    # the bordered plate solve stays finite, but the grid-doubling record's
    # point-basis solve at k = 0.1 kappa overflows sinh(k h / 2)
    cfg = copy.deepcopy(fast_config)
    cfg["numerics"] = dict(TINY_NUMERICS)
    cfg["slabs"]["a"] = 1e5
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", _write(tmp_path, cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "grid-doubling" in err
    assert not out.exists()


def test_cli_overflowing_capacitor_term_is_a_config_error(tmp_path, capsys):
    # a charged plasma whose plate charges sigma a, sigma b are 2e308: the
    # term 2 pi (sigma a)(sigma b) reads inf, and no report or table is written
    cfg = {"units": "reduced", "thermo": {"beta": 1e-308, "hbar": 0.02, "c": 100.0},
           "slabs": {"a": 2000.0, "b": 2000.0, "neutral": False,
                     "species": [{"name": "plus", "charge": 1.0, "mass": 1.0,
                                  "density": 1e305}]},
           "sweep": {"d_values": [1e4]},
           "numerics": dict(TINY_NUMERICS, n_steps_kernel=4)}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", _write(tmp_path, cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "capacitor" in err and "inf" in err
    assert not out.exists()


@pytest.mark.parametrize("c, code", [(1e-300, 2), (1e200, 0)])
def test_cli_extreme_c_prints_no_warning(tmp_path, fast_config, capsys, c, code):
    # c * c underflows to 0 (a non-finite hierarchy ratio: exit 2) or
    # overflows (cut_over_mat reads 0 and the run goes on), without a warning
    cfg = copy.deepcopy(fast_config)
    cfg["numerics"] = dict(TINY_NUMERICS)
    cfg["thermo"]["c"] = c
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", _write(tmp_path, cfg),
                         "--out-dir", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:") if code else err == ""


# every change of one or two keys of the tiny config to these values either
# runs or exits with a documented code
_FUZZ_KEYS = [
    ("units",), ("thermo", "beta"), ("thermo", "hbar"), ("thermo", "c"),
    ("slabs", "a"), ("slabs", "b"), ("slabs", "neutral"),
    ("slabs", "species", 0, "charge"), ("slabs", "species", 0, "mass"),
    ("slabs", "species", 0, "density"), ("slabs", "species", 0, "p_weights"),
    ("sweep", "d_values"), ("seed",), ("numerics", "nx"),
    ("numerics", "n_k"), ("numerics", "k0_factor"),
    ("numerics", "residual_tolerance"), ("numerics", "n_steps_kernel"),
    ("numerics", "n_paths_kernel"), ("numerics", "p_max"), ("output",)]
_FUZZ_VALUES = [float("nan"), float("inf"), -1, 0, 1e300, 1e-300, 1e-3, 3,
                True, False, "x", [], {}, None, [1e-3], [1e300]]


def _reject_constant(token):
    raise ValueError(f"report.json holds the non-standard token {token}")


def _fuzz_run(changes):
    """Run the tiny config with each (keys, value) of changes applied; the
    exit code must be documented, stderr free of a traceback and a written
    report strict JSON with finite brackets and forces."""
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["numerics"] = dict(TINY_NUMERICS)
    for keys, value in changes:
        block = cfg
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", path, "--out-dir", out])
        report = None
        if os.path.exists(os.path.join(out, "report.json")):
            with open(os.path.join(out, "report.json")) as fh:
                # strict JSON: NaN and Infinity tokens are rejected
                report = json.load(fh, parse_constant=_reject_constant)["report"]
    assert code in (0, 2, 3, 4), (changes, code)
    assert "Traceback" not in err.getvalue(), changes
    if report is not None:
        numbers = list(report["brackets"].values())
        numbers += [row["f_assembled"] for row in report["results"]]
        assert all(math.isfinite(v) for v in numbers), changes


@settings(derandomize=True, database=None, deadline=None,
          max_examples=len(_FUZZ_KEYS) * len(_FUZZ_VALUES))
@given(st.sampled_from(list(itertools.product(_FUZZ_KEYS, _FUZZ_VALUES))))
def test_cli_run_fuzz_single_key(case):
    _fuzz_run([case])


# 210 key pairs x 256 value pairs is too many for every run, so a fixed
# sample of them, after the four pairs that crashed before
@settings(derandomize=True, database=None, deadline=None, max_examples=700)
@given(st.sampled_from(list(itertools.combinations(_FUZZ_KEYS, 2))),
       st.sampled_from(_FUZZ_VALUES), st.sampled_from(_FUZZ_VALUES))
@example((("slabs", "a"), ("slabs", "b")), 1e-300, 1e-300)
@example((("slabs", "neutral"), ("slabs", "species", 0, "charge")), False, 1e300)
@example((("slabs", "species", 0, "charge"), ("slabs", "species", 0, "density")),
         1e300, 1e300)
@example((("slabs", "a"), ("numerics", "residual_tolerance")), 1e5, 1e-3)
def test_cli_run_fuzz_two_keys(keys, first, second):
    _fuzz_run(list(zip(keys, (first, second))))


@pytest.mark.parametrize("d_values", [[50.0], [50.0, 50.0]])
def test_run_at_a_single_separation(tmp_path, d_values):
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg["numerics"] = dict(TINY_NUMERICS)
    cfg["sweep"]["d_values"] = d_values
    out = tmp_path / "out"
    assert cli.main(["run", _write(tmp_path, cfg), "--out-dir", str(out)]) == 0
    with open(out / "report.json") as fh:
        report = json.load(fh, parse_constant=_reject_constant)["report"]
    assert [row["d"] for row in report["results"]] == d_values
    assert report["certified_all"] is True


def test_config_top_level_must_be_an_object(tmp_path, capsys):
    with pytest.raises(ConfigError):
        load_config([1])
    path = _write(tmp_path, [1])
    for extra in ([], ["--seed", "3"]):
        assert cli.main(["run", path, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "JSON object" in err


def test_cli_rejects_non_numeric_d_list(tmp_path, fast_config):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", _write(tmp_path, fast_config), "--d-list", "far"])
    assert exc.value.code == 2


def test_verify_takes_no_out_dir(tmp_path, fast_config):
    # only run writes files, so --out-dir is a usage error on verify
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", _write(tmp_path, fast_config), "--out-dir", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_config_hash_ignores_the_output_directory(tmp_path, fast_config):
    # where the report is written is not part of the physics it describes
    path = _write(tmp_path, fast_config)
    hashes = {cli._load(cli.build_parser().parse_args(["run", path, *out])).config_hash()
              for out in ([], ["--out-dir", "a"], ["--out-dir", "b"])}
    assert len(hashes) == 1


def test_cli_d_list_replaces_d_values_before_validation(tmp_path, fast_config,
                                                       capsys):
    # the list goes into sweep.d_values before load_config: it is what the
    # config hash describes, and no values is an empty sweep (exit 2), not
    # the file's separations
    path = _write(tmp_path, fast_config)
    config = cli._load(cli.build_parser().parse_args(
        ["run", path, "--d-list", "60", "120"]))
    assert config.d_values == [60.0, 120.0]
    listed = copy.deepcopy(fast_config)
    listed["sweep"]["d_values"] = [60.0, 120.0]
    assert config.config_hash() == load_config(listed).config_hash()
    assert config.config_hash() != load_config(copy.deepcopy(fast_config)).config_hash()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.d_values = [1.0]
    assert cli.main(["run", path, "--d-list"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--d-list" in err


def test_cli_solver_error_exit_code(tmp_path, fast_config, monkeypatch, capsys):
    path = _write(tmp_path, fast_config)

    def boom(*args, **kwargs):
        raise SolverError("synthetic failure")

    monkeypatch.setattr("thermocasimir.cli.run_pipeline", boom)
    assert cli.main(["run", path]) == 3
    assert capsys.readouterr().err == "solver error: synthetic failure\n"


def _singular_argument(cfg):
    # a kernel evaluated where it diverges
    sp = cfg.profile.cells[0].species
    loop = point_loop(0.0, sp, cfg.numerics["n_steps_kernel"])
    potentials.vel_fourier(loop, loop, [0.0, 0.0])


def _contract_violation(cfg):
    # a path that breaks the pinned-bridge contract
    line_integral(np.ones((5, 3)), lambda s, x: np.ones(3))


# the two ids name the argument errors that ParameterError took over: a
# singular argument and a broken input contract, raised by the library itself
@pytest.mark.parametrize("failure", [
    pytest.param(_singular_argument, id="SingularArgumentError"),
    pytest.param(_contract_violation, id="ContractViolationError"),
])
def test_cli_argument_error_exit_code(tmp_path, fast_config, monkeypatch, capsys,
                                      failure):
    path = _write(tmp_path, fast_config)
    cfg = load_config(copy.deepcopy(fast_config))
    with pytest.raises(ParameterError):
        failure(cfg)

    def boom(*args, **kwargs):
        failure(cfg)

    monkeypatch.setattr("thermocasimir.cli.run_pipeline", boom)
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_cli_certification_failure_exit_code(tmp_path, fast_config, monkeypatch):
    # the k = 0 residual is at rounding (0.0 on this config), so no tolerance
    # fails it: the plate solve reports a residual above the default one
    _perturb_residuals(monkeypatch, residual_a=0.1)
    path = _write(tmp_path, fast_config)
    assert cli.main(["run", path, "--out-dir", str(tmp_path / "out3")]) == 4


def test_cli_bad_tol_overrides(tmp_path, fast_config, capsys):
    path = _write(tmp_path, fast_config)
    for overrides in ("{not json", "[1]"):
        assert cli.main(["run", path, "--tol-overrides", overrides]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --tol-overrides"), overrides


def test_cli_seed_override(tmp_path, fast_config):
    path = _write(tmp_path, fast_config)
    out = tmp_path / "seeded"
    assert cli.main(["run", path, "--seed", "77", "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["seed"] == 77


# -------------------------------------------------------------- verify verb

@pytest.fixture(scope="module")
def verify_table(fast_config):
    return verify_suite(load_config(copy.deepcopy(fast_config)))


def test_verify_suite_all_pass(verify_table):
    failures = [c for c in verify_table["checks"] if not c["passed"]]
    assert failures == []
    assert verify_table["all_passed"]


def test_verify_suite_memory(fast_config, peak_mib):
    # its peak is the bridge check: 10 products per bridge for 20,480
    # bridges (1.6 MiB) beside one block of 2,048 bridges with its draws and
    # drift product (0.8 MiB each); next come the real 1200-cell
    # bulk_phi_analytic solve (2.5 MiB) and the J0 tail table's transients
    # (1.6 MiB), built once per process.  Measured 4.7 MiB in a fresh
    # process and 4.1 MiB warm; the bound adds 1.3 MiB of margin
    config = load_config(copy.deepcopy(fast_config))
    peak, table = peak_mib(lambda: verify_suite(config))
    assert table["all_passed"]
    assert peak <= 6.0


def test_verify_suite_machine_readable(verify_table):
    assert [c["name"] for c in verify_table["checks"]] == [
        "bridge_covariance_z", "ito_closure_exact", "sampler_determinism",
        "transverse_projector", "photon_factor_periodicity",
        "coulomb_kernel_oracle", "v_transverse_oracle", "wm_classical_limit",
        "wm_resolution_scaling", "bulk_phi_analytic", "perfect_screening_bulk",
        "perfect_screening_slab", "k0_matches_sweep", "geometric_series_identity",
        "bare_kernel_factorization", "zeta3_quadrature_vs_series",
        "assembled_unit_brackets", "lifshitz_factor_half",
        "capacitor_magnetic_decay", "capacitor_neutral_zero",
        "wab_scaling_slope", "wm_gradient_slope"]
    for c in verify_table["checks"]:
        assert set(c) >= {"name", "passed", "value", "tolerance"}


def test_verify_capacitor_row_shares_the_neutrality_test(tmp_path, fast_config,
                                                          capsys):
    # 3 * 0.1 - 0.3 = 5.6e-17 in double precision: load_config accepts the
    # plasma as neutral, so verify's capacitor row must pass too
    cfg = copy.deepcopy(fast_config)
    plus, minus = cfg["slabs"]["species"]
    plus.update(charge=3.0, density=0.1, p_weights=[1.0])
    minus.update(charge=-1.0, density=0.3, p_weights=[1.0])
    assert load_config(copy.deepcopy(cfg)).profile.charge_density() != 0.0
    assert cli.main(["verify", _write(tmp_path, cfg)]) == 0
    # a charged plasma still fails it
    charged = copy.deepcopy(fast_config)
    charged["slabs"]["neutral"] = False
    for sp, density in zip(charged["slabs"]["species"], (0.0397887, 0.03)):
        sp["density"] = density
    capsys.readouterr()
    assert cli.main(["verify", _write(tmp_path, charged)]) == 4
    [line] = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("capacitor_neutral_zero")]
    assert line.split()[1] == "FAIL"


def test_run_capacitor_term_is_exactly_zero_for_neutral_plates(fast_config):
    # 0.1 + 0.2 - 0.3 = 5.6e-17 in double precision: load_config accepts the
    # plasma as neutral, so run's electrostatic capacitor term is exactly 0
    cfg = copy.deepcopy(fast_config)
    cfg["numerics"] = dict(TINY_NUMERICS)
    cfg["slabs"]["species"] = [
        {"name": "plus1", "charge": 1.0, "mass": 1.0, "density": 0.1},
        {"name": "plus2", "charge": 1.0, "mass": 1.0, "density": 0.2},
        {"name": "minus", "charge": -1.0, "mass": 1.0, "density": 0.3}]
    config = load_config(cfg)
    assert config.profile.charge_density() != 0.0
    report = run_pipeline(config, magnetic_check=False)["report"]
    assert report["capacitor"]["electrostatic"] == 0.0


def test_verify_slab_row_reports_the_worse_plate(fast_config):
    # unequal plates: verify sweeps both plates' bases at 16 cells with 4
    # paths, slab b as the slab [-b, 0] on the substream seed + 1, each on
    # six halving wavenumbers from 0.2 min(kappa, 1/|mu|) with mu from its
    # bordered k = 0 solve; its row holds the larger of the two sweep
    # residuals and its note each plate's first wavenumber
    cfg = copy.deepcopy(fast_config)
    cfg["slabs"]["b"] = 4.0
    config = load_config(cfg)
    kappa = float(np.sqrt(config.profile.kappa2()))
    residuals, notes = [], []
    for slab, width, seed in (("a", 6.0, config.seed), ("b", 4.0, config.seed + 1)):
        basis = build_loop_basis(config.profile, width, 16, 4,
                                 config.numerics["n_steps_kernel"], seed)
        mu = perfect_screening_k0(basis, 0.0)["mu"]
        k0 = 0.2 * kappa / max(1.0, kappa * abs(mu))
        residuals.append(check_perfect_screening(
            basis, 0.0, [k0 / 2**n for n in range(6)])["residual_rel"])
        notes.append(f"slab {slab} k0 {k0!r}")
    assert residuals[0] != residuals[1]
    row = [c for c in verify_suite(config)["checks"]
           if c["name"] == "perfect_screening_slab"][0]
    assert row["value"] == max(residuals)
    assert row["passed"]
    assert row["note"].startswith("n_k 6 ") and row["note"].endswith(", ".join(notes))


def test_verify_k0_row_sees_the_straddling_sums(monkeypatch, fast_config):
    # the plates' bases have no straddling pairs, so the row's wide-path probe
    # basis (band 2, 408 straddling pairs) is the one that checks their k^0
    # sums: zeroed, they fail that row and no other
    config = load_config(copy.deepcopy(fast_config))
    assert verify_suite(config)["all_passed"]
    monkeypatch.setattr("thermocasimir.screening._straddling_k0",
                        lambda plan, basis: np.zeros(plan.straddling.size))
    table = verify_suite(config)
    assert [c["name"] for c in table["checks"] if not c["passed"]] == ["k0_matches_sweep"]
    assert not table["all_passed"]


# A NaN after a finite value must not be skipped by a worst-case check: each
# site's closed form (or target) returns NaN, so its row must read NaN and fail.
@pytest.mark.parametrize("row, target", [
    ("bridge_covariance_z", "thermocasimir.loops.bridge_covariance"),
    ("coulomb_kernel_oracle", "thermocasimir.potentials.coulomb_force_kernel"),
    ("v_transverse_oracle", "thermocasimir.potentials.v_transverse_partial"),
    ("transverse_projector", "thermocasimir.potentials._transverse_frame")])
def test_verify_worst_case_rows_propagate_nan(monkeypatch, fast_config, row, target):
    if row == "transverse_projector":
        monkeypatch.setattr(target, lambda khat: np.full((len(khat), 2, 3), np.nan))
    else:
        monkeypatch.setattr(target, lambda *args: math.nan)
    table = verify_suite(load_config(copy.deepcopy(fast_config)))
    check = [c for c in table["checks"] if c["name"] == row][0]
    assert math.isnan(check["value"]) and not check["passed"]
    assert not table["all_passed"]


def test_verify_fails_magnetic_decay_below_three_points(fast_config, monkeypatch):
    # a kernel table with only two points above its rounding floor has no
    # fitted exponent, and the decay gate fails instead of passing
    def flat_kernel(*args, **kwargs):
        x = np.asarray(args[4], dtype=float)
        m = np.full(x.size, 1e-16)
        m[:2] = x[:2]**-6.0
        return m, np.full(x.size, 1e-15)

    monkeypatch.setattr("thermocasimir.potentials.magnetic_capacitor_integrand",
                        flat_kernel)
    table = verify_suite(load_config(copy.deepcopy(fast_config)))
    row = [c for c in table["checks"] if c["name"] == "capacitor_magnetic_decay"][0]
    assert not row["passed"]
    assert row["value"] is None and row["note"].startswith("2 of 12 points")
    assert not table["all_passed"]


def test_cli_verify_exit_and_json(tmp_path, fast_config):
    path = _write(tmp_path, fast_config)
    out_json = tmp_path / "verify.json"
    code = cli.main(["verify", path, "--json-out", str(out_json)])
    assert code == 0
    table = json.loads(out_json.read_text())
    assert table["all_passed"]


@pytest.mark.parametrize("n_steps", [2, 3])
def test_cli_verify_passes_at_coarse_kernel_paths(tmp_path, fast_config, n_steps):
    # n_steps_kernel is the path resolution of the screened solves; the
    # magnetic resolution row builds its circle loops at fixed sizes, so the
    # smallest valid values still pass every row
    path = _write(tmp_path, fast_config)
    out_json = tmp_path / "verify.json"
    overrides = json.dumps({"n_steps_kernel": n_steps})
    code = cli.main(["verify", path, "--tol-overrides", overrides,
                     "--json-out", str(out_json)])
    assert code == 0
    assert json.loads(out_json.read_text())["all_passed"]
