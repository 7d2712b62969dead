import copy
import json
import os
import subprocess
import sys

import pytest

import thermocasimir
from thermocasimir import cli
from thermocasimir.config import load_config
from thermocasimir.errors import ConfigError, SolverError
from thermocasimir.pipeline import run_pipeline, verify_suite

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
    "numerics": {"nx": 8, "n_paths_kernel": 2, "n_k": 4},
}


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def fast_config():
    return copy.deepcopy(BASE_CONFIG)


# --------------------------------------------------------------- validation

def test_config_roundtrip(fast_config):
    cfg = load_config(copy.deepcopy(fast_config))
    assert cfg.thermo.beta == 1.0
    assert cfg.a == 6.0 and cfg.b == 6.0
    assert [sp.name for sp in cfg.species] == ["plus", "minus"]
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
    assert all(r["certified"] for r in rows)


def test_pipeline_sweep_slope(fast_report):
    fit = fast_report["report"]["sweep_fit"]
    assert abs(fit["slope"] + 3.0) < 0.05


def test_pipeline_deviation_dominated_by_inverse_d(fast_report):
    # convergence to the universal law is at least 1/d relative: the observed
    # deviation must fit under a 1/d envelope anchored at the 2% gate
    rows = fast_report["report"]["results"]
    d_min = min(r["d"] for r in rows)
    for r in rows:
        deviation = abs(r["f_assembled"] / r["f_leading"] - 1.0)
        assert deviation <= 0.02 * d_min / r["d"]


def test_pipeline_report_keys(fast_report):
    row = fast_report["report"]["results"][0]
    for key in ("f_leading", "f_assembled", "capacitor_el",
                "capacitor_mag_exponent", "lifshitz", "residuals"):
        assert key in row
    assert "config_hash" in fast_report["report"]
    assert fast_report["report"]["capacitor"]["electrostatic"] == 0.0


def test_pipeline_screening_diagnostics(fast_report):
    # identical slabs: only slab a is solved, and every operator pair of its
    # basis falls in exactly one assembly class
    screening = fast_report["report"]["screening"]
    assert list(screening) == ["a"]
    size = screening["a"]["basis_size"]
    assert size > 0
    assert sorted(screening["a"]["pairs"]) == ["above_below", "inside",
                                               "straddling"]
    assert sum(screening["a"]["pairs"].values()) == size**2


_REPORT_HASH = """
import hashlib, json, sys
from thermocasimir.config import load_config
from thermocasimir.pipeline import run_pipeline
out = run_pipeline(load_config(json.loads(sys.argv[1])), magnetic_check=False)
print(hashlib.sha256(json.dumps(out["report"], sort_keys=True).encode()).hexdigest())
"""


def test_report_hash_independent_of_blas_threads(fast_config):
    # tiny config: at a few hundred operator rows threaded OpenBLAS LU already
    # changes the last bits of the brackets
    cfg = copy.deepcopy(fast_config)
    src_dir = os.path.dirname(os.path.dirname(thermocasimir.__file__))
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src_dir] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run([sys.executable, "-c", _REPORT_HASH, json.dumps(cfg)],
                              env=env, capture_output=True, text=True,
                              timeout=600, check=True)
        hashes.append(proc.stdout.split()[-1])
    assert hashes[0] == hashes[1]


def test_pipeline_reproducibility(fast_config):
    cfg = load_config(copy.deepcopy(fast_config))
    a = run_pipeline(cfg, magnetic_check=False)
    b = run_pipeline(cfg, magnetic_check=False)
    assert a["meta"] != b["meta"] or True     # meta may differ (timestamps)
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
        "numerics": {"nx": 10, "n_paths_kernel": 2, "n_k": 4},
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
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["report"]["certified_all"]
    sweep = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert sweep[0].startswith("d,f_assembled,f_leading")
    assert len(sweep) == 1 + len(fast_config["sweep"]["d_values"])


def test_cli_sweep_with_d_list(tmp_path, fast_config, capsys):
    path = _write(tmp_path, fast_config)
    code = cli.main(["sweep", path, "--out-dir", str(tmp_path / "out2"),
                     "--d-list", "60", "120", "240"])
    assert code == 0
    out = capsys.readouterr().out
    assert "slope" in out
    sweep = (tmp_path / "out2" / "sweep.csv").read_text().splitlines()
    assert len(sweep) == 4


def test_cli_config_error_exit_code(tmp_path, fast_config):
    bad = copy.deepcopy(fast_config)
    bad["units"] = "imperial"
    path = _write(tmp_path, bad)
    assert cli.main(["run", path]) == 2
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("knob, value", [
    ("nx", 4.7), ("nx", 1), ("n_k", 1), ("n_steps_kernel", 1),
    ("n_paths", 2.5), ("n_paths_kernel", 1.5), ("p_max", 2.0), ("n_k", 3.5),
])
def test_cli_rejects_bad_integer_knob(tmp_path, fast_config, capsys, knob, value):
    bad = copy.deepcopy(fast_config)
    bad["numerics"][knob] = value
    assert cli.main(["run", _write(tmp_path, bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and knob in err
    assert "Traceback" not in err


def test_cli_solver_error_exit_code(tmp_path, fast_config, monkeypatch):
    path = _write(tmp_path, fast_config)

    def boom(*args, **kwargs):
        raise SolverError("synthetic failure", condition_number=1e18)

    monkeypatch.setattr("thermocasimir.cli.run_pipeline", boom)
    assert cli.main(["run", path]) == 3


def test_cli_certification_failure_exit_code(tmp_path, fast_config):
    path = _write(tmp_path, fast_config)
    code = cli.main(["run", path, "--out-dir", str(tmp_path / "out3"),
                     "--tol-overrides", '{"residual_tolerance": 1e-15}'])
    assert code == 4


def test_cli_bad_tol_overrides(tmp_path, fast_config):
    path = _write(tmp_path, fast_config)
    assert cli.main(["run", path, "--tol-overrides", "{not json"]) == 2


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
    failures = [c for c in verify_table["checks"]
                if not c["passed"] and not c["expected_fail"]]
    assert failures == []
    assert verify_table["all_passed"]


def test_verify_suite_machine_readable(verify_table):
    names = {c["name"] for c in verify_table["checks"]}
    assert {"bridge_covariance_z", "ito_closure_exact", "transverse_projector",
            "coulomb_kernel_oracle", "perfect_screening_slab",
            "zeta3_quadrature_vs_series", "wab_scaling_slope"} <= names
    for c in verify_table["checks"]:
        assert set(c) >= {"name", "passed", "value", "tolerance", "expected_fail"}


def test_verify_suite_expected_fail_without_medium(fast_config):
    cfg = copy.deepcopy(fast_config)
    for sp in cfg["slabs"]["species"]:
        sp["density"] = 0.0
    table = verify_suite(load_config(cfg))
    slab = [c for c in table["checks"]
            if c["name"] == "perfect_screening_slab"][0]
    assert slab["expected_fail"] and not slab["passed"]
    assert table["all_passed"]


def test_cli_verify_exit_and_json(tmp_path, fast_config):
    path = _write(tmp_path, fast_config)
    out_json = tmp_path / "verify.json"
    code = cli.main(["verify", path, "--json-out", str(out_json)])
    assert code == 0
    table = json.loads(out_json.read_text())
    assert table["all_passed"]
