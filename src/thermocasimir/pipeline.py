"""Pipeline orchestration: sample -> solve -> assemble, the verification suite,
and report emission (JSON report, CSV sweep tables)."""
from __future__ import annotations

import csv
import datetime
import json
import os
import time

import numpy as np

from . import force as force_mod
from . import loops as loops_mod
from . import potentials as pot
from . import screening as scr
from .config import RunConfig

__all__ = ["run_pipeline", "verify_suite", "write_report", "write_sweep_csv",
           "standard_magnetic_probe", "compute_plate_brackets"]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _k_sequence(kappa: float, numerics: dict) -> list:
    k0 = numerics["k0_factor"] * kappa
    return [k0 / 2.0**n for n in range(int(numerics["n_k"]))]


def compute_plate_brackets(config: RunConfig, geometry: scr.SlabGeometry,
                           profile: scr.DensityProfile):
    """Single-plate solves along the wavenumber sequence for both slabs.

    Identical slabs are mirror images of each other through the gap, so the
    second bracket is reused from the first; otherwise both are solved.
    "screening" holds, per solved slab, the basis size and the operator's
    pair counts per assembly class.
    """
    numerics = config.numerics
    kappa = np.sqrt(profile.kappa2("a"))
    k_seq = _k_sequence(kappa, numerics)
    border = loops_mod.SpeciesParams.from_thermo(
        "border", charge=1.0, mass=config.species[0].mass, thermo=config.thermo)

    def solve_side(slab: str):
        basis = scr.build_loop_basis(
            geometry, profile, config.thermo, slab=slab,
            n_paths=int(numerics["n_paths_kernel"]),
            n_steps=int(numerics["n_steps_kernel"]),
            seed=config.seed if slab == "a" else config.seed + 1)
        src = loops_mod.point_loop(0.0, border,
                                   n_steps=int(numerics["n_steps_kernel"]))
        diagnostics = {"basis_size": basis.size,
                       "pairs": basis.pair_class_counts()}
        return scr.check_perfect_screening(basis, src, k_seq), diagnostics

    res_a, diag_a = solve_side("a")
    mirror = (abs(config.a - config.b) < 1e-12 * config.a
              and geometry.nx_a == geometry.nx_b)
    res_b, diag_b = (res_a, None) if mirror else solve_side("b")
    return {
        "screening": {"a": diag_a} if mirror else {"a": diag_a, "b": diag_b},
        "bracket_a": float(np.real(res_a["bracket"])),
        "bracket_b": float(np.real(res_b["bracket"])),
        "residual_a": res_a["residual_rel"],
        "residual_b": res_b["residual_rel"],
        "extrapolation_a": res_a["extrapolation_correction"],
        "extrapolation_b": res_b["extrapolation_correction"],
        "mirror_reused": mirror,
        "k_sequence": list(k_seq),
        "kappa": float(kappa),
    }


def _grid_doubling_table(config: RunConfig, profile) -> dict:
    """Grid-convergence record: relative change of the classical border column
    under doubling of the cell count, evaluated away from the border cusp."""
    kappa2 = profile.kappa2("a")
    if kappa2 <= 0.0:
        return {"grid_doubling_delta": None}
    kappa = float(np.sqrt(kappa2))
    k = 0.1 * kappa
    deltas = {}
    nx = int(config.numerics["nx"])
    cols = {}
    for n in (nx, 2 * nx):
        h = config.a / n
        xc = -config.a + h / 2 + h * np.arange(n)
        cols[n] = (xc, scr.classical_slab_solve(
            xc, h, np.full(n, kappa2), k, np.array([0.0]))[:, 0])
    xc, coarse = cols[nx]
    xf, fine = cols[2 * nx]
    interp = np.interp(xc, xf, fine)
    mask = xc < -2.0 * config.a / nx
    delta = float(np.max(np.abs(interp - coarse)[mask] / np.abs(interp)[mask]))
    deltas["grid_doubling_delta"] = delta
    deltas["nx"] = nx
    return deltas


def standard_magnetic_probe(seed: int = 7):
    """Fixed dimensionless probe for the interplate magnetic capacitor kernel.

    The decay-exponent statement is scale-free, so the probe runs in its own
    length units chosen to keep the transform resolvable in double precision
    over the fitted window (photon length 12, de Broglie lengths ~0.5).
    """
    thermo = loops_mod.ThermoState(beta=1.0, hbar=0.5, c=12.0)
    sp1 = loops_mod.SpeciesParams.from_thermo("probe1", 1.0, 1.0, thermo)
    sp2 = loops_mod.SpeciesParams.from_thermo("probe2", -1.0, 0.6, thermo)
    l1 = loops_mod.Loop(0.0, sp1, 1, loops_mod.sample_bridge(1, 48, [seed, 0]))
    l2 = loops_mod.Loop(0.0, sp2, 1, loops_mod.sample_bridge(1, 48, [seed, 1]))
    ff = pot.FormFactor(k_cut=2.5)
    xv = np.geomspace(5.0, 50.0, 12)
    mv = pot.magnetic_capacitor_integrand(l1, l2, thermo, ff, xv, n_quad=3000)
    return {"x_values": xv.tolist(), "m_values": mv.tolist(),
            "loops": (l1, l2), "thermo": thermo, "form_factor": ff}


def run_pipeline(config: RunConfig, magnetic_check: bool = True) -> dict:
    """Execute the full chain for every separation in the sweep.

    The plate brackets are separation-independent single-plate quantities and
    are computed once; each separation then gets its assembled force, the
    capacitor terms, the regime references and the certification verdict.
    """
    t_start = time.perf_counter()
    profile = config.density_profile()
    kappa = np.sqrt(profile.kappa2("a"))
    lam_s = 1.0 / kappa if kappa > 0 else np.inf
    geometry = scr.SlabGeometry(a=config.a, b=config.b, d=min(config.d_values),
                                nx_a=int(config.numerics["nx"]),
                                nx_b=int(config.numerics["nx"]))
    brackets = compute_plate_brackets(config, geometry, profile)

    sigma_a = profile.charge_density("a") * config.a
    sigma_b = profile.charge_density("b") * config.b
    mag_exponent = None
    wab_scale = 0.0
    if magnetic_check:
        probe = standard_magnetic_probe(seed=config.seed + 17)
        _, mag_exponent = force_mod.capacitor_force(
            sigma_a, sigma_b, magnetic_decay=probe)
        l1, l2 = probe["loops"]
        wab_scale = abs(pot.wab_asymptotic(l1, l2, np.array([1.0, 0.0]), 1.0,
                                           probe["thermo"]))

    residuals = {"a": brackets["residual_a"], "b": brackets["residual_b"]}
    results = []
    for d in sorted(config.d_values):
        fb = force_mod.assemble_force(
            config.thermo, d,
            bracket_a=brackets["bracket_a"], bracket_b=brackets["bracket_b"],
            sumrule_residuals=residuals,
            residual_tolerance=config.numerics["residual_tolerance"],
            capacitor_el=2.0 * np.pi * sigma_a * sigma_b,
            capacitor_mag_exponent=mag_exponent,
            wab_scale=wab_scale,
            quad_abs_tol=config.numerics["quad_abs_tol"])
        results.append(fb)

    ds = np.array([fb.d for fb in results])
    fs = np.array([fb.f_assembled for fb in results])
    slope, stderr = (force_mod.fit_loglog_slope(ds, fs)
                     if len(results) > 1 else (np.nan, np.nan))
    mean_mass = float(np.mean([sp.mass for sp in config.species]))
    convergence = _grid_doubling_table(config, profile)
    report = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "units": config.units,
        "kappa": float(kappa),
        "lambda_screen": float(lam_s),
        "hierarchy": geometry.hierarchy_report(config.thermo, mean_mass, lam_s),
        "brackets": {k: v for k, v in brackets.items()
                     if k not in ("k_sequence", "screening")},
        "screening": brackets["screening"],
        "k_sequence": brackets["k_sequence"],
        "capacitor": {"electrostatic": 2.0 * np.pi * sigma_a * sigma_b,
                      "magnetic_exponent": mag_exponent},
        "results": [fb.to_json_dict() for fb in results],
        "sweep_fit": {"slope": float(slope), "stderr": float(stderr)},
        "convergence": convergence,
        "certified_all": all(fb.certified for fb in results),
    }
    meta = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wallclock_s": time.perf_counter() - t_start,
    }
    return {"meta": meta, "report": _jsonable(report)}


def write_report(report: dict, out_dir: str, name: str = "report.json") -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_sweep_csv(report: dict, out_dir: str, name: str = "sweep.csv") -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["d", "f_assembled", "f_leading", "ratio_to_leading",
                    "bracket_a", "bracket_b", "certified"])
        for row in report["report"]["results"]:
            w.writerow([row["d"], row["f_assembled"], row["f_leading"],
                        row["f_assembled"] / row["f_leading"],
                        row["bracket_a"], row["bracket_b"], row["certified"]])
    return path


# ----------------------------------------------------------------------------
# verification suite
# ----------------------------------------------------------------------------

def _check(name, passed, value, tolerance, expected_fail=False, note=""):
    return {"name": name, "passed": bool(passed), "value": _jsonable(value),
            "tolerance": _jsonable(tolerance), "expected_fail": expected_fail,
            "note": note}


def verify_suite(config: RunConfig) -> dict:
    """Run every module's invariant checks at reduced cost and emit a
    machine-readable verdict table.  Failures are data, not exceptions."""
    checks = []
    thermo = config.thermo
    rng_seed = config.seed
    n_steps_kernel = int(config.numerics["n_steps_kernel"])

    # --- bridge statistics ------------------------------------------------
    n_samp = max(10_000, 80 * int(config.numerics["n_paths"]))
    paths = loops_mod.sample_bridge_ensemble(1, 16, [rng_seed, 101], n_samp)
    rng = np.random.default_rng([rng_seed, 102])
    worst_z = 0.0
    for _ in range(10):
        i, j = sorted(rng.integers(1, 16, size=2))
        s, sp = i / 16.0, j / 16.0
        prod = paths[:, i, 0] * paths[:, j, 0]
        target = loops_mod.bridge_covariance(1, s, sp)
        z = abs(prod.mean() - target) / (prod.std(ddof=1) / np.sqrt(n_samp))
        worst_z = max(worst_z, z)
    checks.append(_check("bridge_covariance_z", worst_z < 5.0, worst_z, 5.0))

    ito = loops_mod.line_integral(paths[0], lambda s, x: np.array([1.0, 0.0, 0.0]))
    checks.append(_check("ito_closure_exact", ito == 0.0, ito, 0.0))

    again = loops_mod.sample_bridge(1, 16, [rng_seed, 101])
    first = loops_mod.sample_bridge(1, 16, [rng_seed, 101])
    checks.append(_check("sampler_determinism", np.array_equal(again, first),
                         float(np.max(np.abs(again - first))), 0.0))

    # --- projector and photon factor ---------------------------------------
    rng = np.random.default_rng([rng_seed, 103])
    ks = rng.normal(size=(1000, 3))
    worst = 0.0
    for kv in ks:
        p = pot.transverse_delta(kv)
        worst = max(worst, np.max(np.abs(p @ p - p)), np.max(np.abs(p @ kv)))
    checks.append(_check("transverse_projector", worst < 1e-12, worst, 1e-12))

    qper = abs(pot.eval_Q(1.3, 0.375 + 1.0, 2.0) - pot.eval_Q(1.3, 0.375, 2.0))
    checks.append(_check("photon_factor_periodicity", qper == 0.0, qper, 0.0))

    # --- closed-form kernels vs oracles ------------------------------------
    rng = np.random.default_rng([rng_seed, 104])
    worst = 0.0
    for _ in range(10):
        q = rng.uniform(0.05, 4.0)
        dval = rng.uniform(5.0, 50.0)
        x1 = rng.uniform(-0.3 * dval, 0.0)
        x2 = rng.uniform(0.0, 0.3 * dval)
        a = pot.coulomb_force_kernel(x1, x2, q, dval)
        b = pot.coulomb_force_kernel_oracle(x1, x2, q, dval)
        worst = max(worst, abs(a - b) / abs(a))
    checks.append(_check("coulomb_kernel_oracle", worst < 1e-6, worst, 1e-6))

    worst = 0.0
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0)
        qv = rng.uniform(0.3, 2.0, size=2)
        mu, nu = rng.integers(0, 3, size=2)
        a = pot.v_transverse_partial(x, qv, int(mu), int(nu))
        b = pot.v_transverse_partial_oracle(x, qv, int(mu), int(nu))
        worst = max(worst, abs(a - b))
    checks.append(_check("v_transverse_oracle", worst < 1e-8, worst, 1e-8))

    # --- magnetic kernel: classical limit and resolution scaling ----------
    probe_th = loops_mod.ThermoState(beta=1.0, hbar=0.4, c=1.0)
    sp = loops_mod.SpeciesParams.from_thermo("probe", 1.0, 1.0, probe_th)
    ff = pot.FormFactor(k_cut=3.0)
    l1 = loops_mod.Loop(0.0, sp, 1, loops_mod.sample_bridge(1, 32, [rng_seed, 105]))
    l2 = loops_mod.Loop(0.5, sp, 1, loops_mod.sample_bridge(1, 32, [rng_seed, 106]))
    kvec3 = np.array([0.7, 0.4, 0.0])
    tiny = loops_mod.ThermoState(beta=1.0, hbar=1e-6, c=1e-3)
    wq = pot.wm_pair_fourier(l1, l2, kvec3, tiny, ff)
    wc = pot.wm_pair_fourier(l1, l2, kvec3, tiny, ff, photon="classical")
    rel = abs(wq - wc) / abs(wc)
    checks.append(_check("wm_classical_limit", rel < 1e-8, rel, 1e-8))

    def circle_loop(n):
        s = np.arange(n + 1) / n
        path = np.column_stack([np.cos(2 * np.pi * s) - 1.0,
                                np.sin(2 * np.pi * s),
                                np.zeros(n + 1)])
        path[0] = 0.0
        path[-1] = 0.0
        return loops_mod.Loop(0.3, sp, 1, path)

    w_ref = pot.wm_pair_fourier(circle_loop(8 * n_steps_kernel),
                                circle_loop(8 * n_steps_kernel), kvec3,
                                probe_th, ff)
    drift = abs(pot.wm_pair_fourier(circle_loop(n_steps_kernel),
                                    circle_loop(n_steps_kernel), kvec3,
                                    probe_th, ff) - w_ref) / abs(w_ref)
    drift2 = abs(pot.wm_pair_fourier(circle_loop(2 * n_steps_kernel),
                                     circle_loop(2 * n_steps_kernel), kvec3,
                                     probe_th, ff) - w_ref) / abs(w_ref)
    order = np.log2(drift / drift2) if drift2 > 0 else np.inf
    checks.append(_check("wm_resolution_scaling", 1.5 < order, order, "> 1.5",
                         note="midpoint bias shrinks as n_steps^-2 on smooth "
                              "loops; tolerance widens accordingly at low "
                              "n_steps"))

    # --- screening ---------------------------------------------------------
    profile = config.density_profile()
    kappa2 = profile.kappa2("a")
    if kappa2 > 0.0:
        kappa = float(np.sqrt(kappa2))
        n = 1200
        span = 30.0 / kappa
        h = span / n
        xc = -span / 2 + h / 2 + h * np.arange(n)
        phi = scr.classical_slab_solve(xc, h, np.full(n, kappa2), 0.7 * kappa,
                                       np.array([0.0]))[:, 0]
        mask = np.abs(xc) < 2.0 / kappa
        exact = scr.bulk_phi_analytic(xc[mask], 0.0, 0.7 * kappa, kappa)
        rel = float(np.max(np.abs(phi[mask] - exact) / exact))
        checks.append(_check("bulk_phi_analytic", rel < 2e-4, rel, 2e-4))

        k_seq = _k_sequence(kappa, config.numerics)
        oracle = scr.bulk_sum_rule_oracle(kappa, k_seq)
        checks.append(_check("perfect_screening_bulk",
                             oracle["residual_rel"] < 1e-3,
                             oracle["residual_rel"], 1e-3))
    geometry = scr.SlabGeometry(a=config.a, b=config.b, d=min(config.d_values),
                                nx_a=16, nx_b=16)
    basis = scr.build_loop_basis(geometry, profile, thermo, "a",
                                 n_paths=4, n_steps=n_steps_kernel,
                                 seed=config.seed)
    border = loops_mod.SpeciesParams.from_thermo(
        "border", 1.0, config.species[0].mass, thermo)
    src = loops_mod.point_loop(0.0, border, n_steps=n_steps_kernel)
    if kappa2 > 0.0:
        k_seq = _k_sequence(float(np.sqrt(kappa2)), config.numerics)
        slab_res = scr.check_perfect_screening(basis, src, k_seq)
        checks.append(_check("perfect_screening_slab",
                             slab_res["residual_rel"] < 1e-2,
                             slab_res["residual_rel"], 1e-2))
    else:
        checks.append(_check("perfect_screening_slab", False, 1.0, 1e-2,
                             expected_fail=True,
                             note="no screening medium: rule fails as expected"))

    # --- traversing-chain identities ---------------------------------------
    qtest = 1.0
    series = sum(np.exp(-2.0 * n * qtest) * qtest * np.exp(-qtest)
                 / (2.0 * np.pi * 1.0) for n in range(200))
    closed = scr.geometric_chain_prefactor(qtest, 1.0)
    gerr = abs(series - closed) / closed
    checks.append(_check("geometric_series_identity", gerr < 1e-14, gerr, 1e-14))

    lam_bare = thermo.de_broglie(config.species[0].mass)
    path_a = loops_mod.sample_bridge(1, n_steps_kernel, [rng_seed, 108])
    path_b = loops_mod.sample_bridge(1, n_steps_kernel, [rng_seed, 109])
    margin = lam_bare * max(np.max(np.abs(path_a[:, 0])),
                            np.max(np.abs(path_b[:, 0]))) + 0.1
    conf_a = loops_mod.Loop(-margin, config.species[0], 1, path_a)
    conf_b = loops_mod.Loop(+margin, config.species[0], 1, path_b)
    dtest = 4.0 * margin
    kv = np.array([0.5 / margin, 0.0])
    shifted = loops_mod.Loop(conf_b.x + dtest, conf_b.species, conf_b.p,
                             conf_b.path, y=conf_b.y)
    lhs = pot.vel_fourier(conf_a, shifted, kv)
    border0 = loops_mod.point_loop(0.0, border, n_steps=n_steps_kernel)
    va = pot.vel_fourier(conf_a, border0, kv)
    vb = pot.vel_fourier(border0, conf_b, kv)
    k = float(np.hypot(*kv))
    rhs = (k * np.exp(-k * dtest) / (2.0 * np.pi)) * va * vb
    ferr = abs(lhs - rhs) / abs(lhs)
    checks.append(_check("bare_kernel_factorization", ferr < 1e-8, ferr, 1e-8,
                         note="requires paths confined to their slabs"))

    # --- force-level checks -------------------------------------------------
    z3 = abs(force_mod.zeta3_quadrature() - force_mod.zeta3_series_oracle())
    checks.append(_check("zeta3_quadrature_vs_series", z3 < 1e-10, z3, 1e-10))

    fb = force_mod.assemble_force(thermo, 100.0, -1.0, -1.0, {"a": 0.0, "b": 0.0})
    exact_match = abs(fb.f_assembled - fb.f_leading) <= 1e-15 * abs(fb.f_leading)
    checks.append(_check("assembled_unit_brackets", exact_match,
                         fb.f_assembled / fb.f_leading - 1.0, 1e-15))

    r1 = force_mod.lifshitz_reference(thermo, 1e4 * thermo.lambda_ph, "rTE1",
                                      "high-T/large-d")
    r0 = force_mod.lifshitz_reference(thermo, 1e4 * thermo.lambda_ph, "rTE0",
                                      "high-T/large-d")
    checks.append(_check("lifshitz_factor_half", r1 / r0 == 2.0, r1 / r0, 2.0))

    probe = standard_magnetic_probe(seed=rng_seed + 17)
    _, exponent = force_mod.capacitor_force(0.0, 0.0, magnetic_decay=probe)
    checks.append(_check("capacitor_magnetic_decay", exponent > 4.0,
                         exponent, 4.0))
    neutral_sigma = profile.charge_density("a") * config.a
    cap_el, _ = force_mod.capacitor_force(neutral_sigma,
                                          profile.charge_density("b") * config.b)
    checks.append(_check("capacitor_neutral_zero", cap_el == 0.0, cap_el, 0.0))

    # --- scaling fits --------------------------------------------------------
    th_probe = probe["thermo"]
    l1p, l2p = probe["loops"]
    l1p = loops_mod.Loop(-0.4, l1p.species, 1, l1p.path)
    l2p = loops_mod.Loop(0.6, l2p.species, 1, l2p.path)
    dlist = np.geomspace(10.0, 1000.0, 6)
    qv2 = np.array([1.0, 0.4])
    wvals = [abs(pot.wab_pair_finite_d(l1p, l2p, qv2, dv, th_probe))
             for dv in dlist]
    slope_w, _ = force_mod.fit_loglog_slope(dlist, wvals)
    checks.append(_check("wab_scaling_slope", abs(slope_w + 1.0) < 0.05,
                         slope_w, "-1 +/- 0.05"))
    gvals = [abs(pot.wm_gradient_ab(l1p, l2p, qv2, dv, th_probe))
             for dv in dlist]
    slope_g, _ = force_mod.fit_loglog_slope(dlist, gvals)
    checks.append(_check("wm_gradient_slope", abs(slope_g + 2.0) < 0.1,
                         slope_g, "-2 +/- 0.1"))

    all_passed = all(c["passed"] or c["expected_fail"] for c in checks)
    return {"checks": checks, "all_passed": all_passed}
