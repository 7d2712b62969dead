"""Pipeline orchestration: sample -> solve -> assemble, the verification suite,
and report emission (the JSON report with its CSV sweep table)."""
from __future__ import annotations

import csv
import datetime
import io
import json
import math
import os
import time

import numpy as np

from . import force as force_mod
from . import loops as loops_mod
from . import potentials as pot
from . import screening as scr
from .config import RunConfig
from .errors import ParameterError

__all__ = ["run_pipeline", "verify_suite", "write_report",
           "standard_magnetic_probe"]


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


def _plates(config: RunConfig, nx: int, n_paths: int, solve) -> dict:
    """solve(basis) of each plate's basis: the slab [-width, 0] with the unit
    border charge at x = 0 on its inner face, on nx cells with n_paths paths
    per (species, charge number) cell.  Slab b is the mirror image of the
    slab [-b, 0] through the gap, so identical slabs reuse the first plate;
    otherwise slab b is solved as that mirror image on the substream seed +
    1.  An overflowing solve runs without NumPy warnings, and a non-finite
    "bracket" of its result raises ParameterError naming the slab.  Returns
    {slab: (basis, result)}."""
    n_steps = config.numerics["n_steps_kernel"]
    mirror = abs(config.a - config.b) < 1e-12 * config.a
    out = {}
    for slab, width, seed in (("a", config.a, config.seed),
                              ("b", config.b, config.seed + 1))[:1 if mirror else 2]:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            basis = scr.build_loop_basis(config.profile, width, nx, n_paths=n_paths,
                                         n_steps=n_steps, seed=seed)
            result = solve(basis)
        force_mod._finite_nonzero(result["bracket"], f"the slab-{slab} screening bracket")
        out[slab] = basis, result
    return out


def _plate_brackets(config: RunConfig, nx: int, n_paths: int) -> dict:
    """The report's "brackets" and "screening" blocks: one bordered k = 0
    solve per plate (screening.perfect_screening_k0, see _plates).
    "screening" holds, per solved slab, the basis size, the operator's stored
    pair counts per class ("inside" and "straddling", read from the pair
    plan), its band half-width in cells and the bracket's slope at k = 0
    ("bracket_slope", -mu: the bracket is -1 + slope k + O(k^2)).  A
    mirrored plate has no "b" entry there, and "brackets" repeats slab a's
    bracket and residual as bracket_b and residual_b."""
    plates = _plates(config, nx, n_paths,
                     lambda basis: scr.perfect_screening_k0(basis, 0.0))
    screening = {slab: {"basis_size": basis.size,
                        "pairs": {"inside": basis.plan.inside.size,
                                  "straddling": basis.plan.straddling.size},
                        "band_cells": basis.plan.band, "bracket_slope": -res["mu"]}
                 for slab, (basis, res) in plates.items()}
    res_a, res_b = plates["a"][1], plates.get("b", plates["a"])[1]
    brackets = {
        "bracket_a": res_a["bracket"],
        "bracket_b": res_b["bracket"],
        "residual_a": res_a["residual_rel"],
        "residual_b": res_b["residual_rel"],
    }
    return {"brackets": brackets, "screening": screening}


def _k0_sweep(basis: scr.LoopBasis, kappa: float) -> dict:
    """The bordered k = 0 solve of basis, then check_perfect_screening's sweep
    on k0 / 2^n, n < 6, k0 = 0.2 min(kappa, 1/|mu|) (the bracket -1 - mu k
    leaves -1 over 1/|mu|: << 1/kappa on a thin slab), with "k0", the relative
    "deviation" of Phi_0 and -mu from the limits of Phi (over its largest
    entry) and (bracket + 1) / k, and their relative Richardson "correction".
    A k = 0 solve whose bracket is not finite is returned as it is."""
    k0 = scr.perfect_screening_k0(basis, 0.0)
    if not math.isfinite(k0["bracket"]):
        return k0
    k_seq = [0.2 * kappa / max(1.0, kappa * abs(k0["mu"])) / 2**n for n in range(6)]
    sweep = scr.check_perfect_screening(basis, 0.0, k_seq)
    slope, slope_correction = scr.richardson_extrapolate(
        [(v + 1.0) / k for v, k in zip(sweep["per_k"], k_seq)])
    scale = np.max(np.abs(sweep["phi"]))
    return {**sweep, "k0": k_seq[0],
            "deviation": np.max([np.max(np.abs(k0["phi"] - sweep["phi"])) / scale,
                                 abs(-k0["mu"] - slope) / abs(slope)]),
            "correction": np.max([sweep["phi_correction"] / scale,
                                  slope_correction / abs(slope)])}


def _wide_path_sweep() -> dict:
    """_k0_sweep of a fixed basis whose paths straddle cell faces (band 2,
    408 straddling pairs): the slab [-2, 0] at hbar 0.25, 4 cells, 3 paths."""
    thermo = loops_mod.ThermoState(beta=1.0, hbar=0.25, c=100.0)
    plasma = scr.DensityProfile(1.0, tuple(
        scr.SpeciesDensity(loops_mod.SpeciesParams.from_thermo(name, e, mass, thermo),
                           p, share / (8.0 * np.pi))
        for name, e, mass, p, share in (("plus", 1.0, 1.0, 1, 1.0),
                                        ("minus", -1.0, 2.0, 1, 1.0),
                                        ("plus", 1.0, 1.0, 2, 0.1))))
    return _k0_sweep(scr.build_loop_basis(plasma, 2.0, 4, 3, 8, 9),
                     math.sqrt(plasma.kappa2()))


_HIERARCHY_FACTOR = 0.25      # a length ratio below this counts as small


def _hierarchy(config: RunConfig, lam_s: float) -> dict:
    """Ratios of the length hierarchy the asymptotics relies on, at the
    smallest separation, with flags (the mean mass over the distinct (charge,
    mass) of the cells with loops: a species of density 0 is absent); a ratio
    that is not finite (e.g. c so small that the cut-off length overflows)
    raises ParameterError."""
    thermo, d = config.thermo, min(config.d_values)
    species = dict.fromkeys((c.species.charge, c.species.mass)
                            for c in config.profile.cells if c.loop_density > 0)
    mean_mass = float(np.mean([mass for _, mass in species]))
    lam_mat = thermo.de_broglie(mean_mass)
    # c * c, not c**2 (OverflowError at c ~ 1e154); c * c = 0 gives lam_cut = inf
    with np.errstate(divide="ignore"):
        lam_cut = lam_mat / np.sqrt(thermo.beta * mean_mass * (thermo.c * thermo.c))
    ratios = {
        "cut_over_mat": lam_cut / lam_mat,
        "mat_over_ph": lam_mat / thermo.lambda_ph,
        "ph_over_d": thermo.lambda_ph / d,
        "screen_over_a": lam_s / config.a,
        "screen_over_b": lam_s / config.b,
        "a_over_d": config.a / d,
        "b_over_d": config.b / d,
    }
    if not all(np.isfinite(v) for v in ratios.values()):
        raise ParameterError(f"a length-hierarchy ratio is not finite: {ratios}")
    return {"ratios": ratios,
            "satisfied": {k: bool(v < _HIERARCHY_FACTOR) for k, v in ratios.items()}}


def _point_basis(kappa2: float, width: float, nx: int) -> scr.LoopBasis:
    """The classical plasma of this kappa^2 on the slab [-width, 0]: one unit-charge
    point species (lambda_ = 0, density kappa^2 / 4 pi, beta = 1), one entry per cell."""
    point = loops_mod.SpeciesParams("point", 1.0, 1.0, 0.0)
    plasma = scr.DensityProfile(1.0, (scr.SpeciesDensity(point, 1, kappa2 / (4.0 * np.pi)),))
    return scr.build_loop_basis(plasma, width, nx, 1, 2, 0)


def _screened_column(basis: scr.LoopBasis, x_src: float, k: float) -> np.ndarray:
    """The screened solve against a unit point charge at x_src (real: a point basis)."""
    return scr.assemble_kernel_matrix(basis, k).solve(scr.source_column(basis, x_src, k))


def _grid_doubling_table(config: RunConfig) -> dict:
    """Grid-convergence record: relative change of the classical border column
    under doubling of the cell count, evaluated away from the border cusp; a
    record that overflows (slab too thick for k = 0.1 kappa) raises ParameterError."""
    kappa2, nx = config.profile.kappa2(), config.numerics["nx"]
    k = 0.1 * float(np.sqrt(kappa2))
    with np.errstate(over="ignore", invalid="ignore"):
        coarse, fine = (_point_basis(kappa2, config.a, n) for n in (nx, 2 * nx))
        interp = np.interp(coarse.x_cells, fine.x_cells, _screened_column(fine, 0.0, k))
        change = np.abs(interp - _screened_column(coarse, 0.0, k))
    mask = coarse.x_cells < -2.0 * config.a / nx
    delta = float(np.max(change[mask] / np.abs(interp)[mask]))
    if not math.isfinite(delta):
        raise ParameterError(f"the grid-doubling record of slab a is {delta!r}, "
                             "not finite: the slab is too thick for k = 0.1 kappa")
    return {"grid_doubling_delta": delta, "nx": nx}


def standard_magnetic_probe(seed: int):
    """Fixed dimensionless probe for the interplate magnetic capacitor kernel.

    The decay-exponent statement is scale-free, so the probe runs in its own
    length units chosen to keep the transform resolvable in double precision
    over the fitted window (photon length 12, de Broglie lengths ~0.5).
    The kernel is tabulated at 12 separations X in [5, 50] on the
    MAGNETIC_N_QUAD-node Gauss rule ("n_quad") with the regulator cut-off
    "k_cut" = 2.5.  "m_floor" is the per-X rounding floor of that rule; the
    decay fit (force.magnetic_decay_fit) uses only the points above it.
    """
    thermo = loops_mod.ThermoState(beta=1.0, hbar=0.5, c=12.0)
    sp1 = loops_mod.SpeciesParams.from_thermo("probe1", 1.0, 1.0, thermo)
    sp2 = loops_mod.SpeciesParams.from_thermo("probe2", -1.0, 0.6, thermo)
    l1 = loops_mod.Loop(0.0, sp1, 1, loops_mod.sample_bridge(1, 48, [seed, 0]))
    l2 = loops_mod.Loop(0.0, sp2, 1, loops_mod.sample_bridge(1, 48, [seed, 1]))
    k_cut = 2.5
    xv = np.geomspace(5.0, 50.0, 12)
    mv, floor = pot.magnetic_capacitor_integrand(l1, l2, thermo, k_cut, xv)
    return {"x_values": xv.tolist(), "m_values": mv.tolist(),
            "m_floor": floor.tolist(), "n_quad": pot.MAGNETIC_N_QUAD,
            "loops": (l1, l2), "thermo": thermo, "k_cut": k_cut}


def run_pipeline(config: RunConfig, magnetic_check: bool = True) -> dict:
    """Execute the full chain for every separation in the sweep.

    The plate brackets, the capacitor terms and the certification are
    separation-independent and are set once; each separation then gets its
    universal and assembled forces.  With magnetic_check the
    probe's decay exponent and fit record are stored in "capacitor".
    The results are certified when both sum-rule residuals are below
    residual_tolerance (a NaN residual never is).  An electrostatic
    capacitor term that overflows raises ParameterError.
    """
    t_start = time.perf_counter()
    kappa = np.sqrt(config.profile.kappa2())
    sigma = config.profile.charge_imbalance()      # load_config's neutrality test
    capacitor_el = force_mod.capacitor_force(sigma * config.a, sigma * config.b)
    if not math.isfinite(capacitor_el):
        raise ParameterError(f"electrostatic capacitor term {capacitor_el!r} is not finite")
    plates = _plate_brackets(config, config.numerics["nx"],
                             config.numerics["n_paths_kernel"])
    brackets = plates["brackets"]
    mag_exponent, mag_fit = None, None
    if magnetic_check:
        probe = standard_magnetic_probe(seed=config.seed + 17)
        mag_exponent, n_points = force_mod.magnetic_decay_fit(probe)
        mag_fit = {"n_quad": probe["n_quad"],
                   "floor_max": max(probe["m_floor"]),
                   "points_fitted": n_points}

    results = force_mod.assemble_force(
        config.thermo, sorted(config.d_values), brackets["bracket_a"],
        brackets["bracket_b"])
    convergence = _grid_doubling_table(config)
    # np.max, not max: a NaN residual must propagate instead of being skipped
    residual_max = np.max([brackets["residual_a"], brackets["residual_b"]])
    report = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "units": config.units,
        "kappa": float(kappa),
        "hierarchy": _hierarchy(config, 1.0 / kappa),
        **plates,
        "capacitor": {"electrostatic": capacitor_el,
                      "magnetic_exponent": mag_exponent,
                      "magnetic_fit": mag_fit},
        "results": results,
        "convergence": convergence,
        "certified_all": bool(residual_max < config.numerics["residual_tolerance"]),
    }
    meta = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wallclock_s": time.perf_counter() - t_start,
    }
    return {"meta": meta, "report": _jsonable(report)}


def write_report(report: dict, out_dir: str) -> str:
    """Write the report as strict JSON to out_dir/report.json and its sweep
    table to out_dir/sweep.csv; returns the report's path.  Both texts are
    serialised before either file is opened, and a failed write removes the
    files this call wrote: output that cannot be written leaves no file."""
    rep, table = report["report"], io.StringIO()
    w = csv.writer(table)
    w.writerow(["d", "f_assembled", "f_leading", "ratio_to_leading",
                "bracket_a", "bracket_b", "certified"])
    plates = [rep["brackets"]["bracket_a"], rep["brackets"]["bracket_b"],
              rep["certified_all"]]
    w.writerows([r["d"], r["f_assembled"], r["f_leading"],
                 r["f_assembled"] / r["f_leading"], *plates] for r in rep["results"])
    texts = [json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n",
             table.getvalue()]
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in ("report.json", "sweep.csv")]
    written = []
    try:
        for path, text in zip(paths, texts):
            with open(path, "w", newline="") as fh:
                written.append(path)
                fh.write(text)
    except BaseException:
        for path in written:
            os.remove(path)
        raise
    return paths[0]


# ----------------------------------------------------------------------------
# verification suite
# ----------------------------------------------------------------------------
# The sampled checks are shared with the acceptance gates and unit tests, each
# caller with its own sizes and seeds.  Oracles are looked up as pot.<name> so
# that wrappers installed on the module (perfbench's spans) see every call.

_BRIDGE_BLOCK = 2048      # bridges per draw of bridge_statistics (0.8 MiB at 16 steps)


def bridge_statistics(n_samples: int, ensemble_seed, pair_seed):
    """Worst covariance z-score of n_samples 16-step unit bridges over 10
    random time pairs, and the line integral of a constant along path 0.
    The bridges are drawn from the one stream default_rng(ensemble_seed) in
    blocks of _BRIDGE_BLOCK paths, each block keeping only the products of
    the x coordinate that the z-scores read (and path 0), so memory is one
    block plus 10 products per bridge and every statistic is that of one
    draw of all n_samples bridges."""
    rng = np.random.default_rng(pair_seed)
    i, j = np.array([sorted(rng.integers(1, 16, size=2)) for _ in range(10)]).T
    stream = np.random.default_rng(ensemble_seed)
    prod = np.empty((10, n_samples))
    for a in range(0, n_samples, _BRIDGE_BLOCK):
        paths = loops_mod.sample_bridge_ensemble(
            1, 16, stream, min(_BRIDGE_BLOCK, n_samples - a))
        prod[:, a:a + len(paths)] = (paths[:, i, 0] * paths[:, j, 0]).T
        if a == 0:
            path0 = paths[0].copy()
    z = [abs(row.mean() - loops_mod.bridge_covariance(1, ii / 16.0, jj / 16.0))
         / (row.std(ddof=1) / np.sqrt(n_samples)) for row, ii, jj in zip(prod, i, j)]
    ito = loops_mod.line_integral(path0, lambda s, x: np.array([1.0, -2.0, 0.5]))
    return float(np.max(z)), ito


def coulomb_kernel_error(rng, n: int) -> float:
    """Worst relative deviation of the slab force kernel from its Hankel
    oracle over n random (q, d, x1, x2) tuples drawn from rng (NaN if any is)."""
    dev = []
    for _ in range(n):
        q = rng.uniform(0.05, 4.0)
        d = rng.uniform(5.0, 50.0)
        x1 = rng.uniform(-0.3 * d, 0.0)
        x2 = rng.uniform(0.0, 0.3 * d)
        closed = pot.coulomb_force_kernel(x1, x2, q, d)
        oracle = pot.coulomb_force_kernel_oracle(x1, x2, q, d)
        dev.append(abs(closed - oracle) / abs(closed))
    return float(np.max(dev))


def v_transverse_error(rng, n: int) -> float:
    """Worst absolute deviation of v_transverse_partial from its quadrature
    oracle over n random tuples (NaN if any is); |q| < 0.3 is shifted by 0.5
    off q = 0."""
    dev = []
    for _ in range(n):
        x = rng.uniform(-2.0, 2.0)
        qv = rng.uniform(-2.0, 2.0, size=2)
        if np.hypot(*qv) < 0.3:
            qv = qv + 0.5
        mu, nu = rng.integers(0, 3, size=2)
        closed = pot.v_transverse_partial(x, qv, int(mu), int(nu))
        oracle = pot.v_transverse_partial_oracle(x, qv, int(mu), int(nu))
        dev.append(abs(closed - oracle))
    return float(np.max(dev))


def dipolar_slopes(l1, l2, thermo):
    """Log-log slopes of |W_AB| and |dW_AB/dx| against d in
    geomspace(10, 1000, 6) at in-plane q = (1, 0.4); expected -1 and -2."""
    qv = np.array([1.0, 0.4])
    ds = np.geomspace(10.0, 1000.0, 6)
    wab = [abs(pot.wab_pair_finite_d(l1, l2, qv, d, thermo)) for d in ds]
    grad = [abs(pot.wm_gradient_ab(l1, l2, qv, d, thermo)) for d in ds]
    return tuple(force_mod.fit_loglog_slope(ds, v)[0] for v in (wab, grad))


def _check(name, value, tolerance, passed=None, note=""):
    passed = value < tolerance if passed is None else passed
    return {"name": name, "passed": bool(passed), "value": _jsonable(value),
            "tolerance": _jsonable(tolerance), "note": note}


def verify_suite(config: RunConfig) -> dict:
    """Run every module's invariant checks at reduced cost and emit a
    machine-readable verdict table.  Failures are data, not exceptions; the
    screening rows need kappa > 0, which load_config guarantees."""
    checks = []
    thermo = config.thermo
    rng_seed = config.seed
    n_steps_kernel = config.numerics["n_steps_kernel"]

    # --- bridge statistics ------------------------------------------------
    worst_z, ito = bridge_statistics(20_480, [rng_seed, 101], [rng_seed, 102])
    checks.append(_check("bridge_covariance_z", worst_z, 5.0))
    checks.append(_check("ito_closure_exact", ito, 0.0, ito == 0.0))

    again = loops_mod.sample_bridge(1, 16, [rng_seed, 101])
    first = loops_mod.sample_bridge(1, 16, [rng_seed, 101])
    checks.append(_check("sampler_determinism", float(np.max(np.abs(again - first))),
                         0.0, np.array_equal(again, first)))

    # --- the magnetic kernel's transverse frame and photon factor ----------
    rng = np.random.default_rng([rng_seed, 103])
    ks = np.vstack([rng.normal(size=(1000, 3)), np.eye(3)])
    khat = ks / np.linalg.norm(ks, axis=1)[:, None]
    e = pot._transverse_frame(khat)
    # orthonormal, orthogonal to K, and summing to the projector delta - K^K^T
    worst = np.max([np.max(np.abs(e @ e.transpose(0, 2, 1) - np.eye(2))),
                    np.max(np.abs(e @ khat[:, :, None])),
                    np.max(np.abs(np.einsum("mci,mcj->mij", e, e) - np.eye(3)
                                  + khat[:, :, None] * khat[:, None, :]))])
    checks.append(_check("transverse_projector", worst, 1e-12))

    qper = abs(pot.eval_Q(1.3, 0.375 + 1.0, 2.0) - pot.eval_Q(1.3, 0.375, 2.0))
    checks.append(_check("photon_factor_periodicity", qper, 0.0, qper == 0.0))

    # --- closed-form kernels vs oracles ------------------------------------
    rng = np.random.default_rng([rng_seed, 104])
    checks.append(_check("coulomb_kernel_oracle",
                         coulomb_kernel_error(rng, 10), 1e-6))
    checks.append(_check("v_transverse_oracle",
                         v_transverse_error(rng, 10), 1e-8))

    # --- magnetic kernel: classical limit and resolution scaling ----------
    probe_th = loops_mod.ThermoState(beta=1.0, hbar=0.4, c=1.0)
    sp = loops_mod.SpeciesParams.from_thermo("probe", 1.0, 1.0, probe_th)
    l1 = loops_mod.Loop(0.0, sp, 1, loops_mod.sample_bridge(1, 32, [rng_seed, 105]))
    l2 = loops_mod.Loop(0.5, sp, 1, loops_mod.sample_bridge(1, 32, [rng_seed, 106]))
    kvec3 = np.array([0.7, 0.4, 0.0])
    tiny = loops_mod.ThermoState(beta=1.0, hbar=1e-6, c=1e-3)
    wq = pot.wm_pair_fourier(l1, l2, kvec3, tiny, 3.0)
    wc = pot.wm_pair_fourier(l1, l2, kvec3, tiny, 3.0, photon="classical")
    rel = abs(wq - wc) / abs(wc)
    checks.append(_check("wm_classical_limit", rel, 1e-8))

    def circle_loop(n):
        s = np.arange(n + 1) / n
        path = np.column_stack([np.cos(2 * np.pi * s) - 1.0,
                                np.sin(2 * np.pi * s),
                                np.zeros(n + 1)])
        path[0] = 0.0
        path[-1] = 0.0
        return loops_mod.Loop(0.3, sp, 1, path)

    w_ref, w1, w2 = (pot.wm_pair_fourier(circle_loop(n), circle_loop(n), kvec3,
                                         probe_th, 3.0) for n in (128, 16, 32))
    drift, drift2 = abs(w1 - w_ref) / abs(w_ref), abs(w2 - w_ref) / abs(w_ref)
    order = np.log2(drift / drift2) if drift2 > 0 else np.inf
    checks.append(_check("wm_resolution_scaling", order, "> 1.5", 1.5 < order,
                         note="midpoint bias shrinks as n_steps^-2 on smooth "
                              "loops: 16 and 32 steps against 128"))

    # --- screening ---------------------------------------------------------
    kappa2 = config.profile.kappa2()
    kappa = float(np.sqrt(kappa2))
    span = 30.0 / kappa
    bulk = _point_basis(kappa2, span, 1200)
    phi = _screened_column(bulk, -span / 2, 0.7 * kappa)
    mask = np.abs(bulk.x_cells + span / 2) < 2.0 / kappa
    exact = scr.bulk_phi_analytic(bulk.x_cells[mask], -span / 2, 0.7 * kappa, kappa)
    rel = float(np.max(np.abs(phi[mask] - exact) / exact))
    checks.append(_check("bulk_phi_analytic", rel, 2e-4))

    oracle = scr.bulk_sum_rule_oracle(kappa, [0.2 * kappa / 2**n for n in range(6)])
    checks.append(_check("perfect_screening_bulk", oracle["residual_rel"], 1e-3))
    sweeps = {f"slab {slab}": res for slab, (_, res) in _plates(
        config, 16, 4, lambda basis: _k0_sweep(basis, kappa)).items()}
    note = "n_k 6 halving wavenumbers from k0 = 0.2 min(kappa, 1/|mu|): " + ", ".join(
        f"{name} k0 {res['k0']!r}" for name, res in sweeps.items())
    checks.append(_check("perfect_screening_slab",     # the worse plate
                         np.max([res["residual_rel"] for res in sweeps.values()]),
                         1e-2, note=note))
    sweeps["probe"] = probe = _wide_path_sweep()
    checks.append(_check(
        "k0_matches_sweep", np.max([res["deviation"] for res in sweeps.values()]),
        1e-6 + 10.0 * np.max([res["correction"] for res in sweeps.values()]),
        note="1e-6 plus 10 times the sweep's relative Richardson correction; "
             f"{note}, wide-path probe k0 {probe['k0']!r}"))

    # --- traversing-chain identities ---------------------------------------
    qtest = 1.0
    series = sum(np.exp(-2.0 * n * qtest) * qtest * np.exp(-qtest)
                 / (2.0 * np.pi * 1.0) for n in range(200))
    closed = scr.geometric_chain_prefactor(qtest, 1.0)
    gerr = abs(series - closed) / closed
    checks.append(_check("geometric_series_identity", gerr, 1e-14))

    first = config.profile.cells[0].species
    lam_bare = thermo.de_broglie(first.mass)
    path_a = loops_mod.sample_bridge(1, n_steps_kernel, [rng_seed, 108])
    path_b = loops_mod.sample_bridge(1, n_steps_kernel, [rng_seed, 109])
    margin = lam_bare * max(np.max(np.abs(path_a[:, 0])),
                            np.max(np.abs(path_b[:, 0]))) + 0.1
    conf_a = loops_mod.Loop(-margin, first, 1, path_a)
    conf_b = loops_mod.Loop(+margin, first, 1, path_b)
    dtest = 4.0 * margin
    kv = np.array([0.5 / margin, 0.0])
    shifted = loops_mod.Loop(conf_b.x + dtest, conf_b.species, conf_b.p,
                             conf_b.path, y=conf_b.y)
    src = loops_mod.point_loop(0.0, first, n_steps=n_steps_kernel)
    lhs = pot.vel_fourier(conf_a, shifted, kv)
    va = pot.vel_fourier(conf_a, src, kv)
    vb = pot.vel_fourier(src, conf_b, kv)
    k = float(np.hypot(*kv))
    rhs = (k * np.exp(-k * dtest) / (2.0 * np.pi)) * va * vb
    ferr = abs(lhs - rhs) / abs(lhs)
    checks.append(_check("bare_kernel_factorization", ferr, 1e-8,
                         note="requires paths confined to their slabs"))

    # --- force-level checks -------------------------------------------------
    z3 = abs(force_mod.zeta3_quadrature() - force_mod.zeta3_series_oracle())
    checks.append(_check("zeta3_quadrature_vs_series", z3, 1e-10))

    [row] = force_mod.assemble_force(thermo, [100.0], -1.0, -1.0)
    f_asm, f_lead = row["f_assembled"], row["f_leading"]
    checks.append(_check(
        "assembled_unit_brackets", f_asm / f_lead - 1.0, 1e-15,
        passed=abs(f_asm - f_lead) <= 1e-15 * abs(f_lead)))

    unit = loops_mod.ThermoState(beta=1.0, hbar=1.0, c=1.0)    # rTE1 / rTE0 is scale-free
    r1, r0 = (force_mod.lifshitz_reference(unit, 1e4, mode) for mode in ("rTE1", "rTE0"))
    checks.append(_check("lifshitz_factor_half", r1 / r0, 2.0, r1 / r0 == 2.0))

    probe = standard_magnetic_probe(seed=rng_seed + 17)
    exponent, n_points = force_mod.magnetic_decay_fit(probe)
    checks.append(_check("capacitor_magnetic_decay", exponent, 4.0,
                         passed=exponent is not None and exponent > 4.0,
                         note=f"{n_points} of {len(probe['m_values'])} points "
                              f"above the rounding floor fitted"))
    sigma = config.profile.charge_imbalance()      # load_config's neutrality test
    cap_el = force_mod.capacitor_force(sigma * config.a, sigma * config.b)
    checks.append(_check("capacitor_neutral_zero", cap_el, 0.0, cap_el == 0.0))

    # --- scaling fits --------------------------------------------------------
    l1p, l2p = probe["loops"]
    slope_w, slope_g = dipolar_slopes(
        loops_mod.Loop(-0.4, l1p.species, 1, l1p.path),
        loops_mod.Loop(0.6, l2p.species, 1, l2p.path), probe["thermo"])
    checks.append(_check("wab_scaling_slope", slope_w, "-1 +/- 0.05",
                         passed=abs(slope_w + 1.0) < 0.05))
    checks.append(_check("wm_gradient_slope", slope_g, "-2 +/- 0.1",
                         passed=abs(slope_g + 2.0) < 0.1))

    all_passed = all(c["passed"] for c in checks)
    return {"checks": checks, "all_passed": all_passed}
