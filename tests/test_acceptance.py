"""Acceptance gates: every criterion at its stated tolerance, one pass/fail
line per criterion on stdout (run with -s to see them live)."""
import copy
import time

import numpy as np
import pytest

from thermocasimir import force as fc
from thermocasimir import loops as lo
from thermocasimir import potentials as pot
from thermocasimir import screening as scr
from thermocasimir.config import load_config
from thermocasimir.pipeline import (_point_basis, _screened_column,
                                    bridge_statistics, coulomb_kernel_error,
                                    dipolar_slopes, run_pipeline,
                                    standard_magnetic_probe, v_transverse_error)

LAMBDA_SCREEN = 0.9534625892455922          # of the default two-species plasma

TWO_SPECIES = {
    "units": "reduced",
    "thermo": {"beta": 1.0, "hbar": 0.02, "c": 100.0},
    "slabs": {
        "a": 6.0, "b": 6.0, "neutral": True,
        "species": [
            {"name": "plus", "charge": 1.0, "mass": 1.0,
             "density": 0.039788735772973836},
            {"name": "minus", "charge": -1.0, "mass": 1.0,
             "density": 0.039788735772973836},
        ],
    },
    "sweep": {"d_values": [100.0 * LAMBDA_SCREEN, 200.0 * LAMBDA_SCREEN,
                           400.0 * LAMBDA_SCREEN]},
    "seed": 2024,
    "numerics": {"nx": 24, "n_paths_kernel": 6},
}

THREE_SPECIES = {
    "units": "reduced",
    "thermo": {"beta": 1.0, "hbar": 0.02, "c": 100.0},
    "slabs": {
        "a": 6.0, "b": 6.0, "neutral": True,
        "species": [
            {"name": "double", "charge": 2.0, "mass": 3.0,
             "density": 0.013262911924324612},
            {"name": "light", "charge": -1.0, "mass": 0.8,
             "density": 0.013262911924324612},
            {"name": "heavy", "charge": -1.0, "mass": 2.5,
             "density": 0.013262911924324612},
        ],
    },
    "sweep": {"d_values": [100.0 * LAMBDA_SCREEN, 200.0 * LAMBDA_SCREEN,
                           400.0 * LAMBDA_SCREEN]},
    "seed": 2024,
    "numerics": {"nx": 24, "n_paths_kernel": 6},
}


def _report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} -- {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def pipeline_runs():
    out = {}
    for tag, cfg in (("two-species", TWO_SPECIES), ("three-species", THREE_SPECIES)):
        t0 = time.perf_counter()
        out[tag] = run_pipeline(load_config(copy.deepcopy(cfg)))
        out[tag]["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_1_universal_asymptote(pipeline_runs):
    worst = 0.0
    leading_columns = []
    for tag, rep in pipeline_runs.items():
        rows = rep["report"]["results"]
        leading_columns.append(tuple(r["f_leading"] for r in rows))
        for r in rows:
            worst = max(worst, abs(r["f_assembled"] / r["f_leading"] - 1.0))
        assert rep["elapsed"] < 600.0, f"{tag} exceeded the runtime budget"
    identical = leading_columns[0] == leading_columns[1]
    runtimes = ", ".join(f"{tag} {rep['elapsed']:.1f} s"
                         for tag, rep in pipeline_runs.items())
    _report(
        "1 (universal asymptote)",
        worst < 0.02 and identical,
        f"max |assembled/universal - 1| = {worst:.3e} (tol 2e-2); "
        f"universal columns bit-identical across compositions: {identical}; "
        f"runtimes: {runtimes}")


def test_criterion_2_zeta3_quadrature():
    t0 = time.perf_counter()
    quad_val = fc.zeta3_quadrature()
    elapsed = time.perf_counter() - t0
    series_val = fc.zeta3_series_oracle()
    diff = abs(quad_val - series_val)
    _report("2 (zeta(3)/2 quadrature)",
            diff < 1e-10 and elapsed < 1.0,
            f"|quadrature - series| = {diff:.2e} (tol 1e-10), "
            f"runtime {elapsed * 1000:.0f} ms (budget 1 s)")


def test_criterion_3_factor_half(pipeline_runs):
    th = lo.ThermoState(beta=1.0, hbar=0.02, c=100.0)
    row = pipeline_runs["two-species"]["report"]["results"][1]
    d = row["d"]
    r1 = fc.lifshitz_reference(th, d, "rTE1")
    r0 = fc.lifshitz_reference(th, d, "rTE0")
    ratio_exact = (r1 / r0 == 2.0)
    frac = row["f_assembled"] / r1
    _report("3 (factor-1/2 regime split)",
            ratio_exact and abs(frac - 0.5) < 0.01,
            f"rTE1/rTE0 = {r1 / r0} (exact 2 required); "
            f"assembled/rTE1 = {frac:.6f} (0.5 within 2e-2 of itself)")


def test_criterion_4_perfect_screening(pipeline_runs):
    res = pipeline_runs["two-species"]["report"]["brackets"]
    slab_resid = max(res["residual_a"], res["residual_b"])
    kappa = pipeline_runs["two-species"]["report"]["kappa"]
    k_seq = [0.2 * kappa / 2**n for n in range(6)]
    bulk = scr.bulk_sum_rule_oracle(kappa, k_seq)
    _report("4 (perfect screening)",
            slab_resid < 1e-2 and bulk["residual_rel"] < 1e-3,
            f"slab residual {slab_resid:.2e} (tol 1e-2), "
            f"bulk oracle residual {bulk['residual_rel']:.2e} (tol 1e-3)")


def test_criterion_5_factorization_asymptotics():
    kappa = 1.0
    a = 6.0
    nx = 300
    q = 1.0
    basis = _point_basis(kappa**2, a, nx)      # the classical plasma
    cols = [_screened_column(basis, 0.0, k) for k in (0.2 / 2**n for n in range(6))]
    phi_a0, _ = scr.richardson_extrapolate(cols)
    phi_a0 = np.real(phi_a0)
    phi_b0 = phi_a0[::-1]
    dlist = np.array([20.0, 50.0, 120.0, 250.0, 500.0])   # in screening lengths
    devs = []
    for d in dlist:
        phi_ab = scr.coupled_two_slab_solve(basis, d, q / d)
        fact = scr.factorize_phi_ab(phi_a0, phi_b0, q, d)
        ii = [nx - 1, nx - 10, nx - 40]
        jj = [0, 9, 39]
        devs.append(np.median([abs(phi_ab[i, j] - fact[i, j]) / abs(fact[i, j])
                               for i in ii for j in jj]))
    slope, stderr = fc.fit_loglog_slope(dlist, devs)
    _report("5 (factorization asymptotics)",
            abs(slope + 1.0) < 0.1,
            f"deviation slope {slope:.3f} +/- {stderr:.3f} (target -1 +/- 0.1) "
            f"over d/lambda_s in [20, 500]")


def test_criterion_6_scaling_estimates():
    th = lo.ThermoState(beta=1.0, hbar=0.5, c=12.0)
    sp1 = lo.SpeciesParams.from_thermo("p1", +1.0, 1.0, th)
    sp2 = lo.SpeciesParams.from_thermo("p2", -1.0, 0.6, th)
    l1 = lo.Loop(-0.4, sp1, 1, lo.sample_bridge(1, 48, [7, 0]))
    l2 = lo.Loop(0.6, sp2, 1, lo.sample_bridge(1, 48, [7, 1]))
    slope_w, slope_g = dipolar_slopes(l1, l2, th)
    _report("6 (scaling estimates)",
            abs(slope_w + 1.0) < 0.05 and abs(slope_g + 2.0) < 0.1,
            f"interplate dipolar slope {slope_w:.4f} (-1 +/- 0.05), "
            f"normal-gradient slope {slope_g:.4f} (-2 +/- 0.1)")


def test_criterion_7_bridge_statistics():
    worst_z, ito = bridge_statistics(100_000, 2000, 31)
    _report("7 (bridge statistics)",
            worst_z < 3.0 and ito == 0.0,
            f"worst covariance deviation {worst_z:.2f} standard errors "
            f"(tol 3) over 1e5 samples; closed-path line integral of a "
            f"constant = {ito} (exact 0 required)")


def test_criterion_8_closed_form_kernels():
    rng = np.random.default_rng(8)
    worst_coulomb = coulomb_kernel_error(rng, 100)
    worst_vt = v_transverse_error(rng, 100)
    _report("8 (closed-form kernels)",
            worst_coulomb < 1e-6 and worst_vt < 1e-8,
            f"slab force kernel vs Hankel oracle: {worst_coulomb:.2e} "
            f"(tol 1e-6); transverse partial transform vs quadrature: "
            f"{worst_vt:.2e} (tol 1e-8); 100 random tuples each")


def test_criterion_9_monopole_reduction():
    th = lo.ThermoState(beta=1.0, hbar=0.4, c=10.0)
    spp = lo.SpeciesParams.from_thermo("p", +1.0, 1.0, th)
    spm = lo.SpeciesParams.from_thermo("m", -1.0, 1.5, th)
    n = 24
    l_a = [lo.Loop(-0.8, spp, 1, lo.sample_bridge(1, n, [5, 0])),
           lo.Loop(-0.3, spm, 2, lo.sample_bridge(2, n, [5, 1]))]
    l_b = [lo.Loop(0.4, spp, 1, lo.sample_bridge(1, n, [5, 2]),
                   y=np.array([0.6, -0.2])),
           lo.Loop(0.9, spm, 3, lo.sample_bridge(3, n, [5, 3]),
                   y=np.array([-0.3, 0.5]))]
    d = 5.0
    full = sum(li.species.charge * lj.species.charge
               * pot.coulomb_force_full(li, lj, d)
               for li in l_a for lj in l_b)
    mono = sum(li.species.charge * lj.species.charge
               * pot.coulomb_force_monopole_shifted(li, lj, d)
               for li in l_a for lj in l_b)
    diff = abs(full - mono)
    _report("9 (monopole reduction)",
            diff < 1e-4,
            f"full equal-time kernel vs shift-averaged monopole kernel on a "
            f"4-loop desk configuration: |difference| = {diff:.2e} (tol 1e-4)")


def test_criterion_10_capacitor_terms(pipeline_runs):
    cap = pipeline_runs["two-species"]["report"]["capacitor"]
    probe = standard_magnetic_probe(seed=99)
    exponent, _ = fc.magnetic_decay_fit(probe)
    _report("10 (capacitor terms)",
            cap["electrostatic"] == 0.0 and exponent > 4.0,
            f"neutral-slab electrostatic term = {cap['electrostatic']} "
            f"(exact 0 required); magnetic kernel decay exponent "
            f"{exponent:.1f} (> 4 required on the [5, 50] window)")


@pytest.mark.parametrize("config", [TWO_SPECIES, THREE_SPECIES],
                         ids=["two-species", "three-species"])
def test_sweep_imaginary_part_is_antithetic_noise(config):
    # the bridge measure is even under X -> -X, so the bracket is real; the
    # antithetic pairs of the basis cancel the odd moments of its Monte
    # Carlo noise, and |Im| of every per-k bracket of the k-sweep on the
    # basis of run's plate (a = b: slab a only) stays below 5e-6 (the
    # unpaired draws of the same seeds gave 1.4e-5 to 1.1e-4)
    for seed in (2024, 2025, 2026):
        cfg = copy.deepcopy(config)
        cfg["seed"] = seed
        conf = load_config(cfg)
        basis = scr.build_loop_basis(conf.profile, conf.a, conf.numerics["nx"],
                                     conf.numerics["n_paths_kernel"],
                                     conf.numerics["n_steps_kernel"], seed)
        kappa = np.sqrt(conf.profile.kappa2())
        res = scr.check_perfect_screening(basis, 0.0,
                                          [0.2 * kappa / 2**n for n in range(6)])
        im = max(abs(v.imag) for v in res["per_k"])
        assert im < 5e-6, (seed, im)
