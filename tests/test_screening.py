import numpy as np
import pytest

from thermocasimir import loops as lo
from thermocasimir import potentials as pot
from thermocasimir import screening as scr
from thermocasimir.errors import DependencyError, ParameterError, SolverError
from thermocasimir.force import fit_loglog_slope


def _kseq(kappa, k0_factor=0.2, n=6):
    return [k0_factor * kappa / 2.0**i for i in range(n)]


# ------------------------------------------------------- geometry, densities

def test_slab_geometry_cells_and_hierarchy(thermo, neutral_profile):
    geo = scr.SlabGeometry(a=6.0, b=5.0, d=100.0, nx_a=12, nx_b=8)
    xa = geo.cells_a()
    xb = geo.cells_b()
    assert xa.size == 12 and xb.size == 8
    assert xa[0] == pytest.approx(-6.0 + 0.25) and xa[-1] == pytest.approx(-0.25)
    assert xb[0] == pytest.approx(0.3125) and xb[-1] == pytest.approx(4.6875)
    rep = geo.hierarchy_report(thermo, 1.5, neutral_profile.lambda_screen("a"))
    assert all(rep["satisfied"].values())
    with pytest.raises(ParameterError):
        scr.SlabGeometry(a=-1.0, b=1.0, d=1.0)


def test_density_profile_neutrality_and_kappa(thermo, species_pair):
    plus, minus = species_pair
    rho = 1.0 / (8.0 * np.pi)
    cells = (scr.SpeciesDensity(plus, 1, rho), scr.SpeciesDensity(minus, 1, rho))
    prof = scr.DensityProfile(beta=thermo.beta, slab_a=cells, slab_b=cells)
    assert prof.is_neutral("a")
    assert prof.charge_density("a") == 0.0
    assert prof.kappa2("a") == pytest.approx(1.0)
    assert prof.lambda_screen("a") == pytest.approx(1.0)
    lopsided = scr.DensityProfile(
        beta=thermo.beta, slab_a=(scr.SpeciesDensity(plus, 1, rho),), slab_b=())
    assert not lopsided.is_neutral("a")


# ------------------------------------------------------- kernel assembly

def _oracle_pair_entry(loop_i, loop_l, h, kvec, k, cell_integrated):
    """Exact double time sum of one wire-kernel entry, node pair by node pair."""
    lam_i = loop_i.species.lambda_
    lam_l = loop_l.species.lambda_
    u = loop_i.x + lam_i * loop_i.path[:-1, 0]
    off = lam_l * loop_l.path[:-1, 0]
    yi = loop_i.y[None, :] + lam_i * loop_i.path[:-1, 1:]
    yl = loop_l.y[None, :] + lam_l * loop_l.path[:-1, 1:]
    ph = np.exp(1j * (yi @ kvec))[:, None] * np.exp(-1j * (yl @ kvec))[None, :]
    if cell_integrated:
        core = scr._exp_cell_integral(u[:, None] - off[None, :], loop_l.x, h, k)
    else:
        core = np.exp(-k * np.abs(u[:, None] - (loop_l.x + off)[None, :]))
    return loop_i.ds * loop_l.ds * np.sum(ph * core)


def _oracle_pair_matrix(basis, kvec, cell_integrated):
    k = float(np.hypot(*kvec))
    return (2.0 * np.pi / k) * np.array(
        [[_oracle_pair_entry(li, ll, basis.h, kvec, k, cell_integrated)
          for ll in basis.loops] for li in basis.loops])


def _mixed_basis(hbar, nx):
    # two p = 1 species and one p = 2 species, so path groups of two lengths
    th = lo.ThermoState(beta=1.0, hbar=hbar, c=100.0)
    plus = lo.SpeciesParams.from_thermo("plus", +1.0, 1.0, th)
    minus = lo.SpeciesParams.from_thermo("minus", -1.0, 2.0, th)
    rho = 1.0 / (8.0 * np.pi)
    cells = (scr.SpeciesDensity(plus, 1, rho), scr.SpeciesDensity(minus, 1, rho),
             scr.SpeciesDensity(plus, 2, 0.1 * rho))
    prof = scr.DensityProfile(beta=th.beta, slab_a=cells, slab_b=cells)
    geo = scr.SlabGeometry(a=2.0, b=2.0, d=10.0, nx_a=nx, nx_b=nx)
    return scr.build_loop_basis(geo, prof, th, "a", n_paths=3, n_steps=8, seed=9)


# (0.25, 4) has pairs of every class; (0.6, 10) has wide paths in fine
# cells, so most near pairs straddle and none stays inside a cell
@pytest.mark.parametrize("hbar, nx, classes", [
    (0.25, 4, ("above_below", "inside", "straddling")),
    (0.6, 10, ("above_below", "straddling"))])
@pytest.mark.parametrize("k", [0.2, 0.2 / 2**5])
@pytest.mark.parametrize("cell_integrated", [True, False])
def test_pair_matrix_matches_double_sum_oracle(hbar, nx, classes, k,
                                               cell_integrated):
    basis = _mixed_basis(hbar, nx)
    counts = basis.pair_class_counts()
    assert sum(counts.values()) == basis.size**2
    assert {name for name, n in counts.items() if n > 0} == set(classes)
    kvec = k * np.array([0.8, 0.6])
    got = scr._pair_matrix(basis, kvec, cell_integrated)
    ref = _oracle_pair_matrix(basis, kvec, cell_integrated)
    assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))


def test_pair_classes_of_point_basis(thermo, neutral_profile):
    # degenerate paths: same-cell pairs are inside, all others far
    geo = scr.SlabGeometry(a=6.0, b=6.0, d=50.0, nx_a=6, nx_b=6)
    basis = scr.build_loop_basis(geo, neutral_profile, thermo, "a",
                                 point_paths=True, n_steps=4)
    assert basis.pair_class_counts() == {"above_below": 144 - 24,
                                         "inside": 24, "straddling": 0}


@pytest.mark.parametrize("x_src, hbar", [(0.0, 0.25), (-0.9, 0.6)])
def test_source_column_matches_vel_fourier(x_src, hbar):
    basis = _mixed_basis(hbar, 4)
    sp = basis.loops[0].species
    src = lo.Loop(x_src, sp, 1, lo.sample_bridge(1, 8, [9, 999]), y=(0.3, -0.2))
    for k in (0.2, 0.2 / 2**5):
        kvec = k * np.array([0.8, 0.6])
        got = scr.source_column(basis, src, kvec)
        ref = np.array([pot.vel_fourier(lp, src, kvec) for lp in basis.loops])
        assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))


# --------------------------------------------------------- classical solver

def test_bulk_limit_matches_analytic():
    kappa = 1.0
    k = 0.7
    n = 2000
    span = 30.0
    h = span / n
    xc = -span / 2 + h / 2 + h * np.arange(n)
    phi = scr.classical_slab_solve(xc, h, np.full(n, kappa**2), k,
                                   np.array([0.3]))[:, 0]
    mask = np.abs(xc) < 2.0
    exact = scr.bulk_phi_analytic(xc[mask], 0.3, k, kappa)
    assert np.max(np.abs(phi[mask] - exact) / exact) < 1e-4


def test_bulk_analytic_solves_the_integral_equation():
    # direct substitution: the closed-form kernel satisfies
    # Phi = v - (kappa^2 / 4 pi) v * Phi on the infinite line
    from scipy.integrate import quad
    kappa, k = 1.3, 0.6
    b = np.hypot(k, kappa)
    for x1, x2 in ((0.4, -0.2), (1.5, 0.3)):
        lhs = scr.bulk_phi_analytic(x1, x2, k, kappa)
        conv, _ = quad(lambda xp: (2.0 * np.pi / k) * np.exp(-k * abs(x1 - xp))
                       * (kappa**2 / (4.0 * np.pi))
                       * scr.bulk_phi_analytic(xp, x2, k, kappa),
                       -60.0, 60.0, limit=400)
        rhs = (2.0 * np.pi / k) * np.exp(-k * abs(x1 - x2)) - conv
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_classical_solver_vs_piecewise_reference():
    kappa, a, k = 1.0, 6.0, 0.31
    n = 300
    h = a / n
    xc = -a + h / 2 + h * np.arange(n)
    phi = scr.classical_slab_solve(xc, h, np.full(n, kappa**2), k,
                                   np.array([-1.7]))[:, 0]
    ref = scr.step_slab_phi_reference(xc, -1.7, k, a, kappa)
    assert np.max(np.abs(phi - ref) / np.abs(ref)) < 1e-4


def test_grid_doubling_consistency():
    kappa, a, k = 1.0, 6.0, 0.2
    sols = {}
    for n in (200, 400):
        h = a / n
        xc = -a + h / 2 + h * np.arange(n)
        sols[n] = (xc, scr.classical_slab_solve(xc, h, np.full(n, kappa**2), k,
                                                np.array([-2.0]))[:, 0])
    xc, coarse = sols[200]
    xf, fine = sols[400]
    fine_on_coarse = np.interp(xc, xf, fine)
    # compare away from the source cusp, where linear interpolation between
    # the two staggered grids is itself accurate
    mask = np.abs(xc + 2.0) > 0.3
    rel = np.max(np.abs(fine_on_coarse - coarse)[mask]
                 / np.abs(fine_on_coarse)[mask])
    assert rel < 1e-3


def test_no_screening_returns_bare_kernel(thermo, species_pair):
    plus, _ = species_pair
    geo = scr.SlabGeometry(a=2.0, b=2.0, d=10.0, nx_a=4, nx_b=4)
    empty = scr.DensityProfile(beta=thermo.beta,
                               slab_a=(scr.SpeciesDensity(plus, 1, 0.0),),
                               slab_b=())
    basis = scr.build_loop_basis(geo, empty, thermo, "a", n_paths=2,
                                 n_steps=4, seed=0)
    src = lo.point_loop(0.0, plus, n_steps=4)
    kvec = np.array([0.3, 0.0])
    rhs = scr.source_column(basis, src, kvec)
    phi = scr.solve_screened_potential(basis, kvec, rhs)
    assert np.allclose(phi, rhs)


def test_loop_solver_agrees_with_classical_on_point_basis(thermo, neutral_profile):
    geo = scr.SlabGeometry(a=6.0, b=6.0, d=50.0, nx_a=24, nx_b=24)
    basis = scr.build_loop_basis(geo, neutral_profile, thermo, "a",
                                 point_paths=True, n_steps=4)
    border = lo.SpeciesParams.from_thermo("b0", 1.0, 1.0, thermo)
    src = lo.point_loop(0.0, border, n_steps=4)
    k = 0.37
    rhs = scr.source_column(basis, src, np.array([k, 0.0]))
    phi_loop = scr.solve_screened_potential(basis, np.array([k, 0.0]), rhs)
    # classical aggregation: same x-cells, kappa^2 summed over species
    xc = geo.cells_a()
    phi_cl = scr.classical_slab_solve(xc, geo.h_a,
                                      np.full(xc.size, neutral_profile.kappa2("a")),
                                      k, np.array([0.0]))[:, 0]
    # point basis holds one entry per (cell, species); both species carry the
    # same solution column, equal to the classical one
    per_cell = phi_loop.reshape(xc.size, -1)
    assert np.allclose(per_cell.real, phi_cl[:, None], rtol=1e-10, atol=1e-12)
    assert np.max(np.abs(per_cell.imag)) < 1e-12


def test_phi_bounded_at_small_k(thermo, neutral_profile):
    kappa = 1.0
    geo = scr.SlabGeometry(a=6.0, b=6.0, d=50.0, nx_a=200, nx_b=200)
    xc = geo.cells_a()
    kap2 = np.full(xc.size, kappa**2)
    vals = {}
    for k in (1e-3 * kappa, 5e-4 * kappa):
        vals[k] = scr.classical_slab_solve(xc, geo.h_a, kap2, k,
                                           np.array([-3.0]))[:, 0]
    k = 1e-3 * kappa
    bare = (2.0 * np.pi / k) * np.exp(-k * np.abs(xc + 3.0))
    assert np.max(np.abs(vals[k])) < 0.01 * np.max(bare)
    drift = np.max(np.abs(vals[1e-3 * kappa] - vals[5e-4 * kappa])
                   / np.abs(vals[1e-3 * kappa]))
    assert drift < 0.01


# ------------------------------------------------------------- sum rules

def test_richardson_extrapolation_on_powers():
    k = np.array([0.2 / 2**i for i in range(5)])
    vals = 1.0 + 0.7 * k + 0.3 * k**2
    limit, corr = scr.richardson_extrapolate(list(vals))
    assert abs(limit - 1.0) < 1e-12
    assert corr < 1e-6
    with pytest.raises(ParameterError):
        scr.richardson_extrapolate([1.0])


def test_perfect_screening_bulk_oracle():
    res = scr.bulk_sum_rule_oracle(1.0, _kseq(1.0))
    assert res["residual_rel"] < 1e-3


def test_perfect_screening_slab_loops(thermo, neutral_profile):
    geo = scr.SlabGeometry(a=6.0, b=6.0, d=100.0, nx_a=16, nx_b=16)
    basis = scr.build_loop_basis(geo, neutral_profile, thermo, "a",
                                 n_paths=4, n_steps=16, seed=3)
    border = lo.SpeciesParams.from_thermo("b0", 1.0, 1.0, thermo)
    src = lo.point_loop(0.0, border, n_steps=16)
    res = scr.check_perfect_screening(basis, src, _kseq(1.0))
    assert res["residual_rel"] < 1e-2
    assert res["converged"]


def test_perfect_screening_fails_without_medium(thermo, species_pair):
    plus, minus = species_pair
    geo = scr.SlabGeometry(a=6.0, b=6.0, d=100.0, nx_a=8, nx_b=8)
    empty = scr.DensityProfile(
        beta=thermo.beta,
        slab_a=(scr.SpeciesDensity(plus, 1, 0.0),
                scr.SpeciesDensity(minus, 1, 0.0)),
        slab_b=())
    basis = scr.build_loop_basis(geo, empty, thermo, "a", n_paths=2,
                                 n_steps=8, seed=0)
    src = lo.point_loop(0.0, plus, n_steps=8)
    res = scr.check_perfect_screening(basis, src, _kseq(1.0, n=3))
    # nothing to screen: the bracket stays at 0 and the rule fails by 100%
    assert res["residual_rel"] == pytest.approx(1.0)


def test_sum_rule_universality_across_composition(thermo):
    # two-species symmetric vs three-species asymmetric neutral mixture
    geo = scr.SlabGeometry(a=6.0, b=6.0, d=100.0, nx_a=12, nx_b=12)
    border = lo.SpeciesParams.from_thermo("b0", 1.0, 1.0, thermo)
    src = lo.point_loop(0.0, border, n_steps=12)
    residuals = []
    for mix in ("two", "three"):
        if mix == "two":
            plus = lo.SpeciesParams.from_thermo("p", +1.0, 1.0, thermo)
            minus = lo.SpeciesParams.from_thermo("m", -1.0, 2.0, thermo)
            rho = 1.0 / (8.0 * np.pi)
            cells = (scr.SpeciesDensity(plus, 1, rho),
                     scr.SpeciesDensity(minus, 1, rho))
        else:
            dd = lo.SpeciesParams.from_thermo("dd", +2.0, 3.0, thermo)
            m1 = lo.SpeciesParams.from_thermo("m1", -1.0, 1.0, thermo)
            m2 = lo.SpeciesParams.from_thermo("m2", -1.0, 2.0, thermo)
            rho = 1.0 / (24.0 * np.pi)
            cells = (scr.SpeciesDensity(dd, 1, rho),
                     scr.SpeciesDensity(m1, 1, rho),
                     scr.SpeciesDensity(m2, 1, rho))
        prof = scr.DensityProfile(beta=thermo.beta, slab_a=cells, slab_b=cells)
        basis = scr.build_loop_basis(geo, prof, thermo, "a", n_paths=3,
                                     n_steps=12, seed=5)
        kappa = np.sqrt(prof.kappa2("a"))
        res = scr.check_perfect_screening(basis, src, _kseq(kappa))
        residuals.append(res["residual_rel"])
    assert all(r < 1e-2 for r in residuals)
    assert abs(residuals[0] - residuals[1]) < 1e-2


# ----------------------------------------------------------------- bonds

def test_f_bond_linearity_and_antisymmetry():
    phi = np.array([0.3, -0.1])
    f1 = scr.build_F_bond(phi, 1.0, -1.0, beta=2.0)
    f2 = scr.build_F_bond(phi, -1.0, -1.0, beta=2.0)
    assert np.allclose(f1, -f2)
    assert np.allclose(f1, 2.0 * phi)


def test_fr_bond_quadratic_smallness():
    beta = 1.0
    phi = np.array([1e-3, 5e-4])
    fr, flagged = scr.build_FR_bond(phi, np.zeros_like(phi), 1.0, 1.0, beta)
    assert not flagged
    assert np.allclose(fr, 0.5 * (beta * phi) ** 2, rtol=1e-2)


def test_fr_bond_overflow_clamped():
    fr, flagged = scr.build_FR_bond(np.array([1000.0]), np.array([0.0]),
                                    1.0, -1.0, beta=1.0)
    assert flagged
    assert np.all(np.isfinite(fr))


def test_fr_bond_dipole_dominated_at_large_separation(big_thermo):
    # beyond ~20 screening lengths the nonlinear bond reduces to the linearized
    # dipolar coupling: F^R ~ -beta e_i e_j W
    kappa = 1.0
    beta = big_thermo.beta
    sp = lo.SpeciesParams.from_thermo("s", 1.0, 1.0, big_thermo)
    l1 = lo.Loop(0.0, sp, 1, lo.sample_bridge(1, 24, [31, 0]))
    base_path = lo.sample_bridge(1, 24, [31, 1])
    for y in (20.0, 30.0):
        l2 = lo.Loop(0.0, sp, 1, base_path, y=np.array([y, 0.0]))
        w = pot.wc_pair(l1, l2)
        # bulk screened monopole potential at this separation
        phi = np.exp(-kappa * y) / y
        fr, _ = scr.build_FR_bond(phi, w, 1.0, 1.0, beta)
        ratio = fr / (-beta * w)
        assert abs(ratio - 1.0) < 0.05


# -------------------------------------------- traversing-chain factorization

def test_geometric_chain_prefactor_identity():
    q, d = 1.0, 7.0
    series = sum(np.exp(-2.0 * n * q) * q * np.exp(-q) / (2.0 * np.pi * d)
                 for n in range(400))
    assert series == pytest.approx(scr.geometric_chain_prefactor(q, d), rel=1e-15)


def test_truncated_chain_sum_matches_closed_form_at_two_link_accuracy():
    # chains with one and three traversing links reproduce the closed form up
    # to the first neglected order e^{-4q}
    d = 5.0
    for q in (0.8, 1.5, 3.0):
        unit = q * np.exp(-q) / (2.0 * np.pi * d)
        partial = unit * (1.0 + np.exp(-2.0 * q))
        closed = scr.geometric_chain_prefactor(q, d)
        missing = (closed - partial) / unit
        expected_tail = np.exp(-4.0 * q) / (1.0 - np.exp(-2.0 * q))
        assert missing == pytest.approx(expected_tail, rel=1e-12)
        assert abs(closed - partial) / closed < np.exp(-4.0 * q) * 2.0


def test_bare_kernel_factorization(big_thermo):
    sp = lo.SpeciesParams.from_thermo("s", 1.0, 1.0, big_thermo)
    path_a = lo.sample_bridge(1, 16, [41, 0])
    path_b = lo.sample_bridge(2, 16, [41, 1])
    margin = sp.lambda_ * max(np.max(np.abs(path_a[:, 0])),
                              np.max(np.abs(path_b[:, 0]))) + 0.05
    la = lo.Loop(-margin, sp, 1, path_a)
    lb = lo.Loop(+margin, sp, 2, path_b)
    d = 6.0 * margin
    kvec = np.array([0.4 / margin, 0.2 / margin])
    k = float(np.hypot(*kvec))
    lb_far = lo.Loop(lb.x + d, sp, lb.p, lb.path)
    border = lo.point_loop(0.0, sp, n_steps=16)
    lhs = pot.vel_fourier(la, lb_far, kvec)
    rhs = (k * np.exp(-k * d) / (2.0 * np.pi)) \
        * pot.vel_fourier(la, border, kvec) * pot.vel_fourier(border, lb, kvec)
    assert abs(lhs - rhs) / abs(lhs) < 1e-8


def test_coupled_solve_approaches_factorized_form():
    kappa = 1.0
    a = b = 6.0
    nx = 300
    q = 1.0
    h = a / nx
    xa = -a + h / 2 + h * np.arange(nx)
    cols = []
    for k in _kseq(kappa):
        cols.append(scr.classical_slab_solve(xa, h, np.full(nx, kappa**2), k,
                                             np.array([0.0]))[:, 0])
    phi_a0, _ = scr.richardson_extrapolate(cols)
    phi_a0 = np.real(phi_a0)
    phi_b0 = phi_a0[::-1]

    dlist = np.array([20.0, 50.0, 120.0, 250.0, 500.0])
    devs = []
    for d in dlist:
        geo = scr.SlabGeometry(a=a, b=b, d=d, nx_a=nx, nx_b=nx)
        _, _, phi_ab = scr.coupled_two_slab_solve(geo, kappa**2, kappa**2, q / d)
        fact = scr.factorize_phi_ab(phi_a0, phi_b0, q, d)
        ii = [nx - 1, nx - 10, nx - 40]
        jj = [0, 9, 39]
        rels = [abs(phi_ab[i, j] - fact[i, j]) / abs(fact[i, j])
                for i in ii for j in jj]
        devs.append(np.median(rels))
    slope, _ = fit_loglog_slope(dlist, devs)
    assert abs(slope + 1.0) < 0.1


def test_factorization_depends_on_inner_face_only():
    # perturbing the density near the outer face changes the border column by
    # no more than the screened weight of the perturbation
    kappa, a = 1.0, 8.0
    nx = 400
    h = a / nx
    xa = -a + h / 2 + h * np.arange(nx)
    kap2 = np.full(nx, kappa**2)
    k = 0.05
    base = scr.classical_slab_solve(xa, h, kap2, k, np.array([0.0]))[:, 0]
    bumped = kap2.copy()
    outer = xa < -a + 1.0
    bumped[outer] *= 1.3
    pert = scr.classical_slab_solve(xa, h, bumped, k, np.array([0.0]))[:, 0]
    inner = xa > -1.0
    change = np.max(np.abs(pert[inner] - base[inner]) / np.abs(base[inner]))
    assert change < np.exp(-2.0 * (a - 1.0) * kappa) * 50.0


# ------------------------------------------------ leading interplate pieces

@pytest.fixture(scope="module")
def ursell(thermo, neutral_profile):
    geo = scr.SlabGeometry(a=6.0, b=6.0, d=100.0, nx_a=16, nx_b=16)
    ba = scr.build_loop_basis(geo, neutral_profile, thermo, "a", n_paths=4,
                              n_steps=16, seed=3)
    bb = scr.build_loop_basis(geo, neutral_profile, thermo, "b", n_paths=4,
                              n_steps=16, seed=4)
    border = lo.SpeciesParams.from_thermo("b0", 1.0, 1.0, thermo)
    roots = [ba.size - 2, ba.size - 1]
    return scr.leading_ursell(ba, bb, border, _kseq(1.0), dressing_roots=roots)


def test_dressed_border_bracket_is_minus_one(ursell):
    assert abs(ursell.bracket_a + 1.0) < 1e-2
    assert abs(ursell.bracket_b + 1.0) < 1e-2


def test_w_term_annihilation(ursell):
    basis = ursell.basis_a
    root = basis.size - 1
    w = ursell.dressed_weights(root, "a")
    contraction = np.sum(basis.pnum * basis.charge * w)
    unsigned = np.sum(np.abs(basis.pnum * basis.charge * w))
    assert abs(contraction) / unsigned < 1e-2


def test_dressing_requires_solved_roots(ursell):
    with pytest.raises(DependencyError):
        ursell.dressed_weights(0, "b")


def test_leading_ursell_is_the_perfect_screening_sweep(ursell, thermo):
    # the same basis, border and k-sequence, solved for the border column
    # alone instead of together with the two dressing roots
    border = lo.SpeciesParams.from_thermo("b0", 1.0, 1.0, thermo)
    src = lo.point_loop(0.0, border, n_steps=16)
    res = scr.check_perfect_screening(ursell.basis_a, src, _kseq(1.0))
    assert abs(ursell.bracket_a - res["bracket"].real) < 1e-13
    assert abs(ursell.sum_rule_residuals["a"] - res["residual_rel"]) < 1e-13
    assert res["columns"].shape == (ursell.basis_a.size, 1)


def test_leading_ursell_singular_operator_raises_solver_error(ursell, thermo,
                                                              monkeypatch):
    # T = -I makes I + T exactly singular
    monkeypatch.setattr(scr, "assemble_kernel_matrix",
                        lambda basis, kvec: -np.eye(basis.size))
    border = lo.SpeciesParams.from_thermo("b0", 1.0, 1.0, thermo)
    with pytest.raises(SolverError):
        scr.leading_ursell(ursell.basis_a, ursell.basis_b, border,
                           _kseq(1.0, n=2))


def test_h_ab_scales_as_inverse_separation(ursell, thermo):
    root_a = ursell.basis_a.size - 1
    root_b = ursell.basis_b.size - 1
    qv = np.array([1.3, 0.0])
    ds = np.array([50.0, 100.0, 200.0, 400.0, 800.0])
    totals, fr_piece = [], []
    for d in ds:
        h_f = ursell.h_single_f(root_a, 0, float(qv[0]), d, thermo.beta)
        h_fr = ursell.h_single_fr(root_a, root_b, qv, d, thermo)
        totals.append(abs(h_f + h_fr))
        fr_piece.append(abs(h_fr))
    slope, _ = fit_loglog_slope(ds, totals)
    assert abs(slope + 1.0) < 0.1
    # the nonlinear-bond piece is nonzero (suppressed by the tiny de Broglie
    # lengths of this plasma) and itself decays with the separation
    assert fr_piece[0] > 0.0
    slope_fr, _ = fit_loglog_slope(ds, fr_piece)
    assert abs(slope_fr + 1.0) < 0.1


# --------------------------------------------------- in-plane integrability

def test_disc_integral_zero_displacement_is_exactly_zero():
    k_grid = np.geomspace(1e-4, 40.0, 50)
    phi = (2.0 * np.pi / np.hypot(k_grid, 1.0)) * np.exp(-np.hypot(k_grid, 1.0))
    val = scr.disc_integral_of_difference(k_grid, phi, phi, 0.0, 30.0)
    assert val == 0.0


def test_multipole_integrability_bulk_yukawa_oracle():
    kappa = 1.0
    x1, x2 = -0.3, -0.9
    dx, dy = 0.35, 0.4

    def phi_bulk(xa, xb, k):
        return scr.bulk_phi_analytic(xa, xb, k, kappa)

    rep = scr.multipole_integrability_check(phi_bulk, kappa, x1, x2, dx, dy,
                                            r_checks=(20.0, 30.0, 45.0, 60.0))
    closed = (2.0 * np.pi / kappa) * (np.exp(-kappa * abs(x2 + dx - x1))
                                      - np.exp(-kappa * abs(x2 - x1)))
    assert rep["passed"]
    assert abs(rep["full_plane_limit"] - closed) / abs(closed) < 1e-6


def test_multipole_integrability_slab_tail():
    kappa, a = 1.0, 6.0
    nx = 240
    h = a / nx
    xc = -a + h / 2 + h * np.arange(nx)
    kap2 = np.full(nx, kappa**2)

    def phi_slab(xa, xb, k):
        col = scr.classical_slab_solve(xc, h, kap2, k, np.array([xb]))[:, 0]
        return float(np.interp(xa, xc, col))

    rep = scr.multipole_integrability_check(phi_slab, kappa, -2.0, -2.6,
                                            0.3, 0.3,
                                            r_checks=(30.0, 45.0, 60.0))
    assert rep["passed"]
    assert all(d < 1e-3 for d in rep["cauchy_deltas"])
