import dataclasses

import numpy as np
import pytest

from thermocasimir import loops as lo
from thermocasimir import potentials as pot
from thermocasimir import screening as scr
from thermocasimir.errors import ParameterError, SingularArgumentError, SolverError


def _kseq(kappa, k0_factor=0.2, n=6):
    return [k0_factor * kappa / 2.0**i for i in range(n)]


# ------------------------------------------------------- geometry, densities

def test_loop_basis_cells_and_input_checks(neutral_profile):
    # the slab [-w, 0] on nx midpoint cells; its inner face x = 0 is the border
    w, nx = 5.0, 8
    basis = scr.build_loop_basis(neutral_profile, w, nx, point_paths=True,
                                 n_steps=4)
    assert np.array_equal(basis.x_cells, -w + (w / nx) * (np.arange(nx) + 0.5))
    assert basis.h == w / nx
    assert basis.x_cells[0] == pytest.approx(-4.6875)
    assert basis.x_cells[-1] == pytest.approx(-0.3125)
    for width, cells in ((0.0, nx), (-1.0, nx), (np.inf, nx), (np.nan, nx),
                         (w, 1), (w, 0)):
        with pytest.raises(ParameterError):
            scr.build_loop_basis(neutral_profile, width, cells, point_paths=True,
                                 n_steps=4)


def test_density_profile_neutrality_and_kappa(thermo, species_pair):
    plus, minus = species_pair
    rho = 1.0 / (8.0 * np.pi)
    cells = (scr.SpeciesDensity(plus, 1, rho), scr.SpeciesDensity(minus, 1, rho))
    prof = scr.DensityProfile(beta=thermo.beta, cells=cells)
    assert prof.charge_density() == 0.0
    assert prof.kappa2() == pytest.approx(1.0)
    lopsided = scr.DensityProfile(beta=thermo.beta,
                                  cells=(scr.SpeciesDensity(plus, 1, rho),))
    assert lopsided.charge_density() == rho
    assert lopsided.kappa2() == pytest.approx(0.5)


# ------------------------------------------------------- kernel assembly

def _exp_cell_integral(u, c, h, k):
    """int over the cell [c-h/2, c+h/2] of e^{-k|u - x'|} dx', elementwise."""
    lo, hi = c - 0.5 * h, c + 0.5 * h
    inside = (u >= lo) & (u <= hi)
    safe = np.where(inside, u, c)
    inner = (2.0 - np.exp(-k * (safe - lo)) - np.exp(-k * (hi - safe))) / k
    outer = (2.0 * np.sinh(0.5 * k * h) / k) * np.exp(-k * np.abs(u - c))
    return np.where(inside, inner, outer)


def _oracle_pair_entry(loop_i, loop_l, h, kvec, k):
    """Exact double time sum of one cell-integrated wire-kernel entry, node
    pair by node pair."""
    lam_i = loop_i.species.lambda_
    lam_l = loop_l.species.lambda_
    u = loop_i.x + lam_i * loop_i.path[:-1, 0]
    off = lam_l * loop_l.path[:-1, 0]
    yi = loop_i.y[None, :] + lam_i * loop_i.path[:-1, 1:]
    yl = loop_l.y[None, :] + lam_l * loop_l.path[:-1, 1:]
    ph = np.exp(1j * (yi @ kvec))[:, None] * np.exp(-1j * (yl @ kvec))[None, :]
    core = _exp_cell_integral(u[:, None] - off[None, :], loop_l.x, h, k)
    return loop_i.ds * loop_l.ds * np.sum(ph * core)


def _oracle_pair_matrix(basis, loops, k):
    """The pair matrix at the wavevector (k, 0): the paths' in-plane
    excursions along it enter as phases."""
    kvec = np.array([k, 0.0])
    return (2.0 * np.pi / k) * np.array(
        [[_oracle_pair_entry(li, ll, basis.h, kvec, k)
          for ll in loops] for li in loops])


def _entry_loop(basis, i, cells, n_steps, seed):
    """The Loop of basis entry i, rebuilt from its substream [seed, i] and
    its profile entry (entries run over cell, profile entry, path), checked
    against the basis's charge, charge number and stacked node excursions."""
    n_paths = basis.size // (basis.x_cells.size * len(cells))
    entry = cells[(i // n_paths) % len(cells)]
    loop = lo.Loop(basis.x[i], entry.species, entry.p,
                   lo.sample_bridge(entry.p, n_steps, [seed, i]))
    assert (basis.charge[i], basis.pnum[i]) == (entry.species.charge, entry.p)
    lam = entry.species.lambda_
    order = np.argsort(lam * loop.path[:-1, 0], kind="stable")
    _, xi, y, _ = basis.groups[basis.group[i]]
    assert np.array_equal(xi[basis.slot[i]], lam * loop.path[:-1, 0][order])
    # one in-plane coordinate per node, the one along the wavevector (k, 0)
    assert np.array_equal(y[basis.slot[i]], lam * loop.path[:-1, 1][order])
    return loop


def _mixed_basis(hbar, nx):
    # two p = 1 species and one p = 2 species, so path groups of two lengths
    th = lo.ThermoState(beta=1.0, hbar=hbar, c=100.0)
    plus = lo.SpeciesParams.from_thermo("plus", +1.0, 1.0, th)
    minus = lo.SpeciesParams.from_thermo("minus", -1.0, 2.0, th)
    rho = 1.0 / (8.0 * np.pi)
    cells = (scr.SpeciesDensity(plus, 1, rho), scr.SpeciesDensity(minus, 1, rho),
             scr.SpeciesDensity(plus, 2, 0.1 * rho))
    prof = scr.DensityProfile(beta=th.beta, cells=cells)
    basis = scr.build_loop_basis(prof, 2.0, nx, n_paths=3, n_steps=8, seed=9)
    return basis, [_entry_loop(basis, i, cells, 8, 9) for i in range(basis.size)]


# (0.25, 4) has pairs of every class; (0.6, 10) has wide paths in fine
# cells, so most near pairs straddle and none stays inside a cell
@pytest.mark.parametrize("hbar, nx, classes", [
    (0.25, 4, ("above_below", "inside", "straddling")),
    (0.6, 10, ("above_below", "straddling"))])
@pytest.mark.parametrize("k", [0.2, 0.2 / 2**5])
def test_pair_matrix_matches_double_sum_oracle(hbar, nx, classes, k):
    basis, loops = _mixed_basis(hbar, nx)
    counts = basis.pair_class_counts()
    assert sum(counts.values()) == basis.size**2
    assert {name for name, n in counts.items() if n > 0} == set(classes)
    # the structured operator's dense expansion: band entries and the
    # far-field generator products
    got = scr.assemble_kernel_matrix(basis, k).dense()
    ref = _oracle_pair_matrix(basis, loops, k) * basis.matrix_weight[None, :]
    assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))


def _all_pair_offsets(basis):
    """Cell offset (row minus column), above mask and near (inside or
    straddling) mask of every operator pair, classified over all n x n."""
    i, l = (a.ravel() for a in np.indices((basis.size, basis.size)))
    plan = scr._pair_plan(basis, i, l)
    near = np.zeros(i.size, dtype=bool)
    near[plan.inside] = near[plan.straddling] = True
    return basis.cell[i] - basis.cell[l], plan.above, near


@pytest.mark.parametrize("hbar, nx", [(0.25, 4), (0.6, 10), (0.02, 12)])
def test_band_is_the_largest_near_pair_offset(hbar, nx):
    basis, _ = _mixed_basis(hbar, nx)
    offset, above, near = _all_pair_offsets(basis)
    band = basis.plan.band
    assert band == np.max(np.abs(offset[near]))
    # beyond the band a row above its column is above it, one below is below
    far = np.abs(offset) > band
    assert np.array_equal(above[far], offset[far] > 0)
    assert not np.any(near[far])
    assert near.sum() == basis.plan.inside.size + basis.plan.straddling.size


def _dense_solve(op, rhs):
    return np.linalg.solve(np.eye(op.cell.size) + op.dense(), rhs)


@pytest.mark.parametrize("hbar, nx", [(0.25, 4), (0.6, 10)])
@pytest.mark.parametrize("k", [0.2, 0.2 / 2**5])
def test_structured_solve_matches_dense_solve(hbar, nx, k):
    basis, _ = _mixed_basis(hbar, nx)
    op = scr.assemble_kernel_matrix(basis, k)
    if hbar == 0.6:
        assert op.band > 0        # the wide-path basis has cross-cell pairs
    rhs = np.column_stack([scr.source_column(basis, x, k)
                           for x in (basis.x[0], basis.x[-1])])
    got = op.solve(rhs)
    ref = _dense_solve(op, rhs)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_wider_band_gives_the_same_solution():
    basis, _ = _mixed_basis(0.6, 10)
    k = 0.05
    rhs = scr.source_column(basis, basis.x[0], k)
    tight = scr.assemble_kernel_matrix(basis, k).solve(rhs)
    band = basis.plan.band + 2
    i, l = np.nonzero(np.abs(basis.cell[:, None] - basis.cell) <= band)
    basis.plan = dataclasses.replace(
        scr._pair_plan(basis, i, l), band=band)
    wide = scr.assemble_kernel_matrix(basis, k).solve(rhs)
    assert scr.assemble_kernel_matrix(basis, k).band == band
    assert np.max(np.abs(wide - tight)) <= 1e-13 * np.max(np.abs(tight))


def test_coupled_solve_with_gap_matches_dense_solve():
    # dense reference built from the cell-integral oracle, slabs 3 apart
    kappa2, k = 1.0, 0.3
    width, nx, d = 2.0, 40, 3.0
    xa, xb, phi_ab = scr.coupled_two_slab_solve(width, nx, d, kappa2, k)
    pos = np.concatenate([xa, xb + d])
    t = (kappa2 / (2.0 * k)) * _exp_cell_integral(pos[:, None], pos[None, :],
                                                  width / nx, k)
    rhs = (2.0 * np.pi / k) * np.exp(-k * np.abs(pos[:, None] - pos[None, 40:]))
    ref = np.linalg.solve(np.eye(pos.size) + t, rhs)[:40]
    assert np.max(np.abs(phi_ab - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_pair_classes_of_point_basis(thermo, neutral_profile):
    # degenerate paths: same-cell pairs are inside, all others far
    basis = scr.build_loop_basis(neutral_profile, 6.0, 6, point_paths=True,
                                 n_steps=4)
    assert basis.pair_class_counts() == {"above_below": 144 - 24,
                                         "inside": 24, "straddling": 0}


# the border, two interior positions (one a cell center, where path nodes
# fall on both sides of the charge) and a position outside the slab
@pytest.mark.parametrize("x_src, hbar", [(0.0, 0.25), (-0.9, 0.6), (-0.75, 0.25),
                                         (1.5, 0.6)])
def test_source_column_matches_vel_fourier(x_src, hbar):
    basis, loops = _mixed_basis(hbar, 4)
    src = lo.point_loop(x_src, loops[0].species, n_steps=8)
    for k in (0.2, 0.2 / 2**5):
        got = scr.source_column(basis, x_src, k)
        ref = np.array([pot.vel_fourier(lp, src, (k, 0.0)) for lp in loops])
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


def _step_slab_phi_reference(x1, x2, k, a, kappa):
    """Piecewise-exponential reference solution of the screened equation for a
    single homogeneous slab [-a, 0] (vacuum outside), unit source at x2 inside.

    Matching value and slope at both faces of  -Phi'' + (k^2 + kappa^2) Phi =
    4 pi delta(x - x2)  inside and  -Phi'' + k^2 Phi = 0  outside.
    """
    b = np.hypot(k, kappa)
    # unknowns: C1, C2 (homogeneous inside), D (x > 0), E (x < -a)
    mat = np.array([
        [1.0, 1.0, -1.0, 0.0],
        [b, -b, k, 0.0],
        [np.exp(-b * a), np.exp(b * a), 0.0, -1.0],
        [b * np.exp(-b * a), -b * np.exp(b * a), 0.0, -k],
    ])
    part = 2.0 * np.pi / b
    rhs = np.array([
        -part * np.exp(-b * abs(0.0 - x2)),
        part * b * np.exp(-b * abs(0.0 - x2)),
        -part * np.exp(-b * abs(-a - x2)),
        -part * b * np.exp(-b * abs(-a - x2)),
    ])
    c1, c2, dcoef, ecoef = np.linalg.solve(mat, rhs)
    x1 = np.asarray(x1, dtype=float)
    inside = part * np.exp(-b * np.abs(x1 - x2)) + c1 * np.exp(b * x1) + c2 * np.exp(-b * x1)
    right = dcoef * np.exp(-k * x1)
    left = ecoef * np.exp(k * (x1 + a))
    return np.where(x1 > 0.0, right, np.where(x1 < -a, left, inside))


def test_classical_solver_vs_piecewise_reference():
    kappa, a, k = 1.0, 6.0, 0.31
    n = 300
    h = a / n
    xc = -a + h / 2 + h * np.arange(n)
    phi = scr.classical_slab_solve(xc, h, np.full(n, kappa**2), k,
                                   np.array([-1.7]))[:, 0]
    ref = _step_slab_phi_reference(xc, -1.7, k, a, kappa)
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
    empty = scr.DensityProfile(beta=thermo.beta,
                               cells=(scr.SpeciesDensity(plus, 1, 0.0),))
    basis = scr.build_loop_basis(empty, 2.0, 4, n_paths=2, n_steps=4, seed=0)
    rhs = scr.source_column(basis, 0.0, 0.3)
    phi = scr.assemble_kernel_matrix(basis, 0.3).solve(rhs)
    assert np.allclose(phi, rhs)
    # the wavenumber must be positive
    for bad in (0.0, -0.3):
        with pytest.raises(SingularArgumentError):
            scr.assemble_kernel_matrix(basis, bad)
        with pytest.raises(SingularArgumentError):
            scr.source_column(basis, 0.0, bad)


def test_loop_solver_agrees_with_classical_on_point_basis(neutral_profile):
    basis = scr.build_loop_basis(neutral_profile, 6.0, 24, point_paths=True,
                                 n_steps=4)
    k = 0.37
    rhs = scr.source_column(basis, 0.0, k)
    phi_loop = scr.assemble_kernel_matrix(basis, k).solve(rhs)
    # classical aggregation: same x-cells, kappa^2 summed over species
    xc = basis.x_cells
    phi_cl = scr.classical_slab_solve(xc, basis.h,
                                      np.full(xc.size, neutral_profile.kappa2()),
                                      k, np.array([0.0]))[:, 0]
    # point basis holds one entry per (cell, species); both species carry the
    # same solution column, equal to the classical one
    per_cell = phi_loop.reshape(xc.size, -1)
    assert np.allclose(per_cell.real, phi_cl[:, None], rtol=1e-10, atol=1e-12)
    assert np.max(np.abs(per_cell.imag)) < 1e-12


def test_phi_bounded_at_small_k(thermo, neutral_profile):
    kappa = 1.0
    h = 6.0 / 200
    xc = -6.0 + h * (np.arange(200) + 0.5)
    kap2 = np.full(xc.size, kappa**2)
    vals = {}
    for k in (1e-3 * kappa, 5e-4 * kappa):
        vals[k] = scr.classical_slab_solve(xc, h, kap2, k,
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


def test_perfect_screening_slab_loops(neutral_profile):
    basis = scr.build_loop_basis(neutral_profile, 6.0, 16, n_paths=4,
                                 n_steps=16, seed=3)
    res = scr.check_perfect_screening(basis, 0.0, _kseq(1.0))
    assert res["residual_rel"] < 1e-2
    assert res["extrapolation_correction"] < 0.1


def test_perfect_screening_fails_without_medium(thermo, species_pair):
    plus, minus = species_pair
    empty = scr.DensityProfile(
        beta=thermo.beta,
        cells=(scr.SpeciesDensity(plus, 1, 0.0),
               scr.SpeciesDensity(minus, 1, 0.0)))
    basis = scr.build_loop_basis(empty, 6.0, 8, n_paths=2, n_steps=8, seed=0)
    res = scr.check_perfect_screening(basis, 0.0, _kseq(1.0, n=3))
    # nothing to screen: the bracket stays at 0 and the rule fails by 100%
    assert res["residual_rel"] == pytest.approx(1.0)


def test_sum_rule_universality_across_composition(thermo):
    # two-species symmetric vs three-species asymmetric neutral mixture
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
        prof = scr.DensityProfile(beta=thermo.beta, cells=cells)
        basis = scr.build_loop_basis(prof, 6.0, 12, n_paths=3, n_steps=12,
                                     seed=5)
        kappa = np.sqrt(prof.kappa2())
        res = scr.check_perfect_screening(basis, 0.0, _kseq(kappa))
        residuals.append(res["residual_rel"])
    assert all(r < 1e-2 for r in residuals)
    assert abs(residuals[0] - residuals[1]) < 1e-2


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


# ------------------------------------------------ screening of both slabs

@pytest.fixture(scope="module")
def slab_bases(thermo, neutral_profile):
    # slab b is solved as its mirror image [-b, 0], on its own substream
    ba = scr.build_loop_basis(neutral_profile, 6.0, 16, n_paths=4,
                              n_steps=16, seed=3)
    bb = scr.build_loop_basis(neutral_profile, 6.0, 16, n_paths=4,
                              n_steps=16, seed=4)
    return ba, bb


def test_dressed_border_bracket_is_minus_one(slab_bases):
    # the border charge sits on the inner face of either slab
    for basis in slab_bases:
        res = scr.check_perfect_screening(basis, 0.0, _kseq(1.0))
        assert abs(res["bracket"].real + 1.0) < 1e-2


def test_w_term_annihilation(slab_bases):
    # An interior unit charge is screened like the border charge.  Its
    # dressed weights w_i = rho_i h(root, i) + delta(root, i), with the
    # closure h = -beta e_root e_i Phi(root, i), contract to
    # sum_i p_i e_i w_i = e_root (1 + bracket), where bracket is the
    # k-sweep's bracket with the charge at the root cell's center as the
    # source: the contraction vanishes exactly when that bracket is -1.
    basis = slab_bases[0]
    root = basis.size - 1
    assert -6.0 < basis.x[root] < 0.0
    res = scr.check_perfect_screening(basis, basis.x[root], _kseq(1.0))
    assert abs(res["bracket"] + 1.0) < 1e-2


def test_perfect_screening_singular_operator_raises_solver_error(
        slab_bases, monkeypatch):
    # T = -I (band entries -1 on the diagonal, no far field) makes I + T
    # exactly singular
    def singular(basis, k):
        diag, zero = np.arange(basis.size), np.zeros(basis.size)
        return scr.KernelOperator(k=1.0, x_cells=basis.x_cells, cell=basis.cell,
                                  band=0, entries=(diag, diag, -np.ones(basis.size)),
                                  far=(zero, zero, zero, zero))

    monkeypatch.setattr(scr, "assemble_kernel_matrix", singular)
    with pytest.raises(SolverError):
        scr.check_perfect_screening(slab_bases[0], 0.0, _kseq(1.0, n=2))
