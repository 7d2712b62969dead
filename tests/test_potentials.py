import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import fixed_quad, quad
from scipy.special import j0, jn_zeros

from thermocasimir import loops as lo
from thermocasimir import potentials as pot
from thermocasimir.errors import ContractViolationError, SingularArgumentError
from thermocasimir.force import fit_loglog_slope


# ---------------------------------------------------------------- projector

def test_transverse_delta_axis():
    assert np.allclose(pot.transverse_delta([1.0, 0.0, 0.0]),
                       np.diag([0.0, 1.0, 1.0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 1e-3))
def test_transverse_delta_projector_property(kvec):
    p = pot.transverse_delta(kvec)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.allclose(p @ np.asarray(kvec), 0.0, atol=1e-12)
    assert np.trace(p) == pytest.approx(2.0, abs=1e-12)


def test_transverse_delta_inplane_zero_rule():
    # at vanishing in-plane wavevector the projector is diag(0, 1, 1)
    # independently of the normal wavenumber
    for k1 in (0.3, 2.0, -7.0):
        assert np.allclose(pot.transverse_delta([k1, 0.0, 0.0]),
                           np.diag([0.0, 1.0, 1.0]), atol=1e-15)


def test_transverse_delta_singular():
    with pytest.raises(SingularArgumentError):
        pot.transverse_delta([0.0, 0.0, 0.0])


# ------------------------------------------------------------ photon factor

def test_eval_q_classical_limit():
    assert pot.eval_Q(0.0, 0.37, 2.0) == 1.0
    assert pot.eval_Q(1e-14, 0.8, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_eval_q_midpoint_value():
    lam, k = 2.0, 1.3
    a = lam * k
    expected = a / (2.0 * np.sinh(a / 2.0))
    assert pot.eval_Q(k, 0.5, lam) == pytest.approx(expected, rel=1e-13)


def test_eval_q_periodicity_exact():
    for ds in (0.25, 0.375, 0.8125):
        assert pot.eval_Q(1.3, ds + 1.0, 2.0) == pot.eval_Q(1.3, ds, 2.0)
        assert pot.eval_Q(1.3, ds - 1.0, 2.0) == pot.eval_Q(1.3, ds, 2.0)


# ------------------------------------------------- real-space pair kernels

def test_point_loop_monopole_reduction(thermo):
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 1.0, thermo)
    l1 = lo.point_loop(-1.0, sp, n_steps=8)
    l2 = lo.point_loop(2.0, sp, n_steps=8)
    assert pot.vc_pair(l1, l2) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert pot.vel_pair(l1, l2) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert pot.wc_pair(l1, l2) == pytest.approx(0.0, abs=1e-14)
    # general charge numbers: p_i p_j / r
    l3 = lo.point_loop(2.0, sp, p=3, n_steps=8)
    assert pot.vel_pair(l1, l3) == pytest.approx(1.0, rel=1e-13)
    assert pot.vc_pair(l1, l3) == pytest.approx(1.0, rel=1e-13)


def test_vc_symmetry(big_thermo, probe_loops):
    l1, l2 = probe_loops
    assert pot.vc_pair(l1, l2) == pytest.approx(pot.vc_pair(l2, l1), rel=1e-13)
    assert pot.vel_pair(l1, l2) == pytest.approx(pot.vel_pair(l2, l1), rel=1e-13)


def test_vel_positive(probe_loops):
    l1, l2 = probe_loops
    assert pot.vel_pair(l1, l2) > 0.0


def test_vc_equal_shift_invariance(big_thermo):
    sp = lo.SpeciesParams.from_thermo("e", 1.0, 1.0, big_thermo)
    l1 = lo.Loop(-0.6, sp, 2, lo.sample_bridge(2, 12, [3, 0]))
    l2 = lo.Loop(0.9, sp, 1, lo.sample_bridge(1, 12, [3, 1]))
    ref = pot.vc_pair(l1, l2)
    # re-anchoring both loops with integer time difference
    for u1, u2 in ((0.5, 0.5), (1.25, 0.25), (1.75, 0.75)):
        val = pot.vc_pair(lo.shift_origin(l1, u1), lo.shift_origin(l2, u2))
        assert val == pytest.approx(ref, rel=1e-11)


def test_wc_dipolar_decay(big_thermo):
    sp = lo.SpeciesParams.from_thermo("e", 1.0, 1.0, big_thermo)
    l1 = lo.Loop(0.0, sp, 1, lo.sample_bridge(1, 24, [11, 0]))
    base = lo.Loop(0.0, sp, 1, lo.sample_bridge(1, 24, [11, 1]))
    rs = np.geomspace(50.0, 800.0, 5)
    vals = [abs(pot.wc_pair(l1, lo.Loop(r, sp, 1, base.path))) for r in rs]
    slope, _ = fit_loglog_slope(rs, vals)
    assert abs(slope + 3.0) < 0.2


def test_vc_common_grid_required(big_thermo):
    sp = lo.SpeciesParams.from_thermo("e", 1.0, 1.0, big_thermo)
    l1 = lo.Loop(0.0, sp, 1, lo.sample_bridge(1, 8, 1))
    l2 = lo.Loop(1.0, sp, 1, lo.sample_bridge(1, 16, 2))
    with pytest.raises(ContractViolationError):
        pot.vc_pair(l1, l2)


# --------------------------------------------------- transverse-Fourier wire

def test_vel_fourier_point_loops(thermo):
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 1.0, thermo)
    l1 = lo.point_loop(-1.0, sp, n_steps=8)
    l2 = lo.point_loop(2.0, sp, n_steps=8)
    k = 0.5
    expected = (2.0 * np.pi / k) * np.exp(-k * 3.0)
    assert pot.vel_fourier(l1, l2, [k, 0.0]) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(SingularArgumentError):
        pot.vel_fourier(l1, l2, [0.0, 0.0])


def test_vel_fourier_zero_k_ratio(big_thermo):
    # lim_{k->0} V(i, 1, k) / V(i, j, k) = p_1 / p_j
    sp = lo.SpeciesParams.from_thermo("e", 1.0, 1.0, big_thermo)
    li = lo.Loop(-0.5, sp, 2, lo.sample_bridge(2, 8, [21, 0]))
    l_one = lo.Loop(0.8, sp, 1, lo.sample_bridge(1, 8, [21, 1]))
    l_j = lo.Loop(0.8, sp, 3, lo.sample_bridge(3, 8, [21, 2]))
    k = 1e-6
    ratio = pot.vel_fourier(li, l_one, [k, 0]) / pot.vel_fourier(li, l_j, [k, 0])
    assert abs(ratio - 1.0 / 3.0) < 1e-4


def test_vel_fourier_matches_plane_transform(big_thermo):
    """2D Fourier transform of the real-space wire kernel, radial quadrature
    with a point-reference subtraction for the slowly decaying part."""
    sp = lo.SpeciesParams.from_thermo("s", 1.0, 1.0, big_thermo)
    p1 = lo.sample_bridge(1, 32, [9, 0])
    p1[:, 1:] = 0.0                      # normal-only fluctuations: radial kernel
    p2 = lo.sample_bridge(2, 32, [9, 1])
    p2[:, 1:] = 0.0
    l1 = lo.Loop(-0.5, sp, 1, p1)
    l2 = lo.Loop(0.7, sp, 2, p2)
    k = 0.8
    target = pot.vel_fourier(l1, l2, [k, 0.0])

    lam = sp.lambda_
    x1 = l1.x + lam * l1.path[:-1, 0]
    x2 = l2.x + lam * l2.path[:-1, 0]
    dx = np.abs(x1[:, None] - x2[None, :]).ravel()
    w = l1.ds * l2.ds
    c = dx.max() + 0.1

    def g_rem(y):
        yy = np.atleast_1d(np.asarray(y, dtype=float))[:, None]
        return w * np.sum((dx[None, :] ** 2 + yy**2) ** -0.5
                          - (c**2 + yy**2) ** -0.5, axis=1)

    ref = w * dx.size * (2.0 * np.pi / k) * np.exp(-k * c)
    edges = jn_zeros(0, 81) / k
    head, _ = quad(lambda y: float(y * g_rem(y)[0] * j0(k * y)),
                   0.0, edges[0], limit=200)
    terms = [fixed_quad(lambda y: y * g_rem(y) * j0(k * y),
                        edges[i], edges[i + 1], n=24)[0] for i in range(80)]
    s = head + np.cumsum(terms)
    for _ in range(12):
        s = 0.5 * (s[:-1] + s[1:])
    oracle = ref + 2.0 * np.pi * s[-1]
    assert abs(target - oracle) / abs(oracle) < 1e-6


def test_vel_fourier_inplane_shift_phase(thermo):
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 1.0, thermo)
    l1 = lo.point_loop(-1.0, sp, n_steps=8)
    y0 = np.array([0.7, -0.4])
    l2 = lo.point_loop(2.0, sp, n_steps=8, y=y0)
    kvec = np.array([0.5, 0.3])
    base = pot.vel_fourier(l1, lo.point_loop(2.0, sp, n_steps=8), kvec)
    shifted = pot.vel_fourier(l1, l2, kvec)
    assert shifted == pytest.approx(base * np.exp(-1j * (kvec @ y0)), rel=1e-13)


# ----------------------------------------------------------- magnetic kernel

def test_wm_exchange_symmetry(big_thermo, probe_loops):
    l1, l2 = probe_loops
    ff = pot.FormFactor(k_cut=3.0)
    kvec = np.array([0.7, 0.4, -0.2])
    a = pot.wm_pair_fourier(l1, l2, kvec, big_thermo, ff)
    b = pot.wm_pair_fourier(l2, l1, -kvec, big_thermo, ff)
    assert a == pytest.approx(b, rel=1e-12)


def test_wm_classical_limit(big_thermo, probe_loops):
    l1, l2 = probe_loops
    ff = pot.FormFactor(k_cut=3.0)
    kvec = np.array([0.7, 0.4, 0.0])
    tiny = lo.ThermoState(beta=big_thermo.beta, hbar=1e-9 / big_thermo.c,
                          c=big_thermo.c)
    assert tiny.lambda_ph == pytest.approx(1e-9)
    wq = pot.wm_pair_fourier(l1, l2, kvec, tiny, ff)
    wc = pot.wm_pair_fourier(l1, l2, kvec, tiny, ff, photon="classical")
    assert abs(wq - wc) / abs(wc) < 1e-8


def test_wm_inplane_zero_uses_only_transverse_components(big_thermo, probe_loops):
    # at zero in-plane wavevector only the two in-plane increment channels
    # survive the projector contraction
    l1, l2 = probe_loops
    ff = pot.FormFactor(k_cut=3.0)
    k1 = 0.9
    kvec = np.array([k1, 0.0, 0.0])
    val = pot.wm_pair_fourier(l1, l2, kvec, big_thermo, ff)

    def manual(li, lj):
        dxi = np.diff(li.path, axis=0)
        dxj = np.diff(lj.path, axis=0)
        mi = 0.5 * (li.path[:-1] + li.path[1:])
        mj = 0.5 * (lj.path[:-1] + lj.path[1:])
        ni = mi.shape[0]
        ti = (np.arange(ni) + 0.5) / ni * li.p
        nj = mj.shape[0]
        tj = (np.arange(nj) + 0.5) / nj * lj.p
        phi = np.exp(1j * k1 * li.species.lambda_ * mi[:, 0])
        phj = np.exp(-1j * k1 * lj.species.lambda_ * mj[:, 0])
        qm = pot.eval_Q(k1, ti[:, None] - tj[None, :], big_thermo.lambda_ph)
        pref = 1.0 / (big_thermo.beta
                      * np.sqrt(li.species.mass * lj.species.mass)
                      * big_thermo.c**2)
        acc = 0.0
        for mu in (1, 2):   # in-plane channels only
            acc += np.einsum("a,b,ab->", dxi[:, mu] * phi, dxj[:, mu] * phj, qm)
        return pref * 4.0 * np.pi * ff(k1) ** 2 / k1**2 * acc

    assert val == pytest.approx(manual(l1, l2), rel=1e-12)


def test_wm_singular_at_zero(big_thermo, probe_loops):
    l1, l2 = probe_loops
    with pytest.raises(SingularArgumentError):
        pot.wm_pair_fourier(l1, l2, np.zeros(3), big_thermo,
                            pot.FormFactor(k_cut=3.0))


def test_wm_point_loops_carry_no_current(big_thermo):
    sp = lo.SpeciesParams.from_thermo("e", 1.0, 1.0, big_thermo)
    p1 = lo.point_loop(-0.2, sp, n_steps=6)
    p2 = lo.point_loop(0.5, sp, n_steps=6)
    val = pot.wm_pair_fourier(p1, p2, np.array([0.4, 0.7, 0.0]), big_thermo,
                              pot.FormFactor(k_cut=3.0))
    assert val == 0.0


# ----------------------------------------------------- slab Coulomb force

def test_coulomb_force_kernel_values():
    assert pot.coulomb_force_kernel(-0.3, 0.4, 0.0, 10.0) == pytest.approx(2 * np.pi)
    q = 1.7
    assert pot.coulomb_force_kernel(0.0, 0.0, q, 5.0) == pytest.approx(
        2.0 * np.pi * np.exp(-q), rel=1e-14)


def test_coulomb_force_kernel_vs_hankel_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(0.05, 4.0)
        d = rng.uniform(5.0, 50.0)
        x1 = rng.uniform(-0.3 * d, 0.0)
        x2 = rng.uniform(0.0, 0.3 * d)
        closed = pot.coulomb_force_kernel(x1, x2, q, d)
        oracle = pot.coulomb_force_kernel_oracle(x1, x2, q, d)
        worst = max(worst, abs(closed - oracle) / abs(closed))
    assert worst < 1e-6


# --------------------------------------- partial transverse Coulomb transform

def test_v_transverse_partial_values():
    q = 1.3
    assert pot.v_transverse_partial(0.0, [q, 0.0], 0, 0) == pytest.approx(
        np.pi / q, rel=1e-14)
    # in-plane off-diagonal vanishes when q has a single in-plane component
    assert pot.v_transverse_partial(0.7, [q, 0.0], 1, 2) == 0.0
    with pytest.raises(SingularArgumentError):
        pot.v_transverse_partial(0.5, [0.0, 0.0], 0, 0)


def test_v_transverse_partial_vs_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0)
        qv = rng.uniform(-2.0, 2.0, size=2)
        if np.hypot(*qv) < 0.3:
            qv = qv + 0.5
        mu, nu = rng.integers(0, 3, size=2)
        closed = pot.v_transverse_partial(x, qv, int(mu), int(nu))
        oracle = pot.v_transverse_partial_oracle(x, qv, int(mu), int(nu))
        worst = max(worst, abs(closed - oracle))
    assert worst < 1e-8


def test_v_transverse_specific_point():
    # all entries at x = 0.7, |q| = 1.3 against the quadrature oracle
    qv = np.array([1.3, 0.0])
    for mu in range(3):
        for nu in range(3):
            closed = pot.v_transverse_partial(0.7, qv, mu, nu)
            oracle = pot.v_transverse_partial_oracle(0.7, qv, mu, nu)
            assert abs(closed - oracle) < 1e-8


def test_vtilde_derivatives_vs_finite_differences():
    from thermocasimir.potentials import _vtilde_derivs
    qv = np.array([0.9, 0.5])
    x = 1.2
    h = 1e-5
    v0 = _vtilde_derivs(x, qv, 3)
    vp = _vtilde_derivs(x + h, qv, 3)
    vm = _vtilde_derivs(x - h, qv, 3)
    for order in range(3):
        fd = (vp[order] - vm[order]) / (2 * h)
        assert np.allclose(fd, v0[order + 1], rtol=1e-7, atol=1e-9)


# ------------------------------------------------- interplate dipolar kernel

def test_wab_exact_inverse_distance_scaling(big_thermo, probe_loops):
    l1, l2 = probe_loops
    qv = np.array([1.0, 0.4])
    w1 = pot.wab_asymptotic(l1, l2, qv, 100.0, big_thermo)
    w2 = pot.wab_asymptotic(l1, l2, qv, 200.0, big_thermo)
    assert w1 / w2 == pytest.approx(2.0, rel=1e-14)


def test_wab_point_loops_vanish(big_thermo):
    sp = lo.SpeciesParams.from_thermo("e", 1.0, 1.0, big_thermo)
    p1 = lo.point_loop(-0.2, sp, n_steps=4)
    p2 = lo.point_loop(0.3, sp, n_steps=4)
    assert pot.wab_asymptotic(p1, p2, [1.0, 0.0], 50.0, big_thermo) == 0.0


def test_wab_against_quadrature_oracle(big_thermo, probe_loops):
    l1, l2 = probe_loops
    qv = np.array([1.0, 0.4])
    d = 200.0
    closed = pot.wab_pair_finite_d(l1, l2, qv, d, big_thermo)
    asym = pot.wab_asymptotic(l1, l2, qv, d, big_thermo)
    oracle = pot.wab_quadrature_oracle(l1, l2, qv, d, big_thermo)
    assert abs(closed - oracle) / abs(oracle) < 1e-8
    assert abs(asym - oracle) / abs(oracle) < 0.05


def test_wm_gradient_matches_finite_difference(big_thermo, probe_loops):
    l1, l2 = probe_loops
    qv = np.array([1.0, 0.4])
    d = 80.0
    h = 1e-5
    fd = (pot.wab_pair_finite_d(l1, l2, qv, d, big_thermo, x1=l1.x + h)
          - pot.wab_pair_finite_d(l1, l2, qv, d, big_thermo, x1=l1.x - h)) / (2 * h)
    grad = pot.wm_gradient_ab(l1, l2, qv, d, big_thermo)
    assert grad == pytest.approx(fd, rel=1e-6)


def test_wab_and_gradient_scaling_slopes(big_thermo, probe_loops):
    l1, l2 = probe_loops
    qv = np.array([1.0, 0.4])
    ds = np.geomspace(10.0, 1000.0, 6)
    wab = [abs(pot.wab_pair_finite_d(l1, l2, qv, d, big_thermo)) for d in ds]
    grad = [abs(pot.wm_gradient_ab(l1, l2, qv, d, big_thermo)) for d in ds]
    slope_w, _ = fit_loglog_slope(ds, wab)
    slope_g, _ = fit_loglog_slope(ds, grad)
    assert abs(slope_w + 1.0) < 0.05
    assert abs(slope_g + 2.0) < 0.1


def test_current_moments_telescoping(big_thermo, probe_loops):
    # the diagonal (normal-increment times normal-midpoint) moment telescopes
    l1, _ = probe_loops
    a, b = pot.loop_current_moments(l1, np.array([1.0, 0.0]))
    assert abs(a[0]) < 1e-13


# ----------------------------------------------- magnetic capacitor kernel

def test_magnetic_capacitor_integrand_fast_decay(big_thermo, probe_loops):
    l1, l2 = probe_loops
    ff = pot.FormFactor(k_cut=2.5)
    xv = np.geomspace(5.0, 50.0, 10)
    mv = pot.magnetic_capacitor_integrand(l1, l2, big_thermo, ff, xv,
                                          n_quad=2500)
    slope, _ = fit_loglog_slope(xv, mv)
    assert slope < -4.0


# -------------------------------------------------------------- self-energy

def test_loop_self_energy(thermo):
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 1.0, thermo)
    single = lo.Loop(0.0, sp, 1, lo.sample_bridge(1, 16, 3))
    assert pot.loop_self_energy(single) == 0.0
    multi = lo.Loop(0.0, sp, 2, lo.sample_bridge(2, 16, 3))
    se = pot.loop_self_energy(multi)
    assert se > 0.0
    shifted = lo.shift_origin(multi, 0.5)
    assert pot.loop_self_energy(shifted) == pytest.approx(se, rel=1e-10)


# --------------------------------------------------------- monopole reduction

def test_monopole_reduction_identity(big_thermo):
    spp = lo.SpeciesParams.from_thermo("p", +1.0, 1.0, big_thermo)
    spm = lo.SpeciesParams.from_thermo("m", -1.0, 1.5, big_thermo)
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
    assert abs(full - mono) < 1e-4
    assert abs(full - mono) < 1e-12      # exact on coprime charge numbers
