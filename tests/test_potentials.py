import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import fixed_quad, quad
from scipy.special import j0, jn_zeros, roots_legendre

from thermocasimir import loops as lo
from thermocasimir import potentials as pot
from thermocasimir.errors import (ContractViolationError, ParameterError,
                                  SingularArgumentError)
from thermocasimir.force import fit_loglog_slope
from thermocasimir.pipeline import (coulomb_kernel_error, dipolar_slopes,
                                    v_transverse_error)


# ------------------------------------------------------- transverse frame

def _frame_defects(K):
    """The frame's worst deviations from orthonormality, from orthogonality
    to K and of e1 e1^T + e2 e2^T from delta - K K^T / |K|^2."""
    K = np.asarray(K, dtype=float).reshape(-1, 3)
    khat = K / np.linalg.norm(K, axis=1)[:, None]
    e = pot._transverse_frame(khat)
    projector = np.eye(3) - K[:, :, None] * K[:, None, :] / np.sum(K * K, axis=1)[:, None, None]
    return (np.max(np.abs(e @ e.transpose(0, 2, 1) - np.eye(2))),
            np.max(np.abs(e @ khat[:, :, None])),
            np.max(np.abs(np.einsum("mci,mcj->mij", e, e) - projector)))


def test_transverse_frame_on_the_axes():
    # K along x (the probe's wavevectors): the frame spans y and z exactly
    e = pot._transverse_frame(np.eye(3))
    assert e.shape == (3, 2, 3)
    assert np.allclose(np.einsum("ci,cj->ij", e[0], e[0]), np.diag([0.0, 1.0, 1.0]),
                       atol=1e-15)
    assert max(_frame_defects(np.eye(3))) <= 1e-15
    assert max(_frame_defects(-7.0 * np.eye(3))) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 1e-3))
def test_transverse_frame_is_the_projector(kvec):
    assert max(_frame_defects(kvec)) < 1e-12


def test_transverse_frame_on_a_random_stack():
    # verify's sizes: 1000 random wavevectors, one frame per row
    ks = np.random.default_rng(5).normal(size=(1000, 3))
    assert max(_frame_defects(ks)) < 1e-12


# ------------------------------------------------------------ photon factor

def test_eval_q_classical_limit():
    assert pot.eval_Q(0.0, 0.37, 2.0) == 1.0
    assert pot.eval_Q(1e-14, 0.8, 2.0) == pytest.approx(1.0, abs=1e-12)
    # one row per wavenumber, broadcast against the lags
    q = pot.eval_Q(np.array([[0.0], [1.3]]), np.array([0.25, 0.5]), 2.0)
    assert q.shape == (2, 2) and np.all(q[0] == 1.0)
    assert q[1, 1] == pot.eval_Q(1.3, 0.5, 2.0)


def test_eval_q_midpoint_value():
    lam, k = 2.0, 1.3
    a = lam * k
    expected = a / (2.0 * np.sinh(a / 2.0))
    assert pot.eval_Q(k, 0.5, lam) == pytest.approx(expected, rel=1e-13)


def test_eval_q_periodicity_exact():
    for ds in (0.25, 0.375, 0.8125):
        assert pot.eval_Q(1.3, ds + 1.0, 2.0) == pot.eval_Q(1.3, ds, 2.0)
        assert pot.eval_Q(1.3, ds - 1.0, 2.0) == pot.eval_Q(1.3, ds, 2.0)


# ---------------------------------- real-space equal-time Coulomb (V_c) force

def test_point_loop_monopole_reduction(thermo):
    # point loops: the equal-time force is the monopole one, p_i p_j d/dx 1/r
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 1.0, thermo)
    l1 = lo.point_loop(-1.0, sp, n_steps=8)
    l2 = lo.point_loop(2.0, sp, n_steps=8)
    assert pot.coulomb_force_full(l1, l2, 0.0) == pytest.approx(1.0 / 9.0, rel=1e-14)
    # general charge numbers, and the interplate offset added to x_j
    l3 = lo.Loop(0.5, sp, 3, np.zeros((3 * 8 + 1, 3)))
    for kernel in (pot.coulomb_force_full, pot.coulomb_force_monopole_shifted):
        assert kernel(l1, l3, 1.5) == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_vc_symmetry(big_thermo, probe_loops):
    # exchanging the loops reverses the force and the offset
    l1, l2 = probe_loops
    assert pot.coulomb_force_full(l1, l2, 3.0) == pytest.approx(
        -pot.coulomb_force_full(l2, l1, -3.0), rel=1e-13)


def _shift_origin(loop, u):
    """Re-anchor the loop at time u: X'(s) = X(s+u) - X(u), position moved by
    lambda*X(u).  u must lie on the time grid; the multiset of spatial points
    is unchanged (same wire, new bookkeeping origin)."""
    n = loop.path.shape[0] - 1
    idx = u / loop.ds
    j = int(round(idx))
    if abs(idx - j) > 1e-9 or not (0 <= j <= n):
        raise ParameterError("shift time u must be a grid node in [0, p]")
    j = j % n
    origin = loop.path[j].copy()
    rolled = np.roll(loop.path[:-1], -j, axis=0) - origin
    rolled[0] = 0.0
    lam = loop.species.lambda_
    return lo.Loop(x=loop.x + lam * origin[0], species=loop.species, p=loop.p,
                   path=np.concatenate([rolled, np.zeros((1, 3))], axis=0),
                   y=loop.y + lam * origin[1:])


def test_shift_origin_identity_and_periodicity(thermo):
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 1.0, thermo)
    loop = lo.Loop(0.4, sp, 2, lo.sample_bridge(2, 8, 17))
    same = _shift_origin(loop, 0.0)
    assert same.x == loop.x and np.array_equal(same.path, loop.path)
    wrapped = _shift_origin(loop, 2.0)
    assert wrapped.x == loop.x
    assert np.allclose(wrapped.path, loop.path, atol=1e-15)


def test_shift_origin_preserves_spatial_points(thermo):
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 1.0, thermo)
    loop = lo.Loop(-0.7, sp, 2, lo.sample_bridge(2, 8, 23), y=np.array([0.2, -0.1]))
    shifted = _shift_origin(loop, 0.75)
    pts0 = np.sort(loop.spatial_nodes(), axis=0)
    pts1 = np.sort(shifted.spatial_nodes(), axis=0)
    assert np.allclose(pts0, pts1, atol=1e-12)


def test_shift_origin_off_grid_rejected(thermo):
    sp = lo.SpeciesParams.from_thermo("e", -1.0, 1.0, thermo)
    loop = lo.Loop(0.0, sp, 1, lo.sample_bridge(1, 8, 2))
    with pytest.raises(ParameterError):
        _shift_origin(loop, 0.1234567)


def test_vc_equal_shift_invariance(big_thermo):
    sp = lo.SpeciesParams.from_thermo("e", 1.0, 1.0, big_thermo)
    l1 = lo.Loop(-0.6, sp, 2, lo.sample_bridge(2, 12, [3, 0]))
    l2 = lo.Loop(0.9, sp, 1, lo.sample_bridge(1, 12, [3, 1]))
    ref = pot.coulomb_force_full(l1, l2, 2.0)
    # re-anchoring both loops with integer time difference
    for u1, u2 in ((0.5, 0.5), (1.25, 0.25), (1.75, 0.75)):
        val = pot.coulomb_force_full(_shift_origin(l1, u1), _shift_origin(l2, u2), 2.0)
        assert val == pytest.approx(ref, rel=1e-11)


def test_vc_common_grid_required(big_thermo):
    sp = lo.SpeciesParams.from_thermo("e", 1.0, 1.0, big_thermo)
    l1 = lo.Loop(0.0, sp, 1, lo.sample_bridge(1, 8, 1))
    l2 = lo.Loop(1.0, sp, 1, lo.sample_bridge(1, 16, 2))
    with pytest.raises(ContractViolationError):
        pot.coulomb_force_full(l1, l2, 2.0)
    # a p = 2 path of 17 steps has no common grid with anything
    with pytest.raises(ContractViolationError):
        lo.Loop(0.0, sp, 2, np.zeros((18, 3)))


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
    l2 = lo.Loop(2.0, sp, 1, np.zeros((8 + 1, 3)), y=y0)
    kvec = np.array([0.5, 0.3])
    base = pot.vel_fourier(l1, lo.point_loop(2.0, sp, n_steps=8), kvec)
    shifted = pot.vel_fourier(l1, l2, kvec)
    assert shifted == pytest.approx(base * np.exp(-1j * (kvec @ y0)), rel=1e-13)


# ----------------------------------------------------------- magnetic kernel

def test_wm_exchange_symmetry(big_thermo, probe_loops):
    l1, l2 = probe_loops
    k_cut = 3.0
    kvec = np.array([0.7, 0.4, -0.2])
    a = pot.wm_pair_fourier(l1, l2, kvec, big_thermo, k_cut)
    b = pot.wm_pair_fourier(l2, l1, -kvec, big_thermo, k_cut)
    assert a == pytest.approx(b, rel=1e-12)


def test_wm_classical_limit(big_thermo, probe_loops):
    l1, l2 = probe_loops
    k_cut = 3.0
    kvec = np.array([0.7, 0.4, 0.0])
    tiny = lo.ThermoState(beta=big_thermo.beta, hbar=1e-9 / big_thermo.c,
                          c=big_thermo.c)
    assert tiny.lambda_ph == pytest.approx(1e-9)
    wq = pot.wm_pair_fourier(l1, l2, kvec, tiny, k_cut)
    wc = pot.wm_pair_fourier(l1, l2, kvec, tiny, k_cut, photon="classical")
    assert abs(wq - wc) / abs(wc) < 1e-8


def test_wm_inplane_zero_uses_only_transverse_components(big_thermo, probe_loops):
    # at zero in-plane wavevector only the two in-plane increment channels
    # survive the projector contraction
    l1, l2 = probe_loops
    k_cut = 3.0
    k1 = 0.9
    kvec = np.array([k1, 0.0, 0.0])
    val = pot.wm_pair_fourier(l1, l2, kvec, big_thermo, k_cut)

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
        g = np.exp(-((k1 / k_cut) ** 2))
        return pref * 4.0 * np.pi * g * g / k1**2 * acc

    assert val == pytest.approx(manual(l1, l2), rel=1e-12)


def test_wm_singular_at_zero(big_thermo, probe_loops):
    l1, l2 = probe_loops
    with pytest.raises(SingularArgumentError):
        pot.wm_pair_fourier(l1, l2, np.zeros(3), big_thermo, 3.0)


def test_wm_point_loops_carry_no_current(big_thermo):
    sp = lo.SpeciesParams.from_thermo("e", 1.0, 1.0, big_thermo)
    p1 = lo.point_loop(-0.2, sp, n_steps=6)
    p2 = lo.point_loop(0.5, sp, n_steps=6)
    val = pot.wm_pair_fourier(p1, p2, np.array([0.4, 0.7, 0.0]), big_thermo, 3.0)
    assert val == 0.0


def _wm_pair_oracle(loop_i, loop_j, K, thermo, k_cut, photon):
    # per-wavevector einsum body of the kernel, kept as the reference for the
    # stacked evaluation; it evaluates its own regulator exp(-(k/k_cut)^2)
    K = np.asarray(K, dtype=float)
    kmag = float(np.linalg.norm(K))
    dXi, mid_i = pot._increments_and_midpoints(loop_i)
    dXj, mid_j = pot._increments_and_midpoints(loop_j)
    ti = loop_i.p * (np.arange(len(dXi)) + 0.5) / len(dXi)
    tj = loop_j.p * (np.arange(len(dXj)) + 0.5) / len(dXj)
    phase_i = np.exp(1j * loop_i.species.lambda_ * (mid_i @ K))
    phase_j = np.exp(-1j * loop_j.species.lambda_ * (mid_j @ K))
    if photon == "quantum":
        qmat = pot.eval_Q(kmag, ti[:, None] - tj[None, :], thermo.lambda_ph)
    else:
        qmat = np.ones((ti.size, tj.size))
    m = np.einsum("am,ab,bn->mn", dXi * phase_i[:, None], qmat,
                  dXj * phase_j[:, None])
    dtr = np.eye(3) - np.outer(K, K) / kmag**2
    g = np.exp(-((kmag / k_cut) ** 2))
    pref = 1.0 / (thermo.beta * np.sqrt(loop_i.species.mass * loop_j.species.mass)
                  * thermo.c**2)
    return complex(pref * 4.0 * np.pi * g * g / kmag**2 * np.sum(dtr * m))


@pytest.fixture(scope="module")
def oblique_stack():
    # oblique wavevectors with nonzero in-plane parts, |K| from 0.1 to ~6
    rng = np.random.default_rng(41)
    dirs = rng.normal(size=(40, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return dirs * np.geomspace(0.1, 6.0, 40)[:, None]


@pytest.mark.parametrize("photon", ["quantum", "classical"])
@pytest.mark.parametrize("p_i, p_j", [(1, 1), (1, 2), (2, 2)])
def test_wm_stack_matches_per_k_oracle(big_thermo, oblique_stack, photon,
                                       p_i, p_j):
    sp1 = lo.SpeciesParams.from_thermo("p1", +1.0, 1.0, big_thermo)
    sp2 = lo.SpeciesParams.from_thermo("p2", -1.0, 0.6, big_thermo)
    li = lo.Loop(-0.4, sp1, p_i, lo.sample_bridge(p_i, 24, [8, p_i]))
    lj = lo.Loop(0.6, sp2, p_j, lo.sample_bridge(p_j, 24, [9, p_j]))
    k_cut = 3.0
    stack = oblique_stack
    if photon == "classical":
        # with Q = 1 the kernel factorises into two closed-loop sums that
        # both vanish as |K| lambda -> 0: below |K| ~ 0.3 the two summation
        # orders agree only to a few 1e-12 relative
        stack = stack[np.linalg.norm(stack, axis=1) >= 0.5]
    got = pot.wm_pair_fourier(li, lj, stack, big_thermo, k_cut, photon=photon)
    assert got.shape == (len(stack),)
    ref = np.array([_wm_pair_oracle(li, lj, K, big_thermo, k_cut, photon)
                    for K in stack])
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def test_wm_single_k_is_stack_entry(big_thermo, probe_loops, oblique_stack):
    l1, l2 = probe_loops
    k_cut = 3.0
    stacked = pot.wm_pair_fourier(l1, l2, oblique_stack, big_thermo, k_cut)
    for idx in (0, 17, 39):
        one = pot.wm_pair_fourier(l1, l2, oblique_stack[idx], big_thermo, k_cut)
        assert isinstance(one, complex)
        assert abs(one - stacked[idx]) <= 1e-13 * abs(stacked[idx])


def test_wm_stack_with_zero_wavevector_raises(big_thermo, probe_loops,
                                              oblique_stack):
    l1, l2 = probe_loops
    stack = oblique_stack.copy()
    stack[5] = 0.0
    with pytest.raises(SingularArgumentError):
        pot.wm_pair_fourier(l1, l2, stack, big_thermo, 3.0)


def test_wm_stack_longer_than_chunk(big_thermo, probe_loops):
    l1, l2 = probe_loops
    k_cut = 3.0
    n_nodes = (l1.path.shape[0] - 1) + (l2.path.shape[0] - 1)
    chunk = pot._STACK_ENTRIES // n_nodes
    m = 2 * chunk + 7
    stack = np.column_stack([np.linspace(0.1, 8.0, m),
                             np.linspace(-0.5, 0.5, m),
                             np.full(m, 0.3)])
    whole = pot.wm_pair_fourier(l1, l2, stack, big_thermo, k_cut)
    parts = np.concatenate([pot.wm_pair_fourier(l1, l2, stack[r0:r0 + 50],
                                                big_thermo, k_cut)
                            for r0 in range(0, m, 50)])
    assert np.all(np.abs(whole - parts) <= 1e-13 * np.abs(parts))



def test_wm_needs_one_time_grid(big_thermo):
    sp = lo.SpeciesParams.from_thermo("p1", +1.0, 1.0, big_thermo)
    l24 = lo.Loop(0.0, sp, 1, lo.sample_bridge(1, 24, [3, 0]))
    l32 = lo.Loop(0.0, sp, 1, lo.sample_bridge(1, 32, [3, 1]))
    with pytest.raises(ContractViolationError):
        pot.wm_pair_fourier(l24, l32, np.array([0.7, 0.4, -0.2]), big_thermo,
                            3.0)


@pytest.mark.parametrize("k_cut", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_k_cut_must_be_positive_and_finite(big_thermo, probe_loops, k_cut):
    # unchecked, NaN gives a (nan+nanj) kernel and inf a NaN capacitor table
    l1, l2 = probe_loops
    with pytest.raises(ParameterError, match="k_cut"):
        pot.wm_pair_fourier(l1, l2, np.array([0.7, 0.4, -0.2]), big_thermo,
                            k_cut)
    with pytest.raises(ParameterError, match="k_cut"):
        pot.magnetic_capacitor_integrand(l1, l2, big_thermo, k_cut, [5.0, 10.0])


def test_wm_probe_stack_matches_per_k_oracle():
    # the magnetic probe's own stack: MAGNETIC_N_QUAD Gauss nodes on
    # [0, 4 k_cut] = [0, 10], K along x.  Below k1 = 0.1 the closed-loop
    # sums cancel and both summation orders keep only ~1e-8 relative
    from thermocasimir.pipeline import standard_magnetic_probe

    probe = standard_magnetic_probe(seed=2041)
    thermo, k_cut = probe["thermo"], probe["k_cut"]
    nodes, _ = roots_legendre(probe["n_quad"])
    k1 = 2.0 * k_cut * (nodes + 1.0)
    stack = np.zeros((k1.size, 3))
    stack[:, 0] = k1
    kept = k1 >= 0.1
    l1, l2 = probe["loops"]
    p1_p3 = (lo.Loop(0.0, l1.species, 1, lo.sample_bridge(1, 48, [2041, 5])),
             lo.Loop(0.0, l2.species, 3, lo.sample_bridge(3, 48, [2041, 6])))
    for li, lj in [(l1, l2), p1_p3]:
        got = pot.wm_pair_fourier(li, lj, stack, thermo, k_cut)
        ref = np.array([_wm_pair_oracle(li, lj, K, thermo, k_cut, "quantum")
                        for K in stack[kept]])
        assert np.all(np.abs(got[kept] - ref) <= 1e-12 * np.abs(ref))


@pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                       (0.0, 0.0, -1.0), (1.0, 1.0, 1.0)])
def test_wm_axis_and_diagonal_wavevectors_match_oracle(big_thermo, probe_loops,
                                                       direction):
    # the transverse basis is built from the axis of K's smallest |component|;
    # along an axis two components tie, along (1, 1, 1) all three do
    l1, l2 = probe_loops
    k_cut = 3.0
    unit = np.asarray(direction) / np.linalg.norm(direction)
    stack = np.outer([0.3, 0.9, 2.5], unit)
    got = pot.wm_pair_fourier(l1, l2, stack, big_thermo, k_cut)
    ref = np.array([_wm_pair_oracle(l1, l2, K, big_thermo, k_cut, "quantum")
                    for K in stack])
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

# ----------------------------------------------------- slab Coulomb force

def test_coulomb_force_kernel_values():
    assert pot.coulomb_force_kernel(-0.3, 0.4, 0.0, 10.0) == pytest.approx(2 * np.pi)
    q = 1.7
    assert pot.coulomb_force_kernel(0.0, 0.0, q, 5.0) == pytest.approx(
        2.0 * np.pi * np.exp(-q), rel=1e-14)


def test_coulomb_force_kernel_oracle_at_zero_wavenumber():
    assert pot.coulomb_force_kernel_oracle(-0.3, 0.4, 0.0, 10.0) == 2.0 * np.pi


def test_coulomb_force_kernel_vs_hankel_oracle():
    assert coulomb_kernel_error(np.random.default_rng(42), 100) < 1e-6


# --------------------------------------- partial transverse Coulomb transform

def test_v_transverse_partial_values():
    q = 1.3
    assert pot.v_transverse_partial(0.0, [q, 0.0], 0, 0) == pytest.approx(
        np.pi / q, rel=1e-14)
    # in-plane off-diagonal vanishes when q has a single in-plane component
    assert pot.v_transverse_partial(0.7, [q, 0.0], 1, 2) == 0.0
    # only the mixed (normal, in-plane) entries are odd in x
    qv = [q, 0.4]
    for mu in range(3):
        for nu in range(3):
            odd = (mu == 0) != (nu == 0)
            assert (pot.v_transverse_partial(-0.7, qv, mu, nu)
                    == (-1 if odd else 1) * pot.v_transverse_partial(0.7, qv, mu, nu))
    with pytest.raises(SingularArgumentError):
        pot.v_transverse_partial(0.5, [0.0, 0.0], 0, 0)


def test_v_transverse_partial_vs_oracle():
    assert v_transverse_error(np.random.default_rng(7), 100) < 1e-8


def test_v_transverse_specific_point():
    # all entries at x = 0.7, |q| = 1.3 against the quadrature oracle
    qv = np.array([1.3, 0.0])
    for mu in range(3):
        for nu in range(3):
            closed = pot.v_transverse_partial(0.7, qv, mu, nu)
            oracle = pot.v_transverse_partial_oracle(0.7, qv, mu, nu)
            assert abs(closed - oracle) < 1e-8


def test_v_transverse_oracle_at_zero_separation():
    # x = 0: the oracle's plain cosine integral, no oscillatory weight
    qv = np.array([1.3, 0.4])
    for mu in range(3):
        for nu in range(3):
            closed = pot.v_transverse_partial(0.0, qv, mu, nu)
            oracle = pot.v_transverse_partial_oracle(0.0, qv, mu, nu)
            assert abs(closed - oracle) < 1e-8, (mu, nu)


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

def _at_origin(*loops):
    """The loops moved to x = 0: equal positions give the strict asymptote."""
    return [lo.Loop(0.0, loop.species, loop.p, loop.path) for loop in loops]


def test_wab_exact_inverse_distance_scaling(big_thermo, probe_loops):
    l1, l2 = _at_origin(*probe_loops)
    qv = np.array([1.0, 0.4])
    w1 = pot.wab_pair_finite_d(l1, l2, qv, 100.0, big_thermo)
    w2 = pot.wab_pair_finite_d(l1, l2, qv, 200.0, big_thermo)
    assert w1 / w2 == pytest.approx(2.0, rel=1e-14)


def test_wab_point_loops_vanish(big_thermo):
    sp = lo.SpeciesParams.from_thermo("e", 1.0, 1.0, big_thermo)
    p1 = lo.point_loop(0.3, sp, n_steps=4)
    p2 = lo.point_loop(0.3, sp, n_steps=4)
    assert pot.wab_pair_finite_d(p1, p2, [1.0, 0.0], 50.0, big_thermo) == 0.0


def _wab_quadrature_oracle(loop_i, loop_j, qvec, d, thermo):
    """Direct wavenumber quadrature of the interplate dipolar potential.

    Integrates the small-K current-current kernel over the scaled normal
    wavenumber with the exact oscillatory phase.  The nondecaying large-q1
    part of the integrand Fourier-transforms to a contact term away from the
    evaluation point and is subtracted exactly; the remainder is handled by
    oscillatory-weighted adaptive quadrature with infinite-range tails.
    """
    qvec = np.asarray(qvec, dtype=float)
    q = float(np.hypot(qvec[0], qvec[1]))
    ai, bi = pot._loop_current_moments(loop_i, qvec)
    aj, bj = pot._loop_current_moments(loop_j, qvec)
    pref = (loop_i.species.lambda_ * loop_j.species.lambda_
            / (thermo.beta * np.sqrt(loop_i.species.mass * loop_j.species.mass)
               * thermo.c**2))
    X = 1.0 - (loop_i.x - loop_j.x) / d

    # T(q1) = sum_{mu nu} (q1 ai + bi)^mu (q1 aj + bj)^nu 4 pi dtr_{mu nu}(q1, q)/(q1^2+q^2)
    tail = 4.0 * np.pi * (ai[1] * aj[1] + ai[2] * aj[2])   # lim q1 -> inf

    def t_of(k1):
        kv = np.array([k1, qvec[0], qvec[1]])
        dtr = np.eye(3) - np.outer(kv, kv) / (kv @ kv)
        return 4.0 * np.pi * ((k1 * ai + bi) @ dtr @ (k1 * aj + bj)) / (k1 * k1 + q * q)

    def even(k1):
        return 0.5 * (t_of(k1) + t_of(-k1)) - tail

    def odd(k1):
        return 0.5 * (t_of(k1) - t_of(-k1))

    re, _ = quad(even, 0, np.inf, weight="cos", wvar=X, limit=600)
    im, _ = quad(odd, 0, np.inf, weight="sin", wvar=X, limit=600)
    # e^{-i q1 X} convention: int dq1/2pi (even + odd) e^{-i q1 X}
    return complex(pref * ((re - 1j * im) / np.pi) / d)


def test_wab_against_quadrature_oracle(big_thermo, probe_loops):
    l1, l2 = probe_loops
    qv = np.array([1.0, 0.4])
    d = 200.0
    closed = pot.wab_pair_finite_d(l1, l2, qv, d, big_thermo)
    asym = pot.wab_pair_finite_d(*_at_origin(l1, l2), qv, d, big_thermo)
    oracle = _wab_quadrature_oracle(l1, l2, qv, d, big_thermo)
    assert abs(closed - oracle) / abs(oracle) < 1e-8
    assert abs(asym - oracle) / abs(oracle) < 0.05


def test_wm_gradient_matches_finite_difference(big_thermo, probe_loops):
    l1, l2 = probe_loops
    qv = np.array([1.0, 0.4])
    d = 80.0
    h = 1e-5
    plus, minus = (lo.Loop(l1.x + dx, l1.species, l1.p, l1.path) for dx in (h, -h))
    fd = (pot.wab_pair_finite_d(plus, l2, qv, d, big_thermo)
          - pot.wab_pair_finite_d(minus, l2, qv, d, big_thermo)) / (2 * h)
    grad = pot.wm_gradient_ab(l1, l2, qv, d, big_thermo)
    assert grad == pytest.approx(fd, rel=1e-6)


def test_wab_and_gradient_scaling_slopes(big_thermo, probe_loops):
    slope_w, slope_g = dipolar_slopes(*probe_loops, big_thermo)
    assert abs(slope_w + 1.0) < 0.05
    assert abs(slope_g + 2.0) < 0.1


@pytest.mark.parametrize("kernel", [pot.wab_pair_finite_d, pot.wm_gradient_ab])
@pytest.mark.parametrize("d", [0.0, -5.0, np.inf, np.nan])
def test_dipolar_kernels_reject_a_bad_separation(big_thermo, probe_loops, kernel, d):
    # no bare ZeroDivisionError, no value for a negative or infinite d, and
    # no NaN with a RuntimeWarning
    with pytest.raises(ParameterError, match="separation"):
        kernel(*probe_loops, np.array([1.0, 0.4]), d, big_thermo)


def test_current_moments_telescoping(big_thermo, probe_loops):
    # the diagonal (normal-increment times normal-midpoint) moment telescopes
    l1, _ = probe_loops
    a, b = pot._loop_current_moments(l1, np.array([1.0, 0.0]))
    assert abs(a[0]) < 1e-13


# ----------------------------------------------- magnetic capacitor kernel

def test_magnetic_capacitor_integrand_fast_decay(big_thermo, probe_loops,
                                                  monkeypatch):
    l1, l2 = probe_loops
    k_cut = 2.5
    xv = np.geomspace(5.0, 50.0, 10)
    monkeypatch.setattr(pot, "MAGNETIC_N_QUAD", 2500)
    mv, _ = pot.magnetic_capacitor_integrand(l1, l2, big_thermo, k_cut, xv)
    slope, _ = fit_loglog_slope(xv, mv)
    assert slope < -4.0


def test_magnetic_capacitor_integrand_matches_per_node_loop():
    from thermocasimir.pipeline import standard_magnetic_probe

    probe = standard_magnetic_probe(seed=2041)
    l1, l2 = probe["loops"]
    thermo, k_cut = probe["thermo"], probe["k_cut"]
    xv = np.asarray(probe["x_values"])
    # reference: the per-node kernel and the per-X weighted sum
    k_max = 4.0 * k_cut
    nodes, weights = roots_legendre(probe["n_quad"])
    k1 = 0.5 * k_max * (nodes + 1.0)
    wk = 0.5 * k_max * weights
    wm = np.array([_wm_pair_oracle(l1, l2, np.array([k, 0.0, 0.0]), thermo,
                                   k_cut, "quantum") for k in k1])
    t = 1j * k1 * wm
    terms = np.array([wk * (np.cos(k1 * X) * t.real - np.sin(k1 * X) * t.imag)
                      / np.pi for X in xv])
    ref = terms.sum(axis=1)
    got = np.asarray(probe["m_values"])
    assert got.shape == xv.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    ref_floor = 1e3 * np.finfo(float).eps * np.abs(terms).sum(axis=1)
    assert np.allclose(probe["m_floor"], ref_floor, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("seed", [2041, 99, 24])
def test_magnetic_fit_points_stable_across_gauss_rules(seed, monkeypatch):
    # the points above the rounding floor, and the exponent fitted on them,
    # do not depend on the size of the Gauss rule
    from thermocasimir.force import magnetic_decay_fit
    from thermocasimir.pipeline import standard_magnetic_probe

    probe = standard_magnetic_probe(seed=seed)
    l1, l2 = probe["loops"]
    kept, exponents = [], []
    for n_quad in (200, 400, 3000):
        monkeypatch.setattr(pot, "MAGNETIC_N_QUAD", n_quad)
        mv, floor = pot.magnetic_capacitor_integrand(
            l1, l2, probe["thermo"], probe["k_cut"], probe["x_values"])
        kept.append(np.abs(mv) > floor)
        exponent, n_points = magnetic_decay_fit(
            {"x_values": probe["x_values"], "m_values": mv, "m_floor": floor})
        assert n_points == np.count_nonzero(kept[-1]) >= 3
        exponents.append(exponent)
    assert all(np.array_equal(k, kept[0]) for k in kept)
    assert 0 < np.count_nonzero(~kept[0])     # the floor does cut points
    assert max(exponents) - min(exponents) < 0.05
    assert min(exponents) > 4.0


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
