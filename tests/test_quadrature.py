"""The numpy quadrature behind the oracles, the zeta(3)/2 amplitude and the
magnetic probe: the Gauss-Legendre rule against its defining property and
scipy's rule, and every oracle against a scipy.integrate reference."""
import numpy as np
import pytest
from scipy.integrate import fixed_quad, quad
from scipy.special import j0, j1, jn_zeros, roots_legendre

from thermocasimir import _quadrature as qd
from thermocasimir import force as fc
from thermocasimir import potentials as pot
from thermocasimir import screening as scr


# ------------------------------------------------------------ Gauss rule

@pytest.mark.parametrize("n", [24, 400])
def test_gauss_rule_exact_on_monomials(n):
    x, w = qd.gauss_legendre(n)
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w @ x**k - exact) < 1e-14, k


@pytest.mark.parametrize("n", [1, 2, 3, 24, 400])
def test_gauss_rule_matches_scipy_nodes(n):
    x, w = qd.gauss_legendre(n)
    xs, _ = roots_legendre(n)
    assert np.max(np.abs(x - xs)) <= 1e-15
    assert abs(w.sum() - 2.0) < 1e-14


def _four_pass_gauss_legendre(n):
    """The rule with three Newton steps and a fourth pass for P_n' always."""
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(
        np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for newton_step in (True, True, True, False):
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) / j) * x * p1 - ((j - 1) / j) * p0
        dp = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
        if newton_step:
            x = x - p1 / dp
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


@pytest.mark.parametrize("n", [16, 400, 3000])
def test_gauss_rule_stops_newton_at_rounding(n):
    # Newton stops once its step is at rounding (three passes at n = 400 and
    # 3000): the nodes stay within 2 ulp of the four-pass rule's, and the
    # weights, whose 1 - x^2 factor near +-1 amplifies a 1-ulp node shift,
    # within 1e-10 relative
    x, w = qd.gauss_legendre(n)
    x4, w4 = _four_pass_gauss_legendre(n)
    assert np.all(np.abs(x - x4) <= 2.0 * np.spacing(np.abs(x4)))
    assert np.max(np.abs(w - w4) / w4) <= 1e-10
    assert abs(w.sum() - 2.0) <= 1e-14


def test_gauss_rule_is_cached_read_only():
    x, w = qd.gauss_legendre(24)
    assert qd.gauss_legendre(24)[0] is x
    for arr in (x, w, qd.j0_zeros()):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_bessel_functions_and_zeros_match_scipy():
    z = np.linspace(0.0, 260.0, 2001)
    assert np.max(np.abs(qd.bessel_j0(z) - j0(z))) < 1e-12
    assert np.max(np.abs(qd.bessel_j1(z) - j1(z))) < 1e-12
    ref = jn_zeros(0, 81)
    assert np.max(np.abs(qd.j0_zeros() - ref) / ref) < 1e-15


@pytest.mark.parametrize("tail, w, zeros", [
    ("j0_tail", j0, jn_zeros(0, 81)),
    ("cos_tail", np.cos, (np.arange(81) + 0.5) * np.pi),
    ("sin_tail", np.sin, (np.arange(81) + 1.0) * np.pi)])
def test_tail_tables_are_gauss_panels_between_the_zeros(tail, w, zeros):
    table = getattr(qd, tail)()
    assert getattr(qd, tail)() is table
    _, got_zeros, nodes, weights = table
    for arr in table[1:]:
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0
    xs, ws = roots_legendre(16)
    h = 0.5 * np.diff(zeros)[:, None]
    assert np.max(np.abs(got_zeros - zeros) / zeros) < 1e-15
    assert np.max(np.abs(nodes - (zeros[:-1, None] + h * (1.0 + xs))) / nodes) < 1e-14
    assert np.max(np.abs(weights - h * ws * w(nodes))) < 1e-12


def test_hankel_oracle_evaluates_j0_on_its_head_panels_only(monkeypatch):
    """After the caches are cleared, the J0 tail table is built once (80
    panels of 16 nodes); each oracle call then evaluates J0 on its 8 head
    panels only."""
    qd.j0_zeros()             # polished by Newton steps of their own, once
    caches = [f for f in vars(qd).values()
              if hasattr(f, "cache_clear") and f is not qd.j0_zeros]
    points = []
    j0_rule = qd.bessel_j0

    def counted(z):
        points.append(np.size(z))
        return j0_rule(z)

    for module in (qd, pot):           # wherever an oracle looks J0 up
        if hasattr(module, "bessel_j0"):
            monkeypatch.setattr(module, "bessel_j0", counted)
    n = 10
    rng = np.random.default_rng(7)
    try:
        for cache in caches:
            cache.cache_clear()
        for q, d in zip(rng.uniform(0.05, 4.0, n), rng.uniform(5.0, 50.0, n)):
            assert np.isfinite(pot.coulomb_force_kernel_oracle(-0.1 * d, 0.2 * d, q, d))
    finally:
        for cache in caches:  # a table built here holds the counting wrapper
            cache.cache_clear()
    assert sum(points) <= 1280 + 128 * n


# ------------------------------------------- oracles vs scipy.integrate

def _hankel_reference(x1, x2, q, d):
    """The slab force kernel by adaptive quadrature of the head and 24-node
    fixed Gauss panels between the Bessel zeros, repeated averaging."""
    k = q / d
    X = x1 - x2 - d

    def f(y):
        return y * abs(X) * (X * X + y * y) ** -1.5 * j0(k * y)

    edges = jn_zeros(0, 81) / k
    head, _ = quad(f, 0.0, edges[0], limit=200)
    terms = [fixed_quad(f, edges[i], edges[i + 1], n=24)[0] for i in range(80)]
    s = head + np.cumsum(terms)
    for _ in range(12):
        s = 0.5 * (s[:-1] + s[1:])
    return 2.0 * np.pi * s[-1]


@pytest.mark.parametrize("x1, x2, q, d", [(-1.0, 2.0, 0.05, 5.0),
                                          (-3.0, 0.5, 0.05, 50.0),
                                          (-0.2, 1.1, 4.0, 5.0),
                                          (-9.0, 12.0, 4.0, 40.0),
                                          (-0.5, 0.5, 1.0, 10.0),
                                          # k = 1e-3: a peak of width 0.011 in u = k y
                                          (-0.5, 0.25, 0.01, 10.0),
                                          # k |X| = 12, five times the first zero of J0:
                                          # the geometric head is capped at that zero
                                          (-4.0, 6.0, 8.0, 20.0)])
def test_coulomb_oracle_matches_scipy_reference(x1, x2, q, d):
    ref = _hankel_reference(x1, x2, q, d)
    assert abs(pot.coulomb_force_kernel_oracle(x1, x2, q, d) - ref) < 1e-9 * abs(ref)


def _transverse_reference(x, qvec, mu, nu):
    """QUADPACK's Fourier-weighted quadrature (QAWF) of the even and odd
    parts of the transverse kernel entry."""
    qx, qy = qvec

    def entry(k1):
        K = (k1, qx, qy)
        k2 = k1 * k1 + qx * qx + qy * qy
        return 4.0 * np.pi / k2 * ((mu == nu) - K[mu] * K[nu] / k2)

    re, _ = quad(lambda k: 0.5 * (entry(k) + entry(-k)), 0, np.inf,
                 weight="cos", wvar=x, limit=400)
    im, _ = quad(lambda k: 0.5 * (entry(k) - entry(-k)), 0, np.inf,
                 weight="sin", wvar=x, limit=400)
    return (re + 1j * im) / np.pi


@pytest.mark.parametrize("x, qvec, mu, nu", [(0.031, (1.485, -0.555), 1, 1),
                                             (-0.031, (1.485, -0.555), 0, 1),
                                             (0.7, (1.3, 0.4), 0, 0),
                                             (-1.9, (0.2, 0.25), 2, 1),
                                             (1.2, (-2.0, 1.5), 0, 2)])
def test_transverse_oracle_matches_scipy_reference(x, qvec, mu, nu):
    ref = _transverse_reference(x, qvec, mu, nu)
    assert abs(pot.v_transverse_partial_oracle(x, qvec, mu, nu) - ref) < 1e-9


def test_bulk_oracle_matches_scipy_reference():
    kappa, k_seq = 1.3, [0.4, 0.2, 0.1, 0.05]
    ref = [quad(lambda x: kappa**2 / (4.0 * np.pi) * scr.bulk_phi_analytic(x, 0.0, k, kappa),
                -40.0 / kappa, 40.0 / kappa, points=[0.0], limit=200)[0]
           for k in k_seq]
    got = scr.bulk_sum_rule_oracle(kappa, k_seq)["per_k"]
    assert np.max(np.abs(np.array(got) - ref)) < 1e-13


def test_zeta3_quadrature_matches_scipy_reference():
    ref, _ = quad(lambda q: q * q * np.exp(-q) / np.sinh(q), 0.0, 40.0,
                  epsabs=1e-14, epsrel=1e-14, limit=200)
    assert abs(fc.zeta3_quadrature() - ref) < 1e-14


def test_oracles_do_not_call_their_closed_forms(monkeypatch):
    def closed_form(*args, **kwargs):
        raise AssertionError("an oracle called the closed form it checks")

    for name in ("coulomb_force_kernel", "v_transverse_partial", "_vtilde_derivs"):
        monkeypatch.setattr(pot, name, closed_form)
    monkeypatch.setattr(fc, "zeta3_series_oracle", closed_form)
    monkeypatch.setattr(fc, "ZETA3", np.nan)
    assert np.isfinite(pot.coulomb_force_kernel_oracle(-0.5, 0.5, 1.0, 10.0))
    for x in (0.0, 0.7):
        assert np.isfinite(pot.v_transverse_partial_oracle(x, (1.3, 0.4), 0, 0))
    assert np.isfinite(fc.zeta3_quadrature())
