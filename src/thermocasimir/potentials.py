"""Pair interactions between loops and their closed-form Fourier kernels.

Real-space kernels (equal-time Coulomb, wire-wire Coulomb, their difference),
transverse-Fourier kernels (screened-equation source kernel, magnetic kernel
with the photon occupation factor), the slab Coulomb force kernel, the partial
transverse Coulomb transform, and the dipolar large-separation closed forms.
Each closed form ships with an independent quadrature oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import fixed_quad, quad
from scipy.special import j0, jn_zeros, roots_legendre

from .errors import ContractViolationError, ParameterError, SingularArgumentError
from .loops import Loop, ThermoState

__all__ = [
    "FormFactor",
    "transverse_delta",
    "eval_Q",
    "vc_pair",
    "vel_pair",
    "wc_pair",
    "vel_fourier",
    "wm_pair_fourier",
    "coulomb_force_kernel",
    "coulomb_force_kernel_oracle",
    "v_transverse_partial",
    "v_transverse_partial_oracle",
    "loop_current_moments",
    "wab_asymptotic",
    "wab_pair_finite_d",
    "wm_gradient_ab",
    "wab_quadrature_oracle",
    "loop_self_energy",
    "coulomb_force_full",
    "coulomb_force_monopole_shifted",
    "magnetic_capacitor_integrand",
]

COINCIDENCE_EPS = 1e-8  # fraction of the de Broglie length, caps 1/r at grid collisions


@dataclass(frozen=True)
class FormFactor:
    """Smooth ultraviolet regulator g(k) = exp(-(k/k_cut)^2); g(0) = 1."""

    k_cut: float

    def __post_init__(self):
        if self.k_cut <= 0.0:
            raise ParameterError("k_cut must be positive")

    def __call__(self, k):
        return np.exp(-((np.asarray(k) / self.k_cut) ** 2))


def transverse_delta(K) -> np.ndarray:
    """Projector onto the plane orthogonal to K: delta_{mu nu} - K_mu K_nu / |K|^2."""
    K = np.asarray(K, dtype=float)
    k2 = float(K @ K)
    if k2 == 0.0:
        raise SingularArgumentError("transverse projector undefined at K = 0")
    return np.eye(3) - np.outer(K, K) / k2


def eval_Q(kmag: float, ds, lambda_ph: float):
    """Photon occupation factor coupling two loop times at wavenumber k.

    Q = lam*k * cosh[lam*k*(t - 1/2)] / (2 sinh(lam*k/2)) with t = ds mod 1;
    periodic in ds with period 1 and -> 1 in the classical-field limit
    lam*k -> 0.  Evaluated in overflow-safe exponential form.
    """
    a = float(lambda_ph) * float(kmag)
    t = np.mod(np.asarray(ds, dtype=float), 1.0)
    if a == 0.0:
        return np.ones_like(t) if t.ndim else 1.0
    # multiply num. and denom. by exp(-a/2): all exponents are <= 0
    num = np.exp(a * (t - 1.0)) + np.exp(-a * t)
    den = -2.0 * np.expm1(-a) / a
    out = num / den
    return out if out.ndim else float(out)


def _pair_eps(li: Loop, lj: Loop) -> float:
    lam = min(x for x in (li.species.lambda_, lj.species.lambda_) if x > 0.0) \
        if (li.species.lambda_ > 0 or lj.species.lambda_ > 0) else 1.0
    return COINCIDENCE_EPS * lam


def _capped_inverse_distance(pts_i, pts_j, eps):
    d = np.linalg.norm(pts_i[:, None, :] - pts_j[None, :, :], axis=-1)
    return 1.0 / np.maximum(d, eps)


def vc_pair(loop_i: Loop, loop_j: Loop) -> float:
    """Equal-time Coulomb energy of two loops (charges factored out).

    The equal-time delta is realized on the common grid: node pairs with equal
    fractional time contribute 1/|r_i - r_j| with weight ds.  Both loops must
    share the same n_steps.
    """
    if loop_i.n_steps != loop_j.n_steps:
        raise ContractViolationError("equal-time pairing needs a common n_steps")
    n = loop_i.n_steps
    pts_i = loop_i.spatial_nodes()
    pts_j = loop_j.spatial_nodes()
    eps = _pair_eps(loop_i, loop_j)
    ki = np.arange(pts_i.shape[0]) % n
    kj = np.arange(pts_j.shape[0]) % n
    inv = _capped_inverse_distance(pts_i, pts_j, eps)
    match = ki[:, None] == kj[None, :]
    return float(np.sum(inv[match]) / n)


def vel_pair(loop_i: Loop, loop_j: Loop) -> float:
    """Classical wire-wire Coulomb energy: unconstrained double time integral."""
    pts_i = loop_i.spatial_nodes()
    pts_j = loop_j.spatial_nodes()
    eps = _pair_eps(loop_i, loop_j)
    dsi = loop_i.ds
    dsj = loop_j.ds
    return float(np.sum(_capped_inverse_distance(pts_i, pts_j, eps)) * dsi * dsj)


def wc_pair(loop_i: Loop, loop_j: Loop) -> float:
    """Quantum remainder of the Coulomb coupling: equal-time minus wire-wire."""
    return vc_pair(loop_i, loop_j) - vel_pair(loop_i, loop_j)


def vel_fourier(loop_i: Loop, loop_j: Loop, kvec) -> complex:
    """Transverse-Fourier wire-wire kernel at in-plane wavevector k != 0.

    Double time sum of e^{i k.(lam_i Y_i - lam_j Y_j)} (2 pi / k) e^{-k |x_i - x_j|},
    including the in-plane reference positions of the loops as a phase.
    Diverges as 2 pi / k at k = 0 (sum rules only ever use ratios there).
    """
    kvec = np.atleast_1d(np.asarray(kvec, dtype=float))
    if kvec.size == 1:
        kvec = np.array([kvec[0], 0.0])
    k = float(np.hypot(kvec[0], kvec[1]))
    if k == 0.0:
        raise SingularArgumentError("vel_fourier diverges at k = 0")
    lam_i = loop_i.species.lambda_
    lam_j = loop_j.species.lambda_
    xi = loop_i.x + lam_i * loop_i.path[:-1, 0]
    xj = loop_j.x + lam_j * loop_j.path[:-1, 0]
    yi = loop_i.y[None, :] + lam_i * loop_i.path[:-1, 1:]
    yj = loop_j.y[None, :] + lam_j * loop_j.path[:-1, 1:]
    ph_i = np.exp(1j * (yi @ kvec))
    ph_j = np.exp(-1j * (yj @ kvec))
    ker = np.exp(-k * np.abs(xi[:, None] - xj[None, :]))
    val = ph_i[:, None] * ph_j[None, :] * ker
    return complex((2.0 * np.pi / k) * loop_i.ds * loop_j.ds * np.sum(val))


def _increments_and_midpoints(loop: Loop):
    dX = np.diff(loop.path, axis=0)
    mid = 0.5 * (loop.path[:-1] + loop.path[1:])
    n = loop.path.shape[0] - 1
    t_mid = loop.p * ((np.arange(n) + 0.5) / n)
    return dX, mid, t_mid


def wm_pair_fourier(loop_i: Loop, loop_j: Loop, K, thermo: ThermoState,
                    form_factor: FormFactor, photon="quantum") -> complex:
    """Magnetic (current-current) kernel of two loop shapes at 3-wavevector K.

    Parameters
    ----------
    loop_i, loop_j : Loop
        Only the internal degrees of freedom (species, p, shape) enter.
    K : 3-vector
        May have vanishing in-plane part; only |K| = 0 exactly is singular.
    thermo : ThermoState
        Supplies beta, the masses' coupling 1/(beta sqrt(m_i m_j) c^2) and
        the photon thermal length inside the occupation factor.
    photon : {"quantum", "classical"}
        "classical" freezes the occupation factor at 1 (the lambda_ph -> 0
        limit of the quantum kernel).

    Two stochastic line integrals (midpoint convention) of Fourier phases,
    contracted with 4 pi g^2(|K|)/|K|^2 times the transverse projector and the
    photon factor Q(|K|, s_i - s_j).
    """
    K = np.asarray(K, dtype=float)
    kmag = float(np.linalg.norm(K))
    if kmag == 0.0:
        raise SingularArgumentError("wm_pair_fourier undefined at K = 0 exactly")
    if photon not in ("quantum", "classical"):
        raise ParameterError("photon must be 'quantum' or 'classical'")
    dXi, mid_i, ti = _increments_and_midpoints(loop_i)
    dXj, mid_j, tj = _increments_and_midpoints(loop_j)
    lam_i = loop_i.species.lambda_
    lam_j = loop_j.species.lambda_
    phase_i = np.exp(1j * lam_i * (mid_i @ K))
    phase_j = np.exp(-1j * lam_j * (mid_j @ K))
    if photon == "quantum":
        qmat = eval_Q(kmag, ti[:, None] - tj[None, :], thermo.lambda_ph)
    else:
        qmat = np.ones((ti.size, tj.size))
    pi = dXi * phase_i[:, None]
    pj = dXj * phase_j[:, None]
    m = np.einsum("am,ab,bn->mn", pi, qmat, pj)
    dtr = transverse_delta(K)
    g = form_factor(kmag)
    pref = 1.0 / (thermo.beta * np.sqrt(loop_i.species.mass * loop_j.species.mass)
                  * thermo.c**2)
    return complex(pref * 4.0 * np.pi * g * g / kmag**2 * np.sum(dtr * m))


def coulomb_force_kernel(x1, x2, q, d):
    """Slab-normal gradient of the transverse-Fourier Coulomb potential between
    a point at x1 in [-a, 0] and one at x2 + d in the far slab, at scaled
    wavenumber q = k d:   2 pi e^{-q} e^{-q (x2 - x1)/d}."""
    if np.any(np.asarray(q) < 0):
        raise ParameterError("q must be >= 0")
    if d <= 0:
        raise ParameterError("d must be positive")
    return 2.0 * np.pi * np.exp(-np.asarray(q)) * np.exp(-np.asarray(q) * (x2 - x1) / d)


def coulomb_force_kernel_oracle(x1, x2, q, d, n_intervals=80, accel_depth=12):
    """Hankel-transform oracle: radial quadrature of the in-plane transform of
    d/dx1 1/|r|, split at the Bessel zeros with repeated-averaging acceleration
    of the alternating tail."""
    k = q / d
    X = x1 - x2 - d
    if k == 0.0:
        return 2.0 * np.pi
    aX = abs(X)

    def f(y):
        return y * aX * (X * X + y * y) ** -1.5 * j0(k * y)

    edges = jn_zeros(0, n_intervals + 1) / k
    # the head interval can contain the whole (non-oscillatory) peak at y ~ |X|
    head, _ = quad(f, 0.0, edges[0], limit=200)
    terms = np.array([fixed_quad(f, edges[i], edges[i + 1], n=24)[0]
                      for i in range(n_intervals)])
    s = head + np.cumsum(terms)
    for _ in range(accel_depth):
        s = 0.5 * (s[:-1] + s[1:])
    return 2.0 * np.pi * s[-1]


def _vt_cases(x, qvec, mu, nu, sign_x):
    """Entry classes of the partial transverse Coulomb transform, common core.

    sign_x = +1 uses the e^{+i k1 x} convention, -1 the e^{-i k1 x} one; the
    two differ only in the sign of the odd (normal, in-plane) entries.
    """
    q = float(np.hypot(qvec[0], qvec[1]))
    if q == 0.0:
        raise SingularArgumentError("partial transform undefined at q = 0")
    ax = abs(x)
    E = np.exp(-q * ax)
    if mu == 0 and nu == 0:
        return (np.pi / q) * E * (1.0 + q * ax)
    if mu == 0 or nu == 0:
        qm = qvec[(nu if mu == 0 else mu) - 1]
        return (np.pi / q) * E * (-1j * sign_x * qm * x)
    dmn = 1.0 if mu == nu else 0.0
    return (np.pi / q) * E * (2.0 * dmn - (1.0 + q * ax) * qvec[mu - 1] * qvec[nu - 1] / q**2)


def v_transverse_partial(x, qvec, mu, nu):
    """Partial Fourier transform along the slab normal of the transverse Coulomb
    potential 4 pi delta^tr_{mu nu}(k1, q)/(k1^2 + q^2), e^{+i k1 x} convention.

    Indices are 0-based with axis 0 the slab normal.  Closed form:
    (pi/q) e^{-q|x|} * {1 + q|x|;  -i q_mu x;  2 delta - (1+q|x|) q_mu q_nu / q^2}
    for the normal-normal, mixed, and in-plane entries.
    """
    if mu not in (0, 1, 2) or nu not in (0, 1, 2):
        raise ParameterError("mu, nu must be axis indices 0, 1, 2")
    return _vt_cases(float(x), np.asarray(qvec, dtype=float), mu, nu, +1)


def v_transverse_partial_oracle(x, qvec, mu, nu):
    """Adaptive-quadrature oracle for v_transverse_partial: 1D Fourier integral
    of the rational transverse kernel, even/odd split with explicit oscillatory
    weights and infinite-range tail handling."""
    qvec = np.asarray(qvec, dtype=float)
    q = float(np.hypot(qvec[0], qvec[1]))
    if q == 0.0:
        raise SingularArgumentError("oracle undefined at q = 0")

    def entry(k1):
        K = np.array([k1, qvec[0], qvec[1]])
        return 4.0 * np.pi / (k1 * k1 + q * q) * transverse_delta(K)[mu, nu]

    def even(k1):
        return 0.5 * (entry(k1) + entry(-k1))

    def odd(k1):
        return 0.5 * (entry(k1) - entry(-k1))

    if abs(x) > 1e-12:
        re, _ = quad(even, 0, np.inf, weight="cos", wvar=x, limit=400)
        im, _ = quad(odd, 0, np.inf, weight="sin", wvar=x, limit=400)
    else:
        re, _ = quad(even, 0, np.inf, limit=400)
        im = 0.0
    return (re + 1j * im) / np.pi


def _vtilde_derivs(x, qvec, order_max=3):
    """x-derivatives (orders 0..order_max) of the e^{-i k1 x} partial transform,
    as 3x3 complex matrices, valid for x > 0.

    Entry classes (x > 0, E = e^{-qx}):
      normal-normal   (pi/q) E (1+qx):    d^n given by the recursion below,
      mixed           (i pi q_m / q) x E,
      in-plane        (pi/q) E (2 d_mn - (1+qx) q_m q_n / q^2).
    Validated against numerical differentiation of the quadrature oracle.
    """
    if x <= 0.0:
        raise ParameterError("closed-form derivatives implemented for x > 0")
    qvec = np.asarray(qvec, dtype=float)
    q = float(np.hypot(qvec[0], qvec[1]))
    if q == 0.0:
        raise SingularArgumentError("undefined at q = 0")
    E = np.exp(-q * x)
    out = np.zeros((order_max + 1, 3, 3), dtype=complex)

    # f1 = (pi/q) (1+qx) E  and derivatives
    f1 = [(np.pi / q) * (1.0 + q * x) * E,
          -np.pi * q * x * E,
          -np.pi * q * (1.0 - q * x) * E,
          np.pi * q * q * (2.0 - q * x) * E]
    # g = x E and derivatives (mixed entries carry i pi q_m / q * g)
    g = [x * E,
         (1.0 - q * x) * E,
         -q * (2.0 - q * x) * E,
         q * q * (3.0 - q * x) * E]
    # h = (pi/q) E and derivatives (in-plane delta part carries 2 h)
    h = [(np.pi / q) * (-q) ** n * E for n in range(order_max + 1)]

    for n in range(order_max + 1):
        out[n, 0, 0] = f1[n]
        for m in (1, 2):
            val = 1j * np.pi * (qvec[m - 1] / q) * g[n]
            out[n, 0, m] = val
            out[n, m, 0] = val
        for m in (1, 2):
            for l in (1, 2):
                dmn = 1.0 if m == l else 0.0
                out[n, m, l] = 2.0 * dmn * h[n] - (qvec[m - 1] * qvec[l - 1] / q**2) * f1[n]
    return out


def loop_current_moments(loop: Loop, qvec):
    """First path moments entering the dipolar closed forms.

    A^mu = sum_a dX^mu(a) * X^1(a),  B^mu = sum_a dX^mu(a) * (q . Y(a)),
    midpoint convention.  The diagonal telescoping makes A^1 vanish up to
    rounding: only area-like (current-loop) moments survive.
    """
    qvec = np.asarray(qvec, dtype=float)
    dX, mid, _ = _increments_and_midpoints(loop)
    a = np.sum(dX * mid[:, 0:1], axis=0)
    b = np.sum(dX * (mid[:, 1:] @ qvec)[:, None], axis=0)
    return a, b


def _wab_bracket(loop_i, loop_j, qvec, thermo, x, orders):
    """Core of the dipolar interplate kernel: the double derivative bracket
    applied to the partial transverse transform at argument x."""
    ai, bi = loop_current_moments(loop_i, qvec)
    aj, bj = loop_current_moments(loop_j, qvec)
    v = _vtilde_derivs(x, qvec, order_max=max(orders) + 2)
    lam_i = loop_i.species.lambda_
    lam_j = loop_j.species.lambda_
    pref = (lam_i * lam_j /
            (thermo.beta * np.sqrt(loop_i.species.mass * loop_j.species.mass) * thermo.c**2))

    def bracket(order0):
        v0 = v[order0]
        v1 = v[order0 + 1]
        v2 = v[order0 + 2]
        term = -np.einsum("m,n,mn->", ai, aj, v2)
        term += 1j * np.einsum("m,n,mn->", ai, bj, v1)
        term += 1j * np.einsum("m,n,mn->", bi, aj, v1)
        term += np.einsum("m,n,mn->", bi, bj, v0)
        return term

    return pref, [bracket(o) for o in orders]


def wab_asymptotic(loop_i: Loop, loop_j: Loop, qvec, d, thermo: ThermoState) -> complex:
    """Leading interplate dipolar potential at scaled wavevector q: exactly
    (1/d) times a d-independent bracket of path moments and the closed-form
    transverse transform evaluated at unit scaled separation."""
    if d <= 0:
        raise ParameterError("d must be positive")
    pref, (b0,) = _wab_bracket(loop_i, loop_j, np.asarray(qvec, float), thermo, 1.0, [0])
    return complex(pref * b0 / d)


def wab_pair_finite_d(loop_i: Loop, loop_j: Loop, qvec, d, thermo: ThermoState,
                      x1=None, x2=None) -> complex:
    """Finite-separation dipolar interplate potential: same bracket evaluated at
    the scaled separation 1 - (x1 - x2)/d, which restores the O(1/d) phase
    corrections dropped by the strict asymptote."""
    x1 = loop_i.x if x1 is None else x1
    x2 = loop_j.x if x2 is None else x2
    xarg = 1.0 - (x1 - x2) / d
    pref, (b0,) = _wab_bracket(loop_i, loop_j, np.asarray(qvec, float), thermo, xarg, [0])
    return complex(pref * b0 / d)


def wm_gradient_ab(loop_i: Loop, loop_j: Loop, qvec, d, thermo: ThermoState,
                   x1=None, x2=None) -> complex:
    """Slab-normal gradient of the interplate magnetic potential; carries one
    extra 1/d from the chain rule on the scaled separation."""
    x1 = loop_i.x if x1 is None else x1
    x2 = loop_j.x if x2 is None else x2
    xarg = 1.0 - (x1 - x2) / d
    pref, (b1,) = _wab_bracket(loop_i, loop_j, np.asarray(qvec, float), thermo, xarg, [1])
    return complex(-pref * b1 / d**2)


def wab_quadrature_oracle(loop_i: Loop, loop_j: Loop, qvec, d, thermo: ThermoState,
                          x1=None, x2=None) -> complex:
    """Direct wavenumber quadrature of the interplate dipolar potential.

    Integrates the small-K current-current kernel over the scaled normal
    wavenumber with the exact oscillatory phase.  The nondecaying large-q1
    part of the integrand Fourier-transforms to a contact term away from the
    evaluation point and is subtracted exactly; the remainder is handled by
    oscillatory-weighted adaptive quadrature with infinite-range tails.
    """
    x1 = loop_i.x if x1 is None else x1
    x2 = loop_j.x if x2 is None else x2
    qvec = np.asarray(qvec, dtype=float)
    q = float(np.hypot(qvec[0], qvec[1]))
    ai, bi = loop_current_moments(loop_i, qvec)
    aj, bj = loop_current_moments(loop_j, qvec)
    lam_i = loop_i.species.lambda_
    lam_j = loop_j.species.lambda_
    pref = (lam_i * lam_j /
            (thermo.beta * np.sqrt(loop_i.species.mass * loop_j.species.mass) * thermo.c**2))
    X = 1.0 - (x1 - x2) / d

    # T(q1) = sum_{mu nu} (q1 ai + bi)^mu (q1 aj + bj)^nu 4 pi dtr_{mu nu}(q1, q)/(q1^2+q^2)
    tail = 4.0 * np.pi * (ai[1] * aj[1] + ai[2] * aj[2])   # lim q1 -> inf

    def t_of(k1):
        K = np.array([k1, qvec[0], qvec[1]])
        u = k1 * ai + bi
        v = k1 * aj + bj
        dtr = transverse_delta(K)
        return 4.0 * np.pi * (u @ dtr @ v) / (k1 * k1 + q * q)

    def even(k1):
        return 0.5 * (t_of(k1) + t_of(-k1)) - tail

    def odd(k1):
        return 0.5 * (t_of(k1) - t_of(-k1))

    re, _ = quad(even, 0, np.inf, weight="cos", wvar=X, limit=600)
    im, _ = quad(odd, 0, np.inf, weight="sin", wvar=X, limit=600)
    # e^{-i q1 X} convention: int dq1/2pi (even + odd) e^{-i q1 X}
    val = (re - 1j * im) / np.pi
    return complex(pref * val / d)


def loop_self_energy(loop: Loop) -> float:
    """Inter-winding equal-time Coulomb self-energy of one loop (charge factored
    out).  The coincident diagonal s = s' is excluded (standard self-energy
    subtraction); vanishes identically for p = 1."""
    if loop.p == 1:
        return 0.0
    n = loop.n_steps
    pts = loop.spatial_nodes()
    eps = COINCIDENCE_EPS * max(loop.species.lambda_, 1e-30)
    k = np.arange(pts.shape[0])
    match = (k[:, None] % n == k[None, :] % n) & (k[:, None] != k[None, :])
    inv = _capped_inverse_distance(pts, pts, eps)
    return float(np.sum(inv[match]) / n)


def _equal_time_orbit(loop_i: Loop, loop_j: Loop):
    if loop_i.n_steps != loop_j.n_steps:
        raise ContractViolationError("equal-time pairing needs a common n_steps")
    n = loop_i.n_steps
    ni = loop_i.p * n
    nj = loop_j.p * n
    ki = np.arange(ni)
    kj = np.arange(nj)
    return n, (ki[:, None] % n == kj[None, :] % n)


def coulomb_force_full(loop_i: Loop, loop_j: Loop, offset_x: float) -> float:
    """Equal-time sum of the normal Coulomb force between two loops whose
    positions differ by an extra normal offset (the interplate shift)."""
    n, match = _equal_time_orbit(loop_i, loop_j)
    pts_i = loop_i.spatial_nodes()
    pts_j = loop_j.spatial_nodes()
    pts_j = pts_j + np.array([offset_x, 0.0, 0.0])
    diff = pts_i[:, None, :] - pts_j[None, :, :]
    r = np.linalg.norm(diff, axis=-1)
    r = np.maximum(r, _pair_eps(loop_i, loop_j))
    force = -diff[..., 0] / r**3          # d/dx_i of 1/|r_i - r_j|
    return float(np.sum(force[match]) / n)


def coulomb_force_monopole_shifted(loop_i: Loop, loop_j: Loop, offset_x: float) -> float:
    """Monopole Coulomb force p_i p_j d/dx 1/r averaged over the common
    origin-shift orbit of the pair (equal re-anchoring time on both loops).

    For charge numbers with coprime pairs the orbit covers every equal-time
    node pair, which makes this average coincide with coulomb_force_full.
    """
    n, _ = _equal_time_orbit(loop_i, loop_j)
    lcm = np.lcm(loop_i.p, loop_j.p)
    lam_i = loop_i.species.lambda_
    lam_j = loop_j.species.lambda_
    ui = np.arange(lcm * n) % (loop_i.p * n)
    uj = np.arange(lcm * n) % (loop_j.p * n)
    ri = np.concatenate([[loop_i.x], loop_i.y]) + lam_i * loop_i.path[ui][:, [0, 1, 2]]
    rj = np.concatenate([[loop_j.x + offset_x], loop_j.y]) + lam_j * loop_j.path[uj][:, [0, 1, 2]]
    diff = ri - rj
    r = np.maximum(np.linalg.norm(diff, axis=-1), _pair_eps(loop_i, loop_j))
    force = -diff[:, 0] / r**3
    return float(loop_i.p * loop_j.p * np.mean(force))


def magnetic_capacitor_integrand(loop_i: Loop, loop_j: Loop, thermo: ThermoState,
                                 form_factor: FormFactor, x_values,
                                 k_max=None, n_quad=4000):
    """In-plane-integrated magnetic force kernel as a function of the normal
    separation X:  (1/2pi) int dk1 e^{i k1 X} i k1 W^m(chi_1, chi_2, k1, 0).

    At vanishing in-plane wavevector the transverse projector decouples from
    k1, the integrand is analytic at k1 = 0 (closed-path telescoping removes
    the would-be Coulomb singularity), and the transform decays faster than
    any inverse power of X.  Evaluated on a fixed Gauss grid resolving the
    oscillation at the largest requested X.
    """
    x_values = np.asarray(x_values, dtype=float)
    if k_max is None:
        k_max = 4.0 * form_factor.k_cut
    nodes, weights = roots_legendre(n_quad)
    k1 = 0.5 * k_max * (nodes + 1.0)
    wk = 0.5 * k_max * weights
    wm = np.array([wm_pair_fourier(loop_i, loop_j, np.array([k, 0.0, 0.0]),
                                   thermo, form_factor) for k in k1])
    t = 1j * k1 * wm
    # T(-k1) = conj(T(k1)): the transform is real
    out = np.empty_like(x_values)
    for idx, X in enumerate(x_values):
        out[idx] = np.sum(wk * (np.cos(k1 * X) * t.real - np.sin(k1 * X) * t.imag)) / np.pi
    return out
