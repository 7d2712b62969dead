"""Pair interactions between loops and their closed-form Fourier kernels.

Real-space kernels (the equal-time Coulomb force and its shift-averaged
monopole reduction), transverse-Fourier kernels (screened-equation source
kernel, magnetic kernel with the photon occupation factor), the slab Coulomb
force kernel, the partial transverse Coulomb transform, and the dipolar
large-separation closed forms.
Each closed form ships with an independent quadrature oracle (the dipolar
interplate one lives in the tests).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ParameterError, SingularArgumentError
from .loops import Loop, ThermoState

__all__ = [
    "FormFactor",
    "transverse_delta",
    "eval_Q",
    "vel_fourier",
    "wm_pair_fourier",
    "coulomb_force_kernel",
    "coulomb_force_kernel_oracle",
    "v_transverse_partial",
    "v_transverse_partial_oracle",
    "wab_pair_finite_d",
    "wm_gradient_ab",
    "coulomb_force_full",
    "coulomb_force_monopole_shifted",
    "magnetic_capacitor_integrand",
]

COINCIDENCE_EPS = 1e-8  # fraction of the de Broglie length, caps 1/r at grid collisions
_STACK_ENTRIES = 1 << 18  # (wavevector, time pair) entries of Q held at a time
# Gauss nodes of the magnetic transform.  On probe seeds 100-119 the values
# agree with a 3000-node rule to <= 2e-11 max|m| and keep the same points
# above the floor.
MAGNETIC_N_QUAD = 400
# rounding floor of the magnetic transform, in units of eps * sum_j |term_j|.
# On those seeds the dropped values sit at <= 0.15 of it and the kept ones at
# >= 1.18 (400 nodes; 0.33 and 1.34 at 3000).
_FLOOR_EPS = 1e3 * np.finfo(float).eps


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
    """Projector onto the plane orthogonal to K: delta_{mu nu} - K_mu K_nu / |K|^2.

    K of shape (3,) gives one 3x3 matrix; a stack of shape (m, 3) gives (m, 3, 3).
    """
    K = np.asarray(K, dtype=float)
    k2 = np.sum(K * K, axis=-1)
    if np.any(k2 == 0.0):
        raise SingularArgumentError("transverse projector undefined at K = 0")
    return np.eye(3) - K[..., :, None] * K[..., None, :] / k2[..., None, None]


def eval_Q(kmag, ds, lambda_ph: float):
    """Photon occupation factor coupling two loop times at wavenumber k.

    Q = lam*k * cosh[lam*k*(t - 1/2)] / (2 sinh(lam*k/2)) with t = ds mod 1;
    periodic in ds with period 1 and -> 1 in the classical-field limit
    lam*k -> 0.  Evaluated in overflow-safe exponential form.  kmag and ds
    broadcast against each other; two scalars give a float.
    """
    a = float(lambda_ph) * np.asarray(kmag, dtype=float)
    t = np.mod(np.asarray(ds, dtype=float), 1.0)
    # multiply num. and denom. by exp(-a/2): all exponents are <= 0;
    # the denominator tends to 2 as a -> 0, where num = 2 exactly
    num = np.exp(a * (t - 1.0)) + np.exp(-a * t)
    den = np.divide(-2.0 * np.expm1(-a), a, out=np.full_like(a, 2.0),
                    where=a != 0.0)
    out = num / den
    return out if out.ndim else float(out)


def _pair_eps(li: Loop, lj: Loop) -> float:
    lam = min(x for x in (li.species.lambda_, lj.species.lambda_) if x > 0.0) \
        if (li.species.lambda_ > 0 or lj.species.lambda_ > 0) else 1.0
    return COINCIDENCE_EPS * lam


def vel_fourier(loop_i: Loop, loop_j: Loop, kvec) -> complex:
    """Transverse-Fourier wire-wire kernel at in-plane wavevector k != 0.

    Double time sum of e^{i k.(lam_i Y_i - lam_j Y_j)} (2 pi / k) e^{-k |x_i - x_j|},
    including the in-plane reference positions of the loops as a phase.
    Diverges as 2 pi / k at k = 0 (sum rules only ever use ratios there).
    """
    kvec = np.asarray(kvec, dtype=float)
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
                    form_factor: FormFactor, photon="quantum"):
    """Magnetic (current-current) kernel of two loop shapes at 3-wavevector K.

    Parameters
    ----------
    loop_i, loop_j : Loop
        Only the internal degrees of freedom (species, p, shape) enter.
    K : array of shape (3,) or (m, 3)
        One 3-wavevector or a stack of them.  Each may have a vanishing
        in-plane part; only |K| = 0 exactly is singular, anywhere in a stack.
    thermo : ThermoState
        Supplies beta, the masses' coupling 1/(beta sqrt(m_i m_j) c^2) and
        the photon thermal length inside the occupation factor.
    photon : {"quantum", "classical"}
        "classical" freezes the occupation factor at 1 (the lambda_ph -> 0
        limit of the quantum kernel).

    Returns
    -------
    complex for K of shape (3,); complex array of shape (m,) for a stack.

    Two stochastic line integrals (midpoint convention) of Fourier phases,
    contracted with 4 pi g^2(|K|)/|K|^2 times the transverse projector and the
    photon factor Q(|K|, s_i - s_j).  Q is evaluated once per distinct time
    lag (s_i - s_j) mod 1 and gathered into the time-pair matrix; a stack is
    contracted in chunks of at most _STACK_ENTRIES (wavevector, time pair)
    entries.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim not in (1, 2) or K.shape[-1] != 3:
        raise ParameterError("K must have shape (3,) or (m, 3)")
    stack = K.reshape(-1, 3)
    kmag = np.linalg.norm(stack, axis=1)
    if np.any(kmag == 0.0):
        raise SingularArgumentError("wm_pair_fourier undefined at K = 0 exactly")
    if photon not in ("quantum", "classical"):
        raise ParameterError("photon must be 'quantum' or 'classical'")
    dXi, mid_i, ti = _increments_and_midpoints(loop_i)
    dXj, mid_j, tj = _increments_and_midpoints(loop_j)
    lags, lag_index = np.unique(np.mod(ti[:, None] - tj[None, :], 1.0),
                                return_inverse=True)
    lag_index = lag_index.reshape(ti.size, tj.size)
    lam_i = loop_i.species.lambda_
    lam_j = loop_j.species.lambda_
    g = form_factor(kmag)
    pref = 1.0 / (thermo.beta * np.sqrt(loop_i.species.mass * loop_j.species.mass)
                  * thermo.c**2)
    out = np.empty(stack.shape[0], dtype=complex)
    step = max(1, _STACK_ENTRIES // lag_index.size)
    for r0 in range(0, stack.shape[0], step):
        rows = slice(r0, r0 + step)
        Kc, kc, gc = stack[rows], kmag[rows], g[rows]
        if photon == "quantum":
            q_lag = eval_Q(kc[:, None], lags, thermo.lambda_ph)
        else:
            q_lag = np.ones((kc.size, lags.size))
        pi = np.exp(1j * lam_i * (Kc @ mid_i.T))[:, :, None] * dXi
        pj = np.exp(-1j * lam_j * (Kc @ mid_j.T))[:, :, None] * dXj
        # real Q times complex pj as one real product on (re, im) pairs
        qpj = (q_lag[:, lag_index] @ pj.view(float)).view(complex)
        m = np.swapaxes(pi, 1, 2) @ qpj
        out[rows] = (pref * 4.0 * np.pi * gc * gc / kc**2
                     * np.sum(transverse_delta(Kc) * m, axis=(1, 2)))
    return out if K.ndim == 2 else complex(out[0])


def coulomb_force_kernel(x1, x2, q, d):
    """Slab-normal gradient of the transverse-Fourier Coulomb potential between
    a point at x1 in [-a, 0] and one at x2 + d in the far slab, at scaled
    wavenumber q = k d:   2 pi e^{-q} e^{-q (x2 - x1)/d}."""
    if np.any(np.asarray(q) < 0):
        raise ParameterError("q must be >= 0")
    if d <= 0:
        raise ParameterError("d must be positive")
    return 2.0 * np.pi * np.exp(-np.asarray(q)) * np.exp(-np.asarray(q) * (x2 - x1) / d)


def coulomb_force_kernel_oracle(x1, x2, q, d):
    """Hankel-transform oracle: radial quadrature of the in-plane transform of
    d/dx1 1/|r|, split at the first 80 Bessel zeros with 12 rounds of
    repeated-averaging acceleration of the alternating tail."""
    from scipy.integrate import fixed_quad, quad
    from scipy.special import j0, jn_zeros
    k = q / d
    X = x1 - x2 - d
    if k == 0.0:
        return 2.0 * np.pi
    aX = abs(X)

    def f(y):
        return y * aX * (X * X + y * y) ** -1.5 * j0(k * y)

    edges = jn_zeros(0, 81) / k
    # the head interval can contain the whole (non-oscillatory) peak at y ~ |X|
    head, _ = quad(f, 0.0, edges[0], limit=200)
    terms = np.array([fixed_quad(f, edges[i], edges[i + 1], n=24)[0]
                      for i in range(80)])
    s = head + np.cumsum(terms)
    for _ in range(12):
        s = 0.5 * (s[:-1] + s[1:])
    return 2.0 * np.pi * s[-1]


def v_transverse_partial(x, qvec, mu, nu):
    """Partial Fourier transform along the slab normal of the transverse Coulomb
    potential 4 pi delta^tr_{mu nu}(k1, q)/(k1^2 + q^2), e^{+i k1 x} convention.

    Indices are 0-based with axis 0 the slab normal.  Closed form:
    (pi/q) e^{-q|x|} * {1 + q|x|;  -i q_mu x;  2 delta - (1+q|x|) q_mu q_nu / q^2}
    for the normal-normal, mixed, and in-plane entries.
    """
    if mu not in (0, 1, 2) or nu not in (0, 1, 2):
        raise ParameterError("mu, nu must be axis indices 0, 1, 2")
    x = float(x)
    val = _vtilde_derivs(abs(x), qvec, order_max=0)[0, mu, nu]
    # the e^{-i k1 x} transform at |x| equals this one, except that its odd
    # (normal, in-plane) entries have the opposite sign for x > 0
    return -val if x > 0.0 and (mu == 0) != (nu == 0) else val


def v_transverse_partial_oracle(x, qvec, mu, nu):
    """Adaptive-quadrature oracle for v_transverse_partial: 1D Fourier integral
    of the rational transverse kernel, even/odd split with explicit oscillatory
    weights and infinite-range tail handling."""
    from scipy.integrate import quad
    qvec = np.asarray(qvec, dtype=float)
    qx, qy = float(qvec[0]), float(qvec[1])
    if qx == 0.0 and qy == 0.0:
        raise SingularArgumentError("oracle undefined at q = 0")

    def entry(k1):
        # 4 pi / K^2 times the transverse projector entry, K = (k1, qx, qy)
        K = (k1, qx, qy)
        k2 = k1 * k1 + qx * qx + qy * qy
        return 4.0 * np.pi / k2 * ((mu == nu) - K[mu] * K[nu] / k2)

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
    as 3x3 complex matrices, valid for x >= 0 (one-sided at x = 0).

    Entry classes (x >= 0, E = e^{-qx}):
      normal-normal   (pi/q) E (1+qx):    d^n given by the recursion below,
      mixed           (i pi q_m / q) x E,
      in-plane        (pi/q) E (2 d_mn - (1+qx) q_m q_n / q^2).
    Validated against numerical differentiation of the quadrature oracle.
    """
    if x < 0.0:
        raise ParameterError("closed-form derivatives implemented for x >= 0")
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


def _loop_current_moments(loop: Loop, qvec):
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


def _wab_bracket(loop_i, loop_j, qvec, thermo, x, order):
    """Core of the dipolar interplate kernel: the double derivative bracket
    applied to the x-derivative of the given order of the partial
    transverse transform at argument x."""
    ai, bi = _loop_current_moments(loop_i, qvec)
    aj, bj = _loop_current_moments(loop_j, qvec)
    v0, v1, v2 = _vtilde_derivs(x, qvec, order_max=order + 2)[order:order + 3]
    lam_i = loop_i.species.lambda_
    lam_j = loop_j.species.lambda_
    pref = (lam_i * lam_j /
            (thermo.beta * np.sqrt(loop_i.species.mass * loop_j.species.mass) * thermo.c**2))
    term = -np.einsum("m,n,mn->", ai, aj, v2)
    term += 1j * np.einsum("m,n,mn->", ai, bj, v1)
    term += 1j * np.einsum("m,n,mn->", bi, aj, v1)
    term += np.einsum("m,n,mn->", bi, bj, v0)
    return pref, term


def wab_pair_finite_d(loop_i: Loop, loop_j: Loop, qvec, d, thermo: ThermoState) -> complex:
    """Dipolar interplate potential at scaled wavevector q: 1/d times the
    bracket of path moments and the closed-form transverse transform at the
    scaled separation 1 - (x_i - x_j)/d; at x_i = x_j this is the strict
    asymptote, otherwise it keeps the O(1/d) phase corrections."""
    xarg = 1.0 - (loop_i.x - loop_j.x) / d
    pref, b0 = _wab_bracket(loop_i, loop_j, np.asarray(qvec, float), thermo, xarg, 0)
    return complex(pref * b0 / d)


def wm_gradient_ab(loop_i: Loop, loop_j: Loop, qvec, d, thermo: ThermoState) -> complex:
    """Slab-normal gradient (in x_i) of the interplate magnetic potential;
    carries one extra 1/d from the chain rule on the scaled separation."""
    xarg = 1.0 - (loop_i.x - loop_j.x) / d
    pref, b1 = _wab_bracket(loop_i, loop_j, np.asarray(qvec, float), thermo, xarg, 1)
    return complex(-pref * b1 / d**2)


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
                                 n_quad=MAGNETIC_N_QUAD):
    """In-plane-integrated magnetic force kernel as a function of the normal
    separation X:  (1/2pi) int dk1 e^{i k1 X} i k1 W^m(chi_1, chi_2, k1, 0).

    At vanishing in-plane wavevector the transverse projector decouples from
    k1, the integrand is analytic at k1 = 0 (closed-path telescoping removes
    the would-be Coulomb singularity), and the transform decays faster than
    any inverse power of X.  Evaluated on an n_quad-node Gauss grid resolving
    the oscillation at the largest requested X: one stacked wm_pair_fourier
    call on the (k1, 0, 0) nodes, then the transform to every X as one matrix
    product with the node weights.

    Returns (m, floor), two arrays over x_values.  floor is the rounding
    floor of the weighted node sum, 1e3 eps sum_j |term_j|: once the kernel
    has decayed, m is the cancellation of terms far larger than itself, and
    values with |m| <= floor carry no digits of the kernel.
    """
    from scipy.special import roots_legendre
    x_values = np.asarray(x_values, dtype=float)
    k_max = 4.0 * form_factor.k_cut
    nodes, weights = roots_legendre(n_quad)
    k1 = 0.5 * k_max * (nodes + 1.0)
    wk = 0.5 * k_max * weights / np.pi
    K = np.zeros((n_quad, 3))
    K[:, 0] = k1
    t = 1j * k1 * wm_pair_fourier(loop_i, loop_j, K, thermo, form_factor)
    # T(-k1) = conj(T(k1)): the transform is real
    phase = np.outer(x_values, k1)
    terms = np.cos(phase) * t.real - np.sin(phase) * t.imag
    return terms @ wk, _FLOOR_EPS * (np.abs(terms) @ wk)
