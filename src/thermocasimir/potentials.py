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

import numpy as np

from ._quadrature import (cos_tail, gauss_legendre, gauss_panels, j0_tail,
                          oscillating_integral, sin_tail)
from .errors import ContractViolationError, ParameterError, SingularArgumentError
from .loops import Loop, ThermoState

__all__ = [
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
_STACK_ENTRIES = 1 << 18  # (wavevector, time node) entries of the currents held at a time
# Gauss nodes of the magnetic transform.  On probe seeds 100-119 the values
# agree with a 3000-node rule to <= 2e-11 max|m| and keep the same points
# above the floor.
MAGNETIC_N_QUAD = 400
# rounding floor of the magnetic transform, in units of eps * sum_j |term_j|.
# On those seeds the dropped values sit at <= 0.15 of it and the kept ones at
# >= 1.18 (400 nodes; 0.33 and 1.34 at 3000).
_FLOOR_EPS = 1e3 * np.finfo(float).eps


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
    return dX, mid


def _transverse_frame(khat) -> np.ndarray:
    """Two orthonormal vectors orthogonal to each unit vector of the (m, 3)
    stack khat, shape (m, 2, 3): e1 = khat x (the axis of khat's smallest
    |component|), normalised, and e2 = khat x e1.  e1 e1^T + e2 e2^T is the
    transverse projector delta - khat khat^T."""
    e1 = np.cross(khat, np.eye(3)[np.argmin(np.abs(khat), axis=1)])
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    return np.stack([e1, np.cross(khat, e1)], axis=1)


def _folded_current(loop: Loop, Kc, e, sign: float):
    """e^{sign i lam K.mid} times the increments projected on e (m, 2, 3), the
    p windings summed onto the n_steps lag nodes: shape (m, 2, n_steps)."""
    dX, mid = _increments_and_midpoints(loop)
    m = Kc.shape[0]
    phase = np.exp(sign * 1j * loop.species.lambda_ * (Kc @ mid.T))
    cur = phase[:, None, :] * (e.reshape(2 * m, 3) @ dX.T).reshape(m, 2, -1)
    return cur.reshape(m, 2, loop.p, loop.n_steps).sum(axis=2)


def wm_pair_fourier(loop_i: Loop, loop_j: Loop, K, thermo: ThermoState,
                    k_cut: float, photon="quantum"):
    """Magnetic (current-current) kernel of two loop shapes at 3-wavevector K.

    Parameters
    ----------
    loop_i, loop_j : Loop
        Only the internal degrees of freedom (species, p, shape) enter.  Both
        must have the same n_steps (ContractViolationError otherwise).
    K : array of shape (3,) or (m, 3)
        One 3-wavevector or a stack of them.  Each may have a vanishing
        in-plane part; only |K| = 0 exactly is singular, anywhere in a stack.
    thermo : ThermoState
        Supplies beta, the masses' coupling 1/(beta sqrt(m_i m_j) c^2) and
        the photon thermal length inside the occupation factor.
    k_cut : float
        Ultraviolet cut-off of the smooth regulator g(k) = exp(-(k/k_cut)^2);
        ParameterError unless 0 < k_cut < inf.
    photon : {"quantum", "classical"}
        "classical" freezes the occupation factor at 1 (the lambda_ph -> 0
        limit of the quantum kernel).

    Returns
    -------
    complex for K of shape (3,); complex array of shape (m,) for a stack.

    Two stochastic line integrals (midpoint convention) of Fourier phases,
    contracted with 4 pi g^2(|K|)/|K|^2 times the transverse projector and the
    photon factor Q(|K|, s_i - s_j).  On the common time grid node a sits at
    ((a mod n) + 1/2)/n, n = n_steps, so the lag is l/n with l = (a - b) mod n
    and Q, of period 1, is circulant in the time lag: each loop's p windings
    fold onto the n lag nodes.  The projector is summed over two unit vectors
    orthogonal to K, and the circulant contraction sum_ab A_a q_(a-b) B_b is
    (1/n) sum_f A^(-f) q^(f) B^(f) with FFTs along the time axis (q is even in
    l, so q^ is real).  A stack is contracted in chunks of at most
    _STACK_ENTRIES (wavevector, time node) entries.
    """
    if not 0.0 < k_cut < np.inf:
        raise ParameterError("k_cut must be positive and finite")
    K = np.asarray(K, dtype=float)
    if K.ndim not in (1, 2) or K.shape[-1] != 3:
        raise ParameterError("K must have shape (3,) or (m, 3)")
    stack = K.reshape(-1, 3)
    kmag = np.linalg.norm(stack, axis=1)
    if np.any(kmag == 0.0):
        raise SingularArgumentError("wm_pair_fourier undefined at K = 0 exactly")
    if photon not in ("quantum", "classical"):
        raise ParameterError("photon must be 'quantum' or 'classical'")
    if loop_i.n_steps != loop_j.n_steps:
        raise ContractViolationError("wm_pair_fourier needs a common n_steps")
    n = loop_i.n_steps
    lam_ph = thermo.lambda_ph if photon == "quantum" else 0.0   # Q = 1 at 0
    g = np.exp(-((kmag / k_cut) ** 2))
    pref = 1.0 / (thermo.beta * np.sqrt(loop_i.species.mass * loop_j.species.mass)
                  * thermo.c**2)
    out = np.empty(stack.shape[0], dtype=complex)
    step = max(1, _STACK_ENTRIES // (loop_i.p * n + loop_j.p * n))
    for r0 in range(0, stack.shape[0], step):
        rows = slice(r0, r0 + step)
        Kc, kc, gc = stack[rows], kmag[rows], g[rows]
        e = _transverse_frame(Kc / kc[:, None])
        # ifft(A)(f) = A^(-f)/n, so the sum over f below carries the 1/n
        a = np.fft.ifft(_folded_current(loop_i, Kc, e, 1.0))
        b = np.fft.fft(_folded_current(loop_j, Kc, e, -1.0))
        q = np.fft.fft(eval_Q(kc[:, None], np.arange(n) / n, lam_ph)).real
        out[rows] = (pref * 4.0 * np.pi * gc * gc / kc**2
                     * np.einsum("mcf,mcf,mf->m", a, b, q))
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
    d/dx1 1/|r|, int_0^inf y |X| (X^2 + y^2)^-3/2 J0(k y) dy, taken in the
    Bessel variable u = k y, where it reads int_0^inf u a (a^2 + u^2)^-3/2
    J0(u) du with a = k |X|: on Gauss panels split at the first 81 zeros of
    J0, with 12 rounds of repeated-averaging acceleration of the alternating
    tail."""
    k = q / d
    X = x1 - x2 - d
    if k == 0.0:
        return 2.0 * np.pi
    a = k * abs(X)

    def g(u):
        return u * a * (a * a + u * u) ** -1.5

    return 2.0 * np.pi * oscillating_integral(g, a, j0_tail())


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
    """Quadrature oracle for v_transverse_partial: 1D Fourier integral over k1
    of the rational transverse kernel, split into its even (cosine) and odd
    (sine) parts, each taken in u = k1 |x| on Gauss panels between the zeros
    (m + 1/2) pi of cos u and (m + 1) pi of sin u with repeated averaging of
    the alternating tail; at |x| <= 1e-12 the plain integral over k1 of the
    even part, mapped by k1 = q tan t."""
    qvec = np.asarray(qvec, dtype=float)
    qx, qy = float(qvec[0]), float(qvec[1])
    q = np.hypot(qx, qy)
    if q == 0.0:
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

    ax = abs(x)
    if ax <= 1e-12:
        re = gauss_panels(lambda t: even(q * np.tan(t)) * q / np.cos(t) ** 2,
                          [0.0, 0.5 * np.pi]).sum()
        return complex(re / np.pi)
    # dk1 = du / |x| and sin(k1 x) = sign(x) sin u: the sine part is over x
    re = oscillating_integral(lambda u: even(u / ax), q * ax, cos_tail()) / ax
    im = oscillating_integral(lambda u: odd(u / ax), q * ax, sin_tail()) / x
    return (re + 1j * im) / np.pi


def _vtilde_derivs(x, qvec, order_max=3):
    """x-derivatives (orders 0..order_max) of the e^{-i k1 x} partial transform,
    as 3x3 complex matrices, valid for x >= 0 (one-sided at x = 0).

    With E = e^{-qx}, the normal-normal entry is f = (pi/q + pi x) E, the
    mixed ones (i pi q_m / q) g with g = x E, and the in-plane ones
    2 d_mn h - (q_m q_n / q^2) f with h = (pi/q) E.  Each of f, g, h is
    (alpha + beta x) E, whose n-th derivative is (-q)^n E (alpha + beta (x - n/q)).
    """
    if x < 0.0:
        raise ParameterError("closed-form derivatives implemented for x >= 0")
    qvec = np.asarray(qvec, dtype=float)
    q = float(np.hypot(qvec[0], qvec[1]))
    if q == 0.0:
        raise SingularArgumentError("undefined at q = 0")
    n = np.arange(order_max + 1)[:, None]
    alpha, beta = np.array([np.pi / q, 0.0, np.pi / q]), np.array([np.pi, 1.0, 0.0])
    f, g, h = ((-q) ** n * np.exp(-q * x) * (alpha + beta * (x - n / q))).T
    out = np.empty((order_max + 1, 3, 3), dtype=complex)
    out[:, 0, 0] = f
    out[:, 0, 1:] = out[:, 1:, 0] = 1j * np.pi * (qvec / q) * g[:, None]
    out[:, 1:, 1:] = (2.0 * np.eye(2) * h[:, None, None]
                      - np.outer(qvec, qvec) / q**2 * f[:, None, None])
    return out


def _loop_current_moments(loop: Loop, qvec):
    """First path moments entering the dipolar closed forms.

    A^mu = sum_a dX^mu(a) * X^1(a),  B^mu = sum_a dX^mu(a) * (q . Y(a)),
    midpoint convention.  The diagonal telescoping makes A^1 vanish up to
    rounding: only area-like (current-loop) moments survive.
    """
    qvec = np.asarray(qvec, dtype=float)
    dX, mid = _increments_and_midpoints(loop)
    a = np.sum(dX * mid[:, 0:1], axis=0)
    b = np.sum(dX * (mid[:, 1:] @ qvec)[:, None], axis=0)
    return a, b


def _wab_bracket(loop_i, loop_j, qvec, thermo, d, order):
    """Core of the dipolar interplate kernel: the double derivative bracket
    applied to the x-derivative of the given order of the partial
    transverse transform at the scaled separation x = 1 - (x_i - x_j)/d;
    ParameterError unless 0 < d < inf."""
    if not 0.0 < d < np.inf:
        raise ParameterError(f"separation d = {d!r} is not finite and positive")
    x = 1.0 - (loop_i.x - loop_j.x) / d
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
    pref, b0 = _wab_bracket(loop_i, loop_j, np.asarray(qvec, float), thermo, d, 0)
    return complex(pref * b0 / d)


def wm_gradient_ab(loop_i: Loop, loop_j: Loop, qvec, d, thermo: ThermoState) -> complex:
    """Slab-normal gradient (in x_i) of the interplate magnetic potential;
    carries one extra 1/d from the chain rule on the scaled separation."""
    pref, b1 = _wab_bracket(loop_i, loop_j, np.asarray(qvec, float), thermo, d, 1)
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
                                 k_cut: float, x_values):
    """In-plane-integrated magnetic force kernel as a function of the normal
    separation X:  (1/2pi) int dk1 e^{i k1 X} i k1 W^m(chi_1, chi_2, k1, 0).

    At vanishing in-plane wavevector the transverse projector decouples from
    k1, the integrand is analytic at k1 = 0 (closed-path telescoping removes
    the would-be Coulomb singularity), and the transform decays faster than
    any inverse power of X.  k_cut is wm_pair_fourier's regulator cut-off
    (ParameterError unless 0 < k_cut < inf).  Evaluated on a
    MAGNETIC_N_QUAD-node Gauss-Legendre rule on [0, 4 k_cut] (the size read
    at call time, the rule cached) resolving the oscillation at the largest
    requested X: one stacked wm_pair_fourier call on the (k1, 0, 0) nodes,
    then the transform to every X as one matrix product with the node
    weights.

    Returns (m, floor), two arrays over x_values.  floor is the rounding
    floor of the weighted node sum, 1e3 eps sum_j |term_j|: once the kernel
    has decayed, m is the cancellation of terms far larger than itself, and
    values with |m| <= floor carry no digits of the kernel.
    """
    # checked before wm_pair_fourier does: 1j * k1 warns on an infinite k1
    if not 0.0 < k_cut < np.inf:
        raise ParameterError("k_cut must be positive and finite")
    x_values = np.asarray(x_values, dtype=float)
    k_max = 4.0 * k_cut
    nodes, weights = gauss_legendre(MAGNETIC_N_QUAD)
    k1 = 0.5 * k_max * (nodes + 1.0)
    wk = 0.5 * k_max * weights / np.pi
    K = np.zeros((k1.size, 3))
    K[:, 0] = k1
    t = 1j * k1 * wm_pair_fourier(loop_i, loop_j, K, thermo, k_cut)
    # T(-k1) = conj(T(k1)): the transform is real
    phase = np.outer(x_values, k1)
    terms = np.cos(phase) * t.real - np.sin(phase) * t.imag
    return terms @ wk, _FLOOR_EPS * (np.abs(terms) @ wk)
