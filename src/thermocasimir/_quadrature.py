"""Fixed quadrature rules in numpy: the Gauss-Legendre rule, Gauss panels
with repeated averaging for oscillating integrands, and the Bessel functions
J0 and J1 with the zeros of J0.  No rule is built at import: each is built
on first use and cached.

An oscillating integral is taken in its oscillator's own variable u, where
the zeros of the oscillator w(u) are fixed numbers.  So the tail panels
between them, their Gauss nodes and w at those nodes are the same in every
call: each oscillator (J0, cos, sin) has one read-only tail table per
process, built on first use, and a call evaluates w only on its head panels.
"""
from __future__ import annotations

from functools import cache

import numpy as np

_PANEL_NODES = 16         # Gauss nodes per panel
_HEAD_PANELS = 8          # geometric panels before the first zero
_AVERAGING_ROUNDS = 12    # rounds of repeated averaging of the partial sums
_NEWTON_PASSES = 8        # cap on gauss_legendre's Newton passes (it needs 3 or 4)
# sin theta at the midpoint nodes of the Bessel integrals: the rule is exact
# to rounding for |z| <~ 260 (J0 is needed up to its 81st zero, 253.7)
_SIN_THETA = np.sin((np.arange(80) + 0.5) * (np.pi / 160))


@cache
def gauss_legendre(n: int):
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on
    [-1, 1], as read-only arrays.

    Newton iteration on P_n from the three-term recurrence, started at
    Tricomi's approximation (the third step starts within 3e-13 of the root
    for every n), until a step is at rounding, at most 2 eps: three passes of
    the recurrence for large n (400 or 3000), four for small ones.  The
    weights are 2 / ((1 - x)(1 + x) P_n'(x)^2) with P_n' evaluated on the
    last pass, at nodes that step moved by rounding only.
    """
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(
        np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(_NEWTON_PASSES):
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) / j) * x * p1 - ((j - 1) / j) * p0
        dp = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
        step = p1 / dp
        x = x - step
        if np.max(np.abs(step)) <= 2.0 * np.finfo(float).eps:
            break
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panels(f, edges) -> np.ndarray:
    """Integrals of the vectorised f over the panels [edges[i], edges[i+1]],
    one Gauss rule of _PANEL_NODES nodes each."""
    x, w = gauss_legendre(_PANEL_NODES)
    edges = np.asarray(edges, dtype=float)
    h = 0.5 * np.diff(edges)
    return h * (f((edges[:-1] + h)[:, None] + h[:, None] * x) @ w)


def _tail(w, zeros):
    """The tail table of the oscillator w with the given ascending zeros:
    (w, zeros, the Gauss nodes of the panels between consecutive zeros, the
    Gauss weights times w at those nodes), each array read-only."""
    x, gw = gauss_legendre(_PANEL_NODES)
    h = 0.5 * np.diff(zeros)[:, None]
    nodes = zeros[:-1, None] + h + h * x
    weights = h * gw * w(nodes)
    for arr in (zeros, nodes, weights):
        arr.flags.writeable = False
    return w, zeros, nodes, weights


@cache
def j0_tail():
    """The tail table of J0 between its first 81 zeros."""
    return _tail(bessel_j0, j0_zeros())


@cache
def cos_tail():
    """The tail table of cos between its zeros (m + 1/2) pi, m < 81."""
    return _tail(np.cos, (np.arange(81) + 0.5) * np.pi)


@cache
def sin_tail():
    """The tail table of sin between its zeros (m + 1) pi, m < 81."""
    return _tail(np.sin, (np.arange(81) + 1.0) * np.pi)


def oscillating_integral(g, scale: float, tail) -> float:
    """int_0^inf g(u) w(u) du for g a peak of width `scale` at u = 0 and w the
    oscillator of the tail table `tail` (j0_tail, cos_tail or sin_tail).

    The head [0, zeros[0]] is split geometrically (the peak may be much
    narrower than the head) and w is evaluated on its nodes; the tail panels
    take w from the table.  The partial sums at the zeros alternate and are
    accelerated by repeated averaging.
    """
    w, zeros, nodes, weights = tail
    top = zeros[0]
    head = np.geomspace(min(scale, top) / 64.0, top, _HEAD_PANELS)
    edges = np.concatenate(([0.0], head))
    panels = np.concatenate((gauss_panels(lambda u: g(u) * w(u), edges),
                             np.sum(g(nodes) * weights, axis=1)))
    s = np.cumsum(panels)[_HEAD_PANELS - 1:]      # the integrals up to each zero
    for _ in range(_AVERAGING_ROUNDS):
        s = 0.5 * (s[:-1] + s[1:])
    return float(s[-1])


def bessel_j0(z) -> np.ndarray:
    """J0(z) = (2/pi) int_0^pi/2 cos(z sin theta) dtheta by the midpoint rule."""
    return np.mean(np.cos(np.multiply.outer(z, _SIN_THETA)), axis=-1)


def bessel_j1(z) -> np.ndarray:
    """J1(z) = (2/pi) int_0^pi/2 sin(z sin theta) sin theta dtheta by the
    midpoint rule."""
    return np.sin(np.multiply.outer(z, _SIN_THETA)) @ _SIN_THETA / _SIN_THETA.size


@cache
def j0_zeros() -> np.ndarray:
    """The first 81 positive zeros of J0, read-only: McMahon's expansion in
    b = (m - 1/4) pi, polished by Newton steps with J0' = -J1."""
    b = (np.arange(1, 82) - 0.25) * np.pi
    z = b + 1 / (8 * b) - 31 / (384 * b**3) + 3779 / (15360 * b**5)
    for _ in range(3):
        z = z + bessel_j0(z) / bessel_j1(z)
    z.flags.writeable = False
    return z
