"""Closed Brownian paths with charge and species labels, and their line integrals.

A quantum charge at inverse temperature beta is represented by a closed
random wire: a position along the slab normal, a species tag, a charge
number p counting exchange-cycled particles, and a pinned Gaussian path
X(s) on s in [0, p] with X(0) = X(p) = 0.  Everything downstream (pair
kernels, screening, force assembly) consumes these objects.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, ParameterError

__all__ = [
    "ThermoState",
    "SpeciesParams",
    "Loop",
    "sample_bridge",
    "sample_bridge_ensemble",
    "bridge_covariance",
    "line_integral",
    "loop_activity",
    "shift_origin",
    "point_loop",
]


@dataclass(frozen=True)
class ThermoState:
    """Inverse temperature and the physical constants of the Gaussian-unit system.

    Reduced units set kB = 1 so that beta = 1/T; hbar and c are free knobs.
    lambda_ph = beta*hbar*c is the photon thermal length.
    """

    beta: float
    hbar: float = 1.0
    c: float = 1.0
    kB: float = 1.0

    def __post_init__(self):
        for name in ("beta", "hbar", "c", "kB"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"{name} must be strictly positive")

    @property
    def lambda_ph(self) -> float:
        return self.beta * self.hbar * self.c

    def de_broglie(self, mass: float) -> float:
        return self.hbar * np.sqrt(self.beta / mass)


@dataclass(frozen=True)
class SpeciesParams:
    """Charge, mass, spin, statistics and chemical potential of one mobile species.

    lambda_ is the de Broglie thermal length hbar*sqrt(beta/m); eta is +1 for
    bosons and -1 for fermions.
    """

    name: str
    charge: float
    mass: float
    spin: float = 0.5
    eta: int = -1
    mu: float = 0.0
    lambda_: float = 0.0

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ParameterError("mass must be positive")
        if self.eta not in (+1, -1):
            raise ParameterError("eta must be +1 (boson) or -1 (fermion)")
        if self.lambda_ < 0.0:
            raise ParameterError("lambda_ must be nonnegative")

    @classmethod
    def from_thermo(cls, name, charge, mass, thermo: ThermoState, **kw):
        return cls(name=name, charge=charge, mass=mass,
                   lambda_=thermo.de_broglie(mass), **kw)


def _validate_path(path: np.ndarray, p: int):
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[1] != 3:
        raise ContractViolationError("path must be an (N+1, 3) array")
    if (path.shape[0] - 1) < 2 * p:
        raise ContractViolationError("path needs at least 2 nodes per unit of p")
    if not (np.all(path[0] == 0.0) and np.all(path[-1] == 0.0)):
        raise ContractViolationError("path must be a pinned bridge: X(0) = X(p) = 0")
    return path


@dataclass(frozen=True)
class Loop:
    """One closed wire: slab-normal position x, species, charge number p, shape X(s).

    y is the optional in-plane reference position (used only by real-space pair
    kernels and origin shifts; the transverse-Fourier kernels carry it as a phase).
    """

    x: float
    species: SpeciesParams
    p: int
    path: np.ndarray
    y: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        if self.p < 1:
            raise ParameterError("charge number p must be a positive integer")
        object.__setattr__(self, "path", _validate_path(self.path, self.p))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))

    @property
    def n_nodes(self) -> int:
        return self.path.shape[0]

    @property
    def n_steps(self) -> int:
        """Time resolution per unit of s."""
        return (self.path.shape[0] - 1) // self.p

    @property
    def ds(self) -> float:
        return self.p / (self.path.shape[0] - 1)

    @property
    def times(self) -> np.ndarray:
        """Node times s_k in [0, p]."""
        n = self.path.shape[0] - 1
        return self.p * (np.arange(n + 1) / n)

    def spatial_nodes(self) -> np.ndarray:
        """3-space points r + lambda*X(s_k) on the open grid (duplicate endpoint dropped)."""
        lam = self.species.lambda_
        pts = lam * self.path[:-1]
        pts[:, 0] += self.x
        pts[:, 1] += self.y[0]
        pts[:, 2] += self.y[1]
        return pts


def point_loop(x, species, p=1, n_steps=2, y=(0.0, 0.0)) -> Loop:
    """Degenerate loop with X(.) = 0: a classical charge (the border charge of
    the factorization formulas is point_loop(0.0, ...))."""
    path = np.zeros((p * n_steps + 1, 3))
    return Loop(x=float(x), species=species, p=p, path=path, y=np.asarray(y, float))


def sample_bridge(p: int, n_steps: int, seed) -> np.ndarray:
    """Sample one pinned bridge on the uniform grid s_k = k*p/N, N = p*n_steps.

    A discrete random walk with i.i.d. Gaussian increments of variance p/N per
    component is pinned by subtracting the linear drift (k/N)*W_N, which gives
    the exact grid covariance  delta_{mu nu} * (min(s,s') - s s'/p).

    Returns an (N+1, 3) array with X[0] = X[N] = 0 exactly.
    """
    if p < 1:
        raise ParameterError("p must be >= 1")
    if n_steps < 2:
        raise ParameterError("n_steps must be >= 2")
    return sample_bridge_ensemble(p, n_steps, seed, 1)[0]


def sample_bridge_ensemble(p: int, n_steps: int, seed, count: int) -> np.ndarray:
    """Vectorized sampler; returns (count, N+1, 3).  Deterministic in (seed, index):
    sample i of a larger ensemble can be regenerated by any worker from the same seed."""
    if p < 1 or n_steps < 2:
        raise ParameterError("need p >= 1 and n_steps >= 2")
    n = p * n_steps
    rng = np.random.default_rng(seed)
    dw = rng.normal(0.0, np.sqrt(p / n), size=(count, n, 3))
    w = np.concatenate([np.zeros((count, 1, 3)), np.cumsum(dw, axis=1)], axis=1)
    t = (np.arange(n + 1) / n)[None, :, None]        # t[N] == 1.0 exactly
    return w - t * w[:, -1:, :]


def bridge_covariance(p: int, s: float, sp: float) -> float:
    """Target covariance of one component: min(s, s') - s*s'/p."""
    return min(s, sp) - s * sp / p


def line_integral(path: np.ndarray, integrand, times=None) -> float:
    """Stochastic line integral  sum_k f(m_k) . (X_{k+1} - X_k)  along a closed path.

    Midpoint (Stratonovich-like) convention: f is evaluated at the interval
    midpoints of both s and X.  The sum is accumulated by summation by parts,
    so any s-independent integrand yields exactly 0.0 (the telescoping closure
    of a pinned bridge).

    integrand(s_mid, X_mid) must accept arrays of shape (N,) and (N, 3) and
    return (N, 3) (or a broadcastable constant row).
    """
    path = np.asarray(path, dtype=float)
    if not (np.all(path[0] == 0.0) and np.all(path[-1] == 0.0)):
        raise ContractViolationError("line_integral requires a closed (pinned) path")
    n = path.shape[0] - 1
    times = np.arange(n + 1) / n if times is None else np.asarray(times, dtype=float)
    s_mid = 0.5 * (times[:-1] + times[1:])
    x_mid = 0.5 * (path[:-1] + path[1:])
    g = np.broadcast_to(np.asarray(integrand(s_mid, x_mid)), (n, 3)).astype(complex)
    # sum_k g_k dX_k = g_{N-1} X_N - g_0 X_0 - sum_{k=1}^{N-1} (g_k - g_{k-1}) X_k
    val = g[-1] @ path[-1] - g[0] @ path[0]
    if n > 1:
        val = val - np.sum((g[1:] - g[:-1]) * path[1:-1]).item()
    if abs(np.imag(val)) == 0.0:
        return float(np.real(val))
    return complex(val)


def loop_activity(loop: Loop, self_energy: float, beta: float) -> float:
    """Effective fugacity of one loop.

    (2s+1) eta^{p-1} e^{beta mu p} / (p (2 pi p lambda^2)^{3/2}) * exp(-beta*self_energy/2),
    where self_energy = e^2 V(L, L) is supplied by the potentials module.
    """
    if loop.p < 1:
        raise ParameterError("p must be >= 1")
    sp = loop.species
    if sp.lambda_ <= 0.0:
        raise ParameterError("loop_activity needs a positive de Broglie length")
    pref = (2.0 * sp.spin + 1.0) * sp.eta ** (loop.p - 1)
    pref *= np.exp(beta * sp.mu * loop.p)
    pref /= loop.p * (2.0 * np.pi * loop.p * sp.lambda_**2) ** 1.5
    return pref * np.exp(-0.5 * beta * self_energy)


def shift_origin(loop: Loop, u: float) -> Loop:
    """Re-anchor the loop at time u: X'(s) = X(s+u) - X(u), position moved by lambda*X(u).

    u must lie on the discretization grid; the multiset of spatial points is
    unchanged (same wire, new bookkeeping origin).
    """
    n = loop.path.shape[0] - 1
    ds = loop.p / n
    idx = u / ds
    j = int(round(idx))
    if abs(idx - j) > 1e-9 or not (0 <= j <= n):
        raise ParameterError("shift time u must be a grid node in [0, p]")
    j = j % n
    lam = loop.species.lambda_
    origin = loop.path[j].copy()
    rolled = np.roll(loop.path[:-1], -j, axis=0) - origin
    rolled[0] = 0.0
    new_path = np.concatenate([rolled, np.zeros((1, 3))], axis=0)
    return Loop(
        x=loop.x + lam * origin[0],
        species=loop.species,
        p=loop.p,
        path=new_path,
        y=loop.y + lam * origin[1:],
    )
