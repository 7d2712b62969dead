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

from .errors import ParameterError

__all__ = [
    "ThermoState",
    "SpeciesParams",
    "Loop",
    "sample_bridge",
    "sample_bridge_ensemble",
    "bridge_covariance",
    "line_integral",
    "point_loop",
]


@dataclass(frozen=True)
class ThermoState:
    """Inverse temperature and the physical constants of the Gaussian-unit system.

    Reduced units set kB = 1 so that beta = 1/T; hbar and c are free knobs
    without a default (load_config alone sets hbar = c = 1 in reduced units).
    lambda_ph = beta*hbar*c is the photon thermal length.
    """

    beta: float
    hbar: float
    c: float

    def __post_init__(self):
        for name in ("beta", "hbar", "c"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"{name} must be strictly positive")

    @property
    def lambda_ph(self) -> float:
        return self.beta * self.hbar * self.c

    def de_broglie(self, mass: float) -> float:
        return self.hbar * np.sqrt(self.beta / mass)


@dataclass(frozen=True)
class SpeciesParams:
    """Charge and mass of one mobile species.

    lambda_ is the de Broglie thermal length hbar*sqrt(beta/m), 0 for a point charge.
    """

    name: str
    charge: float
    mass: float
    lambda_: float

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ParameterError("mass must be positive")
        if self.lambda_ < 0.0:
            raise ParameterError("lambda_ must be nonnegative")

    @classmethod
    def from_thermo(cls, name, charge, mass, thermo: ThermoState):
        return cls(name=name, charge=charge, mass=mass,
                   lambda_=thermo.de_broglie(mass))


def _validate_path(path: np.ndarray, p: int):
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[1] != 3:
        raise ParameterError("path must be an (N+1, 3) array")
    if (path.shape[0] - 1) < 2 * p or (path.shape[0] - 1) % p:
        raise ParameterError("path needs n_steps * p steps, n_steps >= 2")
    if not (np.all(path[0] == 0.0) and np.all(path[-1] == 0.0)):
        raise ParameterError("path must be a pinned bridge: X(0) = X(p) = 0")
    return path


@dataclass(frozen=True)
class Loop:
    """One closed wire: slab-normal position x, species, charge number p, shape X(s).

    y is the optional in-plane reference position (used only by real-space pair
    kernels; the transverse-Fourier kernels carry it as a phase).
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
    def n_steps(self) -> int:
        """Time resolution per unit of s."""
        return (self.path.shape[0] - 1) // self.p

    @property
    def ds(self) -> float:
        return self.p / (self.path.shape[0] - 1)

    def spatial_nodes(self) -> np.ndarray:
        """3-space points r + lambda*X(s_k) on the open grid (duplicate endpoint dropped)."""
        lam = self.species.lambda_
        pts = lam * self.path[:-1]
        pts[:, 0] += self.x
        pts[:, 1] += self.y[0]
        pts[:, 2] += self.y[1]
        return pts


def point_loop(x, species, n_steps) -> Loop:
    """Degenerate loop with X(.) = 0, p = 1 and y = 0: a classical charge (the
    border charge of the factorization formulas is point_loop(0.0, ...))."""
    return Loop(x=float(x), species=species, p=1, path=np.zeros((n_steps + 1, 3)))


def sample_bridge(p: int, n_steps: int, seed) -> np.ndarray:
    """Sample one pinned bridge on the uniform grid s_k = k*p/N, N = p*n_steps.

    A discrete random walk with i.i.d. Gaussian increments of variance p/N per
    component is pinned by subtracting the linear drift (k/N)*W_N, which gives
    the exact grid covariance  delta_{mu nu} * (min(s,s') - s s'/p).

    Returns an (N+1, 3) array with X[0] = X[N] = 0 exactly.
    """
    return sample_bridge_ensemble(p, n_steps, seed, 1)[0]


_CHUNK = 1 << 17                # increments drawn per block by sample_bridge_ensemble


def sample_bridge_ensemble(p: int, n_steps: int, seed, count: int) -> np.ndarray:
    """Vectorized sampler; returns (count, N+1, 3), sample i the i-th path of
    the one stream default_rng(seed): the same for every count above i, but
    it follows all draws before it, so it cannot be regenerated without them.
    A numpy Generator as seed is used as it is, so consecutive calls on one
    Generator continue its stream: calls of a and b paths draw the paths of
    one call of a + b.

    The increments are drawn in blocks of whole paths of at most 2^17 values
    (at least one path) and pinned in place in the output, so memory stays at
    the output plus one block (about 2 MiB with its drift product); the
    stream does not depend on the blocks, so the bridges are those of one
    draw of all count * N * 3 increments."""
    if p < 1 or n_steps < 2:
        raise ParameterError("need p >= 1 and n_steps >= 2")
    if not isinstance(count, (int, np.integer)) or count < 0:
        raise ParameterError(f"count must be a nonnegative integer, got {count!r}")
    n = p * n_steps
    rng, drift = np.random.default_rng(seed), (np.arange(n + 1) / n)[None, :, None]
    out = np.empty((count, n + 1, 3))
    out[:, 0] = 0.0
    step = max(1, _CHUNK // (3 * n))
    for a in range(0, count, step):       # each walk minus its drift (k/N) W_N
        block = out[a:a + step]
        np.cumsum(rng.normal(0.0, np.sqrt(p / n), size=(block.shape[0], n, 3)),
                  axis=1, out=block[:, 1:])
        block -= drift * block[:, -1:]    # t[N] == 1.0 exactly: X[N] = 0
    return out


def bridge_covariance(p: int, s: float, sp: float) -> float:
    """Target covariance of one component: min(s, s') - s*s'/p."""
    return min(s, sp) - s * sp / p


def line_integral(path: np.ndarray, integrand) -> float:
    """Stochastic line integral  sum_k f(m_k) . (X_{k+1} - X_k)  along a closed path.

    Midpoint (Stratonovich-like) convention: f is evaluated at the interval
    midpoints of both X and the time grid s_k = k/N.  The sum is accumulated
    by summation by parts, so any s-independent integrand yields exactly 0.0
    (the telescoping closure of a pinned bridge).

    integrand(s_mid, X_mid) must accept arrays of shape (N,) and (N, 3) and
    return (N, 3) (or a broadcastable constant row).
    """
    path = np.asarray(path, dtype=float)
    if not (np.all(path[0] == 0.0) and np.all(path[-1] == 0.0)):
        raise ParameterError("line_integral requires a closed (pinned) path")
    n = path.shape[0] - 1
    times = np.arange(n + 1) / n
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
