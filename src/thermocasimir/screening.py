"""Screened potential in slab geometry, sum rules, and traversing-chain asymptotics.

The wire-wire Coulomb kernel is chain-resummed into an effective potential
that stays bounded at vanishing in-plane wavenumber.  Each plate is the same
single-slab problem, the slab [-width, 0] with the border charge on its inner
face x = 0: the far plate is its mirror image through the gap, and only the
width differs.  This module discretizes that integral equation (midpoint
cells along the slab normal, the kernel integrated exactly over each cell,
internal degrees of freedom summed over species and charge number with Monte
Carlo path cells) and solves it in O(n): in cell order the operator is a band
of near-cell pairs plus a rank-1 semiseparable far field, embedded in one
sparse LU.  The basis pairs are classified once per basis (entirely above or
below the source cell, inside it, or straddling a face) and each class is
summed exactly without a pair loop; the source column of a unit point charge
is a direct node sum.
The module also provides the k-sweep (solves along the wavenumber sequence,
Richardson-extrapolated to zero, giving the perfect-screening residuals),
the classical two-slab solve and the factorized large-separation closed form
of the interplate screened potential.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError, SingularArgumentError, SolverError
from .loops import SpeciesParams, sample_bridge

__all__ = [
    "SpeciesDensity",
    "DensityProfile",
    "LoopBasis",
    "build_loop_basis",
    "assemble_kernel_matrix",
    "source_column",
    "classical_slab_solve",
    "coupled_two_slab_solve",
    "bulk_phi_analytic",
    "richardson_extrapolate",
    "check_perfect_screening",
    "bulk_sum_rule_oracle",
    "factorize_phi_ab",
    "geometric_chain_prefactor",
]


# ----------------------------------------------------------------------------
# the slab grid and the plasma
# ----------------------------------------------------------------------------

def _slab_cells(width, nx):
    """Midpoint cells of the slab [-width, 0]: (centers, cell width)."""
    if not (math.isfinite(width) and width > 0.0):
        raise ParameterError(f"slab width must be finite and positive, got {width!r}")
    if nx < 2:
        raise ParameterError(f"need at least 2 cells per slab, got {nx!r}")
    h = width / nx
    return -width + h * (np.arange(nx) + 0.5), h


@dataclass(frozen=True)
class SpeciesDensity:
    """One (species, charge number) cell of the internal-degree sum, with its
    loop density (loops per volume; each p-loop carries p particles)."""

    species: SpeciesParams
    p: int
    loop_density: float

    def __post_init__(self):
        if self.p < 1:
            raise ParameterError("p must be >= 1")
        if self.loop_density < 0.0:
            raise ParameterError("loop density must be >= 0")


@dataclass(frozen=True)
class DensityProfile:
    """Step density profile: one plasma, homogeneous inside both slabs.

    cells holds its (species, charge number) cells; charge_density sums
    e * p * rho over them and kappa2 is the classical aggregate
    4 pi beta sum e^2 p^2 rho that sets the monopole screening length
    (e * e, not e**2: an overflow reads inf instead of raising).
    """

    beta: float
    cells: tuple

    def charge_density(self) -> float:
        return math.fsum(c.species.charge * c.p * c.loop_density for c in self.cells)

    def kappa2(self) -> float:
        return 4.0 * np.pi * self.beta * sum(
            c.species.charge * c.species.charge * c.p**2 * c.loop_density
            for c in self.cells)


# ----------------------------------------------------------------------------
# kernel-matrix assembly over a loop basis
# ----------------------------------------------------------------------------

_STRADDLE_BLOCK = 1 << 18   # node pairs (s, t) per batch of straddling pairs


@dataclass(frozen=True)
class _PairPlan:
    """Classified (row, column) pairs of the operator: w = x_i + xi_i(s) -
    xi_l(t) lies entirely above the source cell [x_l - h/2, x_l + h/2],
    inside it or across a face (positions inside, straddling), or else
    below.  band: the largest cell offset kept; runs: _straddling_runs."""

    rows: np.ndarray
    cols: np.ndarray
    above: np.ndarray
    inside: np.ndarray
    straddling: np.ndarray
    runs: tuple
    band: int = 0


def _pair_plan(basis: LoopBasis, i, l, offset=None) -> _PairPlan:
    """Plan of the pairs (i, l); given their cell offsets, only the band is kept:
    offsets up to the largest of a near (neither above nor below) pair."""
    half = 0.5 * basis.h
    w_lo = (basis.x + basis.xi_lo)[i] - basis.xi_hi[l]
    w_hi = (basis.x + basis.xi_hi)[i] - basis.xi_lo[l]
    above = w_lo >= basis.x[l] + half
    near = ~above & (w_hi > basis.x[l] - half)
    within = near & (w_lo >= basis.x[l] - half) & (w_hi <= basis.x[l] + half)
    band = 0 if offset is None else int(np.max(offset[near], initial=0))
    if offset is not None:
        i, l, above, near, within = (a[offset <= band] for a in (i, l, above, near, within))
    straddling = np.nonzero(near & ~within)[0]
    return _PairPlan(rows=i, cols=l, above=above, inside=np.nonzero(within)[0],
                     straddling=straddling, band=band, runs=_straddling_runs(
                         basis, i[straddling], l[straddling]))


def _straddling_runs(basis: LoopBasis, ii, ll) -> tuple:
    """k-independent part of the straddling pairs (ii, ll): column nodes are
    sorted by xi, so per row node s those with w above, inside and below the
    cell form three runs.  Per batch of one path-group pair: groups, positions
    in ii, row slots, gap = x_i - x_l + xi_i(s) and the run ends as rows of
    the column prefix table (n_t + 1 rows per path)."""
    out, half, n_groups = [], 0.5 * basis.h, len(basis.groups)
    key = basis.group[ii] * n_groups + basis.group[ll]
    for g in np.unique(key):
        gr, gc = divmod(int(g), n_groups)
        xi_r, xi_c = basis.groups[gr][1], basis.groups[gc][1]
        sel = np.nonzero(key == g)[0]
        step = max(1, _STRADDLE_BLOCK // (xi_r.shape[1] * xi_c.shape[1]))
        for batch in np.split(sel, np.arange(step, sel.size, step)):
            s, t = basis.slot[ii[batch]], basis.slot[ll[batch]]
            gap = (basis.x[ii[batch]] - basis.x[ll[batch]])[:, None] + xi_r[s]
            off = xi_c[t][:, None, :]
            base = t[:, None] * (xi_c.shape[1] + 1)
            at_above = base + np.sum(off < (gap - half)[:, :, None], axis=2)
            at_below = base + np.sum(off <= (gap + half)[:, :, None], axis=2)
            out.append((gr, gc, batch, s, gap, at_above, at_below,
                        base + xi_c.shape[1]))
    return tuple(out)


@dataclass
class LoopBasis:
    """Discretized phase space for the screened solve: one entry per
    (x-cell, species, charge number, path sample), in cell order.

    Struct of arrays: x, xi_lo and xi_hi give each entry's slab-normal
    position (its cell center) and the range of its normal excursion
    xi = lambda X_1 (0 lies in it: paths are pinned).  The open-grid node
    arrays are stacked per charge number p: groups[g] = (entry indices,
    xi (n_g, N), y (n_g, N), ds), y the in-plane excursion along the
    wavevector (k, 0); group[n] and slot[n] locate entry n in them.  Within
    each path the nodes are sorted by xi (every kernel here is a sum over all
    nodes, so their time order does not enter).  The k-independent pair plan
    is kept here on first use.
    """

    x: np.ndarray            # cell centers
    xi_lo: np.ndarray
    xi_hi: np.ndarray
    groups: tuple
    group: np.ndarray
    slot: np.ndarray
    h: float                 # cell width
    charge: np.ndarray
    pnum: np.ndarray
    measure: np.ndarray      # rho * h / n_paths  (plain phase-space weight)
    beta: float
    x_cells: np.ndarray = field(init=False, repr=False)   # ascending
    cell: np.ndarray = field(init=False, repr=False)      # index into x_cells

    def __post_init__(self):
        if np.any(np.diff(self.x) < 0.0):
            raise ParameterError("basis entries must be in cell order")
        self.x_cells, self.cell = np.unique(self.x, return_inverse=True)

    @property
    def size(self) -> int:
        return self.x.size

    @property
    def matrix_weight(self) -> np.ndarray:
        """kappa^2(1)/(4 pi) measure without the cell width: beta e^2 rho / n_paths."""
        return self.beta * self.charge**2 * self.measure / self.h

    @cached_property
    def plan(self) -> _PairPlan:
        """Pair plan of the cell-integrated operator over its band: at cell
        offset m, w - x_l lies within m h -/+ the excursion spread, so only
        offsets below spread / h + 1/2 (contiguous columns per row) can hold
        near pairs."""
        spread = self.xi_hi.max() - self.xi_lo.min()
        reach = int(np.fmin(np.ceil(spread / self.h + 0.5), self.x_cells.size))
        start = np.searchsorted(self.cell, np.arange(self.x_cells.size + 1))
        lo = start[np.maximum(self.cell - reach, 0)]
        count = start[np.minimum(self.cell + reach + 1, self.x_cells.size)] - lo
        i = np.repeat(np.arange(self.size), count)
        l = np.arange(i.size) - np.repeat(np.cumsum(count) - count - lo, count)
        return _pair_plan(self, i, l, np.abs(self.cell[i] - self.cell[l]))

    def pair_class_counts(self) -> dict:
        """Number of operator pairs per class (see assemble_kernel_matrix)."""
        inside, straddling = self.plan.inside.size, self.plan.straddling.size
        return {"above_below": self.size**2 - inside - straddling,
                "inside": inside, "straddling": straddling}


def build_loop_basis(profile: DensityProfile, width: float, nx: int,
                     n_paths: int = 8, n_steps: int = 16, seed: int = 0,
                     point_paths: bool = False) -> LoopBasis:
    """Assemble the basis of the slab [-width, 0] on nx midpoint cells, filled
    with the profile's plasma; its inner face x = 0 holds the border charge.

    point_paths=True collapses every path to the degenerate classical wire
    (the monopole sector); otherwise each (species, p) cell carries n_paths
    pinned bridges, entry i drawn from the substream [seed, i].  The path
    nodes are kept stacked per charge number and sorted by xi.
    """
    cells, h = _slab_cells(width, nx)
    count = 1 if point_paths else n_paths
    rows, by_p = [], {}
    for xc in cells:
        for entry in profile.cells:
            idx, draws = by_p.setdefault(entry.p, ([], []))
            for _ in range(count):
                idx.append(len(rows))
                draws.append(np.zeros((entry.p * n_steps + 1, 3)) if point_paths
                             else sample_bridge(entry.p, n_steps, [seed, len(rows)]))
                rows.append((float(xc), entry.species.charge, entry.p,
                             entry.loop_density * h / count, entry.species.lambda_))
    x, charge, pnum, measure, lam = (np.array(col) for col in zip(*rows))
    xi_lo, xi_hi = np.empty(x.size), np.empty(x.size)
    group, slot = np.empty(x.size, dtype=int), np.empty(x.size, dtype=int)
    groups = []
    for g, (p, (idx, draws)) in enumerate(sorted(by_p.items())):
        idx, path = np.array(idx), np.stack(draws)
        xi = lam[idx, None] * path[:, :-1, 0]
        y = lam[idx, None] * path[:, :-1, 1]
        order = np.argsort(xi, axis=1, kind="stable")
        xi = np.take_along_axis(xi, order, axis=1)
        y = np.take_along_axis(y, order, axis=1)
        xi_lo[idx], xi_hi[idx] = xi[:, 0], xi[:, -1]
        group[idx], slot[idx] = g, np.arange(idx.size)
        groups.append((idx, xi, y, p / (path.shape[1] - 1)))
    return LoopBasis(x=x, xi_lo=xi_lo, xi_hi=xi_hi, groups=tuple(groups), group=group,
                     slot=slot, h=h, charge=charge, pnum=pnum, measure=measure,
                     beta=profile.beta)


def _wavenumber(k) -> float:
    if k <= 0.0:
        raise SingularArgumentError("kernel assembly needs k > 0")
    return float(k)


def _side_sums(basis: LoopBasis, k):
    """Per-path time sums of the transverse-Fourier wire kernel at wavenumber k.

    Returns (sums, nodes): sums[:, n] = ds sum_s a(s) (1, expm1(-k xi(s)),
    expm1(k xi(s))) with the row phase a = e^{i k y}, and per group
    nodes[g] = (a, expm1(-k xi), expm1(k xi)).  Column sums are the complex
    conjugates.  Exponents are taken relative to each path's own position,
    so nothing overflows at large k times the slab width.
    """
    sums = np.empty((3, basis.size), dtype=complex)
    nodes = []
    for idx, xi, y, ds in basis.groups:
        a = np.exp(1j * k * y)
        em, ep = np.expm1(-k * xi), np.expm1(k * xi)
        sums[0, idx] = ds * np.sum(a, axis=1)
        sums[1, idx] = ds * np.sum(a * em, axis=1)
        sums[2, idx] = ds * np.sum(a * ep, axis=1)
        nodes.append((a, em, ep))
    return sums, nodes


def _straddling_entries(plan, basis: LoopBasis, nodes, k, cell):
    """Exact double time sums of the plan's straddling pairs: on each run of
    column nodes the kernel is a row-node factor times a column-node factor,
    so a run contributes a difference of the prefix sums over t of b e^{k xi},
    b e^{-k xi} and b (expm1(k xi) + expm1(-k xi)), b the column phase."""
    vals, half = np.empty(plan.straddling.size, dtype=complex), 0.5 * basis.h
    tables = {}
    for gr, gc, batch, s, gap, at_above, at_below, at_end in plan.runs:
        if gc not in tables:
            a_c, em_c, ep_c = nodes[gc]
            b = np.conj(a_c)
            runs = np.zeros((b.shape[0], b.shape[1] + 1, 3), dtype=complex)
            np.cumsum(np.stack([b + b * ep_c, b + b * em_c, b * (ep_c + em_c)],
                               axis=2), axis=1, out=runs[:, 1:])
            tables[gc] = runs.reshape(-1, 3)
        table = tables[gc]
        upto_above, upto_below = (np.take(table, at, axis=0) for at in (at_above, at_below))
        inner = upto_below - upto_above
        e_lo, e_hi = np.expm1(-k * (gap + half)), np.expm1(-k * (half - gap))
        total = (cell * np.exp(-k * gap) * upto_above[..., 0]
                 + cell * np.exp(k * gap) * (table[at_end, 1] - upto_below[..., 1])
                 - (e_lo * inner[..., 0] + e_hi * inner[..., 1] + inner[..., 2]) / k)
        vals[batch] = (basis.groups[gr][3] * basis.groups[gc][3]
                       * np.sum(nodes[gr][0][s] * total, axis=1))
    return vals


@dataclass(frozen=True)
class KernelOperator:
    """T of (I + T) Phi = V in cell order: a band plus a rank-1 semiseparable
    far field (Eidelman & Gohberg, Integr. Equ. Oper. Theory 34, 1999).  Unknown
    i lies at X_i = x_cells[cell[i]] (ascending); entries = (rows, cols,
    values) is T on every pair at most band cells apart; beyond, with far =
    (u, v, s, t), T[i, l] = u_i v_l e^{-k(X_i - X_l)} above the diagonal and
    s_i t_l e^{-k(X_l - X_i)} below it."""

    k: float
    x_cells: np.ndarray
    cell: np.ndarray
    band: int
    entries: tuple
    far: tuple

    def dense(self) -> np.ndarray:
        """T as an n x n array (the reference of the tests)."""
        u, v, s, t = self.far
        x, offset = self.x_cells[self.cell], self.cell[:, None] - self.cell
        out = np.where(offset > 0, np.outer(u, v), np.outer(s, t))
        out *= np.exp(-self.k * np.abs(x[:, None] - x))
        out[np.abs(offset) <= self.band] = 0.0
        out[self.entries[0], self.entries[1]] = self.entries[2]
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I + T) Phi = rhs by one sparse LU (SuperLU, COLAMD) of the
        system extended by running sums per cell, sigma_c = e^{-k(X_c -
        X_{c-1})} sigma_{c-1} + sum_{l in c} v_l Phi_l and its mirror tau_c
        over t; row i reads both band + 1 cells away: n + 2 n_cells unknowns."""
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu
        (u, v, s, t), n, m, k = self.far, self.cell.size, self.x_cells.size, self.k
        phi, sig, tau = np.arange(n), n + np.arange(m), n + m + np.arange(m)
        x, decay = self.x_cells, np.exp(-k * np.diff(self.x_cells))
        lo, hi = self.cell - self.band - 1, self.cell + self.band + 1
        below, above = lo >= 0, hi < m
        rows = [phi, self.entries[0], phi[below], phi[above],
                sig, sig[1:], sig[self.cell], tau, tau[:-1], tau[self.cell]]
        cols = [phi, self.entries[1], sig[lo[below]], tau[hi[above]],
                sig, sig[:-1], phi, tau, tau[1:], phi]
        vals = np.concatenate([
            np.ones(n), self.entries[2],
            u[below] * np.exp(-k * (x[self.cell[below]] - x[lo[below]])),
            s[above] * np.exp(-k * (x[hi[above]] - x[self.cell[above]])),
            np.ones(m), -decay, -v, np.ones(m), -decay, -t])
        dtype = np.result_type(vals, rhs)
        a = csc_matrix((vals.astype(dtype), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n + 2 * m,) * 2)
        try:
            lu = splu(a) if np.all(np.isfinite(a.data)) else None
        except RuntimeError as exc:
            if np.max(np.abs(a.data)) * np.finfo(float).eps < 1.0:
                raise SolverError(f"screened solve failed: {exc}",
                                  condition_number=np.inf) from exc
            lu = None     # entries dwarf the identity beyond rounding
        if lu is None:    # an overflowed operator: no finite solution
            return np.full((n,) + rhs.shape[1:], np.nan, dtype=dtype)
        full = np.zeros((n + 2 * m,) + rhs.shape[1:], dtype=dtype)
        full[:n] = rhs
        return lu.solve(full)[:n]


def assemble_kernel_matrix(basis: LoopBasis, k) -> KernelOperator:
    """Operator of the discretized screened equation at wavevector (k, 0),
    T[i, l] = beta e_l^2 rho_l / n_paths * int_cell dx' V^el(i, (x', chi_l), k).
    A band pair whose separation w = x_i + lam_i X_i(s) - lam_l X_l(t) stays
    above or below the source cell is row(-/+) col(+/-) e^{-k|x_i - x_l|}
    times the cell factor; one inside it is (2 P_i Q_l - e^{-k(x_i - lo)}
    row- col+ - e^{-k(hi - x_i)} row+ col-) / k in expm1 sums; one straddling
    a face is the exact double time sum.  Beyond the band, u = P + R-,
    v = (Q + C+) w, s = P + R+, t = (Q + C-) w (sums of _side_sums and their
    conjugates), w the cell factor times 2 pi / k times matrix_weight."""
    k = _wavenumber(k)
    plan, half = basis.plan, 0.5 * basis.h
    sums, nodes = _side_sums(basis, k)
    (p, rm, rp), (q, cm, cp) = sums, np.conj(sums)
    cell = 2.0 * np.sinh(k * half) / k
    i, l = plan.rows, plan.cols
    vals = np.where(plan.above, (p + rm)[i] * (q + cp)[l], (p + rp)[i] * (q + cm)[l])
    vals *= cell * np.exp(-k * np.abs(basis.x[i] - basis.x[l]))
    i, l = plan.rows[plan.inside], plan.cols[plan.inside]
    gap_lo = basis.x[i] - (basis.x[l] - half)
    gap_hi = (basis.x[l] + half) - basis.x[i]
    vals[plan.inside] = (
        -(np.expm1(-k * gap_lo) + np.expm1(-k * gap_hi)) * p[i] * q[l]
        - np.exp(-k * gap_lo) * (p[i] * cp[l] + rm[i] * (q[l] + cp[l]))
        - np.exp(-k * gap_hi) * (p[i] * cm[l] + rp[i] * (q[l] + cm[l]))) / k
    vals[plan.straddling] = _straddling_entries(plan, basis, nodes, k, cell)
    weight = (2.0 * np.pi / k) * basis.matrix_weight
    w = cell * weight
    return KernelOperator(k=k, x_cells=basis.x_cells, cell=basis.cell, band=plan.band,
                          entries=(plan.rows, plan.cols, vals * weight[plan.cols]),
                          far=(p + rm, (q + cp) * w, p + rp, (q + cm) * w))


def source_column(basis: LoopBasis, x_src: float, k) -> np.ndarray:
    """Right-hand-side column V^el(i, x_src, k) of a unit point charge at the
    slab-normal position x_src (e.g. the border charge at x = 0): the
    pointwise wire kernel as a direct node sum,
    ds_i sum_s a_i(s) e^{-k |x_i + xi_i(s) - x_src|} times 2 pi / k."""
    k = _wavenumber(k)
    out = np.empty(basis.size, dtype=complex)
    for idx, xi, y, ds in basis.groups:
        w = basis.x[idx, None] + xi - x_src
        out[idx] = ds * np.sum(np.exp(1j * k * y) * np.exp(-k * np.abs(w)), axis=1)
    return (2.0 * np.pi / k) * out


# ----------------------------------------------------------------------------
# classical (monopole-sector) solver and references
# ----------------------------------------------------------------------------

def classical_slab_solve(x_cells, h, kappa2_cells, k, x_sources):
    """Monopole-sector solve on cells of width h whose centers ascend by at
    least h / 2 (gaps allowed): Phi[node, source] for unit point charges at
    x_sources, the kernel integrated exactly over each source cell.  A cell
    center lies outside every other cell, so the band is the cell itself."""
    x_cells = np.asarray(x_cells, dtype=float)
    if k <= 0.0:
        raise SingularArgumentError("classical solve needs k > 0")
    if np.any(np.diff(x_cells) < 0.5 * h):
        raise ParameterError("cell centers must ascend by at least h / 2")
    weight = np.asarray(kappa2_cells, dtype=float) / (2.0 * k)   # kappa^2/4pi 2pi/k
    w, idx = (2.0 * np.sinh(0.5 * k * h) / k) * weight, np.arange(x_cells.size)
    op = KernelOperator(k=k, x_cells=x_cells, cell=idx, band=0,
                        entries=(idx, idx, -2.0 * np.expm1(-0.5 * k * h) / k * weight),
                        far=(np.ones(idx.size), w, np.ones(idx.size), w))
    return op.solve((2.0 * np.pi / k) * np.exp(-k * np.abs(
        x_cells[:, None] - np.atleast_1d(np.asarray(x_sources, dtype=float))[None, :])))


def coupled_two_slab_solve(width, nx, d, kappa2, k):
    """Classical solve of two equal slabs [-width, 0] and [d, d + width] of
    one plasma (kappa2), each on nx cells, at in-plane wavenumber k.

    Returns (x_a_cells, x_b_cells, Phi_AB) where Phi_AB[i, j] couples a cell
    of the near slab to a cell of the far slab (positions x_j + d).
    """
    if not d > 0.0:
        raise ParameterError(f"separation d must be positive, got {d!r}")
    xa, h = _slab_cells(width, nx)
    xb = h * (np.arange(nx) + 0.5)
    pos = np.concatenate([xa, xb + d])
    phi = classical_slab_solve(pos, h, np.full(2 * nx, kappa2), k, pos[nx:])
    return xa, xb, phi[:nx, :]


def bulk_phi_analytic(x1, x2, k, kappa):
    """Homogeneous-medium screened kernel: (2 pi / b) e^{-b |x1 - x2|},
    b = sqrt(k^2 + kappa^2)."""
    b = np.hypot(k, kappa)
    return (2.0 * np.pi / b) * np.exp(-b * np.abs(np.asarray(x1) - x2))


# ----------------------------------------------------------------------------
# sum rules
# ----------------------------------------------------------------------------

def richardson_extrapolate(values):
    """Iterated Richardson (Neville) limit of a sequence sampled at the
    halving wavenumbers k_n = k_0 / 2^n, assuming a power-series error in k.

    The values may be scalars or arrays (extrapolated elementwise).  Returns
    (limit, correction) where correction is the largest size of the final
    Neville step, a practical error estimate.  At most 1024 values: the
    step factor 2^j overflows beyond."""
    v = [np.asarray(x, dtype=complex) for x in values]
    if not 2 <= len(v) <= 1024:
        raise ParameterError(f"need 2 to 1024 values to extrapolate, got {len(v)}")
    diags = [v[-1]]
    for j in range(1, len(v)):
        fac = 2.0**j
        v = [(fac * v[i + 1] - v[i]) / (fac - 1.0) for i in range(len(v) - 1)]
        diags.append(v[-1])
    return v[0], float(np.max(np.abs(diags[-1] - diags[-2])))


def check_perfect_screening(basis: LoopBasis, x_src: float, k_sequence):
    """The k-sweep: screened solves along the wavenumber sequence,
    extrapolated to k = 0, and the residual of the perfect-screening rule.

    At each k of the descending sequence one solve of (I + T) takes the
    source column of the unit point charge at x_src.  The bracket, the
    charge-weighted phase-space integral of the F bond against that charge,
    is extrapolated to k = 0 and reported as |bracket + 1| (perfect screening
    makes it -1).
    """
    w = basis.pnum * basis.charge**2 * basis.measure
    vals = []
    for k in k_sequence:
        phi = assemble_kernel_matrix(basis, k).solve(source_column(basis, x_src, k))
        vals.append(complex(-basis.beta * np.sum(w * phi)))
    bracket, correction = richardson_extrapolate(vals)
    bracket = complex(bracket)
    return {
        "bracket": bracket,
        "residual_rel": abs(bracket + 1.0),
        "per_k": [complex(v) for v in vals],
        "extrapolation_correction": float(correction),
    }


def bulk_sum_rule_oracle(kappa, k_sequence):
    """Quadrature of the analytic homogeneous screened kernel against the
    screening weight, extrapolated to k = 0; the exact limit is 1."""
    from scipy.integrate import quad
    vals = []
    for k in k_sequence:
        val, _ = quad(lambda x: (kappa**2 / (4.0 * np.pi)) * bulk_phi_analytic(x, 0.0, k, kappa),
                      -40.0 / kappa, 40.0 / kappa, limit=200)
        vals.append(val)
    limit, corr = richardson_extrapolate(vals)
    limit = float(np.real(limit))
    return {"limit": limit, "residual_rel": abs(limit - 1.0),
            "per_k": vals, "extrapolation_correction": float(corr)}


# ----------------------------------------------------------------------------
# traversing-chain factorization
# ----------------------------------------------------------------------------

def geometric_chain_prefactor(q: float, d: float) -> float:
    """Resummed weight of chains with 2n+1 traversing links:
    sum_n e^{-2nq} (q e^{-q} / 2 pi d) = q / (4 pi d sinh q)."""
    if q <= 0.0 or d <= 0.0:
        raise ParameterError("q and d must be positive")
    return q / (4.0 * np.pi * d * np.sinh(q))


def factorize_phi_ab(phi_a0, phi_b0, q: float, d: float) -> np.ndarray:
    """Leading interplate screened potential: the geometric chain prefactor
    times the outer product of single-plate border columns at zero wavenumber."""
    pref = geometric_chain_prefactor(q, d)
    return pref * np.outer(np.asarray(phi_a0), np.asarray(phi_b0))
