"""Screened potential in slab geometry, sum rules, and traversing-chain asymptotics.

The wire-wire Coulomb kernel is chain-resummed into an effective potential
that stays bounded at vanishing in-plane wavenumber.  This module discretizes
that integral equation (midpoint cells along the slab normal, the kernel
integrated exactly over each cell, internal degrees of freedom summed over
species and charge number with Monte Carlo path cells), solves it densely,
and builds everything the force assembly needs downstream.

The kernel matrix is assembled exactly without a loop over pairs.  Each
pair of loops is classified by the interval that their normal separation
sweeps relative to the source cell: entirely above or below it (the kernel
splits into a product of per-loop time sums), entirely inside it (an exactly
separable closed form in the same sums), or straddling a face (an exact
double time sum, batched over pairs).  The classes depend only on the basis,
not on the wavenumber.  The module also provides:

* the k-sweep: solves along the wavenumber sequence extrapolated to zero
  by iterated Richardson steps, giving the perfect-screening residuals;
* the coupled two-slab solve and the factorized large-separation closed form
  of the interplate screened potential.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import quad

from .errors import ParameterError, SingularArgumentError, SolverError
from .loops import Loop, SpeciesParams, ThermoState, point_loop, sample_bridge

__all__ = [
    "SlabGeometry",
    "SpeciesDensity",
    "DensityProfile",
    "LoopBasis",
    "build_loop_basis",
    "assemble_kernel_matrix",
    "source_column",
    "solve_screened_potential",
    "classical_slab_solve",
    "coupled_two_slab_solve",
    "step_slab_phi_reference",
    "bulk_phi_analytic",
    "richardson_extrapolate",
    "check_perfect_screening",
    "bulk_sum_rule_oracle",
    "factorize_phi_ab",
    "geometric_chain_prefactor",
]


# ----------------------------------------------------------------------------
# geometry and densities
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SlabGeometry:
    """Two facing slabs [-a, 0] and [0, b] (the second lives at separation d),
    with midpoint-cell grids along the normal."""

    a: float
    b: float
    d: float
    nx_a: int = 32
    nx_b: int = 32

    def __post_init__(self):
        if min(self.a, self.b, self.d) <= 0.0:
            raise ParameterError("a, b, d must all be positive")
        if self.nx_a < 2 or self.nx_b < 2:
            raise ParameterError("need at least 2 cells per slab")

    @property
    def h_a(self) -> float:
        return self.a / self.nx_a

    @property
    def h_b(self) -> float:
        return self.b / self.nx_b

    def cells_a(self) -> np.ndarray:
        return -self.a + self.h_a * (np.arange(self.nx_a) + 0.5)

    def cells_b(self) -> np.ndarray:
        return self.h_b * (np.arange(self.nx_b) + 0.5)

    def hierarchy_report(self, thermo: ThermoState, mean_mass: float,
                         lambda_screen: float, factor: float = 0.25) -> dict:
        """Ratios of the length hierarchy the asymptotics relies on, with flags."""
        lam_mat = thermo.de_broglie(mean_mass)
        # c * c, not c**2: a float power raises OverflowError at c ~ 1e154
        lam_cut = lam_mat / np.sqrt(thermo.beta * mean_mass * (thermo.c * thermo.c))
        ratios = {
            "cut_over_mat": lam_cut / lam_mat,
            "mat_over_ph": lam_mat / thermo.lambda_ph,
            "ph_over_d": thermo.lambda_ph / self.d,
            "screen_over_a": lambda_screen / self.a,
            "screen_over_b": lambda_screen / self.b,
            "a_over_d": self.a / self.d,
            "b_over_d": self.b / self.d,
        }
        return {"ratios": ratios,
                "satisfied": {k: bool(v < factor) for k, v in ratios.items()}}


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
    """Step density profile: homogeneous loop densities inside each slab.

    charge_density sums e * p * rho over the cells of one slab; kappa2 is the
    classical aggregate 4 pi beta sum e^2 p^2 rho that sets the monopole
    screening length.
    """

    beta: float
    slab_a: tuple
    slab_b: tuple

    def cells(self, slab: str):
        return self.slab_a if slab == "a" else self.slab_b

    def charge_density(self, slab: str) -> float:
        import math
        return math.fsum(c.species.charge * c.p * c.loop_density
                         for c in self.cells(slab))

    def kappa2(self, slab: str) -> float:
        return 4.0 * np.pi * self.beta * sum(
            c.species.charge**2 * c.p**2 * c.loop_density for c in self.cells(slab))


# ----------------------------------------------------------------------------
# kernel-matrix assembly over a loop basis
# ----------------------------------------------------------------------------

def _exp_cell_integral(u, c, h, k):
    """int over the cell [c-h/2, c+h/2] of e^{-k|u - x'|} dx', elementwise."""
    lo = c - 0.5 * h
    hi = c + 0.5 * h
    inside = (u >= lo) & (u <= hi)
    safe = np.where(inside, u, c)
    inner = (2.0 - np.exp(-k * (safe - lo)) - np.exp(-k * (hi - safe))) / k
    outer = (2.0 * np.sinh(0.5 * k * h) / k) * np.exp(-k * np.abs(u - c))
    return np.where(inside, inner, outer)


_ROW_BLOCK = 128            # operator rows classified or filled at a time
_STRADDLE_BLOCK = 1 << 18   # node pairs (s, t) per batch of straddling pairs


def _row_blocks(n: int) -> list:
    return [slice(r0, min(r0 + _ROW_BLOCK, n)) for r0 in range(0, n, _ROW_BLOCK)]


@dataclass(frozen=True)
class _PathArrays:
    """Struct-of-arrays view of a list of loops.

    x, xi_lo and xi_hi give each loop's slab-normal position and the range of
    its normal excursion xi = lambda X_1 (0 lies in it: paths are pinned).
    The open-grid node arrays are stacked per (p, node count) group:
    groups[g] = (loop indices, xi (n_g, N), in-plane positions (n_g, N, 2),
    ds); group[n] and slot[n] locate loop n in them.  Within each loop the
    nodes are sorted by xi (every kernel here is a sum over all nodes, so
    their time order does not enter).
    """

    x: np.ndarray
    xi_lo: np.ndarray
    xi_hi: np.ndarray
    groups: tuple
    group: np.ndarray
    slot: np.ndarray


def _path_arrays(loops) -> _PathArrays:
    n = len(loops)
    xi_lo, xi_hi = np.empty(n), np.empty(n)
    group, slot = np.empty(n, dtype=int), np.empty(n, dtype=int)
    by_shape = {}
    for idx, lp in enumerate(loops):
        by_shape.setdefault((lp.p, lp.n_nodes), []).append(idx)
    groups = []
    for g, ((p, nodes), members) in enumerate(sorted(by_shape.items())):
        idx = np.array(members)
        lam = np.array([loops[i].species.lambda_ for i in members])
        path = np.stack([loops[i].path[:-1] for i in members])
        xi = lam[:, None] * path[:, :, 0]
        y = (np.stack([loops[i].y for i in members])[:, None, :]
             + lam[:, None, None] * path[:, :, 1:])
        order = np.argsort(xi, axis=1, kind="stable")
        xi = np.take_along_axis(xi, order, axis=1)
        y = np.take_along_axis(y, order[:, :, None], axis=1)
        xi_lo[idx], xi_hi[idx] = xi[:, 0], xi[:, -1]
        group[idx], slot[idx] = g, np.arange(idx.size)
        groups.append((idx, xi, y, p / (nodes - 1)))
    return _PathArrays(x=np.array([float(lp.x) for lp in loops]), xi_lo=xi_lo,
                       xi_hi=xi_hi, groups=tuple(groups), group=group, slot=slot)


@dataclass(frozen=True)
class _PairPlan:
    """Class of every (row, column) pair of a wire-kernel matrix.

    The separation w = x_i + xi_i(s) - xi_l(t) sweeps a known interval per
    pair, tested against the source cell [x_l - half, x_l + half] (the point
    x_l when half = 0).  above[i, l]: w lies entirely above it; inside and
    straddling: (row, column) index arrays of the pairs entirely inside it
    and of those crossing a face.  All other pairs lie entirely below.
    """

    above: np.ndarray
    inside: tuple
    straddling: tuple


def _pair_plan(rows: _PathArrays, cols: _PathArrays, half) -> _PairPlan:
    above = np.empty((rows.x.size, cols.x.size), dtype=bool)
    near = np.empty_like(above)        # neither entirely above nor below
    within = np.empty_like(above)
    for block in _row_blocks(rows.x.size):
        w_lo = (rows.x + rows.xi_lo)[block, None] - cols.xi_hi
        w_hi = (rows.x + rows.xi_hi)[block, None] - cols.xi_lo
        above[block] = w_lo >= cols.x + half
        near[block] = ~above[block] & (w_hi > cols.x - half)
        within[block] = near[block] & (w_lo >= cols.x - half) & (w_hi <= cols.x + half)
    return _PairPlan(above=above, inside=np.nonzero(within),
                     straddling=np.nonzero(near & ~within))


@dataclass
class LoopBasis:
    """Discretized phase space for the dense solve: one entry per
    (x-cell, species, charge number, path sample).

    The path arrays are stacked once here; the pair classes of the
    cell-integrated operator do not depend on the wavenumber and are kept
    after their first use.
    """

    loops: list
    x: np.ndarray            # cell centers
    h: float                 # cell width
    charge: np.ndarray
    pnum: np.ndarray
    measure: np.ndarray      # rho * h / n_paths  (plain phase-space weight)
    beta: float
    paths: _PathArrays = field(init=False, repr=False)

    def __post_init__(self):
        self.paths = _path_arrays(self.loops)

    @property
    def size(self) -> int:
        return len(self.loops)

    @property
    def matrix_weight(self) -> np.ndarray:
        """kappa^2(1)/(4 pi) measure without the cell width: beta e^2 rho / n_paths."""
        return self.beta * self.charge**2 * self.measure / self.h

    @cached_property
    def plan(self) -> _PairPlan:
        """Pair classes of the cell-integrated operator."""
        return _pair_plan(self.paths, self.paths, 0.5 * self.h)

    def pair_class_counts(self) -> dict:
        """Number of operator pairs in each class of the cell-integrated
        assembly (see assemble_kernel_matrix)."""
        inside, straddling = self.plan.inside[0].size, self.plan.straddling[0].size
        return {"above_below": self.size**2 - inside - straddling,
                "inside": inside, "straddling": straddling}


def build_loop_basis(geometry, profile: DensityProfile, thermo: ThermoState,
                     slab: str = "a", n_paths: int = 8, n_steps: int = 16,
                     seed: int = 0, point_paths: bool = False) -> LoopBasis:
    """Assemble the basis for one slab.

    point_paths=True collapses every path to the degenerate classical wire
    (the monopole sector); otherwise each (species, p) cell carries n_paths
    pinned bridges drawn from disjoint deterministic substreams.
    """
    cells = geometry.cells_a() if slab == "a" else geometry.cells_b()
    h = geometry.h_a if slab == "a" else geometry.h_b
    loops, xs, chg, ps, meas = [], [], [], [], []
    stream = 0
    for xc in cells:
        for entry in profile.cells(slab):
            sp = entry.species
            count = 1 if point_paths else n_paths
            for r in range(count):
                loops.append(point_loop(xc, sp, entry.p, n_steps) if point_paths
                             else Loop(x=float(xc), species=sp, p=entry.p,
                                       path=sample_bridge(entry.p, n_steps,
                                                          [seed, stream])))
                stream += 1
                xs.append(xc)
                chg.append(sp.charge)
                ps.append(entry.p)
                meas.append(entry.loop_density * h / count)
    return LoopBasis(loops=loops, x=np.array(xs), h=h,
                     charge=np.array(chg), pnum=np.array(ps, dtype=int),
                     measure=np.array(meas), beta=thermo.beta)


def _wavenumber(kvec):
    kvec = np.asarray(kvec, dtype=float)
    k = float(np.hypot(kvec[0], kvec[1]))
    if k <= 0.0:
        raise SingularArgumentError("kernel assembly needs k > 0")
    return kvec, k


def _side_sums(paths: _PathArrays, kvec, k):
    """Per-loop time sums of the transverse-Fourier wire kernel at wavenumber k.

    Returns (sums, nodes): sums[:, n] = ds sum_s a(s) (1, expm1(-k xi(s)),
    expm1(k xi(s))) with the row phase a = e^{i k.y}, and per group
    nodes[g] = (a, expm1(-k xi), expm1(k xi)).  Column sums are the complex
    conjugates.  Exponents are taken relative to each loop's own position,
    so nothing overflows at large k times the slab width.
    """
    sums = np.empty((3, paths.x.size), dtype=complex)
    nodes = []
    for idx, xi, y, ds in paths.groups:
        a = np.exp(1j * (y @ kvec))
        em, ep = np.expm1(-k * xi), np.expm1(k * xi)
        sums[0, idx] = ds * np.sum(a, axis=1)
        sums[1, idx] = ds * np.sum(a * em, axis=1)
        sums[2, idx] = ds * np.sum(a * ep, axis=1)
        nodes.append((a, em, ep))
    return sums, nodes


def _wire_kernel(rows: _PathArrays, cols: _PathArrays, plan: _PairPlan, kvec, k,
                 half) -> np.ndarray:
    """Double time sums of e^{i k.(y_i - y_l)} e^{-k |w - x'|} over every
    (row, column) pair, with x' integrated over the column's cell
    [x_l - half, x_l + half] (x' = x_l when half = 0); 2 pi / k left out."""
    sums_r, nodes_r = _side_sums(rows, kvec, k)
    sums_c, nodes_c = (sums_r, nodes_r) if cols is rows else _side_sums(cols, kvec, k)
    p_r, rm, rp = sums_r
    q_c, cm, cp = np.conj(sums_c)
    cell = 2.0 * np.sinh(k * half) / k if half > 0.0 else 1.0
    out = np.empty((rows.x.size, cols.x.size), dtype=complex)
    for block in _row_blocks(rows.x.size):
        view = out[block]
        np.multiply((p_r + rp)[block, None], q_c + cm, out=view)
        np.multiply((p_r + rm)[block, None], q_c + cp, out=view,
                    where=plan.above[block])
        view *= cell * np.exp(-k * np.abs(rows.x[block, None] - cols.x))
    i, l = plan.inside
    gap_lo = rows.x[i] - (cols.x[l] - half)
    gap_hi = (cols.x[l] + half) - rows.x[i]
    out[i, l] = (-(np.expm1(-k * gap_lo) + np.expm1(-k * gap_hi)) * p_r[i] * q_c[l]
                 - np.exp(-k * gap_lo) * (p_r[i] * cp[l] + rm[i] * (q_c[l] + cp[l]))
                 - np.exp(-k * gap_hi) * (p_r[i] * cm[l] + rp[i] * (q_c[l] + cm[l]))
                 ) / k
    i, l = plan.straddling
    out[i, l] = _straddling_entries(rows, cols, nodes_r, nodes_c, i, l, k, half, cell)
    return out


def _straddling_entries(rows, cols, nodes_r, nodes_c, ii, ll, k, half, cell):
    """Exact double time sums for the pairs (ii, ll) whose separation crosses
    a face of the source cell, batched per pair of path groups.

    Column nodes are sorted by xi, so for each row node s the column nodes
    with w = x_i + xi_i(s) - xi_l(t) above, inside and below the cell form
    three contiguous runs.  On each run the kernel is a row-node factor times
    a column-node factor, so a run contributes a difference of prefix sums;
    node pairs are only compared to find where the runs end.
    """
    vals = np.empty(ii.size, dtype=complex)
    prefix = {}
    key = rows.group[ii] * len(cols.groups) + cols.group[ll]
    for g in np.unique(key):
        gr, gc = divmod(int(g), len(cols.groups))
        xi_r, ds_r = rows.groups[gr][1], rows.groups[gr][3]
        xi_c, ds_c = cols.groups[gc][1], cols.groups[gc][3]
        a_r = nodes_r[gr][0]
        if gc not in prefix:
            # running sums over t of b, b expm1(k xi), b expm1(-k xi)
            a_c, em_c, ep_c = nodes_c[gc]
            b = np.conj(a_c)
            runs = np.zeros((b.shape[0], 3, b.shape[1] + 1), dtype=complex)
            np.cumsum(np.stack([b, b * ep_c, b * em_c], axis=1), axis=2,
                      out=runs[:, :, 1:])
            prefix[gc] = runs
        sel = np.nonzero(key == g)[0]
        step = max(1, _STRADDLE_BLOCK // (xi_r.shape[1] * xi_c.shape[1]))
        for c0 in range(0, sel.size, step):
            batch = sel[c0:c0 + step]
            s, t = rows.slot[ii[batch]], cols.slot[ll[batch]]
            gap = (rows.x[ii[batch]] - cols.x[ll[batch]])[:, None] + xi_r[s]
            off = xi_c[t][:, None, :]
            n_above = np.sum(off < (gap - half)[:, :, None], axis=2)
            n_below = (np.sum(off <= (gap + half)[:, :, None], axis=2)
                       if half > 0.0 else n_above)
            runs = prefix[gc][t]
            s_above = np.take_along_axis(runs, n_above[:, None, :], axis=2)
            upto_below = np.take_along_axis(runs, n_below[:, None, :], axis=2)
            s_in = upto_below - s_above
            s_below = runs[:, :, -1:] - upto_below
            e_lo, e_hi = np.expm1(-k * (gap + half)), np.expm1(-k * (half - gap))
            total = (cell * np.exp(-k * gap) * (s_above[:, 0] + s_above[:, 1])
                     + cell * np.exp(k * gap) * (s_below[:, 0] + s_below[:, 2])
                     - ((e_lo + e_hi) * s_in[:, 0] + (1.0 + e_lo) * s_in[:, 1]
                        + (1.0 + e_hi) * s_in[:, 2]) / k)
            vals[batch] = ds_r * ds_c * np.sum(a_r[s] * total, axis=1)
    return vals


def assemble_kernel_matrix(basis: LoopBasis, kvec) -> np.ndarray:
    """Operator of the discretized screened equation:
    T[i, l] = beta e_l^2 rho_l / n_paths * int_cell dx' V^el(i, (x', chi_l), k).

    The wire kernel is integrated exactly over the source cell.  Each pair is
    classified by the interval its separation
    w = x_i + lam_i X_i(s) - lam_l X_l(t) sweeps:

    * entirely above or below the source cell: the exact two-factor split
      row(-/+) col(+/-) e^{-k|x_i - x_l|} times the cell factor;
    * entirely inside it: the exactly separable
      (2 P_i Q_l - e^{-k(x_i - lo)} row- col+ - e^{-k(hi - x_i)} row+ col-) / k,
      formed from per-loop expm1 sums against the small-k cancellation;
    * straddling a face: the exact double time sum, batched over pairs
      (_straddling_entries).
    """
    kvec, k = _wavenumber(kvec)
    return ((2.0 * np.pi / k)
            * _wire_kernel(basis.paths, basis.paths, basis.plan, kvec, k, 0.5 * basis.h)
            * basis.matrix_weight[None, :])


def source_column(basis: LoopBasis, src: Loop, kvec) -> np.ndarray:
    """Right-hand-side column V^el(i, src, k) for an external source loop
    (not part of the integration measure, e.g. the border charge): the
    pointwise wire kernel, its pairs classified against the source as in
    assemble_kernel_matrix."""
    kvec, k = _wavenumber(kvec)
    src_paths = _path_arrays([src])
    plan = _pair_plan(basis.paths, src_paths, 0.0)
    col = _wire_kernel(basis.paths, src_paths, plan, kvec, k, 0.0)[:, 0]
    return (2.0 * np.pi / k) * col


def solve_screened_potential(basis: LoopBasis, kvec, rhs: np.ndarray) -> np.ndarray:
    """Solve (I + T) Phi = V for the given right-hand-side columns.

    A basis without medium (every measure zero) has T = 0, and the solve
    returns the bare columns: the no-screening limit Phi = V^el.
    """
    t = assemble_kernel_matrix(basis, kvec)
    a = np.eye(basis.size, dtype=complex) + t
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"dense screened-potential solve failed: {exc}",
                          condition_number=float(np.linalg.cond(a))) from exc


# ----------------------------------------------------------------------------
# classical (monopole-sector) solver and references
# ----------------------------------------------------------------------------

def classical_slab_solve(x_cells, h, kappa2_cells, k, x_sources):
    """Monopole-sector dense solve on one or more slabs.

    Returns Phi[node, source] for unit point charges at x_sources; the kernel
    is integrated exactly over each source cell.
    """
    x_cells = np.asarray(x_cells, dtype=float)
    kappa2_cells = np.asarray(kappa2_cells, dtype=float)
    if k <= 0.0:
        raise SingularArgumentError("classical solve needs k > 0")
    n = x_cells.size
    cellint = _exp_cell_integral(x_cells[:, None], x_cells[None, :], h, k)
    t = (kappa2_cells[None, :] / (4.0 * np.pi)) * (2.0 * np.pi / k) * cellint
    rhs = (2.0 * np.pi / k) * np.exp(-k * np.abs(
        x_cells[:, None] - np.atleast_1d(np.asarray(x_sources, dtype=float))[None, :]))
    try:
        return np.linalg.solve(np.eye(n) + t, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"classical slab solve failed: {exc}",
                          condition_number=float(np.linalg.cond(np.eye(n) + t))) from exc


def coupled_two_slab_solve(geometry: SlabGeometry, kappa2_a, kappa2_b, k):
    """Classical solve of the full two-slab system at in-plane wavenumber k.

    Returns (x_a_cells, x_b_cells, Phi_AB) where Phi_AB[i, j] couples a cell
    of the near slab to a cell of the far slab (positions x_j + d).
    """
    xa = geometry.cells_a()
    xb = geometry.cells_b() + geometry.d
    if abs(geometry.h_a - geometry.h_b) > 1e-12 * geometry.h_a:
        raise ParameterError("coupled solve expects equal cell widths")
    pos = np.concatenate([xa, xb])
    kap = np.concatenate([np.full(xa.size, kappa2_a), np.full(xb.size, kappa2_b)])
    phi = classical_slab_solve(pos, geometry.h_a, kap, k, pos[xa.size:])
    return geometry.cells_a(), geometry.cells_b(), phi[: xa.size, :]


def step_slab_phi_reference(x1, x2, k, a, kappa):
    """Piecewise-exponential reference solution of the screened equation for a
    single homogeneous slab [-a, 0] (vacuum outside), unit source at x2.

    Matching value and slope at both faces of  -Phi'' + (k^2 + kappa^2) Phi =
    4 pi delta(x - x2)  inside and  -Phi'' + k^2 Phi = 0  outside.
    """
    b = np.hypot(k, kappa)
    if not (-a < x2 < 0.0):
        raise ParameterError("source must lie strictly inside the slab")
    # unknowns: C1, C2 (homogeneous inside), D (x > 0), E (x < -a)
    mat = np.array([
        [1.0, 1.0, -1.0, 0.0],
        [b, -b, k, 0.0],
        [np.exp(-b * a), np.exp(b * a), 0.0, -1.0],
        [b * np.exp(-b * a), -b * np.exp(b * a), 0.0, -k],
    ])
    part = 2.0 * np.pi / b
    rhs = np.array([
        -part * np.exp(-b * abs(0.0 - x2)),
        part * b * np.exp(-b * abs(0.0 - x2)),
        -part * np.exp(-b * abs(-a - x2)),
        -part * b * np.exp(-b * abs(-a - x2)),
    ])
    c1, c2, dcoef, ecoef = np.linalg.solve(mat, rhs)
    x1 = np.asarray(x1, dtype=float)
    inside = part * np.exp(-b * np.abs(x1 - x2)) + c1 * np.exp(b * x1) + c2 * np.exp(-b * x1)
    right = dcoef * np.exp(-k * x1)
    left = ecoef * np.exp(k * (x1 + a))
    return np.where(x1 > 0.0, right, np.where(x1 < -a, left, inside))


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
    Neville step, a practical error estimate."""
    v = [np.asarray(x, dtype=complex) for x in values]
    if len(v) < 2:
        raise ParameterError("need at least two values to extrapolate")
    diags = [v[-1]]
    for j in range(1, len(v)):
        fac = 2.0**j
        v = [(fac * v[i + 1] - v[i]) / (fac - 1.0) for i in range(len(v) - 1)]
        diags.append(v[-1])
    return v[0], float(np.max(np.abs(diags[-1] - diags[-2])))


def check_perfect_screening(basis: LoopBasis, src: Loop, k_sequence):
    """The k-sweep: screened solves along the wavenumber sequence,
    extrapolated to k = 0, and the residual of the perfect-screening rule.

    At each k of the descending sequence one solve of (I + T) takes the
    source column of src.  The bracket, the charge-weighted phase-space
    integral of the F bond against src normalized by the source charge, is
    extrapolated to k = 0 and reported as |bracket + 1| (perfect screening
    makes it -1).
    """
    w = basis.pnum * basis.charge**2 * basis.measure
    vals = []
    for k in k_sequence:
        kvec = np.array([float(k), 0.0])
        phi = solve_screened_potential(basis, kvec, source_column(basis, src, kvec))
        vals.append(complex(-basis.beta * np.sum(w * phi)))
    bracket, correction = richardson_extrapolate(vals)
    bracket = complex(bracket)
    return {
        "bracket": bracket,
        "residual_rel": abs(bracket + 1.0),
        "per_k": [complex(v) for v in vals],
        "extrapolation_correction": float(correction),
        "converged": bool(correction < 0.1),
    }


def bulk_sum_rule_oracle(kappa, k_sequence, half_width=40.0):
    """Quadrature of the analytic homogeneous screened kernel against the
    screening weight, extrapolated to k = 0; the exact limit is 1."""
    vals = []
    for k in k_sequence:
        b = np.hypot(k, kappa)
        val, _ = quad(lambda x: (kappa**2 / (4.0 * np.pi)) * bulk_phi_analytic(x, 0.0, k, kappa),
                      -half_width / kappa, half_width / kappa, limit=200)
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
