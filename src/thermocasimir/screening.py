"""Screened potential in slab geometry, sum rules, and traversing-chain asymptotics.

The wire-wire Coulomb kernel is chain-resummed into an effective potential
that stays bounded at vanishing in-plane wavenumber.  Each plate is the same
single-slab problem, the slab [-width, 0] with the border charge on its inner
face x = 0: the far plate is its mirror image through the gap, and only the
width differs.  This module discretizes that integral equation (midpoint
cells along the slab normal, the kernel integrated exactly over each cell,
internal degrees of freedom summed over species and charge number with Monte
Carlo path cells of antithetic bridge pairs, one draw per charge number) and
solves it in O(n): in cell order the operator is a semiseparable far field
on every cross-cell pair (rank 1 at k > 0, rank 2 at the k = 0 order) plus
entries on the near pairs, which running sums per cell turn into one
block-tridiagonal system, solved by block LU on a layout built once per basis
and rank.  The near pairs (inside the source cell or straddling a face; the
kernel is even, so a transposed pair takes its partner's class) are found
once per basis and each class is summed exactly without a pair loop; the source
column of one or more unit point charges is a direct node sum.  A classical
plasma is a basis of point charges, species with lambda_ = 0: with no
in-plane excursion every phase is 1, so it is assembled and solved in real
arithmetic.  The perfect-screening rule at k = 0 comes from one bordered
solve of the operator's expansion T_{-1}/k + T_0, whose pole is rank 1; the
k-sweep (solves along the wavenumber sequence, Richardson-extrapolated to
zero) is its oracle.  The module also provides the two-slab solve of any slab basis
joined with its moved copy and the factorized closed form of the interplate
screened potential.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import loops
from ._quadrature import gauss_panels
from .errors import ParameterError, SingularArgumentError, SolverError

__all__ = [
    "SpeciesDensity",
    "DensityProfile",
    "LoopBasis",
    "build_loop_basis",
    "assemble_kernel_matrix",
    "source_column",
    "coupled_two_slab_solve",
    "bulk_phi_analytic",
    "richardson_extrapolate",
    "check_perfect_screening",
    "perfect_screening_k0",
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

    species: loops.SpeciesParams
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

    def charge_imbalance(self) -> float:
        """charge_density, or 0.0 within 1e-12 of sum |e| p rho: the one
        neutrality test (decimal densities rarely cancel exactly in double
        precision: 3 * 0.1 - 0.3 = 5.6e-17)."""
        sigma = self.charge_density()
        scale = sum(abs(c.species.charge) * c.p * c.loop_density for c in self.cells)
        return 0.0 if abs(sigma) <= 1e-12 * scale else sigma

    def kappa2(self) -> float:
        return 4.0 * np.pi * self.beta * sum(
            c.species.charge * c.species.charge * c.p**2 * c.loop_density
            for c in self.cells)


# ----------------------------------------------------------------------------
# kernel-matrix assembly over a loop basis
# ----------------------------------------------------------------------------

_BATCH = 1 << 18     # entries per batch: pair-plan candidates, source-column terms
_ROW_NODES = 1 << 14  # row nodes of straddling pairs per batch
_BLOCK_MIN = 24      # least unknowns per superblock: fewer Python steps, flops n B^2


@dataclass(frozen=True)
class _PairPlan:
    """The near (row, column) pairs of the operator, as positions in rows and
    cols: w = x_i + xi_i(s) - xi_l(t) lies inside the source cell [x_l - h/2,
    x_l + h/2] or across a face (straddling), canonical pairs (row <= column)
    first in straddling, then the j-th other the transpose of
    straddling[partner[j]].  The canonical pair straddling[twin[0, j]] is a
    twin: its antithetic mirror is the earlier pair straddling[twin[1, j]],
    which is no twin (_twins).  Every other pair is cross-cell and wholly
    above or below the source cell: the far field's.  band: the largest cell
    offset of a near pair.  Its memory is per pair: _straddling_runs finds
    the straddling run ends per batch while they are used."""

    rows: np.ndarray
    cols: np.ndarray
    inside: np.ndarray
    straddling: np.ndarray
    twin: np.ndarray
    partner: np.ndarray
    band: int


def _straddling_runs(basis: LoopBasis, plan: _PairPlan, terms):
    """The canonical straddling pairs of the plan but its twins, batch by
    batch: column nodes are sorted by xi, so per row node s those with w
    above, inside and below the cell form three runs.  terms(gc) gives three
    node terms of column group gc, shape (3, n_g, N), whose prefix sums over
    t (one table of n_t + 1 rows per path) are built once per call.  Per
    batch of one path-group pair and face class it yields the row group, the
    positions in straddling, the row slots, gap = x_i - x_l + xi_i(s) and the
    tables read at the run ends, shape (3, pairs, N) or (3, pairs, 1): the
    counts of column nodes < gap - h/2 and <= gap + h/2, and n_t on a
    same-cell pair, 0 on a cross-cell one, whose whole lower side (its below
    run's formula over every t) the far field carries.  A count is found by
    sorting (_nodes_before) only where some node pair lies beyond its face:
    above the cell when the column's first node lies below the largest gap -
    h/2, below it when its last node lies above the smallest gap + h/2, both
    tested in the counts' own float expressions; the other counts are 0 and
    n_t.  Nothing is kept between calls."""
    at = np.delete(np.arange(plan.straddling.size - plan.partner.size), plan.twin[0])
    if not at.size:
        return
    ii, ll = plan.rows[plan.straddling[at]], plan.cols[plan.straddling[at]]
    half, n_groups, tables = 0.5 * basis.h, len(basis.groups), {}
    first, last = np.empty(basis.size), np.empty(basis.size)
    for idx, xi, _ in basis.groups:
        first[idx], last[idx] = xi[:, 0], xi[:, -1]
    shift = basis.x[ii] - basis.x[ll]
    above = first[ll] < (shift + last[ii]) - half
    below = last[ll] > (shift + first[ii]) + half
    key = ((basis.group[ii] * n_groups + basis.group[ll]) * 2 + above) * 2 + below
    for g in np.flatnonzero(np.bincount(key)):    # distinct keys, ascending
        gr, gc = divmod(int(g) >> 2, n_groups)
        xi_r, xi_c = basis.groups[gr][1], basis.groups[gc][1]
        n_t = xi_c.shape[1]
        if gc not in tables:
            sums = np.cumsum(terms(gc), axis=2)
            tables[gc] = np.pad(sums, [(0, 0), (0, 0), (1, 0)]).reshape(3, -1)
        table = tables[gc]
        sel = np.nonzero(key == g)[0]
        step = max(1, _ROW_NODES // xi_r.shape[1])
        for batch in np.split(sel, np.arange(step, sel.size, step)):
            s, t = basis.slot[ii[batch]], basis.slot[ll[batch]]
            gap = shift[batch, None] + xi_r[s]
            off, base = xi_c[t], t[:, None] * (n_t + 1)
            total = table.take(base + n_t, axis=1)
            yield (gr, at[batch], s, gap,
                   table.take(base + _nodes_before(off, gap - half, strict=True), axis=1)
                   if g & 2 else np.zeros_like(total),
                   table.take(base + _nodes_before(off, gap + half, strict=False), axis=1)
                   if g & 1 else total,
                   total * (basis.cell[ii[batch]] == basis.cell[ll[batch]])[:, None])


def _nodes_before(nodes, q, strict):
    """Per row, the number of nodes < q (strict) or <= q for each q, nodes and
    q both ascending along the row: a stable sort of each row's queries and
    nodes (queries first when strict, so before equal nodes) puts the j-th
    query at position j + that number; O(m log m) per row of m values."""
    n_q = q.shape[1]
    order = np.argsort(np.concatenate([q, nodes] if strict else [nodes, q], axis=1),
                       axis=1, kind="stable")
    is_q = order < n_q if strict else order >= nodes.shape[1]
    return np.nonzero(is_q)[1].reshape(q.shape) - np.arange(n_q)


@dataclass
class LoopBasis:
    """Discretized phase space for the screened solve: one entry per
    (x-cell, species, charge number, path sample), in cell order.

    Struct of arrays: entry n lies in the cell cell[n] of the ascending
    centers x_cells.  The open-grid node arrays are stacked per charge number
    p: groups[g] = (entry indices, xi (n_g, N), y (n_g, N)), xi = lambda X_1
    the normal excursion (0 lies in its range: paths are pinned) and y the
    in-plane excursion along the wavevector (k, 0), each node weighted by
    ds = 1 / n_steps; group[n] and slot[n] locate entry n in them.  Within
    each path the nodes are sorted by xi (every kernel here is a sum over all
    nodes, so their time order does not enter).  The k-independent pair plan
    (index arrays per pair) and solve layout are kept here on first use, for
    every wavenumber.
    """

    x_cells: np.ndarray      # cell centers, ascending
    cell: np.ndarray         # index into x_cells
    groups: tuple
    group: np.ndarray
    slot: np.ndarray
    h: float                 # cell width
    ds: float                # node weight
    charge: np.ndarray
    pnum: np.ndarray
    measure: np.ndarray      # rho * h / n_paths  (plain phase-space weight)
    beta: float

    @property
    def x(self) -> np.ndarray:     # each entry's cell center
        return self.x_cells[self.cell]

    @property
    def size(self) -> int:
        return self.cell.size

    @property
    def matrix_weight(self) -> np.ndarray:
        """kappa^2(1)/(4 pi) measure without the cell width: beta e^2 rho / n_paths."""
        return self.beta * self.charge**2 * self.measure / self.h

    @property
    def spread(self) -> float:
        """Range of the normal excursions xi over all paths."""
        return (max(xi[:, -1].max() for _, xi, _ in self.groups)
                - min(xi[:, 0].min() for _, xi, _ in self.groups))

    @cached_property
    def plan(self) -> _PairPlan:
        """Pair plan of the cell-integrated operator: at cell offset m, w - x_l
        lies within m h -/+ the excursion spread, so only offsets below spread
        / h + 1/2 can hold near pairs.  Only the canonical candidates (i, l), i
        <= l, contiguous columns from the diagonal per row, are classified;
        the transposes of the near ones take their class (the kernel is even
        in w).  Paths are pinned, so 0 lies in each xi range: a same-cell pair
        is always near, and a cross-cell one never inside its source cell nor
        beyond it on the side opposite to its cell order.  The candidates are
        classified in row batches of at most _BATCH (at least one row), and
        the near ones are kept in row order."""
        reach = int(np.fmin(np.ceil(self.spread / self.h + 0.5), self.x_cells.size))
        start = np.searchsorted(self.cell, np.arange(self.x_cells.size + 1))
        first, half, x = np.arange(self.size), 0.5 * self.h, self.x
        count = start[np.minimum(self.cell + reach + 1, self.x_cells.size)] - first
        end = np.cumsum(count)
        xi_lo, xi_hi = np.empty(self.size), np.empty(self.size)
        for idx, xi, _ in self.groups:       # nodes sorted by xi: each path's range
            xi_lo[idx], xi_hi[idx] = xi[:, 0], xi[:, -1]
        kept, r0 = [], 0
        while r0 < self.size:
            r1 = max(r0 + 1, int(np.searchsorted(end, end[r0] - count[r0] + _BATCH,
                                                 side="right")))
            c = count[r0:r1]
            i = np.repeat(first[r0:r1], c)
            l = i + np.arange(i.size) - np.repeat(np.cumsum(c) - c, c)
            w_lo, w_hi = (x + xi_lo)[i] - xi_hi[l], (x + xi_hi)[i] - xi_lo[l]
            near = w_hi > x[l] - half
            kept.append((i[near], l[near],
                         ((w_lo >= x[l] - half) & (w_hi <= x[l] + half))[near]))
            r0 = r1
        i, l, within = (np.concatenate(a) for a in zip(*kept))
        off = np.nonzero(i < l)[0]
        head, tail = np.nonzero(~within)[0], np.nonzero(~within[off])[0]
        return _PairPlan(rows=np.concatenate([i, l[off]]), cols=np.concatenate([l, i[off]]),
                         inside=np.nonzero(np.concatenate([within, within[off]]))[0],
                         straddling=np.concatenate([head, i.size + tail]),
                         twin=self._twins(i[head], l[head]),
                         partner=np.searchsorted(head, off[tail]),
                         band=int(np.max(self.cell[l] - self.cell[i], initial=0)))

    def _twins(self, rows, cols):
        """Of the canonical straddling pairs (rows, cols), in row order (their
        keys ascend): the twins' positions over their partners'.  A
        same-cell pair is a twin when the pair of its entries' antithetic
        mirrors is an earlier one.  An entry's mirror is the adjacent entry of
        its group and cell whose xi and y rows are the exact negated reversal
        of its own (build_loop_basis draws every odd path so), matched in
        pairs from the left along a run of such neighbours (point charges)."""
        same = np.flatnonzero(self.cell[rows] == self.cell[cols])
        if not same.size:
            return np.zeros((2, 0), dtype=int)
        mirror = np.full(self.size, -1)
        for idx, xi, y in self.groups:
            j = 1 + np.flatnonzero((self.cell[idx[1:]] == self.cell[idx[:-1]])
                                   & (xi[1:, 0] == -xi[:-1, -1]))
            j = j[np.all(xi[j] == -xi[j - 1, ::-1], axis=1)
                  & np.all(y[j] == -y[j - 1, ::-1], axis=1)]
            new = np.diff(j, prepend=-2) > 1            # row j mirrors row j - 1
            j = j[(j - j[new][np.cumsum(new) - 1]) % 2 == 0]
            mirror[idx[j]], mirror[idx[j - 1]] = idx[j - 1], idx[j]
        rows, cols = rows[same], cols[same]       # a mirror pair is same-cell too
        mi, ml = mirror[rows], mirror[cols]
        key, at_key = rows * self.size + cols, mi * self.size + ml
        cand = np.flatnonzero((mi >= 0) & (mi <= ml) & (at_key < key))
        at = np.searchsorted(key, at_key[cand])
        found = key[at] == at_key[cand]
        return np.stack([same[cand[found]], same[at[found]]])

    @cached_property
    def dtype(self) -> type:
        """complex, or float when no path has an in-plane excursion (a basis of
        point charges): every phase e^{i k y} is then 1, so the operator,
        the source column and the screened solve are real."""
        return complex if any(y.any() for _, _, y in self.groups) else float

    @cached_property
    def layout(self) -> _SolveLayout:
        """Layout of the block solves at every wavenumber, built once."""
        return _solve_layout(self.x_cells, self.cell, self.plan.band,
                             self.plan.rows, self.plan.cols, 1)


def build_loop_basis(profile: DensityProfile, width: float, nx: int,
                     n_paths: int, n_steps: int, seed: int) -> LoopBasis:
    """Assemble the basis of the slab [-width, 0] on nx midpoint cells, filled
    with the profile's plasma; its inner face x = 0 holds the border charge.

    Each (cell, species, p) set carries n_paths pinned bridges in antithetic
    pairs (Hammersley & Morton 1956): path 2m is drawn, path 2m + 1 is
    exactly minus path 2m; with an odd n_paths the last path is drawn too.
    The drawn paths of charge number p are, in entry order, those of one
    loops.sample_bridge_ensemble(p, n_steps, [seed, p], count).  A species
    with lambda_ = 0 is a point charge, its wire collapsed onto its
    position, so it draws nothing.  The path nodes are kept stacked per
    charge number and sorted by xi.  The pair plan and the solve layout of
    the k-sweep are built on first use.
    """
    if n_steps < 2:
        raise ParameterError(f"need n_steps >= 2, got {n_steps!r}")
    x_cells, h = _slab_cells(width, nx)
    entry = np.tile(np.repeat(np.arange(len(profile.cells)), n_paths), nx)
    columns = zip(*((c.species.charge, c.p, c.loop_density, c.species.lambda_)
                    for c in profile.cells))
    charge, pnum, density, lam = (np.array(col)[entry] for col in columns)
    group, slot = np.empty(entry.size, dtype=int), np.empty(entry.size, dtype=int)
    groups = []
    for g, p in enumerate(sorted(set(pnum.tolist()))):
        idx = np.nonzero(pnum == p)[0]
        path = np.zeros((idx.size, p * n_steps + 1, 3))    # a point charge's nodes are 0
        wire, odd = lam[idx] > 0.0, idx % n_paths % 2 == 1
        drawn = np.nonzero(wire & ~odd)[0]
        if drawn.size:
            path[drawn] = loops.sample_bridge_ensemble(p, n_steps, [seed, p], drawn.size)
        mirror = np.nonzero(wire & odd)[0]      # its partner, path 2m, is the row before
        path[mirror] = -path[mirror - 1]
        xi, y = (lam[idx, None] * path[:, :-1, axis] for axis in (0, 1))
        order = np.argsort(xi, axis=1, kind="stable")
        xi, y = (np.take_along_axis(a, order, axis=1) for a in (xi, y))
        group[idx], slot[idx] = g, np.arange(idx.size)
        groups.append((idx, xi, y))
    return LoopBasis(x_cells=x_cells, cell=np.repeat(np.arange(nx), entry.size // nx),
                     groups=tuple(groups), group=group, slot=slot, h=h, ds=1.0 / n_steps,
                     charge=charge, pnum=pnum, measure=density * h / n_paths,
                     beta=profile.beta)


def _phase(k, y):
    """The phase e^{i k y} of in-plane node excursions y; 1.0 in float64 for a
    group without any (point charges), so a basis of such groups is real."""
    return np.exp(1j * k * y) if y.any() else np.ones_like(y)


def _wavenumber(k) -> float:
    if k <= 0.0:
        raise SingularArgumentError("kernel assembly needs k > 0")
    return float(k)


def _side_sums(basis: LoopBasis, k):
    """Per-path time sums of the transverse-Fourier wire kernel at wavenumber k.

    Returns (sums, nodes): sums[:, n] = ds sum_s a(s) (1, expm1(-k xi(s)),
    expm1(k xi(s))) with the row phase a = e^{i k y} (_phase), and per group
    nodes[g] = (a, expm1(-k xi), expm1(k xi)).  Column sums are the complex
    conjugates.  Exponents are taken relative to each path's own position,
    so nothing overflows at large k times the slab width.
    """
    sums = np.empty((3, basis.size), dtype=basis.dtype)
    nodes = []
    for idx, xi, y in basis.groups:
        a = _phase(k, y)
        em, ep = np.expm1(-k * xi), np.expm1(k * xi)
        sums[0, idx] = basis.ds * np.sum(a, axis=1)
        sums[1, idx] = basis.ds * np.sum(a * em, axis=1)
        sums[2, idx] = basis.ds * np.sum(a * ep, axis=1)
        nodes.append((a, em, ep))
    return sums, nodes


def _straddling_entries(plan, basis: LoopBasis, nodes, k, cell):
    """Exact double time sums of the plan's straddling pairs: on each run of
    column nodes the kernel is a row-node factor times a column-node factor,
    so a run contributes a difference of the prefix sums U, D and B over t of
    b e^{k xi}, b e^{-k xi} and b (expm1(k xi) + expm1(-k xi)), b the column
    phase, read at its ends (_straddling_runs); a transpose is its partner's
    conjugate."""
    vals, half = np.empty(plan.straddling.size, dtype=basis.dtype), 0.5 * basis.h

    def terms(gc):
        a_c, em_c, ep_c = nodes[gc]
        b = np.conj(a_c)
        return np.stack([b + b * ep_c, b + b * em_c, b * (ep_c + em_c)])

    for gr, batch, s, gap, (u_a, d_a, b_a), (u_b, d_b, b_b), (_, d_e, _) in \
            _straddling_runs(basis, plan, terms):
        decay = np.exp(-k * gap)
        with np.errstate(divide="ignore"):       # inf where e^{k gap} overflows
            rise = cell / decay                  # cell e^{k gap}
        # inside run: U and D times expm1 at the lower and upper face, plus B, over k
        inner = ((u_b - u_a) * np.expm1(-k * (gap + half))
                 + (d_b - d_a) * np.expm1(-k * (half - gap)) + (b_b - b_a)) / k
        # above run: cell e^{-k gap} U; below run: cell e^{k gap} D
        total = (u_a * (decay * cell) + (d_e - d_b) * rise - inner) * nodes[gr][0][s]
        vals[batch] = basis.ds * basis.ds * np.sum(total, axis=1)
    vals[plan.twin[0]] = np.conj(vals[plan.twin[1]])
    vals[vals.size - plan.partner.size:] = np.conj(vals[plan.partner])
    return vals


@dataclass(frozen=True)
class _SolveLayout:
    """k-independent layout of KernelOperator.solve's extended system, one per
    basis and far-field rank: shape (nb, 3, b, b) holds each superblock's
    lower, diagonal and upper block, at each unknown's row in them (block * b
    + slot), flat the position of each value of _extended_values (none twice:
    the identity is folded into the diagonal entries diag), pad the unit
    diagonal that pads short blocks, up (dn) the slots of the next (previous)
    block that an upper (lower) block reads, and below (above) the unknowns
    coupled to the running sums of the cell before (after) theirs."""

    shape: tuple
    at: np.ndarray
    flat: np.ndarray
    diag: np.ndarray
    pad: np.ndarray
    up: np.ndarray
    dn: np.ndarray
    below: np.ndarray
    above: np.ndarray


def _extended_pairs(n_cells, cell, rows, cols, rank):
    """(rows, cols) of the extended system (Phi, sigma, tau), rank running sums
    of each kind per cell, in the order of KernelOperator._extended_values, and
    the unknowns below and above."""
    n, m = cell.size, n_cells
    phi = np.broadcast_to(np.arange(n), (rank, n))
    sig = n + np.arange(rank * m).reshape(rank, m)
    tau = sig + rank * m
    lo, hi = cell - 1, cell + 1
    below, above = np.nonzero(lo >= 0)[0], np.nonzero(hi < m)[0]
    return (np.concatenate([rows, np.tile(below, rank), np.tile(above, rank),
                            np.hstack([sig, sig[:, 1:], sig[:, cell]]).ravel(),
                            np.hstack([tau, tau[:, :-1], tau[:, cell]]).ravel()]),
            np.concatenate([cols, sig[:, lo[below]].ravel(), tau[:, hi[above]].ravel(),
                            np.hstack([sig, sig[:, :-1], phi]).ravel(),
                            np.hstack([tau, tau[:, 1:], phi]).ravel()]), below, above)


def _solve_layout(x_cells, cell, band, rows, cols, rank) -> _SolveLayout:
    """Layout of the block solve of an operator whose unknowns lie in the
    cells cell, whose entries (rows, cols) lie at most band cells apart, the
    diagonal among them, and whose far field has rank terms: per cell [Phi_c,
    sigma_c, tau_c], in superblocks of at least band + 1 cells and _BLOCK_MIN
    unknowns; short blocks are padded by I."""
    n, m, extra = cell.size, x_cells.size, 2 * rank
    ext_rows, ext_cols, below, above = _extended_pairs(m, cell, rows, cols, rank)
    end = np.cumsum(np.bincount(cell, minlength=m) + extra)
    per = min(m, max(band + 1, -(-_BLOCK_MIN * m // end[-1])))
    edge = np.append(0, end)[np.append(np.arange(0, m, per), m)]
    block = np.concatenate([cell, np.tile(np.arange(m), extra)]) // per
    at = np.concatenate([np.arange(n) + extra * cell,
                         (end - extra + np.arange(extra)[:, None]).ravel()]) - edge[block]
    nb, b = edge.size - 1, int(np.max(np.diff(edge)))
    side = block[ext_cols] - block[ext_rows]      # -1, 0, 1: lower, diagonal, upper block
    j, slot = np.nonzero(np.arange(b) >= np.diff(edge)[:, None])
    up, dn = (np.flatnonzero(np.bincount(at[ext_cols[side == d]], minlength=b))
              for d in (1, -1))
    return _SolveLayout(
        shape=(nb, 3, b, b), at=at + block * b, diag=np.nonzero(rows == cols)[0],
        flat=((3 * block[ext_rows] + side + 1) * b + at[ext_rows]) * b + at[ext_cols],
        pad=((3 * j + 1) * b + slot) * b + slot, up=up, dn=dn, below=below, above=above)


@dataclass(frozen=True)
class KernelOperator:
    """T of (I + T) Phi = V in cell order: sparse entries plus a semiseparable
    far field of rank r (Eidelman & Gohberg, Integr. Equ. Oper. Theory 34,
    1999).  Unknown i lies at X_i = x_cells[cell[i]] (ascending); with far =
    (u, v, s, t) of shape (r, n), the far field is sum_q u_qi v_ql e^{-k(X_i -
    X_l)} on every pair with X_i > X_l, sum_q s_qi t_ql e^{-k(X_l - X_i)} on
    every pair with X_i < X_l and 0 within a cell: rank 1 at k > 0, rank 2
    for the k = 0 order, where the decay is 1.  entries = (rows, cols,
    values) is T minus the far field on the pairs where they differ.  layout:
    _solve_layout of cell, the entries' pairs and r, shared by every operator
    of one basis and rank."""

    k: float
    x_cells: np.ndarray
    cell: np.ndarray
    entries: tuple
    far: tuple
    layout: _SolveLayout

    def _extended_values(self) -> np.ndarray:
        """Values of solve's extended system in the order of _extended_pairs,
        I + T on Phi and the running sums' recursions on sigma and tau."""
        (u, v, s, t), lay, k = self.far, self.layout, self.k
        decay = np.exp(-k * np.diff(self.x_cells)) * np.ones((len(u), 1))
        ones = np.ones((len(u), self.x_cells.size))
        below, above = self.cell[lay.below], self.cell[lay.above]
        vals = np.concatenate([self.entries[2],
                               (u[:, lay.below] * decay[:, below - 1]).ravel(),
                               (s[:, lay.above] * decay[:, above]).ravel(),
                               np.hstack([ones, -decay, -v]).ravel(),
                               np.hstack([ones, -decay, -t]).ravel()])
        vals[lay.diag] += 1.0
        return vals

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I + T) Phi = rhs, one column or several, on the system
        extended by running sums per cell, sigma_c = e^{-k(X_c - X_{c-1})}
        sigma_{c-1} + sum_{l in c} v_l Phi_l and its mirror tau_c over t (one
        of each per far-field term): row i reads both one cell away.  Ordered
        per cell as [Phi_c, sigma_c, tau_c] in the layout's superblocks, it is
        block tridiagonal: block LU (Golub & Van Loan 4.5.1), LAPACK's partial
        pivoting inside each diagonal block, in real arithmetic when the
        operator and rhs are real.  NaN for an overflowed operator."""
        return self._extended_solve(rhs)[:self.cell.size]

    def _extended_solve(self, rhs: np.ndarray) -> np.ndarray:
        """solve's Phi, sigma and tau (the rhs of the sigma and tau rows is 0):
        the values written into the layout's blocks, then eliminated."""
        lay, vals, n = self.layout, self._extended_values(), self.cell.size
        nan = np.full((lay.at.size,) + rhs.shape[1:], np.nan, np.result_type(vals, rhs))
        if not np.all(np.isfinite(vals)):
            return nan
        (nb, _, b, _), up, dn = lay.shape, lay.up, lay.dn
        a = np.zeros(lay.shape, nan.dtype)
        a.reshape(-1)[lay.flat] = vals
        a.reshape(-1)[lay.pad] = 1.0
        work = np.concatenate([a[:, 2][:, :, up], np.zeros((nb, b, nan[0].size), a.dtype)], 2)
        work.reshape(nb * b, -1)[lay.at[:n], up.size:] = rhs.reshape(n, -1)
        try:
            for j in range(nb):       # forward: [U_j | y_j] -> D_j'^{-1} [U_j | y_j]
                if j:
                    step = a[j, 0][:, dn] @ work[j - 1, dn]
                    a[j, 1][:, up] -= step[:, :up.size]
                    work[j, :, up.size:] -= step[:, up.size:]
                work[j] = np.linalg.solve(a[j, 1], work[j])
        except np.linalg.LinAlgError as exc:
            if np.max(np.abs(vals)) * np.finfo(float).eps < 1.0:
                raise SolverError(f"screened solve failed: {exc}") from exc
            return nan    # entries dwarf the identity beyond rounding
        for j in range(nb - 2, -1, -1):
            work[j, :, up.size:] -= work[j, :, :up.size] @ work[j + 1, up, up.size:]
        return work.reshape(nb * b, -1)[lay.at, up.size:].reshape(nan.shape)


def assemble_kernel_matrix(basis: LoopBasis, k) -> KernelOperator:
    """Operator of the discretized screened equation at wavevector (k, 0),
    T[i, l] = beta e_l^2 rho_l / n_paths * int_cell dx' V^el(i, (x', chi_l), k).
    A cross-cell pair whose separation w = x_i + lam_i X_i(s) - lam_l X_l(t)
    stays above or below the source cell is row(-/+) col(+/-) e^{-k|x_i -
    x_l|} times the cell factor: the far field, u = P + R-, v = (Q + C+) w,
    s = P + R+, t = (Q + C-) w (sums of _side_sums and their conjugates), w
    the cell factor times 2 pi / k times matrix_weight.  A pair inside the
    source cell (same-cell) is (2 P_i Q_l - e^{-k(x_i - lo)} row- col+ -
    e^{-k(hi - x_i)} row+ col-) / k in expm1 sums; one straddling a face is
    the exact double time sum, less the far field if cross-cell."""
    k = _wavenumber(k)
    plan, half = basis.plan, 0.5 * basis.h
    sums, nodes = _side_sums(basis, k)
    (p, rm, rp), (q, cm, cp) = sums, np.conj(sums)
    cell = 2.0 * np.sinh(k * half) / k
    u, s, qp, qm = p + rm, p + rp, q + cp, q + cm    # the far field's factors
    vals = np.empty(plan.rows.size, dtype=sums.dtype)
    i, l = plan.rows[plan.inside], plan.cols[plan.inside]
    gap_lo = basis.x[i] - (basis.x[l] - half)
    gap_hi = (basis.x[l] + half) - basis.x[i]
    vals[plan.inside] = (
        -(np.expm1(-k * gap_lo) + np.expm1(-k * gap_hi)) * p[i] * q[l]
        - np.exp(-k * gap_lo) * (p[i] * cp[l] + rm[i] * qp[l])
        - np.exp(-k * gap_hi) * (p[i] * cm[l] + rp[i] * qm[l])) / k
    vals[plan.straddling] = _straddling_entries(plan, basis, nodes, k, cell)
    weight = (2.0 * np.pi / k) * basis.matrix_weight
    w = cell * weight
    return KernelOperator(k=k, x_cells=basis.x_cells, cell=basis.cell,
                          entries=(plan.rows, plan.cols, vals * weight[plan.cols]),
                          far=(u[None], (qp * w)[None], s[None], (qm * w)[None]),
                          layout=basis.layout)


def source_column(basis: LoopBasis, x_src, k) -> np.ndarray:
    """Right-hand-side column V^el(i, x_src, k) of a unit point charge at the
    slab-normal position x_src (e.g. the border charge at x = 0), or one column
    per position of a 1-D array x_src: the pointwise wire kernel as a direct
    node sum, ds_i sum_s a_i(s) e^{-k |x_i + xi_i(s) - x_src|} times 2 pi / k."""
    k, x_src = _wavenumber(k), np.asarray(x_src, dtype=float)
    out = np.empty((basis.size, x_src.size), dtype=basis.dtype)
    for idx, xi, y in basis.groups:
        node, a = (basis.x[idx, None] + xi)[:, None], _phase(k, y)[:, None]
        step = max(1, _BATCH // xi.size)
        for j in range(0, x_src.size, step):
            w = node - x_src.reshape(-1, 1)[j:j + step]
            out[idx, j:j + step] = basis.ds * np.sum(a * np.exp(-k * np.abs(w)), axis=2)
    return (2.0 * np.pi / k) * out.reshape((basis.size,) + x_src.shape)


def _moments(basis: LoopBasis) -> np.ndarray:
    """Per-path node sums ds sum_s (1, xi, xi^2, y): P (the charge number p),
    Xi, Q and Y, one row each."""
    out = np.empty((4, basis.size))
    for idx, xi, y in basis.groups:
        out[0, idx] = basis.ds * xi.shape[1]
        out[1:, idx] = basis.ds * np.stack([xi.sum(axis=1), (xi * xi).sum(axis=1),
                                            y.sum(axis=1)])
    return out


def _straddling_k0(plan, basis: LoopBasis):
    """The k^0 order of _straddling_entries: sum_{s,t} ds^2 J(gap - xi(t)) of
    each straddling pair, J(z) = h |z| beyond the cell and z^2 + h^2/4 inside
    it.  Per row node the three runs of column nodes read the prefix sums C0,
    C1, C2 over t of ds, ds xi and ds xi^2 at their ends: h (gap C0 - C1) on
    the above run, (gap^2 + h^2/4) C0 - 2 gap C1 + C2 on the inside run and
    h (C1 - gap C0) on the below run; real, no exp.  J is even: a transpose
    is its partner's sum."""
    vals, h = np.empty(plan.straddling.size), basis.h

    def terms(gc):
        xi = basis.groups[gc][1]
        return basis.ds * np.stack([np.ones_like(xi), xi, xi * xi])

    for _, batch, _, gap, (a0, a1, a2), (b0, b1, b2), (e0, e1, _) in \
            _straddling_runs(basis, plan, terms):
        total = h * (gap * (a0 + b0 - e0) + e1 - a1 - b1)
        total += (gap * gap + 0.25 * h * h) * (b0 - a0) - 2.0 * gap * (b1 - a1)
        total += b2 - a2
        vals[batch] = basis.ds * np.sum(total, axis=1)
    vals[plan.twin[0]] = vals[plan.twin[1]]
    vals[vals.size - plan.partner.size:] = vals[plan.partner]
    return vals


def _k0_operator(basis: LoopBasis, moments) -> KernelOperator:
    """Real part of T_0 in T(k) = T_{-1}/k + T_0 + O(k): with e^{-k|z|}/k ->
    1/k - |z| and the phase's first order, T_0[i, l] = 2 pi w_l sum_{s,t} ds^2
    [i h (y_i(s) - y_l(t)) - J(z)], z = x_i + xi_i(s) - xi_l(t) - x_l, w the
    matrix_weight and J as in _straddling_k0.  A same-cell pair inside its
    cell sums J in moments P, Xi, Q; a cross-cell pair wholly above or below
    its source cell is Re T_0[i, l] = -2 pi h w_l sgn(X_i - X_l) (P_l alpha_i
    - P_i alpha_l), alpha = P x + Xi: a rank-2 far field of decay 1, its terms
    made dimensionless (alpha / L, h L w, L = max(h, spread)) so that a length
    scaling by a power of two leaves the solve's pivots alone and h^2 w does
    not underflow on a thin slab."""
    plan, h, x = basis.plan, basis.h, basis.x
    p, xi_sum, q = moments[:3]
    vals = np.empty(plan.rows.size)
    i, l = plan.rows[plan.inside], plan.cols[plan.inside]
    vals[plan.inside] = (p[i] * p[l] * (0.25 * h * h) + p[l] * q[i] + p[i] * q[l]
                         - 2.0 * xi_sum[i] * xi_sum[l])
    vals[plan.straddling] = _straddling_k0(plan, basis)
    weight, scale = -2.0 * np.pi * basis.matrix_weight, max(h, basis.spread)
    u = np.stack([(p * x + xi_sum) / scale, p])     # alpha / L and P: no length unit
    v = 2.0 * np.pi * h * scale * basis.matrix_weight * np.stack([-p, u[0]])
    return KernelOperator(k=0.0, x_cells=basis.x_cells, cell=basis.cell,
                          entries=(plan.rows, plan.cols, vals * weight[plan.cols]),
                          far=(u, v, u, -v),
                          layout=_solve_layout(basis.x_cells, basis.cell, plan.band,
                                               plan.rows, plan.cols, 2))


def _source_k0(basis: LoopBasis, x_src: float) -> np.ndarray:
    """Real part of V_0 in V(k) = V_{-1}/k + V_0 + O(k) for the unit point
    charge at x_src: -2 pi ds_i sum_s |x_i + xi_i(s) - x_src| (its imaginary
    part 2 pi Y cancels in the bordered solve)."""
    out = np.empty(basis.size)
    for idx, xi, _ in basis.groups:
        out[idx] = basis.ds * np.sum(np.abs(basis.x[idx, None] + xi - x_src), axis=1)
    return -2.0 * np.pi * out


# ----------------------------------------------------------------------------
# two slabs and the homogeneous reference
# ----------------------------------------------------------------------------

def _joined(basis: LoopBasis, d: float) -> LoopBasis:
    """The basis's slab [-width, 0] joined with its copy moved by width + d to
    [d, d + width], in cell order: the copy reuses every draw, its path
    groups appended per charge number with slots offset by the group sizes."""
    n, nx, sizes = basis.size, basis.x_cells.size, [g[0].size for g in basis.groups]
    both = {name: np.tile(getattr(basis, name), 2) for name in ("charge", "pnum", "measure")}
    return replace(basis, **both, group=np.tile(basis.group, 2),
                   x_cells=np.append(basis.x_cells, basis.x_cells + (nx * basis.h + d)),
                   cell=np.append(basis.cell, basis.cell + nx),
                   slot=np.append(basis.slot, basis.slot + np.take(sizes, basis.group)),
                   groups=tuple((np.append(idx, idx + n), np.vstack([xi, xi]),
                                 np.vstack([y, y])) for idx, xi, y in basis.groups))


def coupled_two_slab_solve(basis: LoopBasis, d: float, k) -> np.ndarray:
    """Screened solve at in-plane wavenumber k of two equal slabs: the basis's
    slab [-width, 0] and its copy [d, d + width], which reuses the near slab's
    draws (the same paths, moved by width + d).  Returns Phi_AB[i, j], near-slab
    entry i against a unit point charge at the center of far-slab cell j."""
    if not 0.0 < d < math.inf:
        raise ParameterError(f"separation d must be positive and finite, got {d!r}")
    both, nx = _joined(basis, d), basis.x_cells.size
    rhs = source_column(both, both.x_cells[nx:], k)
    return assemble_kernel_matrix(both, k).solve(rhs)[:basis.size]


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
    makes it -1), and so is the solution column ("phi", with the largest
    "phi_correction" of its entries): the oracle of perfect_screening_k0.
    """
    w = basis.pnum * basis.charge**2 * basis.measure
    vals, phis = [], []
    for k in k_sequence:
        phis.append(assemble_kernel_matrix(basis, k).solve(source_column(basis, x_src, k)))
        vals.append(complex(-basis.beta * np.sum(w * phis[-1])))
    bracket = complex(richardson_extrapolate(vals)[0])
    phi, phi_correction = richardson_extrapolate(phis)
    return {
        "bracket": bracket,
        "residual_rel": abs(bracket + 1.0),
        "per_k": vals,
        "phi": phi,
        "phi_correction": phi_correction,
    }


def perfect_screening_k0(basis: LoopBasis, x_src: float) -> dict:
    """The perfect-screening rule at k = 0 by one bordered solve, with no
    k-sweep: T(k) = T_{-1}/k + T_0 + O(k) has the rank-1 pole T_{-1} = 2 pi P
    m^T, m = h w P (P the charge numbers, w the matrix_weight), and V_{-1} = 2
    pi P, so a bounded Phi = Phi_0 + k Phi_1 obeys m.Phi_0 = 1 and (I + T_0)
    Phi_0 + 2 pi P mu = V_0, mu = m.Phi_1 (Keller 1977).  The phases cancel
    in Phi_0, so the solve is real: X = (I + Re T_0)^{-1} [Re V_0, 2 pi P] by
    one two-column block solve, mu' = (m.X_0 - 1) / m.X_1, Phi_0 = X_0 - mu'
    X_1 and mu = mu' + i h sum_l w_l Y_l Phi_0_l.

    Returns the real column "phi" (Phi_0), the "bracket" of the border
    charge at x_src, computed as check_perfect_screening does from phi and
    not from m, its "residual_rel" |bracket + 1|, and "mu": the bracket at
    small k is -1 - mu k + O(k^2).  SolverError when m.X_1 is lost in
    rounding (no screening medium); NaN throughout for an overflowed
    operator, or one whose entries dwarf the identity beyond rounding."""
    moments = _moments(basis)
    hw = basis.h * basis.matrix_weight
    m = hw * moments[0]
    op = _k0_operator(basis, moments)
    x0, x1 = op.solve(np.column_stack([_source_k0(basis, x_src),
                                       2.0 * np.pi * moments[0]])).T
    pivot = m @ x1
    if abs(pivot) <= 1e-8 * (np.abs(m) @ np.abs(x1)):     # half its digits lost
        if np.max(np.abs(op.entries[2])) * np.finfo(float).eps < 1.0:
            raise SolverError(f"bordered k = 0 solve: border pivot {pivot!r} is lost "
                              "in rounding")
        pivot = np.nan      # as in solve: entries dwarf the identity beyond rounding
    mu = (m @ x0 - 1.0) / pivot
    phi = x0 - mu * x1
    w = basis.pnum * basis.charge**2 * basis.measure
    bracket = float(-basis.beta * np.sum(w * phi))
    return {"phi": phi, "bracket": bracket, "residual_rel": abs(bracket + 1.0),
            "mu": complex(mu, (hw * moments[3]) @ phi)}


def bulk_sum_rule_oracle(kappa, k_sequence):
    """Gauss-Legendre quadrature of the analytic homogeneous screened kernel
    against the screening weight on 20 panels of [-40/kappa, 40/kappa] (the
    kink at x = 0 on a panel edge), extrapolated to k = 0, where it is 1:
    the "residual_rel" |limit - 1| and the "per_k" values."""
    edges = np.linspace(-40.0 / kappa, 40.0 / kappa, 21)
    vals = [float(gauss_panels(lambda x: (kappa**2 / (4.0 * np.pi))
                               * bulk_phi_analytic(x, 0.0, k, kappa), edges).sum())
            for k in k_sequence]
    limit = float(np.real(richardson_extrapolate(vals)[0]))
    return {"residual_rel": abs(limit - 1.0), "per_k": vals}


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
