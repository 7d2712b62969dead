import copy
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from thermocasimir import loops as lo
from thermocasimir import potentials as pot
from thermocasimir import screening as scr
from thermocasimir.config import load_config
from thermocasimir.errors import ParameterError, SingularArgumentError, SolverError
from thermocasimir.pipeline import _point_basis, _screened_column, run_pipeline


def _kseq(kappa, k0_factor=0.2, n=6):
    return [k0_factor * kappa / 2.0**i for i in range(n)]


# ------------------------------------------------------- geometry, densities

def test_loop_basis_cells_and_input_checks(point_profile):
    # the slab [-w, 0] on nx midpoint cells; its inner face x = 0 is the border
    w, nx = 5.0, 8
    basis = scr.build_loop_basis(point_profile, w, nx, n_paths=1, n_steps=4,
                                 seed=0)
    assert np.array_equal(basis.x_cells, -w + (w / nx) * (np.arange(nx) + 0.5))
    assert basis.h == w / nx
    assert basis.x_cells[0] == pytest.approx(-4.6875)
    assert basis.x_cells[-1] == pytest.approx(-0.3125)
    for width, cells in ((0.0, nx), (-1.0, nx), (np.inf, nx), (np.nan, nx),
                         (w, 1), (w, 0)):
        with pytest.raises(ParameterError):
            scr.build_loop_basis(point_profile, width, cells, n_paths=1,
                                 n_steps=4, seed=0)


def _recorded_basis(monkeypatch, profile, n_paths, n_steps, seed):
    """The basis of the profile on the slab [-2, 0] at nx 3, and the
    substreams it drew, recorded by wrapping np.random.default_rng."""
    drawn, default_rng = [], np.random.default_rng

    def recording(stream):
        drawn.append(list(stream))
        return default_rng(stream)

    monkeypatch.setattr(np.random, "default_rng", recording)
    basis = scr.build_loop_basis(profile, 2.0, 3, n_paths=n_paths, n_steps=n_steps,
                                 seed=seed)
    monkeypatch.undo()
    return basis, sorted(drawn)


def test_basis_draws_paths_only_for_wires(thermo, species_pair, monkeypatch):
    # a point species (lambda_ = 0) between two wire species: only the wire
    # entries of even path index draw increments, one stream [seed, p] per
    # charge number, so their nodes are those of a basis without the point
    # charges in between; each odd path is the mirror image of the one before
    plus, minus = species_pair
    point = lo.SpeciesParams("point", 1.0, 1.0)
    cells = (scr.SpeciesDensity(plus, 1, 0.1), scr.SpeciesDensity(point, 1, 0.1),
             scr.SpeciesDensity(minus, 2, 0.1))
    basis, drawn = _recorded_basis(monkeypatch, scr.DensityProfile(1.0, cells), 2, 4, 7)
    wires = np.nonzero(np.tile(np.repeat([True, False, True], 2), 3))[0]
    assert drawn == [[7, 1], [7, 2]]
    for i in range(basis.size):
        loop = _entry_loop(basis, i, cells, 4, 7)
        _, xi, y = basis.groups[basis.group[i]]
        if i not in wires:
            assert loop.species is point
            assert not np.any(xi[basis.slot[i]]) and not np.any(y[basis.slot[i]])
    bare = scr.build_loop_basis(scr.DensityProfile(1.0, cells[::2]), 2.0, 3,
                                n_paths=2, n_steps=4, seed=7)
    for (idx, xi, y), (_, xi_bare, y_bare) in zip(basis.groups, bare.groups):
        wire = np.isin(idx, wires)
        assert np.array_equal(xi[wire], xi_bare) and np.array_equal(y[wire], y_bare)
    # a charge number with no wire draws no stream
    _, drawn = _recorded_basis(monkeypatch, scr.DensityProfile(1.0, cells[1:]), 2, 4, 7)
    assert drawn == [[7, 2]]
    with pytest.raises(ParameterError):
        scr.build_loop_basis(scr.DensityProfile(1.0, cells[1:2]), 2.0, 3,
                             n_paths=1, n_steps=1, seed=0)


def _drawn_rows(cells, n_paths, idx):
    """Of the entries idx of one charge number, the wire entries of even path
    index, in entry order: row r of the stream [seed, p] is the r-th."""
    wire = np.array([cells[(i // n_paths) % len(cells)].species.lambda_ > 0.0
                     for i in idx], dtype=bool)
    return np.nonzero(wire & (idx % n_paths % 2 == 0))[0]


def _assert_one_shot_nodes(basis, cells, n_paths, n_steps, seed, pin):
    """Every drawn entry's nodes against the out-of-place pinning pin of its
    row of the stream [seed, p] of its charge number p, a mirrored entry's
    against the negation of its partner's (entry i - 1), a point charge's
    against zeros."""
    for idx, xi, y in basis.groups:
        p = int(basis.pnum[idx[0]])
        n = p * n_steps
        rows, mirror = _drawn_rows(cells, n_paths, idx), idx % n_paths % 2 == 1
        dw = np.random.default_rng([seed, p]).normal(0.0, np.sqrt(p / n),
                                                    (rows.size, n, 3))
        lam = np.array([cells[(i // n_paths) % len(cells)].species.lambda_
                        for i in idx])[:, None]
        path = np.zeros((idx.size, n + 1, 3))
        path[rows] = pin(dw)
        path = path[:, :-1]
        path[mirror] = -path[np.nonzero(mirror)[0] - 1]
        order = np.argsort(lam * path[..., 0], axis=1, kind="stable")
        for got, axis in ((xi, 0), (y, 1)):
            want = np.take_along_axis(lam * path[..., axis], order, axis=1)
            assert np.array_equal(got, want)
        # within each sorted path, the mirror image reverses the node order
        partner = np.nonzero(mirror)[0] - 1
        assert np.array_equal(xi[mirror], -xi[partner][:, ::-1])
        assert np.array_equal(y[mirror], -y[partner][:, ::-1])


def test_basis_nodes_are_the_one_shot_pinned_draws(species_pair, pinned_reference):
    # a charge number's bridges are one draw of its stream [seed, p], pinned
    # together; each drawn entry's nodes are its row of that draw, each
    # mirrored entry's the exact negation of its partner's
    plus, minus = species_pair
    cells = (scr.SpeciesDensity(plus, 1, 0.1), scr.SpeciesDensity(minus, 2, 0.1))
    basis = scr.build_loop_basis(scr.DensityProfile(1.0, cells), 2.0, 3,
                                 n_paths=2, n_steps=6, seed=13)
    assert sorted(set(basis.pnum.tolist())) == [1, 2]
    _assert_one_shot_nodes(basis, cells, 2, 6, 13, pinned_reference)


def test_odd_path_count_draws_its_last_path(species_pair, pinned_reference, monkeypatch):
    # three paths per set: paths 0 and 2 are drawn, path 1 mirrors path 0
    cells = tuple(scr.SpeciesDensity(sp, 1, 0.1) for sp in species_pair)
    basis, drawn = _recorded_basis(monkeypatch, scr.DensityProfile(1.0, cells), 3, 6, 13)
    assert drawn == [[13, 1]]
    assert np.array_equal(basis.groups[0][0][_drawn_rows(cells, 3, basis.groups[0][0])],
                          [i for i in range(basis.size) if i % 3 != 1])
    _assert_one_shot_nodes(basis, cells, 3, 6, 13, pinned_reference)
    for i in range(basis.size):
        _entry_loop(basis, i, cells, 6, 13)


def test_single_path_report_is_the_unpaired_one(pinned_reference):
    # with one path per (cell, species, p) set nothing is mirrored: every
    # wire entry is its row of its charge number's stream, and the report is
    # pinned (sha256 of the sorted-key JSON report of TWO_SPECIES at one
    # path, probe off; the pin follows the report's schema and the draws)
    from test_acceptance import TWO_SPECIES
    cfg = copy.deepcopy(TWO_SPECIES)
    cfg["numerics"]["n_paths_kernel"] = 1
    config = load_config(cfg)
    n_steps = config.numerics["n_steps_kernel"]
    basis = scr.build_loop_basis(config.profile, config.a, config.numerics["nx"], 1,
                                 n_steps, config.seed)
    _assert_one_shot_nodes(basis, config.profile.cells, 1, n_steps, config.seed,
                           pinned_reference)
    report = run_pipeline(config, magnetic_check=False)["report"]
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == (
        "b5e748226cbe3c91e3ffc3f13a51c9daf62f1a4a0e20dbb12b0f7ca23e6084b6")


def test_density_profile_neutrality_and_kappa(thermo, species_pair):
    plus, minus = species_pair
    rho = 1.0 / (8.0 * np.pi)
    cells = (scr.SpeciesDensity(plus, 1, rho), scr.SpeciesDensity(minus, 1, rho))
    prof = scr.DensityProfile(beta=thermo.beta, cells=cells)
    assert prof.charge_density() == 0.0
    assert prof.kappa2() == pytest.approx(1.0)
    lopsided = scr.DensityProfile(beta=thermo.beta,
                                  cells=(scr.SpeciesDensity(plus, 1, rho),))
    assert lopsided.charge_density() == rho
    assert lopsided.kappa2() == pytest.approx(0.5)


# ------------------------------------------------------- kernel assembly

def _exp_cell_integral(u, c, h, k):
    """int over the cell [c-h/2, c+h/2] of e^{-k|u - x'|} dx', elementwise."""
    lo, hi = c - 0.5 * h, c + 0.5 * h
    inside = (u >= lo) & (u <= hi)
    safe = np.where(inside, u, c)
    inner = (2.0 - np.exp(-k * (safe - lo)) - np.exp(-k * (hi - safe))) / k
    outer = (2.0 * np.sinh(0.5 * k * h) / k) * np.exp(-k * np.abs(u - c))
    return np.where(inside, inner, outer)


def _oracle_pair_entry(loop_i, loop_l, h, kvec, k, far=False):
    """Exact double time sum of one cell-integrated wire-kernel entry, node
    pair by node pair; far: the far field's value instead, every node pair
    taken as if above (x_i > x_l) or below (x_i < x_l) the source cell."""
    lam_i = loop_i.species.lambda_
    lam_l = loop_l.species.lambda_
    u = loop_i.x + lam_i * loop_i.path[:-1, 0]
    off = lam_l * loop_l.path[:-1, 0]
    yi = loop_i.y[None, :] + lam_i * loop_i.path[:-1, 1:]
    yl = loop_l.y[None, :] + lam_l * loop_l.path[:-1, 1:]
    ph = np.exp(1j * (yi @ kvec))[:, None] * np.exp(-1j * (yl @ kvec))[None, :]
    core = _exp_cell_integral(u[:, None] - off[None, :], loop_l.x, h, k)
    if far:
        core = (2.0 * np.sinh(0.5 * k * h) / k) * np.exp(
            -k * np.sign(loop_i.x - loop_l.x) * (u[:, None] - off[None, :] - loop_l.x))
    return loop_i.ds * loop_l.ds * np.sum(ph * core)


def _oracle_pair_matrix(basis, loops, k):
    """The pair matrix at the wavevector (k, 0): the paths' in-plane
    excursions along it enter as phases."""
    kvec = np.array([k, 0.0])
    return (2.0 * np.pi / k) * np.array(
        [[_oracle_pair_entry(li, ll, basis.h, kvec, k)
          for ll in loops] for li in loops])


def _entry_loop(basis, i, cells, n_steps, seed):
    """The Loop of basis entry i, rebuilt from its profile entry (entries run
    over cell, profile entry, path) and its row of the stream [seed, p], or
    for an odd path the exact negation of the path before it; checked against
    the basis's charge, charge number and stacked node excursions."""
    n_paths = basis.size // (basis.x_cells.size * len(cells))
    entry = cells[(i // n_paths) % len(cells)]
    mirror = i % n_paths % 2
    idx = np.nonzero(basis.pnum == entry.p)[0]
    row = np.searchsorted(idx[_drawn_rows(cells, n_paths, idx)], i - mirror)
    path = lo.sample_bridge_ensemble(entry.p, n_steps, [seed, entry.p], row + 1)[row]
    loop = lo.Loop(basis.x[i], entry.species, entry.p, -path if mirror else path)
    assert (basis.charge[i], basis.pnum[i]) == (entry.species.charge, entry.p)
    lam = entry.species.lambda_
    order = np.argsort(lam * loop.path[:-1, 0], kind="stable")
    _, xi, y = basis.groups[basis.group[i]]
    assert np.array_equal(xi[basis.slot[i]], lam * loop.path[:-1, 0][order])
    # one in-plane coordinate per node, the one along the wavevector (k, 0)
    assert np.array_equal(y[basis.slot[i]], lam * loop.path[:-1, 1][order])
    return loop


def _mixed_basis(hbar, nx, n_steps=8):
    # two p = 1 species and one p = 2 species, so path groups of two lengths
    th = lo.ThermoState(beta=1.0, hbar=hbar, c=100.0)
    plus = lo.SpeciesParams.from_thermo("plus", +1.0, 1.0, th)
    minus = lo.SpeciesParams.from_thermo("minus", -1.0, 2.0, th)
    rho = 1.0 / (8.0 * np.pi)
    cells = (scr.SpeciesDensity(plus, 1, rho), scr.SpeciesDensity(minus, 1, rho),
             scr.SpeciesDensity(plus, 2, 0.1 * rho))
    prof = scr.DensityProfile(beta=th.beta, cells=cells)
    basis = scr.build_loop_basis(prof, 2.0, nx, n_paths=3, n_steps=n_steps, seed=9)
    return basis, [_entry_loop(basis, i, cells, n_steps, 9) for i in range(basis.size)]


# (0.25, 4) stores pairs of both classes; (0.6, 10) has wide paths in fine
# cells, so most near pairs straddle and none stays inside a cell; in both
# the far field carries the pairs not stored
@pytest.mark.parametrize("hbar, nx, classes", [
    (0.25, 4, ("inside", "straddling")),
    (0.6, 10, ("straddling",))])
@pytest.mark.parametrize("k", [0.2, 0.2 / 2**5])
def test_pair_matrix_matches_double_sum_oracle(hbar, nx, classes, k):
    basis, loops = _mixed_basis(hbar, nx)
    counts = {"inside": basis.plan.inside.size,
              "straddling": basis.plan.straddling.size}
    assert sum(counts.values()) < basis.size**2
    assert {name for name, n in counts.items() if n > 0} == set(classes)
    # the structured operator's dense expansion: band entries and the
    # far-field generator products
    got = _dense(scr.assemble_kernel_matrix(basis, k))
    ref = _oracle_pair_matrix(basis, loops, k) * basis.matrix_weight[None, :]
    assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))


def _all_pair_offsets(basis):
    """Cell offset (row minus column), above and below masks of every pair
    (i, l), classified by brute force over all n x n by the range of w =
    x_i + xi_i(s) - xi_l(t) against the source cell [x_l - h/2, x_l + h/2]."""
    xi_lo, xi_hi = np.empty(basis.size), np.empty(basis.size)
    for idx, x, _ in basis.groups:
        xi_lo[idx], xi_hi[idx] = x.min(axis=1), x.max(axis=1)
    x, half = basis.x, 0.5 * basis.h
    above = (x + xi_lo)[:, None] - xi_hi >= x + half
    below = (x + xi_hi)[:, None] - xi_lo <= x - half
    return basis.cell[:, None] - basis.cell, above, below


@pytest.mark.parametrize("hbar, nx", [(0.25, 4), (0.6, 10), (0.02, 12)])
def test_band_is_the_largest_near_pair_offset(hbar, nx):
    basis, _ = _mixed_basis(hbar, nx)
    offset, above, below = _all_pair_offsets(basis)
    plan, near = basis.plan, ~(above | below)
    assert plan.band == np.max(np.abs(offset[near]))
    # pinned paths: a same-cell pair is near, and a cross-cell pair that is
    # not lies on the side of its cell order, so it is the far field's value
    assert np.all(near[offset == 0])
    assert np.array_equal(above[~near], offset[~near] > 0)
    assert np.array_equal(below[~near], offset[~near] < 0)
    # the plan holds exactly the near pairs, each once
    got = np.zeros(near.shape, dtype=int)
    np.add.at(got, (plan.rows, plan.cols), 1)
    assert np.array_equal(got, near)
    assert near.sum() == plan.rows.size == plan.inside.size + plan.straddling.size


def _face_basis(n_steps):
    """The wide-path basis on nx 8 (h = 1/4) with every node rounded to a
    multiple of h/4, so that w meets the cell faces exactly: column nodes
    equal to x_i - x_l + xi_i(s) -/+ h/2."""
    basis, _ = _mixed_basis(0.6, 8, n_steps)
    quarter = basis.h / 4
    return dataclasses.replace(basis, groups=tuple(
        (idx, np.round(xi / quarter) * quarter, y) for idx, xi, y in basis.groups))


@pytest.mark.parametrize("n_steps", [8, 64])
def test_straddling_run_ends_are_the_exact_counts(n_steps):
    # read from prefix sums of ones (times 1, 2 and 4, one per table), each
    # run end is the brute-force count over the column nodes: < for the end of
    # the above run, <= for the end of the below run, ties included
    basis = _face_basis(n_steps)
    plan, half, ties, seen = basis.plan, 0.5 * basis.h, 0, []
    scale = np.array([1.0, 2.0, 4.0])[:, None, None]

    def terms(gc):
        return scale * np.ones_like(basis.groups[gc][1])

    for gr, batch, s, gap, at_above, at_below, at_end in scr._straddling_runs(
            basis, plan, terms):
        i, l = plan.rows[plan.straddling[batch]], plan.cols[plan.straddling[batch]]
        assert np.all(i <= l)             # the runs hold the canonical pairs only
        gc = basis.group[l[0]]
        assert np.all(basis.group[i] == gr) and np.all(basis.group[l] == gc)
        xi_r, xi_c = basis.groups[gr][1], basis.groups[gc][1]
        assert np.array_equal(s, basis.slot[i])
        assert np.array_equal(gap, (basis.x[i] - basis.x[l])[:, None] + xi_r[s])
        off, lo, hi = xi_c[basis.slot[l]][:, None, :], gap - half, gap + half
        assert np.array_equal(at_above, scale * np.sum(off < lo[:, :, None], axis=2))
        assert np.array_equal(at_below, scale * np.sum(off <= hi[:, :, None], axis=2))
        # the end of the below run only on a same-cell pair: the far field
        # carries a cross-cell pair's whole lower side
        same = (basis.cell[i] == basis.cell[l])[:, None]
        assert np.array_equal(at_end, scale * np.full((batch.size, 1), xi_c.shape[1]) * same)
        ties += np.sum(off == lo[:, :, None]) + np.sum(off == hi[:, :, None])
        seen.append(batch)
    assert ties > 0
    head = plan.straddling.size - plan.partner.size
    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(head))


@pytest.mark.parametrize("batch", [1, 384])
def test_straddling_entries_do_not_depend_on_the_batching(monkeypatch, batch):
    # 1: one straddling pair per batch; 384 row nodes: 48 or 24 pairs per
    # batch, by the row path groups' node counts (8 and 16), so batches end
    # mid-group; the k > 0 and the k^0 operator both stream the run ends
    basis, _ = _mixed_basis(0.6, 10)

    def batches():
        return sum(1 for _ in scr._straddling_runs(
            basis, basis.plan, lambda gc: np.zeros((3,) + basis.groups[gc][1].shape)))

    def entries():
        return (scr.assemble_kernel_matrix(basis, 0.05).entries[2],
                scr._k0_operator(basis, scr._moments(basis)).entries[2])

    ref, n_batches = entries(), batches()
    monkeypatch.setattr(scr, "_ROW_NODES", batch)
    assert batches() > n_batches
    for got, want in zip(entries(), ref):
        assert np.array_equal(got, want)


def test_pair_plan_memory_is_per_pair():
    # the plan holds, per pair, its row, column and class position, and a
    # partner per transposed straddling pair: 32 bytes at most, nothing per
    # row node (the straddling run ends are streamed per batch)
    basis, _ = _mixed_basis(0.6, 10)
    plan = basis.plan

    def nbytes(value):
        if isinstance(value, tuple):
            return sum(nbytes(v) for v in value)
        return value.nbytes if isinstance(value, np.ndarray) else 0

    assert plan.straddling.size == 4116
    assert nbytes(tuple(getattr(plan, f.name) for f in dataclasses.fields(plan))) \
        <= 32 * plan.rows.size


def _dense(op):
    """T of the operator as an n x n array: its entries added to the far
    field, which is zero on same-cell pairs."""
    u, v, s, t = op.far
    x, offset = op.x_cells[op.cell], op.cell[:, None] - op.cell
    out = np.where(offset > 0, u.T @ v, s.T @ t)
    out *= np.exp(-op.k * np.abs(x[:, None] - x))
    out[offset == 0] = 0.0
    out[op.entries[0], op.entries[1]] += op.entries[2]
    return out


def _dense_solve(op, rhs):
    return np.linalg.solve(np.eye(op.cell.size) + _dense(op), rhs)


@pytest.mark.parametrize("hbar, nx", [(0.25, 4), (0.6, 10)])
@pytest.mark.parametrize("k", [0.2, 0.2 / 2**5])
def test_structured_solve_matches_dense_solve(hbar, nx, k):
    basis, _ = _mixed_basis(hbar, nx)
    op = scr.assemble_kernel_matrix(basis, k)
    if hbar == 0.6:
        assert basis.plan.band > 0        # the wide-path basis has cross-cell near pairs
    rhs = np.column_stack([scr.source_column(basis, x, k)
                           for x in (basis.x[0], basis.x[-1])])
    got = op.solve(rhs)
    ref = _dense_solve(op, rhs)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_wider_band_gives_the_same_solution():
    basis, _ = _mixed_basis(0.6, 10)
    k = 0.05
    rhs = scr.source_column(basis, basis.x[0], k)
    tight = scr.assemble_kernel_matrix(basis, k).solve(rhs)
    narrow, plan = basis.layout, basis.plan
    basis = dataclasses.replace(basis)      # a new basis, its layout not yet built
    basis.plan = dataclasses.replace(plan, band=plan.band + 2)
    wide = scr.assemble_kernel_matrix(basis, k).solve(rhs)
    assert basis.layout.shape[2] > narrow.shape[2]
    assert np.max(np.abs(wide - tight)) <= 1e-13 * np.max(np.abs(tight))


def test_coupled_solve_with_gap_matches_dense_solve():
    # dense reference built from the cell-integral oracle, slabs 3 apart
    kappa2, k = 1.0, 0.3
    width, nx, d = 2.0, 40, 3.0
    xa = _point_basis(kappa2, width, nx).x_cells
    phi_ab = scr.coupled_two_slab_solve(_point_basis(kappa2, width, nx), d, k)
    pos = np.concatenate([xa, xa + width + d])
    t = (kappa2 / (2.0 * k)) * _exp_cell_integral(pos[:, None], pos[None, :],
                                                  width / nx, k)
    rhs = (2.0 * np.pi / k) * np.exp(-k * np.abs(pos[:, None] - pos[None, 40:]))
    ref = np.linalg.solve(np.eye(pos.size) + t, rhs)[:40]
    assert np.max(np.abs(phi_ab - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [20.0, 100.0])       # in screening lengths
def test_loop_resolved_two_slab_solve_matches_dense_solve(neutral_profile, d):
    # wide paths (hbar 0.3): the far slab reuses the near slab's draws; at
    # k = 0.2 kappa, the sweep's first wavenumber, I + T is well conditioned
    # (at k = 1 / d both solves differ by about 1e-14 cond(I + T))
    th = lo.ThermoState(beta=1.0, hbar=0.3, c=100.0)
    cells = tuple(dataclasses.replace(c, species=lo.SpeciesParams.from_thermo(
        c.species.name, c.species.charge, c.species.mass, th))
        for c in neutral_profile.cells)
    basis = scr.build_loop_basis(scr.DensityProfile(1.0, cells), 6.0, 24,
                                 n_paths=4, n_steps=8, seed=2)
    k = 0.2
    both = scr._joined(basis, d)
    assert both.x_cells.size == 48 and np.all(np.diff(both.x_cells) > 0.0)
    for g, ((idx, xi, y), (idx2, xi2, y2)) in enumerate(zip(basis.groups, both.groups)):
        assert np.array_equal(idx2, np.concatenate([idx, idx + basis.size]))
        assert np.array_equal(xi2, np.vstack([xi, xi]))
        assert np.array_equal(y2, np.vstack([y, y]))
        # group and slot locate each entry in its group's arrays
        assert np.all(both.group[idx2] == g)
        assert np.array_equal(both.slot[idx2], np.arange(idx2.size))
    op = scr.assemble_kernel_matrix(both, k)
    assert both.plan.band > 0
    rhs = np.column_stack([scr.source_column(both, x, k) for x in both.x_cells[24:]])
    ref = np.linalg.solve(np.eye(both.size) + _dense(op), rhs)[:basis.size]
    got = scr.coupled_two_slab_solve(basis, d, k)
    assert got.shape == (basis.size, 24)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [0.0, -1.0, np.inf, np.nan])
def test_coupled_solve_needs_a_finite_positive_gap(d):
    with pytest.raises(ParameterError):
        scr.coupled_two_slab_solve(_point_basis(1.0, 2.0, 4), d, 0.3)


# ------------------------------------------------- the block-tridiagonal solve

def _acceptance_basis(name, nx, n_paths):
    """Basis of slab a of an acceptance plasma at nx cells and n_paths paths
    per cell (THREE_SPECIES at 96 and 2: the fine-grid benchmark call)."""
    import test_acceptance
    cfg = copy.deepcopy(getattr(test_acceptance, name))
    cfg["numerics"] = {"nx": nx, "n_paths_kernel": n_paths}
    config = load_config(cfg)
    basis = scr.build_loop_basis(config.profile, config.a, nx, n_paths,
                                 config.numerics["n_steps_kernel"], config.seed)
    return basis, float(np.sqrt(config.profile.kappa2()))


def _extended(op):
    """(rows, cols, values) of the operator's extended solve system: Phi,
    sigma, tau."""
    rows, cols, _, _ = scr._extended_pairs(op.x_cells.size, op.cell, *op.entries[:2],
                                           len(op.far[0]))
    return rows, cols, op._extended_values()


def _extended_product(rows, cols, vals, x):
    """A x of the extended system from its triplets, duplicates summed."""
    prod = vals * x[cols]
    return (np.bincount(rows, prod.real, x.size)
            + 1j * np.bincount(rows, prod.imag, x.size))


@pytest.mark.parametrize("name, nx, n_paths, band", [
    ("TWO_SPECIES", 24, 6, 0), ("THREE_SPECIES", 96, 2, 1), ("THREE_SPECIES", 384, 2, 2)])
def test_extended_system_backward_error(name, nx, n_paths, band):
    # ||A x - b|| / (||A|| ||x||) of the extended system (Phi, sigma, tau) in
    # the max norm, at the sweep's first and smallest wavenumbers; below
    # nx 384 also the dense solve of I + T
    basis, kappa = _acceptance_basis(name, nx, n_paths)
    for k in (0.2 * kappa, 0.2 * kappa / 2**5):
        op = scr.assemble_kernel_matrix(basis, k)
        assert basis.plan.band >= band
        rhs = scr.source_column(basis, 0.0, k)
        rows, cols, vals = _extended(op)
        x = op._extended_solve(rhs)
        b = np.zeros(x.size, dtype=complex)
        b[:basis.size] = rhs
        norm_a = np.max(np.bincount(rows, np.abs(vals), x.size))
        err = np.max(np.abs(_extended_product(rows, cols, vals, x) - b))
        assert err <= 1e-14 * norm_a * np.max(np.abs(x))
        assert np.array_equal(op.solve(rhs), x[:basis.size])
        if nx < 384:
            ref = _dense_solve(op, rhs)
            assert np.max(np.abs(x[:basis.size] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_extended_solve_matches_sparse_lu_reference():
    # scipy's SuperLU on the same triplets, a reference kept in the tests only
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu
    basis, _ = _mixed_basis(0.6, 10)
    k = 0.05
    op = scr.assemble_kernel_matrix(basis, k)
    rows, cols, vals = _extended(op)
    size = basis.size + 2 * basis.x_cells.size
    rhs = scr.source_column(basis, np.array([basis.x[0], -0.7]), k)
    full = np.zeros((size, 2), dtype=complex)
    full[:basis.size] = rhs
    ref = splu(csc_matrix((vals, (rows, cols)), shape=(size, size))).solve(full)
    got = op._extended_solve(rhs)
    assert got.shape == (size, 2)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_sweep_operators_share_one_layout(monkeypatch):
    # every operator of one k-sweep carries its basis's single layout, built
    # once; each solves bit for bit as with a layout built afresh
    basis, _ = _mixed_basis(0.6, 10)
    ops, assemble = [], scr.assemble_kernel_matrix

    def recording(b, k):
        ops.append(assemble(b, k))
        return ops[-1]

    monkeypatch.setattr(scr, "assemble_kernel_matrix", recording)
    scr.check_perfect_screening(basis, 0.0, _kseq(1.0))
    assert len(ops) == 6 and basis.plan.band > 0
    for op in ops:
        assert op.layout is basis.layout
        fresh = dataclasses.replace(op, layout=scr._solve_layout(
            op.x_cells, op.cell, basis.plan.band, *op.entries[:2], 1))
        assert fresh.layout is not basis.layout
        rhs = scr.source_column(basis, np.array([0.0, -1.3]), op.k)
        assert np.array_equal(fresh.solve(rhs), op.solve(rhs))


def test_multi_column_solve_matches_single_columns():
    basis, _ = _mixed_basis(0.6, 10)
    k = 0.2
    op = scr.assemble_kernel_matrix(basis, k)
    x_src = np.linspace(-2.0, 0.0, 7)
    rhs = scr.source_column(basis, x_src, k)
    assert rhs.shape == (basis.size, 7)
    got = op.solve(rhs)
    assert got.shape == (basis.size, 7)
    for j, x in enumerate(x_src):
        single = op.solve(scr.source_column(basis, x, k))
        assert single.shape == (basis.size,)
        assert np.max(np.abs(got[:, j] - single)) <= 1e-14 * np.max(np.abs(single))
    ref = _dense_solve(op, rhs)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_source_columns_of_several_positions_are_the_single_columns(monkeypatch):
    # one column per position, bit for bit, also when the positions are
    # split into several batches
    basis, _ = _mixed_basis(0.25, 4)
    x_src = np.array([0.0, -0.3, -1.1, -2.0, 0.4])
    for batch in (scr._BATCH, 2 * basis.groups[0][1].size):
        monkeypatch.setattr(scr, "_BATCH", batch)
        cols = scr.source_column(basis, x_src, 0.3)
        for j, x in enumerate(x_src):
            assert np.array_equal(cols[:, j], scr.source_column(basis, x, 0.3))


def _subsystem(op, keep, band):
    """The operator restricted to the unknowns keep (cell order kept), its
    entries at most band cells apart."""
    new = np.full(op.cell.size, -1)
    new[keep] = np.arange(keep.size)
    i, l, vals = op.entries
    ok = (new[i] >= 0) & (new[l] >= 0)
    return dataclasses.replace(op, cell=op.cell[keep],
                               entries=(new[i[ok]], new[l[ok]], vals[ok]),
                               far=tuple(g[:, keep] for g in op.far),
                               layout=scr._solve_layout(op.x_cells, op.cell[keep], band,
                                                        new[i[ok]], new[l[ok]], 1))


def test_solve_with_uneven_superblocks():
    # 37 cells of 3 unknowns each: the superblocks (at least _BLOCK_MIN
    # unknowns) do not divide the cells evenly, so the last one is short
    basis = _point_basis(1.0, 5.0, 37)
    op = scr.assemble_kernel_matrix(basis, 0.3)
    per = -(-scr._BLOCK_MIN // 3)
    assert 37 % per and 37 > per
    rhs = scr.source_column(basis, np.array([0.0, -2.5]), 0.3)
    ref = _dense_solve(op, rhs)
    assert np.max(np.abs(op.solve(rhs) - ref)) <= 1e-12 * np.max(np.abs(ref))
    # uneven cells, one of them empty: entries dropped from a wide-band basis
    basis, _ = _mixed_basis(0.6, 10)
    op = scr.assemble_kernel_matrix(basis, 0.1)
    keep = np.flatnonzero((basis.cell != 4) & ((np.arange(basis.size) % 7 != 3)
                                               | (basis.cell < 2)))
    sub = _subsystem(op, keep, basis.plan.band)
    assert basis.plan.band > 0 and np.unique(np.bincount(sub.cell)).size > 2
    rhs = scr.source_column(basis, -1.3, 0.1)[keep]
    ref = _dense_solve(sub, rhs)
    assert np.max(np.abs(sub.solve(rhs) - ref)) <= 1e-12 * np.max(np.abs(ref))


def _diagonal_operator(basis, diag, v):
    """T = diag on the diagonal, far field u = s = t = 0 and v."""
    idx, zero = np.arange(basis.size), np.zeros((1, basis.size))
    return scr.KernelOperator(k=1.0, x_cells=basis.x_cells, cell=basis.cell,
                              entries=(idx, idx, diag), far=(zero, v[None], zero, zero),
                              layout=scr._solve_layout(basis.x_cells, basis.cell, 0,
                                                       idx, idx, 1))


def test_singular_solve_raises_and_overflowed_operator_gives_nan():
    basis = _point_basis(1.0, 5.0, 37)
    rhs = np.ones((basis.size, 2))
    minus_one, zero = -np.ones(basis.size), np.zeros(basis.size)
    # I + T singular with entries of order one: SolverError
    with pytest.raises(SolverError):
        _diagonal_operator(basis, minus_one, zero).solve(rhs)
    # singular with entries beyond 1 / eps (the identity lost in rounding),
    # or a non-finite entry: a NaN solution, no error
    for diag, v in ((minus_one, np.full(basis.size, 1e17)),
                    (np.where(np.arange(basis.size) == 5, np.inf, 0.5), zero)):
        got = _diagonal_operator(basis, diag, v).solve(rhs)
        assert got.shape == rhs.shape and np.all(np.isnan(got))
    got = _diagonal_operator(basis, np.full(basis.size, 0.5), zero).solve(rhs)
    assert np.allclose(got, rhs / 1.5, rtol=1e-15, atol=0.0)


def test_pair_classes_of_point_basis(point_profile):
    # degenerate paths: same-cell pairs are inside, all others far
    basis = scr.build_loop_basis(point_profile, 6.0, 6, n_paths=1, n_steps=4,
                                 seed=0)
    assert basis.plan.inside.size == 24 and basis.plan.straddling.size == 0


# the border, two interior positions (one a cell center, where path nodes
# fall on both sides of the charge) and a position outside the slab
@pytest.mark.parametrize("x_src, hbar", [(0.0, 0.25), (-0.9, 0.6), (-0.75, 0.25),
                                         (1.5, 0.6)])
def test_source_column_matches_vel_fourier(x_src, hbar):
    basis, loops = _mixed_basis(hbar, 4)
    src = lo.point_loop(x_src, loops[0].species, n_steps=8)
    for k in (0.2, 0.2 / 2**5):
        got = scr.source_column(basis, x_src, k)
        ref = np.array([pot.vel_fourier(lp, src, (k, 0.0)) for lp in loops])
        assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))


# ------------------------------------------- classical plasma: point bases

def test_bulk_limit_matches_analytic():
    # the source 0.3 right of the middle of the slab [-30, 0]
    kappa = 1.0
    k = 0.7
    basis = _point_basis(kappa**2, 30.0, 2000)
    phi = _screened_column(basis, -14.7, k)
    xc = basis.x_cells
    mask = np.abs(xc + 15.0) < 2.0
    exact = scr.bulk_phi_analytic(xc[mask], -14.7, k, kappa)
    assert np.max(np.abs(phi[mask] - exact) / exact) < 1e-4


def test_bulk_analytic_solves_the_integral_equation():
    # direct substitution: the closed-form kernel satisfies
    # Phi = v - (kappa^2 / 4 pi) v * Phi on the infinite line
    from scipy.integrate import quad
    kappa, k = 1.3, 0.6
    b = np.hypot(k, kappa)
    for x1, x2 in ((0.4, -0.2), (1.5, 0.3)):
        lhs = scr.bulk_phi_analytic(x1, x2, k, kappa)
        conv, _ = quad(lambda xp: (2.0 * np.pi / k) * np.exp(-k * abs(x1 - xp))
                       * (kappa**2 / (4.0 * np.pi))
                       * scr.bulk_phi_analytic(xp, x2, k, kappa),
                       -60.0, 60.0, limit=400)
        rhs = (2.0 * np.pi / k) * np.exp(-k * abs(x1 - x2)) - conv
        assert lhs == pytest.approx(rhs, rel=1e-9)


def _step_slab_phi_reference(x1, x2, k, a, kappa):
    """Piecewise-exponential reference solution of the screened equation for a
    single homogeneous slab [-a, 0] (vacuum outside), unit source at x2 inside.

    Matching value and slope at both faces of  -Phi'' + (k^2 + kappa^2) Phi =
    4 pi delta(x - x2)  inside and  -Phi'' + k^2 Phi = 0  outside.
    """
    b = np.hypot(k, kappa)
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


def test_classical_solver_vs_piecewise_reference():
    kappa, a, k = 1.0, 6.0, 0.31
    basis = _point_basis(kappa**2, a, 300)
    phi = _screened_column(basis, -1.7, k)
    ref = _step_slab_phi_reference(basis.x_cells, -1.7, k, a, kappa)
    assert np.max(np.abs(phi - ref) / np.abs(ref)) < 1e-4


def test_grid_doubling_consistency():
    kappa, a, k = 1.0, 6.0, 0.2
    sols = {}
    for n in (200, 400):
        basis = _point_basis(kappa**2, a, n)
        sols[n] = (basis.x_cells, _screened_column(basis, -2.0, k))
    xc, coarse = sols[200]
    xf, fine = sols[400]
    fine_on_coarse = np.interp(xc, xf, fine)
    # compare away from the source cusp, where linear interpolation between
    # the two staggered grids is itself accurate
    mask = np.abs(xc + 2.0) > 0.3
    rel = np.max(np.abs(fine_on_coarse - coarse)[mask]
                 / np.abs(fine_on_coarse)[mask])
    assert rel < 1e-3


def test_no_screening_returns_bare_kernel(thermo, species_pair):
    plus, _ = species_pair
    empty = scr.DensityProfile(beta=thermo.beta,
                               cells=(scr.SpeciesDensity(plus, 1, 0.0),))
    basis = scr.build_loop_basis(empty, 2.0, 4, n_paths=2, n_steps=4, seed=0)
    rhs = scr.source_column(basis, 0.0, 0.3)
    phi = scr.assemble_kernel_matrix(basis, 0.3).solve(rhs)
    assert np.allclose(phi, rhs)
    # the wavenumber must be positive
    for bad in (0.0, -0.3):
        with pytest.raises(SingularArgumentError):
            scr.assemble_kernel_matrix(basis, bad)
        with pytest.raises(SingularArgumentError):
            scr.source_column(basis, 0.0, bad)


def test_loop_solver_agrees_with_classical_on_point_basis(point_profile):
    basis = scr.build_loop_basis(point_profile, 6.0, 24, n_paths=1, n_steps=4,
                                 seed=0)
    k = 0.37
    rhs = scr.source_column(basis, 0.0, k)
    phi_loop = scr.assemble_kernel_matrix(basis, k).solve(rhs)
    # classical aggregation: same x-cells, kappa^2 summed over species into
    # one unit-charge species
    xc = basis.x_cells
    phi_cl = _screened_column(_point_basis(point_profile.kappa2(), 6.0, 24), 0.0, k)
    # point basis holds one entry per (cell, species); both species carry the
    # same solution column, equal to the aggregated one
    per_cell = phi_loop.reshape(xc.size, -1)
    assert np.allclose(per_cell.real, phi_cl[:, None], rtol=1e-10, atol=1e-12)
    assert np.max(np.abs(per_cell.imag)) < 1e-12


def test_phi_bounded_at_small_k(thermo, neutral_profile):
    kappa = 1.0
    basis = _point_basis(kappa**2, 6.0, 200)
    xc = basis.x_cells
    vals = {}
    for k in (1e-3 * kappa, 5e-4 * kappa):
        vals[k] = _screened_column(basis, -3.0, k)
    k = 1e-3 * kappa
    bare = (2.0 * np.pi / k) * np.exp(-k * np.abs(xc + 3.0))
    assert np.max(np.abs(vals[k])) < 0.01 * np.max(bare)
    drift = np.max(np.abs(vals[1e-3 * kappa] - vals[5e-4 * kappa])
                   / np.abs(vals[1e-3 * kappa]))
    assert drift < 0.01


# ------------------------------------------------------------- sum rules

def test_richardson_extrapolation_on_powers():
    k = np.array([0.2 / 2**i for i in range(5)])
    vals = 1.0 + 0.7 * k + 0.3 * k**2
    limit, corr = scr.richardson_extrapolate(list(vals))
    assert abs(limit - 1.0) < 1e-12
    assert corr < 1e-6
    with pytest.raises(ParameterError):
        scr.richardson_extrapolate([1.0])


def test_perfect_screening_bulk_oracle():
    res = scr.bulk_sum_rule_oracle(1.0, _kseq(1.0))
    assert res["residual_rel"] < 1e-3


def test_perfect_screening_slab_loops(neutral_profile):
    basis = scr.build_loop_basis(neutral_profile, 6.0, 16, n_paths=4,
                                 n_steps=16, seed=3)
    res = scr.check_perfect_screening(basis, 0.0, _kseq(1.0))
    assert res["residual_rel"] < 1e-2
    assert scr.richardson_extrapolate(res["per_k"])[1] < 0.1   # the bracket's correction


def test_perfect_screening_fails_without_medium(thermo, species_pair):
    plus, minus = species_pair
    empty = scr.DensityProfile(
        beta=thermo.beta,
        cells=(scr.SpeciesDensity(plus, 1, 0.0),
               scr.SpeciesDensity(minus, 1, 0.0)))
    basis = scr.build_loop_basis(empty, 6.0, 8, n_paths=2, n_steps=8, seed=0)
    res = scr.check_perfect_screening(basis, 0.0, _kseq(1.0, n=3))
    # nothing to screen: the bracket stays at 0 and the rule fails by 100%
    assert res["residual_rel"] == pytest.approx(1.0)


# ------------------------------------------------ the bordered k = 0 solve

def _k0_oracle(basis):
    """Re T_0 by the brute-force double sum over node pairs: -2 pi w_l ds^2
    sum_{s,t} J(z), J(z) = h |z| for |z| >= h/2 and z^2 + h^2/4 inside the
    source cell, z = x_i + xi_i(s) - xi_l(t) - x_l."""
    h, out = basis.h, np.empty((basis.size, basis.size))
    for i in range(basis.size):
        xi_i = basis.groups[basis.group[i]][1][basis.slot[i]]
        for idx, xi, _ in basis.groups:      # z[s, l, t], all columns of a group
            z = np.abs((basis.x[i] + xi_i)[:, None, None] - xi[None]
                       - basis.x[idx][None, :, None])
            out[i, idx] = np.sum(np.where(z >= h / 2, h * z, z * z + h * h / 4), axis=(0, 2))
    return -2.0 * np.pi * basis.ds**2 * out * basis.matrix_weight


@pytest.mark.parametrize("hbar, nx", [(0.25, 4), (0.6, 10)])
def test_k0_operator_matches_double_sum_oracle(hbar, nx):
    # band entries of every pair class and the rank-2 far field
    basis, _ = _mixed_basis(hbar, nx)
    moments = scr._moments(basis)
    op = scr._k0_operator(basis, moments)
    assert op.k == 0.0 and op.far[0].shape == (2, basis.size)
    got, ref = _dense(op), _k0_oracle(basis)
    far = np.abs(basis.cell[:, None] - basis.cell) > basis.plan.band
    assert np.any(far) and np.all(ref < 0.0)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
    # T(k) = T_{-1}/k + T_0 + O(k): the pole 2 pi P m^T off the k-sweep's
    # operators leaves T_0, whose imaginary part is 2 pi (Y m^T - P (h w Y)^T)
    p, y, hw = moments[0], moments[3], basis.h * basis.matrix_weight
    pole = 2.0 * np.pi * np.outer(p, hw * p)
    k_seq = _kseq(1.0)
    t0, corr = scr.richardson_extrapolate(
        [_dense(scr.assemble_kernel_matrix(basis, k)) - pole / k for k in k_seq])
    imag = 2.0 * np.pi * (np.outer(y, hw * p) - np.outer(p, hw * y))
    assert (np.max(np.abs(t0 - (got + 1j * imag)))
            <= 10.0 * corr + 1e-10 * np.max(np.abs(got)))


@pytest.mark.parametrize("width", [1e-200, 1e-300])
@pytest.mark.parametrize("nx, n_paths", [(4, 1), (16, 4)])
def test_k0_operator_on_thin_slabs(width, nx, n_paths):
    # cells far thinner than the paths' excursions (run's and verify's sizes
    # on the TWO_SPECIES plasma): every cross-cell pair is the far field plus
    # its straddling correction, and the far field's generators stay clear of
    # underflow (h^2 w is 0 below h ~ 1e-154)
    import test_acceptance
    config = load_config(copy.deepcopy(test_acceptance.TWO_SPECIES))
    basis = scr.build_loop_basis(config.profile, width, nx, n_paths,
                                 config.numerics["n_steps_kernel"], config.seed)
    got = _dense(scr._k0_operator(basis, scr._moments(basis)))
    ref, cross = _k0_oracle(basis), basis.cell[:, None] != basis.cell
    assert np.all(np.abs(got - ref)[cross] <= 1e-13 * np.abs(ref)[cross])


def test_straddling_sums_are_mirrored_over_the_transposed_pairs():
    # the straddling set is closed under transpose; each transposed pair
    # takes its partner's k^0 sum (J is even) and the conjugate of its k > 0
    # sum, bit for bit, and both meet the direct double sums of the
    # transposed pairs themselves, less the far field's value on a
    # cross-cell pair (within 1e-13 of the double sum: a pair that barely
    # straddles keeps ~1e-11 of it)
    basis, loops = _mixed_basis(0.6, 10)
    plan = basis.plan
    assert (plan.band, plan.straddling.size) == (7, 4116)
    # each pair classified on its own lands in its class
    xi_lo, xi_hi = np.empty(basis.size), np.empty(basis.size)
    for idx, x, _ in basis.groups:
        xi_lo[idx], xi_hi[idx] = x[:, 0], x[:, -1]
    r, c, half = plan.rows, plan.cols, 0.5 * basis.h
    w_lo = (basis.x + xi_lo)[r] - xi_hi[c]
    w_hi = (basis.x + xi_hi)[r] - xi_lo[c]
    inside = (w_lo >= basis.x[c] - half) & (w_hi <= basis.x[c] + half)
    assert np.array_equal(plan.inside, np.nonzero(inside)[0])
    assert np.array_equal(np.sort(plan.straddling), np.nonzero(~inside)[0])
    i, l = plan.rows[plan.straddling], plan.cols[plan.straddling]
    head = plan.straddling.size - plan.partner.size
    assert np.all(i[:head] <= l[:head]) and np.all(i[head:] > l[head:])
    assert np.array_equal(i[head:], l[plan.partner])
    assert np.array_equal(l[head:], i[plan.partner])
    assert np.count_nonzero(i[:head] == l[:head]) == head - plan.partner.size
    cross = basis.cell[i] != basis.cell[l]
    assert np.any(cross[head:]) and not np.all(cross[head:])
    k0 = scr._straddling_k0(plan, basis)
    assert np.array_equal(k0[head:], k0[plan.partner])
    xi = [None] * basis.size
    for idx, x, _ in basis.groups:
        for row, n in enumerate(idx):
            xi[n] = x[row]
    h = basis.h
    for q in range(head, plan.straddling.size):
        z = basis.x[i[q]] + xi[i[q]][:, None] - xi[l[q]][None, :] - basis.x[l[q]]
        ref = basis.ds**2 * np.sum(np.where(np.abs(z) >= h / 2, h * np.abs(z),
                                            z * z + h * h / 4))
        far = basis.ds**2 * np.sum(h * z)        # x_i > x_l: every z taken as above
        assert abs(k0[q] - (ref - cross[q] * far)) <= 1e-13 * abs(ref)
    for k in (0.2, 0.2 / 2**5):
        _, nodes = scr._side_sums(basis, k)
        vals = scr._straddling_entries(plan, basis, nodes, k, 2.0 * np.sinh(0.5 * k * h) / k)
        assert np.array_equal(vals[head:], np.conj(vals[plan.partner]))
        kvec = np.array([k, 0.0])
        for q in range(head, plan.straddling.size):
            ref = _oracle_pair_entry(loops[i[q]], loops[l[q]], h, kvec, k)
            far = _oracle_pair_entry(loops[i[q]], loops[l[q]], h, kvec, k, far=True)
            assert abs(vals[q] - (ref - cross[q] * far)) <= 1e-13 * abs(ref)


def _dense_bordered(basis, x_src):
    """(Phi_0, mu') of the bordered system [[I + Re T_0, 2 pi P], [m^T, 0]]
    [Phi_0; mu'] = [Re V_0; 1] by one dense solve; V_0 = 2 pi sum_s ds [i y -
    |x_i + xi_i(s) - x_src|] as a node sum here."""
    moments = scr._moments(basis)
    op, p = scr._k0_operator(basis, moments), moments[0]
    n = basis.size
    v0 = np.empty(n)
    for idx, xi, _ in basis.groups:
        v0[idx] = np.abs(basis.x[idx, None] + xi - x_src).sum(axis=1)
    v0 *= -2.0 * np.pi * basis.ds
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = np.eye(n) + _dense(op)
    a[:n, n] = 2.0 * np.pi * p
    a[n, :n] = basis.h * basis.matrix_weight * p
    sol = np.linalg.solve(a, np.append(v0, 1.0))
    return sol[:n], sol[n]


@pytest.mark.parametrize("hbar, nx", [(0.25, 4), (0.6, 10)])
@pytest.mark.parametrize("x_src", [0.0, -0.9])
def test_bordered_solve_matches_dense_bordered_solve(hbar, nx, x_src):
    basis, _ = _mixed_basis(hbar, nx)
    res = scr.perfect_screening_k0(basis, x_src)
    phi, mu = _dense_bordered(basis, x_src)
    assert res["phi"].dtype == float
    assert np.max(np.abs(res["phi"] - phi)) <= 1e-12 * np.max(np.abs(phi))
    assert abs(res["mu"].real - mu) <= 1e-12 * abs(mu)
    # the border row m.Phi_0 = 1 and the bracket, summed apart from it
    m = basis.h * basis.matrix_weight * scr._moments(basis)[0]
    assert abs(m @ res["phi"] - 1.0) <= 1e-12
    assert res["residual_rel"] == abs(res["bracket"] + 1.0) <= 1e-12


@pytest.mark.parametrize("hbar, nx", [(0.25, 4), (0.6, 10), (None, 24)])
def test_k0_solve_matches_the_sweep_limits(hbar, nx):
    # Phi_0 against the sweep's Richardson limit of Phi and -mu against that
    # of (bracket + 1) / k, within 10 times the limit's Richardson correction
    # plus 1e-10 of its largest entry; on both mixed bases and on TWO_SPECIES
    if hbar is None:
        basis, kappa = _acceptance_basis("TWO_SPECIES", nx, 6)
    else:
        basis, kappa = _mixed_basis(hbar, nx)[0], 1.0
    k_seq = _kseq(kappa)
    sweep = scr.check_perfect_screening(basis, 0.0, k_seq)
    res = scr.perfect_screening_k0(basis, 0.0)
    slope, corr = scr.richardson_extrapolate([(v + 1.0) / k
                                              for v, k in zip(sweep["per_k"], k_seq)])
    scale = np.max(np.abs(sweep["phi"]))
    assert (np.max(np.abs(res["phi"] - sweep["phi"]))
            <= 10.0 * sweep["phi_correction"] + 1e-10 * scale)
    assert abs(-res["mu"] - slope) <= 10.0 * corr + 1e-10 * abs(slope)


def test_k0_solve_without_medium_or_overflowed(thermo, species_pair):
    # nothing screens: the border pivot m.X_1 is 0, a SolverError; an
    # overflowed operator gives NaN, which the pipeline reports by slab
    plus, minus = species_pair
    empty = scr.DensityProfile(beta=thermo.beta, cells=(scr.SpeciesDensity(plus, 1, 0.0),
                                                        scr.SpeciesDensity(minus, 1, 0.0)))
    with pytest.raises(SolverError):
        scr.perfect_screening_k0(scr.build_loop_basis(empty, 6.0, 8, 2, 8, 0), 0.0)
    basis = _point_basis(1.0, 1e300, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        res = scr.perfect_screening_k0(basis, 0.0)
    assert np.isnan(res["bracket"]) and np.all(np.isnan(res["phi"]))


def test_sum_rule_universality_across_composition(thermo):
    # two-species symmetric vs three-species asymmetric neutral mixture
    residuals = []
    for mix in ("two", "three"):
        if mix == "two":
            plus = lo.SpeciesParams.from_thermo("p", +1.0, 1.0, thermo)
            minus = lo.SpeciesParams.from_thermo("m", -1.0, 2.0, thermo)
            rho = 1.0 / (8.0 * np.pi)
            cells = (scr.SpeciesDensity(plus, 1, rho),
                     scr.SpeciesDensity(minus, 1, rho))
        else:
            dd = lo.SpeciesParams.from_thermo("dd", +2.0, 3.0, thermo)
            m1 = lo.SpeciesParams.from_thermo("m1", -1.0, 1.0, thermo)
            m2 = lo.SpeciesParams.from_thermo("m2", -1.0, 2.0, thermo)
            rho = 1.0 / (24.0 * np.pi)
            cells = (scr.SpeciesDensity(dd, 1, rho),
                     scr.SpeciesDensity(m1, 1, rho),
                     scr.SpeciesDensity(m2, 1, rho))
        prof = scr.DensityProfile(beta=thermo.beta, cells=cells)
        basis = scr.build_loop_basis(prof, 6.0, 12, n_paths=3, n_steps=12,
                                     seed=5)
        kappa = np.sqrt(prof.kappa2())
        res = scr.check_perfect_screening(basis, 0.0, _kseq(kappa))
        residuals.append(res["residual_rel"])
    assert all(r < 1e-2 for r in residuals)
    assert abs(residuals[0] - residuals[1]) < 1e-2


# -------------------------------------------- traversing-chain factorization

def test_geometric_chain_prefactor_identity():
    q, d = 1.0, 7.0
    series = sum(np.exp(-2.0 * n * q) * q * np.exp(-q) / (2.0 * np.pi * d)
                 for n in range(400))
    assert series == pytest.approx(scr.geometric_chain_prefactor(q, d), rel=1e-15)


def test_truncated_chain_sum_matches_closed_form_at_two_link_accuracy():
    # chains with one and three traversing links reproduce the closed form up
    # to the first neglected order e^{-4q}
    d = 5.0
    for q in (0.8, 1.5, 3.0):
        unit = q * np.exp(-q) / (2.0 * np.pi * d)
        partial = unit * (1.0 + np.exp(-2.0 * q))
        closed = scr.geometric_chain_prefactor(q, d)
        missing = (closed - partial) / unit
        expected_tail = np.exp(-4.0 * q) / (1.0 - np.exp(-2.0 * q))
        assert missing == pytest.approx(expected_tail, rel=1e-12)
        assert abs(closed - partial) / closed < np.exp(-4.0 * q) * 2.0


def test_bare_kernel_factorization(big_thermo):
    sp = lo.SpeciesParams.from_thermo("s", 1.0, 1.0, big_thermo)
    path_a = lo.sample_bridge(1, 16, [41, 0])
    path_b = lo.sample_bridge(2, 16, [41, 1])
    margin = sp.lambda_ * max(np.max(np.abs(path_a[:, 0])),
                              np.max(np.abs(path_b[:, 0]))) + 0.05
    la = lo.Loop(-margin, sp, 1, path_a)
    lb = lo.Loop(+margin, sp, 2, path_b)
    d = 6.0 * margin
    kvec = np.array([0.4 / margin, 0.2 / margin])
    k = float(np.hypot(*kvec))
    lb_far = lo.Loop(lb.x + d, sp, lb.p, lb.path)
    border = lo.point_loop(0.0, sp, n_steps=16)
    lhs = pot.vel_fourier(la, lb_far, kvec)
    rhs = (k * np.exp(-k * d) / (2.0 * np.pi)) \
        * pot.vel_fourier(la, border, kvec) * pot.vel_fourier(border, lb, kvec)
    assert abs(lhs - rhs) / abs(lhs) < 1e-8


def test_factorization_depends_on_inner_face_only():
    # perturbing the density near the outer face changes the border column by
    # no more than the screened weight of the perturbation
    kappa, a = 1.0, 8.0
    basis = _point_basis(kappa**2, a, 400)
    xa = basis.x_cells
    k = 0.05
    base = _screened_column(basis, 0.0, k)
    outer = xa < -a + 1.0
    basis.measure[outer] *= 1.3          # kappa^2 bumped by 30 % there
    pert = _screened_column(basis, 0.0, k)
    inner = xa > -1.0
    change = np.max(np.abs(pert[inner] - base[inner]) / np.abs(base[inner]))
    assert change < np.exp(-2.0 * (a - 1.0) * kappa) * 50.0


# ------------------------------------------------ screening of both slabs

@pytest.fixture(scope="module")
def slab_bases(thermo, neutral_profile):
    # slab b is solved as its mirror image [-b, 0], on its own substream
    ba = scr.build_loop_basis(neutral_profile, 6.0, 16, n_paths=4,
                              n_steps=16, seed=3)
    bb = scr.build_loop_basis(neutral_profile, 6.0, 16, n_paths=4,
                              n_steps=16, seed=4)
    return ba, bb


def test_dressed_border_bracket_is_minus_one(slab_bases):
    # the border charge sits on the inner face of either slab
    for basis in slab_bases:
        res = scr.check_perfect_screening(basis, 0.0, _kseq(1.0))
        assert abs(res["bracket"].real + 1.0) < 1e-2


def test_w_term_annihilation(slab_bases):
    # An interior unit charge is screened like the border charge.  Its
    # dressed weights w_i = rho_i h(root, i) + delta(root, i), with the
    # closure h = -beta e_root e_i Phi(root, i), contract to
    # sum_i p_i e_i w_i = e_root (1 + bracket), where bracket is the
    # k-sweep's bracket with the charge at the root cell's center as the
    # source: the contraction vanishes exactly when that bracket is -1.
    basis = slab_bases[0]
    root = basis.size - 1
    assert -6.0 < basis.x[root] < 0.0
    res = scr.check_perfect_screening(basis, basis.x[root], _kseq(1.0))
    assert abs(res["bracket"] + 1.0) < 1e-2


def test_perfect_screening_singular_operator_raises_solver_error(
        slab_bases, monkeypatch):
    # T = -I (band entries -1 on the diagonal, no far field) makes I + T
    # exactly singular
    def singular(basis, k):
        return _diagonal_operator(basis, -np.ones(basis.size), np.zeros(basis.size))

    monkeypatch.setattr(scr, "assemble_kernel_matrix", singular)
    with pytest.raises(SolverError):
        scr.check_perfect_screening(slab_bases[0], 0.0, _kseq(1.0, n=2))
