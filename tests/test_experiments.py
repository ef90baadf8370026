import concurrent.futures
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cached_slice_blocks, dissipation_ratios
from phononlab import collision as coll
from phononlab import dynamics as dyn
from phononlab import experiments as ex
from phononlab import linearized as lin
from phononlab.equilibria import RjParams
from phononlab.grid import Grid
from phononlab.manifold import TWO_PI, f_plus, h, omega, omega_residual, resonant_kernel
from phononlab.quadrature import graded_midpoint_nodes

PTS = coll.blowup_points()
TORUS = [(0.0, TWO_PI)]


# The full rule, one row at a time over every p2 node, kept as the reference
# that the support-aware collision_at must reproduce bit for bit.

def collision_at_full_rule(p0_vals, f, z_nodes, z_wts, *, support=None):
    # every term on every row: the support is not read
    out = np.empty(p0_vals.size)
    f2 = f(z_nodes)
    for k, p0 in enumerate(p0_vals):
        p1, p3, W = resonant_kernel(p0, z_nodes)
        br = coll._bracket(float(f(p0)), f(p1), f2, f(p3))
        out[k] = float(np.sum(z_wts * W * br))
    return out


def p2_rule(eps, n_graded=4096, n_zoom=4096, pts=PTS):
    """lp_blowup_norm's p2 quadrature at reduced size: graded nodes on the
    torus plus a uniform zoom window of half-width 4 eps around p2."""
    zc, wc = graded_midpoint_nodes(0.0, TWO_PI, n_graded)
    half = 4.0 * eps
    inside = (zc >= pts.p2 - half) & (zc <= pts.p2 + half)
    zz = np.linspace(pts.p2 - half, pts.p2 + half, n_zoom, endpoint=False) + half / n_zoom
    wz = np.full(n_zoom, 2 * half / n_zoom)
    return np.concatenate([zc[~inside], zz]), np.concatenate([wc[~inside], wz])


def output_rows(eps, n_coarse=64, pts=PTS):
    """Samples of the three output windows plus a coarse sample of the torus."""
    e2 = eps ** 2
    windows = [(pts.p0 - 0.5 * e2, pts.p0 + 1.5 * e2, 48),
               (pts.p1 - 1.5 * e2, pts.p1 + 0.5 * e2, 48),
               (pts.p2 - 2.0 * eps, pts.p2 + 3.0 * eps, 160)]
    parts = [np.linspace(lo, hi, m, endpoint=False) + (hi - lo) / (2 * m)
             for lo, hi, m in windows]
    parts.append((np.arange(n_coarse) + 0.5) * TWO_PI / n_coarse)
    return np.concatenate(parts)


@pytest.mark.parametrize("p_exp", [2.0, np.inf])
@pytest.mark.parametrize("k", [4, 6])
def test_three_bumps_bit_identical(k, p_exp):
    eps = 2.0 ** -k
    f = coll.three_bumps(eps, p_exp, PTS)
    z, w = p2_rule(eps)
    rows = output_rows(eps)
    f0 = f(rows)
    # both paths are taken: rows inside the bumps and rows outside them
    assert 0 < np.count_nonzero(f0) < rows.size
    got = coll.collision_at(rows, f, z, w, support=coll.bump_support(eps, PTS))
    assert np.array_equal(got, collision_at_full_rule(rows, f, z, w))
    assert np.any(got[f0 == 0.0] != 0.0)


def test_spectrum_without_zeros_takes_full_path():
    eps = 2.0 ** -4
    bumps = coll.three_bumps(eps, 2.0, PTS)

    def f(p):
        return 1.0 + bumps(p)

    z, w = p2_rule(eps)
    rows = output_rows(eps)
    assert np.all(f(rows) != 0.0)
    assert np.array_equal(coll.collision_at(rows, f, z, w, support=TORUS),
                          collision_at_full_rule(rows, f, z, w))


def test_p2_rule_missing_support_gives_exact_zeros():
    eps = 2.0 ** -4
    f = coll.three_bumps(eps, 2.0, PTS)
    z, w = p2_rule(eps)
    off = f(z) == 0.0
    z, w = z[off], w[off]
    rows = output_rows(eps)
    got = coll.collision_at(rows, f, z, w, support=coll.bump_support(eps, PTS))
    assert np.array_equal(got, collision_at_full_rule(rows, f, z, w))
    zero_rows = f(rows) == 0.0
    assert np.all(got[zero_rows] == 0.0)
    assert not np.any(np.signbit(got[zero_rows]))


def test_ragged_last_block(monkeypatch):
    # many row blocks and batches on both paths, with ragged last ones, and
    # rows whose candidates run on into the next batch
    eps = 2.0 ** -5
    f = coll.three_bumps(eps, 2.0, PTS)
    z, w = p2_rule(eps)
    rows = output_rows(eps, n_coarse=61)
    want = collision_at_full_rule(rows, f, z, w)
    support = np.count_nonzero(f(z))
    n_zero_rows = np.count_nonzero(f(rows) == 0.0)
    for chunk in (5, 64):
        chunks = -(-support // chunk)  # chunks of a row with f(p0) = 0
        for rows_per_block in (1, 7, 40):
            assert n_zero_rows % rows_per_block != 0 or rows_per_block == 1
            monkeypatch.setattr(coll, "_CHUNK", chunk)
            monkeypatch.setattr(coll, "_BATCH", rows_per_block * chunks)
            assert np.array_equal(
                coll.collision_at(rows, f, z, w, support=coll.bump_support(eps, PTS)), want)


def test_lp_blowup_norm_matches_full_rule(monkeypatch):
    got = ex.lp_blowup_norm(2.0 ** -4, 2.0, n_coarse=256, n_zoom=2048)
    monkeypatch.setattr(coll, "collision_at", collision_at_full_rule)
    want = ex.lp_blowup_norm(2.0 ** -4, 2.0, n_coarse=256, n_zoom=2048)
    assert got == want


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_collision_at_bit_identical_on_any_worker_count(workers, monkeypatch):
    # collision_at runs on the calling thread: PHONON_THREADS must move no bit
    monkeypatch.setenv("PHONON_THREADS", str(workers))
    eps = 2.0 ** -5
    f = coll.three_bumps(eps, 2.0, PTS)
    z, w = p2_rule(eps)
    rows = output_rows(eps, n_coarse=61)
    # many blocks and batches on both paths, with ragged last ones
    batch = coll._BATCH
    monkeypatch.setattr(coll, "_BATCH", 16 * coll._CHUNK)
    assert np.array_equal(coll.collision_at(rows, f, z, w,
                                            support=coll.bump_support(eps, PTS)),
                          collision_at_full_rule(rows, f, z, w))
    # a positive spectrum leaves every term live: every chunk is kept and
    # every block gathers all of its entries (several blocks at the
    # default size)
    monkeypatch.setattr(coll, "_BATCH", batch)

    def positive(p):
        return 1.0 + f(p)
    assert np.array_equal(coll.collision_at(rows, positive, z, w, support=TORUS),
                          collision_at_full_rule(rows, positive, z, w))


def signed_bumps(eps):
    """A signed spectrum: the three bumps less a copy shifted by 0.3 eps, so
    it is positive, negative and zero on the output rows."""
    bumps = coll.three_bumps(eps, 2.0, PTS)
    return lambda p: bumps(p) - bumps(np.asarray(p) - 0.3 * eps)


def signed_support(eps):
    # each bump and its copy, shifted by 0.3 eps < eps, lie in [lo, hi + eps]
    return [(lo, hi + eps) for lo, hi in coll.bump_support(eps, PTS)]


def test_signed_spectrum_live_terms_bit_identical():
    # on a signed spectrum a dead term of the full rule may be -0.0, which
    # changes no sum but the sign of an all-zero row: the live-term rule
    # gives the same values, and +0.0 on every row without a live term
    eps = 2.0 ** -4
    f = signed_bumps(eps)
    z, w = p2_rule(eps)
    rows = output_rows(eps)
    f0 = f(rows)
    assert np.any(f0 > 0.0) and np.any(f0 < 0.0) and np.any(f0 == 0.0)
    got = coll.collision_at(rows, f, z, w, support=signed_support(eps))
    assert np.array_equal(got, collision_at_full_rule(rows, f, z, w))
    zero = got == 0.0
    assert np.any(zero) and np.any(got[f0 == 0.0] != 0.0)
    assert not np.any(np.signbit(got[zero]))


@pytest.mark.parametrize("spectrum", ["three_bumps", "signed"])
def test_weight_only_on_live_terms(spectrum, monkeypatch):
    # the kernel weight is evaluated once per live term, counted row by row
    # over the full rule: where f1 != 0 or f2 != 0 on a row with f0 != 0,
    # where f1 != 0 and f2 != 0 on a row with f0 = 0
    eps = 2.0 ** -4
    if spectrum == "three_bumps":
        f, support = coll.three_bumps(eps, 2.0, PTS), coll.bump_support(eps, PTS)
    else:
        f, support = signed_bumps(eps), signed_support(eps)
    z, w = p2_rule(eps)
    rows = output_rows(eps)
    f1_live, f2_live = (f(h(rows[:, None], z)) != 0.0), f(z) != 0.0
    live = np.where(f(rows)[:, None] != 0.0, f1_live | f2_live, f1_live & f2_live)
    evaluated = []
    weight = coll._weight

    def spy(*factors):
        evaluated.append(np.broadcast(*factors).size)
        return weight(*factors)

    monkeypatch.setattr(coll, "_weight", spy)
    got = coll.collision_at(rows, f, z, w, support=support)
    assert sum(evaluated) == np.count_nonzero(live) < rows.size * z.size
    assert np.array_equal(got, collision_at_full_rule(rows, f, z, w))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.floats(1.8, 2.2), st.integers(4, 9))
def test_chunk_bound_keeps_every_live_term(p0, k):
    # the bound on p1 over a chunk drops no live term: rows at each bump
    # edge, one ulp either side of it (the edges p1 and p2 are the fold and
    # its base point), and across each bump, are the full rule's bit for bit
    eps = 2.0 ** -k
    pts = coll.blowup_points(p0)
    f = coll.three_bumps(eps, 2.0, pts)
    support = coll.bump_support(eps, pts)
    edges = np.array(support).ravel()
    across = [np.linspace(2.0 * lo - hi, 2.0 * hi - lo, 9) for lo, hi in support]
    rows = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                           *across])
    z, w = p2_rule(eps, pts=pts)
    assert np.array_equal(coll.collision_at(rows, f, z, w, support=support),
                          collision_at_full_rule(rows, f, z, w))


@pytest.mark.parametrize("k", [4, 9])
def test_p1_only_where_it_can_reach_the_support(k, monkeypatch):
    # p1 = h(p0, p2) is computed on at most 20% of the entries of the row
    # blocks: rows with f(p0) != 0 times every p2 node, rows with f(p0) = 0
    # times the support nodes f(p2) != 0
    entries, computed = [], []
    h_parts, collision_at = coll._h_parts, coll.collision_at

    def spy_h(x, z):
        computed.append(np.broadcast(x, z).size)
        return h_parts(x, z)

    def spy_at(p0_vals, f, z_nodes, z_wts, **kwargs):
        f0, support = f(p0_vals) != 0.0, np.count_nonzero(f(z_nodes))
        entries.append(np.count_nonzero(f0) * z_nodes.size + np.count_nonzero(~f0) * support)
        return collision_at(p0_vals, f, z_nodes, z_wts, **kwargs)

    monkeypatch.setattr(coll, "_h_parts", spy_h)
    monkeypatch.setattr(coll, "collision_at", spy_at)
    ex.lp_blowup_norm(2.0 ** -k, 2.0, PTS)
    assert len(entries) == 1  # the window samples and the coarse rows in one call
    assert 0 < sum(computed) <= 0.2 * sum(entries)


def test_support_that_leaves_out_part_of_f_raises():
    eps = 2.0 ** -4
    f = coll.three_bumps(eps, 2.0, PTS)
    z, w = p2_rule(eps)
    rows = output_rows(eps)
    bumps = coll.bump_support(eps, PTS)
    for support in (bumps[:2], bumps[1:], [(lo, hi - 0.5 * (hi - lo)) for lo, hi in bumps]):
        with pytest.raises(ValueError, match="outside the support"):
            coll.collision_at(rows, f, z, w, support=support)
    # a non-finite row, p2 node or weight: f(nan) = 0, so a NaN row read as
    # a silent zero and a NaN node was skipped, where the full rule gives NaN
    row = np.array([PTS.p0 + 1e-4])
    z_nan, w_inf = z.copy(), w.copy()
    z_nan[z.size // 2], w_inf[0] = np.nan, np.inf
    for p0s, zs, ws, what in ((np.array([np.nan, PTS.p0 + 1e-4, np.inf]), z, w, "output row nan"),
                              (row, z_nan, w, "p2 node nan"), (row, z, w_inf, "p2 weight inf")):
        with pytest.raises(ValueError, match=f"the {what} is not finite"):
            coll.collision_at(p0s, f, zs, ws, support=bumps)
    # arrays of the wrong shape, and rows or nodes off [0, 2pi]: weights one
    # short read as a silent wrong row, and a row off the torus gave 0.0 or
    # a DomainError as the chunk bound happened to keep its columns
    z_far, z_neg = z.copy(), z.copy()
    z_far[-1], z_neg[0] = 7.0, -1e-3
    for p0s, zs, ws, match in (
            (row[:, None], z, w, r"the output rows must be a 1-D array, got shape \(1, 1\)"),
            (row, z[None, :], w[None, :], "the p2 nodes must be a 1-D array"),
            (row, z, np.float64(1.0), r"the p2 weights must be a 1-D array, got shape \(\)"),
            (row, z, w[:-1], "the p2 weights have shape"),
            (np.array([7.0]), z, w, r"the output row 7.0 lies outside \[0, 2pi\]"),
            (np.array([PTS.p0, -1.0]), z, w, r"the output row -1.0 lies outside"),
            (row, z_far, w, r"the p2 node 7.0 lies outside"),
            (row, z_neg, w, r"the p2 node -0.001 lies outside")):
        with pytest.raises(ValueError, match=match):
            coll.collision_at(p0s, f, zs, ws, support=bumps)
    # the torus's ends are in its domain
    ends = np.array([0.0, TWO_PI])
    assert np.array_equal(coll.collision_at(ends, f, z, w, support=bumps),
                          collision_at_full_rule(ends, f, z, w))


def test_only_verify_suite_starts_threads(monkeypatch):
    # verify_suite's slabs are the one place where two threads overlap:
    # with two workers and no thread pool to be had, a table of many
    # blocks, the weak-form assembly, the multiplier, the perturbation
    # tables and collision_at complete with their bits, and verify_suite
    # raises
    g, params = Grid(256), RjParams(1.0, 1.0)
    monkeypatch.setattr(coll, "_TABLE_BLOCK", 1 << 16)  # one block each
    whole = coll.ResonanceTable(g, "cubic")
    tabs_want = dyn.PerturbationTables(params, g, "cubic", even=True)
    monkeypatch.setattr(coll, "_TABLE_BLOCK", 5000)  # 7 blocks whole, 4 half
    with monkeypatch.context() as m:
        m.setattr(lin, "_packed_blocks", cached_slice_blocks)
        *blocks_want, a_want = lin._weak_form_matrix(params, g, "cubic")
    eps = 2.0 ** -5
    f = coll.three_bumps(eps, 2.0, PTS)
    z, w = p2_rule(eps)
    rows = output_rows(eps, n_coarse=61)
    at_want = collision_at_full_rule(rows, f, z, w)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was made")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv("PHONON_THREADS", "2")
    tab = coll.ResonanceTable(g, "cubic")
    for name in ("i", "j", "P1", "P3", "W"):
        assert np.array_equal(getattr(tab, name), getattr(whole, name))
    *blocks, a = lin._weak_form_matrix(params, g, "cubic")
    for B, B_want in zip(blocks, blocks_want):
        assert np.array_equal(B, B_want)
    assert np.array_equal(a, a_want)
    assert np.array_equal(lin.multiplier_a(params, g).values, a_want)
    tabs = dyn.PerturbationTables(params, g, "cubic", even=True)
    for name in ("G0", "G1", "G2", "G3"):
        assert np.array_equal(getattr(tabs, name), getattr(tabs_want, name))
    monkeypatch.setattr(coll, "_BATCH", 16 * coll._CHUNK)  # many blocks
    assert np.array_equal(coll.collision_at(rows, f, z, w, support=coll.bump_support(eps, PTS)),
                          at_want)
    with pytest.raises(AssertionError, match="a thread pool was made"):
        ex.verify_suite(n_random=10, n_sign=1, grid_side=200)


def test_half_angles_once_per_row_and_node(monkeypatch):
    # the kernel weight's one-momentum factors are taken once per call on
    # every row and p2 node, and gathered onto the live terms
    eps = 2.0 ** -4
    f = coll.three_bumps(eps, 2.0, PTS)
    z, w = p2_rule(eps)
    rows = output_rows(eps)
    seen, half_angles = [], coll.half_angles

    def spy(p):
        seen.append(np.size(p))
        return half_angles(p)

    monkeypatch.setattr(coll, "half_angles", spy)
    got = coll.collision_at(rows, f, z, w, support=coll.bump_support(eps, PTS))
    assert sorted(seen) == sorted([rows.size, z.size])
    assert np.array_equal(got, collision_at_full_rule(rows, f, z, w))


# verify_suite's grid checks on the whole meshgrid at once, kept as the
# reference that the slabbed checks must reproduce exactly

def grid_checks_full_grid(grid_side):
    side = np.linspace(0.0, TWO_PI, grid_side)
    X, Z = np.meshgrid(side, side, indexing="ij")
    arg = np.abs(np.tan((Z - X) / 4.0) * np.cos((X + Z) / 4.0))
    corner = (np.abs(np.abs(Z - X) - TWO_PI) < 1e-12)
    away = ~((np.minimum(X, TWO_PI - X) < 1e-6) & (np.minimum(Z, TWO_PI - Z) < 1e-6))
    res = np.abs(omega_residual(X[away], np.asarray(h(X[away], Z[away])), Z[away]))
    gap = f_plus(X, Z) - 4.0 * omega(X) * omega(Z)
    return float(np.max(arg[~corner])), float(np.max(res)), float(np.min(gap))


class TestPoolWorkers:
    @pytest.mark.parametrize("value", ["0", "-2", "abc", "1.5"])
    def test_bad_thread_count_is_rejected(self, monkeypatch, value):
        # the CLI's rule and wording: an integer >= 1, or unset
        monkeypatch.setenv("PHONON_THREADS", value)
        with pytest.raises(ValueError) as info:
            ex.pool_workers()
        assert str(info.value) == f"PHONON_THREADS must be an integer >= 1, got '{value}'"

    def test_empty_thread_count_means_unset(self, monkeypatch):
        monkeypatch.setenv("PHONON_THREADS", "")
        empty = ex.pool_workers()
        monkeypatch.delenv("PHONON_THREADS")
        assert empty == ex.pool_workers() >= 1


@pytest.mark.parametrize("slab_rows", [7, 64])
def test_verify_suite_slabs_exact_on_any_worker_count(slab_rows, monkeypatch):
    grid_side = 300
    assert grid_side % slab_rows != 0  # a ragged last slab
    monkeypatch.setattr(ex, "_SLAB_ROWS", slab_rows)
    side = np.linspace(0.0, TWO_PI, grid_side)
    slabs = [ex._grid_checks(side[r0:r0 + slab_rows], side)
             for r0 in range(0, grid_side, slab_rows)]
    worst, err, gap = zip(*slabs)
    assert (max(worst), max(err), min(gap)) == grid_checks_full_grid(grid_side)
    details = []
    for workers in (1, 3):
        monkeypatch.setenv("PHONON_THREADS", str(workers))
        details.append(ex.verify_suite(n_random=1000, n_sign=4, grid_side=grid_side))
    assert details[0] == details[1]
    assert all(ok for _, ok, _ in details[0])
    worst, err, gap = grid_checks_full_grid(grid_side)
    got = {name: detail for name, _, detail in details[0]}
    assert got["arcsin_argument_bound"] == f"max |tan cos| {worst:.15f}"
    assert got["resonance_residual_grid"] == \
        f"max |Omega| on the {grid_side}^2 grid {err:.3e}"
    assert got["f_plus_lower_bound"] == f"min F+ - 4 w0 w2 = {gap:.3e}"
    # the checks are symmetric in (x, z), so the values alone would not
    # notice a missing slab: the slabs must cover every row once, in order
    seen = []
    grid_checks = ex._grid_checks

    def spy(rows, side):
        seen.append(rows)
        return grid_checks(rows, side)

    monkeypatch.setattr(ex, "_grid_checks", spy)
    monkeypatch.setenv("PHONON_THREADS", "1")
    ex.verify_suite(n_random=10, n_sign=1, grid_side=grid_side)
    assert np.array_equal(np.concatenate(seen), side)


def test_verify_suite_memory_bound():
    # the full-grid checks held about ten 32 MB grids at once
    tracemalloc.start()
    try:
        ex.verify_suite(n_sign=4, grid_side=2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2 ** 20


@pytest.mark.parametrize("k", [4, 9])
def test_p2_rule_is_bit_identical_to_the_graded_rule(monkeypatch, k):
    # the coarse rule is the plain midpoint rule: with no point to refine,
    # the graded rule it replaced gives the same nodes and weights, bit for bit
    eps = 2.0 ** -k
    want = ex.blowup_p2_rule(eps, PTS)
    monkeypatch.setattr(ex, "midpoint_nodes", graded_midpoint_nodes)
    got = ex.blowup_p2_rule(eps, PTS)
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


@pytest.mark.parametrize("k", [4, 9])
def test_p2_rule_integrates_each_bump(k):
    # every bump of three_bumps, [p0, p0 + e2), [p1 - e2, p1) and [p2, p2 + eps),
    # is integrated to its width; the coarse nodes alone would miss or
    # overweight an eps^2 bump depending on where they fall
    eps = 2.0 ** -k
    e2 = eps ** 2
    for p0 in np.concatenate([np.linspace(1.8, 2.2, 41), [2.04, 2.16631]]):
        pts = coll.blowup_points(p0)
        z, w = ex.blowup_p2_rule(eps, pts)
        for lo, hi in ((pts.p0, pts.p0 + e2), (pts.p1 - e2, pts.p1),
                       (pts.p2, pts.p2 + eps)):
            got = float(np.sum(w[(z >= lo) & (z < hi)]))
            assert abs(got - (hi - lo)) <= 1e-12, (p0, lo)


@pytest.mark.parametrize("seed", [0, 7])
def test_spectrum_dissipation_block_matches_per_sample_loop(seed, tmp_path):
    # the block of samples reads the ratios of the per-sample loop
    res = ex.spectrum_experiment(1.0, 1.0, 256, seed, cache_dir=tmp_path)
    op = lin.load_or_assemble(RjParams(1.0, 1.0), Grid(256), tmp_path)
    want = dissipation_ratios(op, seed, ex.N_DISSIPATION_SAMPLES)
    assert res["dissipation_ratio_min"] == pytest.approx(min(want), rel=1e-13, abs=0.0)
    assert res["dissipation_ratio_max"] == pytest.approx(max(want), rel=1e-13, abs=0.0)
