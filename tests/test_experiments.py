import tracemalloc

import numpy as np
import pytest

from phononlab import collision as coll
from phononlab import experiments as ex
from phononlab.manifold import TWO_PI, f_plus, h, omega, omega_residual, resonant_kernel
from phononlab.quadrature import graded_midpoint_nodes

PTS = coll.blowup_points()


# The full rule, one row at a time over every p2 node, kept as the reference
# that the support-aware _collision_at must reproduce bit for bit.

def collision_at_full_rule(p0_vals, f, z_nodes, z_wts):
    out = np.empty(p0_vals.size)
    f2 = f(z_nodes)
    for k, p0 in enumerate(p0_vals):
        p1, p3, W = resonant_kernel(p0, z_nodes)
        br = coll._bracket(float(f(p0)), f(p1), f2, f(p3))
        out[k] = float(np.sum(z_wts * W * br))
    return out


def p2_rule(eps, n_graded=4096, n_zoom=4096):
    """lp_blowup_norm's p2 quadrature at reduced size: graded nodes on the
    torus plus a uniform zoom window of half-width 4 eps around p2."""
    zc, wc = graded_midpoint_nodes(0.0, TWO_PI, n_graded)
    half = 4.0 * eps
    inside = (zc >= PTS.p2 - half) & (zc <= PTS.p2 + half)
    zz = np.linspace(PTS.p2 - half, PTS.p2 + half, n_zoom, endpoint=False) + half / n_zoom
    wz = np.full(n_zoom, 2 * half / n_zoom)
    return np.concatenate([zc[~inside], zz]), np.concatenate([wc[~inside], wz])


def output_rows(eps, n_coarse=64):
    """Samples of the three output windows plus a coarse sample of the torus."""
    e2 = eps ** 2
    windows = [(PTS.p0 - 0.5 * e2, PTS.p0 + 1.5 * e2, 48),
               (PTS.p1 - 1.5 * e2, PTS.p1 + 0.5 * e2, 48),
               (PTS.p2 - 2.0 * eps, PTS.p2 + 3.0 * eps, 160)]
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
    got = ex._collision_at(rows, f, z, w)
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
    assert np.array_equal(ex._collision_at(rows, f, z, w),
                          collision_at_full_rule(rows, f, z, w))


def test_p2_rule_missing_support_gives_exact_zeros():
    eps = 2.0 ** -4
    f = coll.three_bumps(eps, 2.0, PTS)
    z, w = p2_rule(eps)
    off = f(z) == 0.0
    z, w = z[off], w[off]
    rows = output_rows(eps)
    got = ex._collision_at(rows, f, z, w)
    assert np.array_equal(got, collision_at_full_rule(rows, f, z, w))
    zero_rows = f(rows) == 0.0
    assert np.all(got[zero_rows] == 0.0)
    assert not np.any(np.signbit(got[zero_rows]))


def test_ragged_last_block(monkeypatch):
    eps = 2.0 ** -5
    f = coll.three_bumps(eps, 2.0, PTS)
    z, w = p2_rule(eps)
    rows = output_rows(eps, n_coarse=61)
    want = collision_at_full_rule(rows, f, z, w)
    support = np.count_nonzero(f(z))
    n_zero_rows = np.count_nonzero(f(rows) == 0.0)
    for rows_per_block in (1, 7, 40):
        assert n_zero_rows % rows_per_block != 0 or rows_per_block == 1
        monkeypatch.setattr(coll, "_BLOCK_VALUES", rows_per_block * support)
        assert np.array_equal(ex._collision_at(rows, f, z, w), want)


def test_lp_blowup_norm_matches_full_rule(monkeypatch):
    got = ex.lp_blowup_norm(2.0 ** -4, 2.0, n_coarse=256, n_zoom=2048)
    monkeypatch.setattr(ex, "_collision_at", collision_at_full_rule)
    want = ex.lp_blowup_norm(2.0 ** -4, 2.0, n_coarse=256, n_zoom=2048)
    assert got == want


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_collision_at_bit_identical_on_any_worker_count(workers, monkeypatch):
    monkeypatch.setenv("PHONON_THREADS", str(workers))
    eps = 2.0 ** -5
    f = coll.three_bumps(eps, 2.0, PTS)
    z, w = p2_rule(eps)
    rows = output_rows(eps, n_coarse=61)
    # many blocks on both paths, with a ragged last one
    monkeypatch.setattr(coll, "_BLOCK_VALUES", 7 * np.count_nonzero(f(z)))
    assert np.array_equal(ex._collision_at(rows, f, z, w),
                          collision_at_full_rule(rows, f, z, w))


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
