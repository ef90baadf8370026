import numpy as np
import pytest

from phononlab import collision as coll
from phononlab import experiments as ex
from phononlab.manifold import TWO_PI, resonant_kernel
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
        monkeypatch.setattr(ex, "_BLOCK_VALUES", rows_per_block * support)
        assert np.array_equal(ex._collision_at(rows, f, z, w), want)


def test_lp_blowup_norm_matches_full_rule(monkeypatch):
    got = ex.lp_blowup_norm(2.0 ** -4, 2.0, n_coarse=256, n_zoom=2048)
    monkeypatch.setattr(ex, "_collision_at", collision_at_full_rule)
    want = ex.lp_blowup_norm(2.0 ** -4, 2.0, n_coarse=256, n_zoom=2048)
    assert got == want
