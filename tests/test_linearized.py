import dataclasses
import errno
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from oracles import (cached_slice_blocks, dense_L, full_table, k1_matrix,
                     k1_row_integral, kernel_k1, kernel_k2, lagrange_stencil,
                     project_out_kernel, trig_sample, whole_weak_form)
from phononlab import collision, linearized
from phononlab.collision import ResonanceTable
from phononlab.equilibria import RjParams
from phononlab.errors import ConfigError, FitError, SpectralError
from phononlab.grid import Field, Grid, lp_norm
from phononlab.linearized import (assemble, bulk_edge_functionals,
                                  decay_initial_data, load_operator,
                                  load_or_assemble, measure_linear_decay,
                                  multiplier_a, multiplier_at, save_operator,
                                  semigroup_apply, subspace_angle)
from phononlab.manifold import (TWO_PI, canonicalize, f_minus_zeros,
                                f_plus, h, omega)

PARAMS = RjParams(1.0, 1.0)


@pytest.fixture(scope="module")
def op256():
    return assemble(PARAMS, Grid(256))


@pytest.fixture(scope="module")
def op512():
    return assemble(PARAMS, Grid(512))


class TestMultiplier:
    def test_symmetry(self):
        a = multiplier_a(PARAMS, Grid(256)).values
        assert np.max(np.abs(a - a[::-1])) < 1e-10 * np.max(a)

    def test_pointwise_symmetry(self):
        assert multiplier_at(PARAMS, 1.0) == pytest.approx(
            multiplier_at(PARAMS, TWO_PI - 1.0), rel=1e-10)

    def test_ratio_to_power_law_bounded(self):
        g = Grid(1024)
        a = multiplier_a(PARAMS, g).values
        keep = (g.nodes >= 0.01) & (g.nodes <= np.pi)
        ratio = a[keep] / np.sin(g.nodes[keep] / 2.0) ** (5.0 / 3.0)
        assert 0.1 < np.min(ratio) and np.max(ratio) < 20.0

    def test_deep_window_exponent(self):
        # the 5/3 law emerges as p -> 0; the approach is slow (eps^{1/3}
        # corrections), so the fit window sits deep below the grid scale
        ps = np.geomspace(1e-8, 1e-6, 9)
        av = multiplier_at(PARAMS, ps, n_panels=2048)
        s = np.sin(ps / 2.0)
        slope = np.polyfit(np.log(s), np.log(av), 1)[0]
        assert slope == pytest.approx(5.0 / 3.0, abs=0.05)

    def test_singular_equilibrium_window_exponent(self):
        # for gamma = 0 the asymptote is already clean on [1e-3, 1e-1]
        ps = np.geomspace(1e-3, 1e-1, 13)
        av = multiplier_at(RjParams(2.0, 0.0), ps, n_panels=1024)
        s = np.sin(ps / 2.0)
        slope = np.polyfit(np.log(s), np.log(av), 1)[0]
        assert slope == pytest.approx(5.0 / 3.0, abs=0.05)

    def test_nodal_vs_pointwise(self):
        g = Grid(256)
        a = multiplier_a(PARAMS, g).values
        for j in (40, 128, 200):
            assert a[j] == pytest.approx(multiplier_at(PARAMS, g.nodes[j]), rel=1e-3)


class TestKernels:
    def test_k2_symmetric_function(self):
        x = np.array([0.7, 1.9, 3.3, 5.1])
        z = np.array([2.2, 4.4, 1.1, 0.6])
        assert np.allclose(kernel_k2(x, z, PARAMS), kernel_k2(z, x, PARAMS),
                           rtol=1e-12)

    def test_assembled_k2_matrix_symmetric(self):
        g = Grid(128)
        X, Z = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        M = g.weight * np.asarray(kernel_k2(X, Z, PARAMS))
        assert np.max(np.abs(M - M.T)) < 1e-10 * np.max(np.abs(M))

    def test_k2_pointwise_value(self):
        # independent evaluation straight from the constituent formulas; on
        # the diagonal p2 = p the parameterized p1 vanishes and so does K2
        assert kernel_k2(np.pi, np.pi, PARAMS) == pytest.approx(0.0, abs=1e-15)
        p, p2 = np.pi, 2.2
        p1 = h(p, p2)
        p3 = canonicalize(p + p1 - p2)
        expect = omega(p) * omega(p1) * omega(p2) * omega(p3) \
            * PARAMS.value(p1) * PARAMS.value(p3) / np.sqrt(f_plus(p, p2))
        got = kernel_k2(p, p2, PARAMS)
        assert got == pytest.approx(expect, rel=1e-14)
        assert got > 0.0

    def test_k2_weighted_bound(self):
        g = Grid(256)
        a = multiplier_a(PARAMS, g).values
        X, Z = np.meshgrid(g.nodes, g.nodes, indexing="ij")
        K2 = np.asarray(kernel_k2(X, Z, PARAMS))
        weighted = K2 / np.sqrt(np.outer(a, a))
        bound = (np.sin(g.nodes / 2.0) ** (-1.0 / 3.0))
        consts = weighted / np.outer(bound, bound)
        assert np.max(consts) < 5.0  # measured constant, stable under refinement

    def test_k1_indicator(self):
        assert kernel_k1(np.pi, np.pi, PARAMS) == 0.0  # F-(pi, pi) = -4 < 0
        zs = f_minus_zeros(1.2)
        y_in = 0.5 * zs.y_prime
        assert kernel_k1(1.2, y_in, PARAMS) > 0.0

    def test_k1_symmetric(self):
        for (x, y) in ((1.3, 0.2), (2.5, 0.4), (4.0, 6.1)):
            assert kernel_k1(x, y, PARAMS) == pytest.approx(
                kernel_k1(y, x, PARAMS), rel=1e-12)

    def test_k1_row_integral_vs_zroute_oracle(self):
        # the y-route with desingularized panels must match the smooth
        # z-route evaluation of the same operator row
        for p in (1.1, 2.4, np.pi):
            v_y = k1_row_integral(p, PARAMS, 4096)
            m = 10 ** 6
            z = (np.arange(m) + 0.5) * TWO_PI / m
            p1 = np.asarray(h(p, z))
            p3 = canonicalize(p + p1 - z)
            v_z = float(np.sum(omega(p) * omega(p1) * omega(z) * omega(p3)
                               * PARAMS.value(z) * PARAMS.value(p3)
                               / np.sqrt(f_plus(p, z))) * TWO_PI / m)
            assert v_y == pytest.approx(v_z, abs=1e-7)

    def test_weighted_k1_matrix_contraction(self, op256):
        # a^{-1/2} K1 a^{-1/2} has finite norm; the full weighted K acts as a
        # strict contraction off the kernel of L
        g = Grid(256)
        a = op256.a.values
        M1 = k1_matrix(PARAMS, g, n_sub=512)
        W1 = M1 / np.sqrt(np.outer(a, a))
        norm = np.linalg.norm(0.5 * (W1 + W1.T), 2)
        assert np.isfinite(norm)
        Kt = np.diag(1.0 / np.sqrt(a)) @ (dense_L(op256) + np.diag(a)) \
            @ np.diag(1.0 / np.sqrt(a))
        evals = np.linalg.eigvalsh(0.5 * (Kt + Kt.T))
        # top two are the kernel images; the rest sit strictly below 1
        assert evals[-3] < 1.0 - 1e-3


class TestAssembly:
    def test_matrix_symmetric(self, op512):
        M = dense_L(op512)
        assert np.max(np.abs(M - M.T)) <= 1e-10 * np.max(np.abs(M))
        assert op512.sym_defect < 1e-12

    def test_kernel_residuals_decrease(self, op256, op512):
        assert max(op256.kernel_residuals) < 1e-3
        assert max(op256.kernel_residuals) / max(op512.kernel_residuals) >= 3.0

    def test_spectrum_structure(self, op512):
        assert op512.eigenvalues[-1] <= op512.spectral_tol
        assert op512.near_null_count() == 2
        ang = subspace_angle(op512.near_null_vectors(), op512.kernel_basis())
        assert ang < 1e-3

    def test_dirichlet_form_nonnegative(self, op256):
        g, L = Grid(256), dense_L(op256)
        for seed in range(100):
            v = trig_sample(g.nodes, seed)
            q = v @ (-L @ v)
            assert q >= -1e-12 * (v @ v)

    def test_dissipation_lower_bound(self, op256):
        g = Grid(256)
        a, L = op256.a.values, dense_L(op256)
        kb = op256.kernel_basis()
        ratios = []
        for seed in range(100):
            v = trig_sample(g.nodes, seed)
            v = v - kb @ (kb.T @ v)
            ratios.append((v @ (-L @ v)) / ((a * v) @ v))
        assert min(ratios) > 0.0

    def test_weighted_K_eigenvalues_below_one(self, op512):
        a = op512.a.values
        Kt = np.diag(a ** -0.5) @ (dense_L(op512) + np.diag(a)) @ np.diag(a ** -0.5)
        evals, evecs = np.linalg.eigh(0.5 * (Kt + Kt.T))
        assert evals[-1] <= 1.0 + 1e-8
        # the eigenvalue-1 pair is a^{1/2} Ker L
        fb = op512.equilibrium.values
        target = np.stack([np.sqrt(a) * fb, np.sqrt(a) * op512.grid.omega * fb], axis=1)
        assert subspace_angle(evecs[:, -2:], target) < 1e-3

    def test_spectral_error_on_bad_grid(self):
        with pytest.raises(ValueError):
            assemble(PARAMS, Grid(32))
        with pytest.raises(ValueError):
            assemble(RjParams(1.0, 0.0), Grid(128))


def sparse_weak_form(params, grid, interp):
    """Oracle: the weak form as S^T diag(measure) S with the (n^2 x n)
    difference matrix S = I3 + M2 - M0 - I1 formed explicitly in sparse
    storage, row (i, j) of S being one node of the tensor rule."""
    n = grid.n
    tab = full_table(grid, interp)
    fb = params.value(grid.nodes)
    measure = tab.W * fb[:, None] * params.value(tab.P1) \
        * fb[None, :] * params.value(tab.P3)

    rows = np.arange(n * n)
    ones = np.ones(n * n)
    m0 = sparse.csr_matrix((ones, (rows, np.repeat(np.arange(n), n))), shape=(n * n, n))
    m2 = sparse.csr_matrix((ones, (rows, np.tile(np.arange(n), n))), shape=(n * n, n))

    def interp_sparse(which):
        idx, wts = which
        r = np.concatenate([rows] * len(idx))
        c = np.concatenate([i.ravel() for i in idx])
        v = np.concatenate([w.ravel() for w in wts])
        return sparse.csr_matrix((v, (r, c)), shape=(n * n, n))

    S = (interp_sparse(tab.i3) + m2 - m0 - interp_sparse(tab.i1)).tocsr()
    Q = (S.T @ sparse.diags(measure.ravel()) @ S).toarray()
    inv_fb = 1.0 / fb
    return -(grid.weight / 4.0) * (inv_fb[:, None] * Q * inv_fb[None, :])


class TestWeakFormAssembly:
    # 1 << 15 stencil-pair values: sub-blocks of 1,024 packed entries with
    # linear interpolation and 512 with cubic (the half table of n = 100
    # has 2,500 entries)
    @pytest.mark.parametrize("block_values", [None, 1 << 15])
    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("n", [64, 100, 256])
    def test_matches_sparse_oracle(self, monkeypatch, n, interp, block_values):
        if block_values is not None:
            monkeypatch.setattr(linearized, "_BLOCK_VALUES", block_values)
        g = Grid(n)
        want = sparse_weak_form(PARAMS, g, interp)
        E, O, _ = linearized._weak_form_matrix(PARAMS, g, interp)
        got = linearized._apply((E, O), np.eye(n))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("n", [64, 100, 256])
    def test_exactly_symmetric(self, n, interp):
        # each block is (S + S^T) +- (X + X^T), scaled by the outer product
        # of 1/fb, which commutes
        op = assemble(PARAMS, Grid(n), interp)
        assert np.array_equal(dense_L(op), dense_L(op).T)
        for B in op.blocks:
            assert np.array_equal(B, B.T)
        assert op.sym_defect == 0.0

    # table blocks of 5,000 entries: 4 streamed blocks of the half table at
    # n = 256 and 5 at n = 300; 1 << 12 stencil-pair values make sub-blocks
    # of 128 entries (linear) or 64 (cubic), ragged in every block
    @pytest.mark.parametrize("block_values", [None, 1 << 12])
    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("n", [256, 300])
    def test_row_blocks_equal_cached_table(self, monkeypatch, n, interp, block_values):
        # the streamed transient blocks give the bits of the same entries of
        # one whole table
        monkeypatch.setattr(collision, "_TABLE_BLOCK", 5000)
        if block_values is not None:
            monkeypatch.setattr(linearized, "_BLOCK_VALUES", block_values)
        g = Grid(n)
        with monkeypatch.context() as m:
            m.setattr(linearized, "_packed_blocks", cached_slice_blocks)
            *want, a_want = linearized._weak_form_matrix(PARAMS, g, interp)
            assert np.array_equal(multiplier_a(PARAMS, g).values, a_want)
        *got, a = linearized._weak_form_matrix(PARAMS, g, interp)
        for B, B_want in zip(got, want):
            assert np.array_equal(B, B_want)
        assert np.array_equal(a, a_want)
        assert np.array_equal(multiplier_a(PARAMS, g).values, a_want)

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    def test_bits_do_not_depend_on_sub_blocks(self, monkeypatch, interp):
        # np.add.at adds entry by entry in table order and the blocks are
        # formed elementwise, so the sub-block size moves no bit of the
        # blocks or of a
        g = Grid(300)
        *want, a_want = linearized._weak_form_matrix(PARAMS, g, interp)
        for B in want:
            assert np.array_equal(B, B.T)
        for block_values in (1 << 12, 1 << 16, 1 << 20):
            monkeypatch.setattr(linearized, "_BLOCK_VALUES", block_values)
            *got, a = linearized._weak_form_matrix(PARAMS, g, interp)
            for B, B_want in zip(got, want):
                assert np.array_equal(B, B_want)
            assert np.array_equal(a, a_want)

    # TABLE_MAX_N bounds the table of C[f] only: with it at 0 the assembly
    # streams the same blocks
    @pytest.mark.parametrize("table_max_n", [None, 0])
    def test_assemble_builds_each_table_once(self, monkeypatch, table_max_n):
        # a comes from the assembly's own pass, so a cubic assembly builds no
        # linear table for it; the 16,384 entries of the half table of
        # n = 256 stream in 4 blocks, each built once with its own span, in
        # table order
        monkeypatch.setattr(collision, "_TABLE_BLOCK", 5000)
        if table_max_n is not None:
            monkeypatch.setattr(collision, "TABLE_MAX_N", table_max_n)
        built = []
        init = ResonanceTable.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)
        monkeypatch.setattr(ResonanceTable, "__init__", counting_init)
        g = Grid(256)
        op = assemble(PARAMS, g, interp="cubic")
        assert built == [(g, "cubic", (k, min(k + 5000, 16384))) for k in range(0, 16384, 5000)]
        assert np.array_equal(op.a.values, multiplier_a(PARAMS, g).values)

    @pytest.mark.parametrize(("n", "interp"), [(256, "cubic"), (1024, "linear")])
    def test_stencils_are_the_lagrange_oracle(self, monkeypatch, n, interp):
        # the nodes and weights that _add_block derives from each streamed
        # block's (q, t) stencils, a sub-block at a time (the p3 side
        # first), are those of the Lagrange oracle at the block's P3 and P1,
        # bit for bit
        derived, blocks = [], []
        derive, add = linearized.lagrange_weights, linearized._add_block

        def spy_derive(n, stencil, order):
            got = derive(n, stencil, order)
            if stencil[0].size:
                derived[-1].append(got)
            return got

        def spy_add(A, tab, *args):
            blocks.append(tab)
            derived.append([])
            return add(A, tab, *args)
        monkeypatch.setattr(linearized, "lagrange_weights", spy_derive)
        monkeypatch.setattr(linearized, "_add_block", spy_add)
        g = Grid(n)
        linearized._weak_form_matrix(PARAMS, g, interp)
        assert len(blocks) == -(-n * n // 4 // collision._TABLE_BLOCK)
        for tab, calls in zip(blocks, derived):
            for side, at in ((0, tab.P3), (1, tab.P1)):
                got = calls[side::2]
                want = lagrange_stencil(g, at, interp)
                for k in range(2):  # indices, then weights
                    for part, b in zip(zip(*(c[k] for c in got)), want[k]):
                        a = np.concatenate(part)
                        assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_traced_peak_memory(self):
        # the (n^2 x n) sparse route peaked at 291 MiB here; the dense
        # result, one streamed table block and one sub-block's temporaries
        # must stay within 5 n^2 doubles (4.75 with an n^2 bincount output
        # per sub-block)
        g = Grid(1024)
        tracemalloc.start()
        try:
            linearized._weak_form_matrix(PARAMS, g, "linear")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * g.n ** 2
        # the stencil products go straight into the two accumulators of
        # n^2 / 4 each, S and X, and the blocks are formed from them a chunk
        # of rows at a time: beside them only the two blocks of n^2 / 4 are
        # held (1.77 n^2 with an n^2 accumulator folded into the blocks,
        # 3.02 n^2 when an n^2 outer product of 1/fb coexisted with it and L)
        assert peak <= 1.5 * 8 * g.n ** 2

    def test_traced_peak_memory_with_table_build(self, monkeypatch):
        # with PHONON_THREADS=2, which reaches no table build, the assembly
        # still holds its two accumulators of n^2 / 4 and one streamed table
        # block at a time, then the blocks: it stays within 1.5 n^2 doubles
        # (1.85 n^2 with an n^2 accumulator folded into the blocks; with a
        # cached whole table, the build and the assembly took 10.4 n^2, and
        # with an n^2 bincount output per sub-block 6.25 n^2)
        monkeypatch.setenv("PHONON_THREADS", "2")
        g = Grid(1024)
        tracemalloc.start()
        try:
            linearized._weak_form_matrix(PARAMS, g, "linear")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * g.n ** 2


class TestParity:
    """The even and odd blocks against the whole-table assembly (oracle)."""

    @pytest.fixture(scope="class", params=[(256, "cubic"), (512, "linear")],
                    ids=["256-cubic", "512-linear"])
    def pair(self, request):
        n, interp = request.param
        g = Grid(n)
        return assemble(PARAMS, g, interp), whole_weak_form(PARAMS, g, interp)[0]

    def test_eigenvalues_match_whole_oracle(self, pair):
        op, L = pair
        want = np.linalg.eigvalsh(L)
        assert np.max(np.abs(op.eigenvalues - want)) <= 1e-14 * np.max(np.abs(want))

    def test_matrix_matches_whole_oracle(self, pair):
        op, L = pair
        assert np.max(np.abs(dense_L(op) - L)) <= 1e-13 * np.max(np.abs(L))

    def test_apply_matches_matrix(self, pair):
        # the block-wise product, on a vector and on the columns of a block
        op, _ = pair
        G = np.stack([trig_sample(op.grid.nodes, seed) for seed in range(3)], axis=1)
        want = dense_L(op) @ G
        scale = np.max(np.abs(want))
        assert np.max(np.abs(op.apply(G) - want)) <= 1e-14 * scale
        assert np.max(np.abs(op.apply(G[:, 1]) - want[:, 1])) <= 1e-14 * scale

    def test_conservation_modes_lie_in_the_even_block(self, pair):
        # fb and omega fb are even; the even block holds the two near-null
        # eigenvalues, whose lifted vectors span them, and the odd block none
        op, _ = pair
        lam_e, lam_o = op.even_eigh[0], op.odd_eigenvalues
        assert np.sum(np.abs(lam_e) <= op.spectral_tol) == 2
        assert lam_o[-1] < -op.spectral_tol
        kb = op.kernel_basis()
        assert np.max(np.abs(kb - kb[::-1])) <= 1e-14
        v = op.near_null_vectors()
        assert v.shape == (op.grid.n, 2)
        assert np.array_equal(v, v[::-1])
        assert subspace_angle(v, kb) < 1e-3

    def test_cold_and_cached_are_bit_identical(self, pair, tmp_path):
        op, _ = pair
        save_operator(op, tmp_path / "op.bin")
        got = load_operator(tmp_path / "op.bin")
        for name in ("spectral_tol", "kernel_residuals", "sym_defect", "interp", "params",
                     "grid"):
            assert getattr(got, name) == getattr(op, name)
        for x, y in ((got.a.values, op.a.values), *zip(got.blocks, op.blocks),
                     *zip(got.even_eigh, op.even_eigh),
                     (got.odd_eigenvalues, op.odd_eigenvalues),
                     (dense_L(got), dense_L(op)), (got.eigenvalues, op.eigenvalues)):
            assert np.array_equal(x, y)
        # O's eigenvectors, once both sides have formed them from their O
        for x, y in zip(got.odd_eigh, op.odd_eigh):
            assert np.array_equal(x, y)

    def test_cache_holds_half_the_whole_matrix(self, tmp_path):
        # a, E, O, E's eigenpairs and O's eigenvalues: (3 (n/2)^2 + 2n)
        # doubles and the header (O's eigenvectors are not stored)
        op = assemble(PARAMS, Grid(128))
        save_operator(op, tmp_path / "op.bin")
        assert (tmp_path / "op.bin").stat().st_size == 80 + 8 * (3 * 64 ** 2 + 2 * 128) \
            == 100_432

    def test_odd_grid_is_config_error(self):
        with pytest.raises(ConfigError, match="even n"):
            assemble(PARAMS, Grid(65))

    def test_near_null_band_beyond_two_modes_raises(self, monkeypatch):
        # a tolerance band of width 1 holds many eigenvalues of the even block
        monkeypatch.setattr(linearized, "SPECTRAL_FLOOR", 1.0)
        with pytest.raises(SpectralError, match="even block"):
            assemble(PARAMS, Grid(64))

    @pytest.mark.parametrize("even,odd,match", [
        ([-1.0, -0.5, 0.0], [-1.0, 1e-12], "even block"),   # a mode in the odd block
        ([-1.0, -1e-12, 0.0], [-1.0, -1e-9], "odd block"),  # odd block inside the band
        ([-1.0, 0.0, 1e-6], [-1.0, -0.5], "positive"),      # above the band
    ], ids=["mode-in-odd-block", "odd-block-in-band", "positive"])
    def test_parity_check_raises(self, even, odd, match):
        with pytest.raises(SpectralError, match=match):
            linearized._check_parity(np.array(even), np.array(odd), 1e-8)

    def test_parity_check_passes(self):
        linearized._check_parity(np.array([-1.0, -1e-12, 0.0]), np.array([-1.0, -1e-7]), 1e-8)


def even_and_odd(grid: Grid, seed: int) -> tuple:
    """The exactly even and exactly odd parts of a trigonometric sample."""
    v = trig_sample(grid.nodes, seed)
    return (v + v[::-1]) / 2.0, (v - v[::-1]) / 2.0


class TestOddEigenvectors:
    """O's eigenvectors are formed only for data with an odd part."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        # the shape of every matrix that np.linalg.eigh decomposes
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or eigh(A))
        return calls

    def test_assemble_decomposes_only_the_even_block(self, eigh_calls):
        op = assemble(PARAMS, Grid(128))
        assert eigh_calls == [(64, 64)]
        assert "odd_eigh" not in vars(op)
        assert np.array_equal(op.odd_eigenvalues, np.linalg.eigvalsh(op.blocks[1]))

    def test_odd_data_gets_them_bit_for_bit_cold_or_cached(self, tmp_path, eigh_calls):
        grid = Grid(128)
        cold = assemble(PARAMS, grid)
        save_operator(cold, tmp_path / "op.bin")
        cached = load_operator(tmp_path / "op.bin")
        g0 = Field(grid, trig_sample(grid.nodes, 3))
        got = [semigroup_apply(op, g0, (0.0, 1.0, 50.0)) for op in (cold, cached)]
        assert np.array_equal(*got)
        assert eigh_calls == [(64, 64)] * 3  # E at assembly, then O once per operator
        for x, y in zip(cold.odd_eigh, cached.odd_eigh):
            assert np.array_equal(x, y)
        assert eigh_calls == [(64, 64)] * 3  # kept, not formed again

    def test_even_data_skips_the_odd_block(self, op256):
        op = dataclasses.replace(op256)  # a new operator: nothing formed on it yet
        g0 = Field(op.grid, even_and_odd(op.grid, 2)[0])
        ts = (0.0, 2.0, 300.0)
        got = semigroup_apply(op, g0, ts)
        assert "odd_eigh" not in vars(op)
        # the bits of both blocks' products, the odd one on its zero half
        u, w = linearized._halves(g0.values)
        t = np.asarray(ts)
        want = linearized._join(linearized._evolve(op.even_eigh, u, t),
                                linearized._evolve(op.odd_eigh, w, t)).T
        want[0] = g0.values
        assert np.array_equal(got, want)

    def test_apply_skips_a_zero_half(self, op256):
        E, O = op256.blocks
        even, odd = even_and_odd(op256.grid, 4)
        for g in (even, odd, even + odd, np.stack([even, odd], axis=1)):
            u, w = linearized._halves(g)
            assert np.array_equal(op256.apply(g), linearized._join(E @ u, O @ w))

        class Unused:
            def __matmul__(self, _):
                raise AssertionError("O @ w on data with a zero odd half")

        op = dataclasses.replace(op256, blocks=(E, Unused()))
        assert np.array_equal(op.apply(even), op256.apply(even))
        with pytest.raises(AssertionError, match="O @ w"):
            op.apply(odd)


class TestSemigroup:
    def test_identity_at_zero(self, op256):
        g0 = Field(Grid(256), trig_sample(Grid(256).nodes, 1))
        out = semigroup_apply(op256, g0, [0.0])[0]
        assert np.array_equal(out, g0.values)

    def test_rows_match_separate_evaluations(self, op256):
        g = Grid(256)
        g0 = Field(g, trig_sample(g.nodes, 2))
        ts = (0.5, 3.0, 40.0, 700.0)
        for t, row in zip(ts, semigroup_apply(op256, g0, ts)):
            one = semigroup_apply(op256, g0, [t])[0]
            assert np.max(np.abs(row - one)) <= 1e-14 * np.max(np.abs(one))

    def test_zero_row_is_the_data(self, op256):
        g = Grid(256)
        g0 = Field(g, trig_sample(g.nodes, 5))
        states = semigroup_apply(op256, g0, (10.0, 0.0, 1.0))
        assert np.array_equal(states[1], g0.values)

    @pytest.mark.parametrize("t", [-1.0, np.nan])
    def test_bad_time_raises(self, op256, t):
        g = Grid(256)
        with pytest.raises(ValueError):
            semigroup_apply(op256, Field(g, trig_sample(g.nodes, 1)), [t])

    def test_kernel_mode_stationary(self, op256):
        fb = op256.equilibrium
        out = semigroup_apply(op256, fb, [700.0])[0]
        assert np.max(np.abs(out - fb.values)) < 1e-9 * np.max(fb.values)

    def test_l2_nonincreasing(self, op256):
        g = Grid(256)
        g0 = Field(g, trig_sample(g.nodes, 4))
        norms = [lp_norm(Field(g, gt), 2)
                 for gt in semigroup_apply(op256, g0, (0.0, 1.0, 10.0, 100.0, 1000.0))]
        assert all(a >= b - 1e-12 for a, b in zip(norms[:-1], norms[1:]))

    def test_weak_growth_bound(self, op256):
        # ||e^{tL} g0||_inf stays within <t>^{1.1} of the data
        g = Grid(256)
        g0 = Field(g, trig_sample(g.nodes, 9))
        sup0 = lp_norm(g0, np.inf)
        ts = (1.0, 10.0, 100.0, 1000.0)
        for t, gt in zip(ts, semigroup_apply(op256, g0, ts)):
            sup = lp_norm(Field(g, gt), np.inf)
            assert sup <= sup0 * (10.0 + t) ** 1.1

    def test_dissipation_time_integral(self, op256):
        # int_0^T int a |e^{tL} g0|^2 dp dt <= C ||g0||_2^2 with C stable in T
        g = Grid(256)
        a = op256.a.values
        g0 = project_out_kernel(op256, Field(g, trig_sample(g.nodes, 12)))
        consts = []
        for T in (1e2, 1e3, 1e4):
            ts = np.geomspace(1e-3, T, 1200)
            gv = semigroup_apply(op256, g0, ts)
            integrand = g.weight * np.sum(a * gv ** 2, axis=1)
            val = float(np.sum(0.5 * (integrand[1:] + integrand[:-1])
                               * np.diff(ts))) + integrand[0] * ts[0]
            consts.append(val / (g.weight * np.sum(g0.values ** 2)))
        assert consts[-1] < 2.0
        assert consts[-1] - consts[0] < 0.5 * consts[0] + 0.2


class TestProjection:
    def test_kernel_mode_maps_to_zero(self, op256):
        fb = op256.equilibrium
        out = project_out_kernel(op256, fb)
        assert np.max(np.abs(out.values)) < 1e-12 * np.max(fb.values)

    def test_orthogonality_and_idempotence(self, op256):
        g = Grid(256)
        v = Field(g, trig_sample(g.nodes, 3))
        out = project_out_kernel(op256, v)
        fb = op256.equilibrium.values
        assert abs(out.values @ fb) < 1e-12 * np.linalg.norm(fb) * np.linalg.norm(out.values)
        assert abs(out.values @ (g.omega * fb)) < 1e-12 * np.linalg.norm(out.values)
        twice = project_out_kernel(op256, out)
        assert np.allclose(twice.values, out.values, atol=1e-12)


class TestDecayMeasurement:
    def test_admissible_data_properties(self, op512):
        g = Grid(512)
        g0 = decay_initial_data(PARAMS, g)
        fb = op512.equilibrium.values
        assert abs(g0.values @ fb) < 1e-10
        assert abs(g0.values @ (g.omega * fb)) < 1e-10
        assert np.max(np.abs(g0.values) / g.omega ** 0.5) < 2.0

    def test_kernel_component_plateaus(self, op256):
        # data with a retained kernel component shows no decay
        fb = op256.equilibrium
        rep, = measure_linear_decay(op256, fb, [0.5],
                                    np.geomspace(10.0, 1e3, 64), (1e2, 1e3))
        assert abs(rep.exponent) < 1e-6

    def test_slopes_at_default_params(self, op512):
        # wide sanity bounds at (1, 1); the calibrated measurement lives in
        # the decay experiment (gamma = 2) and the acceptance suite
        g0 = decay_initial_data(PARAMS, Grid(512))
        t_grid = np.geomspace(10.0, 1e3, 64)
        rep12, rep16 = measure_linear_decay(op512, g0, (0.5, 1.0 / 6.0), t_grid, (1e2, 1e3))
        assert -1.2 < rep12.exponent < -0.5
        assert -0.8 < rep16.exponent < -0.3

    def test_fit_window_guard(self, op256):
        g0 = decay_initial_data(PARAMS, Grid(256))
        with pytest.raises(FitError):
            measure_linear_decay(op256, g0, [0.5],
                                 np.geomspace(1.0, 1e3, 10), (900.0, 1e3))
        with pytest.raises(ValueError):
            measure_linear_decay(op256, g0, [0.6], np.geomspace(10.0, 1e3, 64), (1e2, 1e3))


class TestBulkEdge:
    def test_zero_field(self):
        g = Grid(128)
        m, n_edge, q = bulk_edge_functionals(Field(g, np.zeros(128)), 5.0, 0.5)
        assert (m, n_edge, q) == (0.0, 0.0, 0.0)

    def test_partition_of_unity(self):
        g = Grid(128)
        m, n_edge, q = bulk_edge_functionals(Field(g, np.ones(128)), 5.0, 0.5)
        assert m + n_edge == pytest.approx(TWO_PI, abs=1e-12)
        assert q == 1.0

    def test_bulk_mass_decays_with_edge_bound(self, op512):
        # if q(t) <= <t>^e on the edges, the bulk mass tracks <t>^{2e-alpha}
        alpha = 0.5
        g0 = decay_initial_data(PARAMS, Grid(512))
        ts = np.geomspace(10.0, 1000.0, 25)
        ms, qs = [], []
        for t, gt in zip(ts, semigroup_apply(op512, g0, ts)):
            m, _, q = bulk_edge_functionals(Field(Grid(512), gt), t, alpha)
            ms.append(m)
            qs.append(q)
        tb = 10.0 + ts
        e_meas = np.polyfit(np.log(tb), np.log(qs), 1)[0]
        bound = (tb / tb[0]) ** (2 * e_meas - alpha) * ms[0] * 5.0
        assert np.all(np.asarray(ms) <= bound)


class TestCache:
    def test_save_load_roundtrip(self, op256, tmp_path):
        path = tmp_path / "op.bin"
        save_operator(op256, path)
        op2 = load_operator(path)
        assert op2.grid.n == 256
        assert op2.params == PARAMS
        assert np.array_equal(dense_L(op2), dense_L(op256))
        assert np.array_equal(op2.eigenvalues, op256.eigenvalues)
        assert op2.kernel_residuals == op256.kernel_residuals

    def test_load_or_assemble_uses_cache(self, tmp_path):
        op1 = load_or_assemble(PARAMS, Grid(128), tmp_path)
        files = list(tmp_path.glob("linop_*.bin"))
        assert len(files) == 1
        op2 = load_or_assemble(PARAMS, Grid(128), tmp_path)
        assert np.array_equal(dense_L(op1), dense_L(op2))

    @pytest.mark.parametrize("former", [False, True], ids=["no-former-file", "former-file"])
    def test_failed_write_leaves_no_partial_cache(self, tmp_path, monkeypatch, former):
        # the disk fills after the header and part of the payload: the cache
        # path keeps what it held (nothing, or the former valid file), and
        # no temporary file is left beside it
        path = tmp_path / "op.bin"
        if former:
            save_operator(assemble(PARAMS, Grid(128)), path)
            before = path.read_bytes()
        op = assemble(RjParams(1.0, 2.0), Grid(128))
        limit = 80 + 8 * 1000
        real_open, failed_at = open, []

        def full_disk_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            write = fh.write

            def partial(data):
                room = limit - fh.tell()
                data = memoryview(data).cast("B")
                if data.nbytes > room:
                    write(data[:room])
                    fh.flush()
                    failed_at.append(fh.tell())
                    raise OSError(errno.ENOSPC, "No space left on device")
                return write(data)

            fh.write = partial
            return fh

        with monkeypatch.context() as m:
            m.setattr(linearized, "open", full_disk_open, raising=False)
            with pytest.raises(OSError, match="No space left"):
                save_operator(op, path)
        assert failed_at == [limit]
        assert list(tmp_path.glob("*.tmp")) == []
        if former:
            assert path.read_bytes() == before
            assert load_operator(path).params == PARAMS
        else:
            assert list(tmp_path.iterdir()) == []

    def test_cache_whose_key_differs_from_its_name_is_rebuilt(self, tmp_path):
        # the operator for (1, 1) under the name of (1, 2): the header's key
        # decides, so the call assembles (1, 2) and rewrites the file
        grid, want = Grid(128), RjParams(1.0, 2.0)
        path = tmp_path / "linop_n128_b1_g2_linear.bin"
        save_operator(assemble(PARAMS, grid), path)
        op = load_or_assemble(want, grid, tmp_path)
        assert op.params == want
        assert list(tmp_path.iterdir()) == [path]
        cached = load_operator(path)
        assert (cached.grid.n, cached.params, cached.interp) == (128, want, "linear")
        assert np.array_equal(dense_L(cached), dense_L(op))
