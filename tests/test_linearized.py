import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from phononlab import collision, linearized
from phononlab.collision import ResonanceTable
from phononlab.equilibria import RjParams
from phononlab.errors import FitError
from phononlab.grid import Field, Grid, lp_norm
from phononlab.linearized import (assemble, bulk_edge_functionals,
                                  decay_initial_data, k1_matrix,
                                  k1_row_integral, kernel_k1, kernel_k2,
                                  load_operator, load_or_assemble,
                                  measure_linear_decay, multiplier_a,
                                  multiplier_at, project_out_kernel,
                                  save_operator, semigroup_apply,
                                  subspace_angle)
from phononlab.manifold import (TWO_PI, canonicalize, f_minus_zeros,
                                f_plus, h, omega)
from phononlab.quadrature import QuadratureSpec

PARAMS = RjParams(1.0, 1.0)


@pytest.fixture(scope="module")
def op256():
    return assemble(PARAMS, Grid(256))


@pytest.fixture(scope="module")
def op512():
    return assemble(PARAMS, Grid(512))


def smooth_random(grid, seed, modes=12):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=modes)
    s = rng.normal(size=modes)
    return sum(c[k] * np.cos((k + 1) * grid.nodes) + s[k] * np.sin((k + 1) * grid.nodes)
               for k in range(modes))


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
            spec = QuadratureSpec(n_panels=4096)
            v_y = k1_row_integral(p, PARAMS, spec)
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
        Kt = np.diag(1.0 / np.sqrt(a)) @ (op256.matrix + np.diag(a)) \
            @ np.diag(1.0 / np.sqrt(a))
        evals = np.linalg.eigvalsh(0.5 * (Kt + Kt.T))
        # top two are the kernel images; the rest sit strictly below 1
        assert evals[-3] < 1.0 - 1e-3


class TestAssembly:
    def test_matrix_symmetric(self, op512):
        M = op512.matrix
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
        g = Grid(256)
        for seed in range(100):
            v = smooth_random(g, seed)
            q = v @ (-op256.matrix @ v)
            assert q >= -1e-12 * (v @ v)

    def test_dissipation_lower_bound(self, op256):
        g = Grid(256)
        a = op256.a.values
        kb = op256.kernel_basis()
        ratios = []
        for seed in range(100):
            v = smooth_random(g, seed)
            v = v - kb @ (kb.T @ v)
            ratios.append((v @ (-op256.matrix @ v)) / ((a * v) @ v))
        assert min(ratios) > 0.0

    def test_weighted_K_eigenvalues_below_one(self, op512):
        a = op512.a.values
        Kt = np.diag(a ** -0.5) @ (op512.matrix + np.diag(a)) @ np.diag(a ** -0.5)
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
    tab = ResonanceTable.cached(grid, interp)
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
    # 1 << 15 stencil-pair values: 8-row sub-blocks at n = 100 with linear
    # interpolation (the last one has 4 rows) and 4-row ones with cubic
    @pytest.mark.parametrize("block_values", [None, 1 << 15])
    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("n", [64, 100, 256])
    def test_matches_sparse_oracle(self, monkeypatch, n, interp, block_values):
        if block_values is not None:
            monkeypatch.setattr(linearized, "_BLOCK_VALUES", block_values)
        g = Grid(n)
        want = sparse_weak_form(PARAMS, g, interp)
        got, _ = linearized._weak_form_matrix(PARAMS, g, interp)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("block_values", [None, 1])  # 1: one row per sub-block
    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("n", [256, 300])  # 300 = 128 + 128 + 44 rows
    def test_row_blocks_equal_cached_table(self, monkeypatch, n, interp, block_values):
        if block_values is not None:
            monkeypatch.setattr(linearized, "_BLOCK_VALUES", block_values)
        g = Grid(n)
        full, a_full = linearized._weak_form_matrix(PARAMS, g, interp)
        assert np.array_equal(multiplier_a(PARAMS, g).values, a_full)
        monkeypatch.setattr(collision, "TABLE_MAX_N", 0)
        L_rows, a_rows = linearized._weak_form_matrix(PARAMS, g, interp)
        assert np.array_equal(L_rows, full)
        assert np.array_equal(a_rows, a_full)
        assert np.array_equal(multiplier_a(PARAMS, g).values, a_full)

    @pytest.mark.parametrize("table_max_n", [None, 0])  # 0: two row-sliced tables
    def test_assemble_builds_each_table_once(self, monkeypatch, table_max_n):
        # a comes from the assembly's own pass, so a cubic assembly builds no
        # linear table for it, and no row-sliced table is built twice
        if table_max_n is not None:
            monkeypatch.setattr(collision, "TABLE_MAX_N", table_max_n)
        monkeypatch.setattr(ResonanceTable, "_cache", {})
        built = []
        init = ResonanceTable.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)
        monkeypatch.setattr(ResonanceTable, "__init__", counting_init)
        g = Grid(256)
        op = assemble(PARAMS, g, interp="cubic")
        assert len(built) == (1 if table_max_n is None else 2)
        assert np.array_equal(op.a.values, multiplier_a(PARAMS, g).values)

    def test_traced_peak_memory(self):
        # the (n^2 x n) sparse route peaked at 291 MiB here; the dense result
        # and one sub-block's temporaries must stay within 16 n^2 doubles
        g = Grid(1024)
        ResonanceTable.cached(g, "linear")
        tracemalloc.start()
        try:
            linearized._weak_form_matrix(PARAMS, g, "linear")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * g.n ** 2


class TestSemigroup:
    def test_identity_at_zero(self, op256):
        g0 = Field(Grid(256), smooth_random(Grid(256), 1))
        out = semigroup_apply(op256, g0, 0.0)
        assert np.array_equal(out.values, g0.values)

    def test_kernel_mode_stationary(self, op256):
        fb = op256.equilibrium
        out = semigroup_apply(op256, fb, 700.0)
        assert np.max(np.abs(out.values - fb.values)) < 1e-9 * np.max(fb.values)

    def test_l2_nonincreasing(self, op256):
        g = Grid(256)
        g0 = Field(g, smooth_random(g, 4))
        norms = [lp_norm(semigroup_apply(op256, g0, t), 2)
                 for t in (0.0, 1.0, 10.0, 100.0, 1000.0)]
        assert all(a >= b - 1e-12 for a, b in zip(norms[:-1], norms[1:]))

    def test_weak_growth_bound(self, op256):
        # ||e^{tL} g0||_inf stays within <t>^{1.1} of the data
        g = Grid(256)
        g0 = Field(g, smooth_random(g, 9))
        sup0 = lp_norm(g0, np.inf)
        for t in (1.0, 10.0, 100.0, 1000.0):
            sup = lp_norm(semigroup_apply(op256, g0, t), np.inf)
            assert sup <= sup0 * (10.0 + t) ** 1.1

    def test_dissipation_time_integral(self, op256):
        # int_0^T int a |e^{tL} g0|^2 dp dt <= C ||g0||_2^2 with C stable in T
        g = Grid(256)
        a = op256.a.values
        g0 = project_out_kernel(op256, Field(g, smooth_random(g, 12)))
        c = op256.eigenvectors.T @ g0.values
        consts = []
        for T in (1e2, 1e3, 1e4):
            ts = np.geomspace(1e-3, T, 1200)
            gv = op256.eigenvectors @ (np.exp(op256.eigenvalues[:, None] * ts) * c[:, None])
            integrand = g.weight * np.sum(a[:, None] * gv ** 2, axis=0)
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
        v = Field(g, smooth_random(g, 3))
        out = project_out_kernel(op256, v)
        fb = op256.equilibrium.values
        assert abs(out.values @ fb) < 1e-12 * np.linalg.norm(fb) * np.linalg.norm(out.values)
        assert abs(out.values @ (g.omega * fb)) < 1e-12 * np.linalg.norm(out.values)
        twice = project_out_kernel(op256, out)
        assert np.allclose(twice.values, out.values, atol=1e-12)


class TestDecayMeasurement:
    def test_admissible_data_properties(self, op512):
        g = Grid(512)
        g0 = decay_initial_data(PARAMS, g, nu=0.5)
        fb = op512.equilibrium.values
        assert abs(g0.values @ fb) < 1e-10
        assert abs(g0.values @ (g.omega * fb)) < 1e-10
        assert np.max(np.abs(g0.values) / g.omega ** 0.5) < 2.0

    def test_kernel_component_plateaus(self, op256):
        # data with a retained kernel component shows no decay
        fb = op256.equilibrium
        rep = measure_linear_decay(op256, fb, 0.5, 0.5,
                                   np.geomspace(10.0, 1e3, 64))
        assert abs(rep.exponent) < 1e-6

    def test_slopes_at_default_params(self, op512):
        # wide sanity bounds at (1, 1); the calibrated measurement lives in
        # the decay experiment (gamma = 2) and the acceptance suite
        g0 = decay_initial_data(PARAMS, Grid(512), nu=0.5)
        rep12 = measure_linear_decay(op512, g0, 0.5, 0.5)
        rep16 = measure_linear_decay(op512, g0, 1.0 / 6.0, 0.5)
        assert -1.2 < rep12.exponent < -0.5
        assert -0.8 < rep16.exponent < -0.3

    def test_fit_window_guard(self, op256):
        g0 = decay_initial_data(PARAMS, Grid(256), nu=0.5)
        with pytest.raises(FitError):
            measure_linear_decay(op256, g0, 0.5, 0.5,
                                 np.geomspace(1.0, 1e3, 10), (900.0, 1e3))
        with pytest.raises(ValueError):
            measure_linear_decay(op256, g0, 0.6, 0.5)


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
        g0 = decay_initial_data(PARAMS, Grid(512), nu=0.5)
        ts = np.geomspace(10.0, 1000.0, 25)
        ms, qs = [], []
        for t in ts:
            gt = semigroup_apply(op512, g0, t)
            m, _, q = bulk_edge_functionals(gt, t, alpha)
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
        assert np.array_equal(op2.matrix, op256.matrix)
        assert np.array_equal(op2.eigenvalues, op256.eigenvalues)
        assert op2.kernel_residuals == op256.kernel_residuals

    def test_load_or_assemble_uses_cache(self, tmp_path):
        op1 = load_or_assemble(PARAMS, Grid(128), tmp_path)
        files = list(tmp_path.glob("linop_*.bin"))
        assert len(files) == 1
        op2 = load_or_assemble(PARAMS, Grid(128), tmp_path)
        assert np.array_equal(op1.matrix, op2.matrix)
