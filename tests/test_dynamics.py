from types import SimpleNamespace

import numpy as np
import pytest

from phononlab import dynamics
from phononlab.collision import ResonanceTable, collision_operator
from phononlab.dynamics import (EvolutionConfig, PerturbationTables, _run,
                                b_norm_components, evolve_nonlinear_f,
                                evolve_perturbation)
from phononlab.equilibria import RjParams, rj_field
from phononlab.errors import BlowupError, ConfigError, FitError
from phononlab.fitting import fit_power_law
from phononlab.grid import Field, Grid, gather
from phononlab.linearized import assemble, decay_initial_data, semigroup_apply

PARAMS = RjParams(1.0, 1.0)


@pytest.fixture(scope="module")
def op128():
    return assemble(PARAMS, Grid(128))


@pytest.fixture(scope="module")
def op256c():
    return assemble(PARAMS, Grid(256), interp="cubic")


def scaled_data(params, grid, eps):
    g0 = decay_initial_data(params, grid, nu=0.5)
    scale = eps / float(np.max(np.abs(g0.values) / grid.omega ** 0.5))
    return Field(grid, scale * g0.values)


# Full-matrix oracle: every (p0, p2) pair of the tensor rule, both triangles,
# with the p3 side read from the table's own P3 and i3 stencil, and Q and N
# summed separately row by row.  PerturbationTables.nonlinear must match
# Q + N to rounding.

def full_tables(params, grid, interp="linear"):
    """Channel weights G0..G3 on the full (n x n) tensor rule."""
    tab = ResonanceTable.cached(grid, interp)
    fb = params.value(grid.nodes)
    F0, F1, F2, F3 = fb[:, None], params.value(tab.P1), fb[None, :], params.value(tab.P3)
    W = tab.W
    return SimpleNamespace(tab=tab, grid=grid, inv_fb=1.0 / fb,
                           G0=W * F1 * F2 * F3, G1=W * F0 * F2 * F3,
                           G2=W * F0 * F1 * F3, G3=W * F0 * F1 * F2)


def full_gathers(full, g):
    return g[:, None], gather(g, full.tab.i1), g[None, :], gather(g, full.tab.i3)


def full_quadratic(full, g):
    g0, g1, g2, g3 = full_gathers(full, g)
    e2 = lambda a, b, c: a * b + a * c + b * c
    acc = full.G0 * e2(g1, g2, g3) + full.G1 * e2(g0, g2, g3) \
        - full.G2 * e2(g0, g1, g3) - full.G3 * e2(g0, g1, g2)
    return full.grid.weight * np.sum(acc, axis=1) * full.inv_fb


def full_cubic(full, g):
    g0, g1, g2, g3 = full_gathers(full, g)
    acc = full.G0 * (g1 * g2 * g3) + full.G1 * (g0 * g2 * g3) \
        - full.G2 * (g0 * g1 * g3) - full.G3 * (g0 * g1 * g2)
    return full.grid.weight * np.sum(acc, axis=1) * full.inv_fb


def row_form_linear(full, g):
    """Row-form L action (channel l carries the sign of -+ g_l / fb_l); time
    stepping uses the symmetric matrix instead."""
    g0, g1, g2, g3 = full_gathers(full, g)
    acc = -full.G0 * g0 - full.G1 * g1 + full.G2 * g2 + full.G3 * g3
    return full.grid.weight * np.sum(acc, axis=1) * full.inv_fb


def quadratic_term(g: Field, params, interp="linear") -> Field:
    """Exact quadratic component of the perturbation equation."""
    return Field(g.grid, full_quadratic(full_tables(params, g.grid, interp), g.values))


def cubic_term(g: Field, params, interp="linear") -> Field:
    """Exact cubic component; every channel drops one g factor, so no
    division by g occurs."""
    return Field(g.grid, full_cubic(full_tables(params, g.grid, interp), g.values))


def random_data(n):
    rng = np.random.default_rng(n)
    return 1e-3 * rng.normal(size=n), 1e3 * rng.normal(size=n)


class TestNonlinearKernel:
    # packed upper triangles: 48 and 100 fit in one block of 16384 entries,
    # 200 (19,900) and 256 (32,640) end in a ragged second block
    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("n", [48, 100, 200, 256])
    def test_agrees_with_full_matrix(self, interp, n):
        grid = Grid(n)
        tabs = PerturbationTables(PARAMS, grid, interp)
        full = full_tables(PARAMS, grid, interp)
        assert np.all(tabs.nonlinear(np.zeros(n)) == 0.0)
        for g in random_data(n):
            want = full_quadratic(full, g) + full_cubic(full, g)
            got = tabs.nonlinear(g)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("n", [48, 100, 200, 256])
    def test_mass_cancels(self, interp, n):
        # each pair adds to one row what it takes from the other
        grid = Grid(n)
        tabs = PerturbationTables(PARAMS, grid, interp)
        fb = PARAMS.value(grid.nodes)
        for g in random_data(n):
            r = fb * tabs.nonlinear(g)
            assert abs(np.sum(r)) <= 1e-15 * np.sum(np.abs(r))

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    def test_block_size_independent(self, monkeypatch, interp):
        # n = 100: 4,950 entries, 38 blocks of 128 and a ragged one of 86
        n = 100
        tabs = PerturbationTables(PARAMS, Grid(n), interp)
        for g in random_data(n):
            want = tabs.nonlinear(g)
            with monkeypatch.context() as m:
                m.setattr(dynamics, "_BLOCK_VALUES", 128)
                got = tabs.nonlinear(g)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestEvolutionConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EvolutionConfig(dt=-1.0, t_final=1.0)
        with pytest.raises(ConfigError):
            EvolutionConfig(dt=1.0, t_final=0.5)
        with pytest.raises(ConfigError):
            EvolutionConfig(dt=1.0, t_final=2.0, integrator="leapfrog")

    def test_record_times(self):
        cfg = EvolutionConfig(dt=0.5, t_final=100.0, record_every=40)
        ts = cfg.record_times()
        assert ts[0] == pytest.approx(20.0)
        geo = EvolutionConfig(dt=0.5, t_final=100.0).record_times()
        assert len(geo) == 64
        assert geo[-1] == pytest.approx(100.0)

    def test_stability_guard(self):
        g = Grid(128)
        g0 = scaled_data(PARAMS, g, 1e-3)
        cfg = EvolutionConfig(dt=50.0, t_final=100.0)
        with pytest.raises(ConfigError):
            evolve_perturbation(g0, PARAMS, cfg)


class TestQuadraticTerm:
    def test_zero_map(self):
        g = Grid(128)
        out = quadratic_term(Field(g, np.zeros(128)), PARAMS)
        assert np.max(np.abs(out.values)) == 0.0

    def test_homogeneity(self):
        g = Grid(128)
        rng = np.random.default_rng(0)
        v = 0.01 * np.sin(3 * g.nodes) + 0.005 * rng.normal(size=128)
        q1 = quadratic_term(Field(g, v), PARAMS).values
        q2 = quadratic_term(Field(g, 3.0 * v), PARAMS).values
        assert np.allclose(q2, 9.0 * q1, rtol=1e-12, atol=1e-18)

    def test_conservation(self):
        g = Grid(256)
        fb = rj_field(PARAMS, g).values
        rng = np.random.default_rng(5)
        v = 0.05 * sum(rng.normal() * np.cos((k + 1) * g.nodes) for k in range(8))
        q = quadratic_term(Field(g, v), PARAMS).values
        mass = g.weight * np.sum(fb * q)
        energy = g.weight * np.sum(g.omega * fb * q)
        scale = g.weight * np.sum(np.abs(fb * q))
        assert abs(mass) < 1e-13 * max(scale, 1e-30)
        assert abs(energy) < 1e-4 * max(scale, 1e-30)  # quadrature-limited


class TestCubicTerm:
    def test_zero_and_homogeneity(self):
        g = Grid(128)
        assert np.max(np.abs(cubic_term(Field(g, np.zeros(128)), PARAMS).values)) == 0.0
        v = 0.01 * np.cos(2 * g.nodes)
        c1 = cubic_term(Field(g, v), PARAMS).values
        c2 = cubic_term(Field(g, 2.0 * v), PARAMS).values
        assert np.allclose(c2, 8.0 * c1, rtol=1e-12, atol=1e-20)

    def test_expansion_consistency_row_form(self):
        # L g + Q[g] + N[g] in the shared row quadrature reproduces the full
        # collision operator of fb (1 + g) to rounding-level accuracy
        g = Grid(256)
        full = full_tables(PARAMS, g)
        rng = np.random.default_rng(2)
        v = 0.02 * sum(rng.normal() * np.cos((k + 1) * g.nodes) +
                       rng.normal() * np.sin((k + 1) * g.nodes) for k in range(6))
        fb = rj_field(PARAMS, g).values
        lhs = row_form_linear(full, v) + full_quadratic(full, v) + full_cubic(full, v)
        f1 = Field(g, fb * (1.0 + v))
        rhs = collision_operator(f1).values / fb
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) < 2e-4 * scale  # interp(fb(1+g)) vs fb*interp(1+g)

    def test_expansion_consistency_matrix_form(self, op256c):
        # with the symmetric matrix for L the residual is the weak-vs-row
        # quadrature difference; it shrinks under refinement
        devs = []
        for n in (128, 256):
            g = Grid(n)
            op = assemble(PARAMS, g)
            v = 0.01 * np.cos(3 * g.nodes) * g.omega
            fb = rj_field(PARAMS, g).values
            lhs = op.matrix @ v + quadratic_term(Field(g, v), PARAMS).values \
                + cubic_term(Field(g, v), PARAMS).values
            rhs = collision_operator(Field(g, fb * (1.0 + v))).values / fb
            devs.append(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))
        assert devs[1] < 0.1
        assert devs[1] < devs[0]


class TestNonlinearF:
    def test_rj_stationary(self):
        g = Grid(128)
        f0 = rj_field(PARAMS, g)
        cfg = EvolutionConfig(dt=1.0, t_final=10.0, record_every=2, interp="cubic")
        traj = evolve_nonlinear_f(f0, cfg)
        drift = np.max(np.abs(traj.states[-1][1] - f0.values)) / np.max(f0.values)
        assert drift < 1e-4
        dm, de = traj.conserved_drift()
        assert dm < 1e-12 and de < 1e-6

    def test_perturbed_run_conserves_and_entropy_grows(self):
        g = Grid(128)
        fb = rj_field(PARAMS, g).values
        f0 = Field(g, fb * (1.0 + 0.05 * np.sin(2 * g.nodes)))
        cfg = EvolutionConfig(dt=1.0, t_final=10.0, record_every=1, interp="cubic")
        traj = evolve_nonlinear_f(f0, cfg)
        dm, de = traj.conserved_drift()
        assert dm < 1e-12
        assert de < 1e-6
        # int log f is nondecreasing along the flow
        assert np.all(np.diff(traj.entropy) > -1e-12)
        assert traj.entropy[-1] > traj.entropy[0]

    def test_rk4_self_convergence(self):
        g = Grid(128)
        fb = rj_field(PARAMS, g).values
        f0 = Field(g, fb * (1.0 + 0.1 * np.sin(g.nodes)))
        outs = []
        for dt in (1.0, 0.5, 0.25):
            cfg = EvolutionConfig(dt=dt, t_final=4.0, record_every=int(4 / dt))
            traj = evolve_nonlinear_f(f0, cfg)
            outs.append(traj.states[-1][1])
        ref = outs[-1]
        e1 = np.max(np.abs(outs[0] - ref))
        e2 = np.max(np.abs(outs[1] - ref))
        assert e1 / e2 > 8.0  # fourth-order: ratio ~16 against a finer reference

    def test_positivity_blowup_guard(self):
        # data whose (mass, energy) cannot be matched skips the stiffness
        # guard; an unstable explicit Euler step then drives the spectrum
        # negative, which must surface as BlowupError
        g = Grid(128)
        f0 = Field(g, 0.3 + g.omega)
        cfg = EvolutionConfig(dt=40.0, t_final=4000.0, integrator="euler",
                              record_every=5)
        with pytest.raises(BlowupError):
            evolve_nonlinear_f(f0, cfg)


class TestRunGuards:
    def test_positivity_checked_every_step(self):
        # f = 1 + g with dg/dt = -0.3 crosses zero at t = 10/3, between the
        # record times 4 and 8; the step that lands at t = 3.5 must raise
        g = Grid(16)
        cfg = EvolutionConfig(dt=0.5, t_final=8.0, integrator="euler", record_every=8)
        with pytest.raises(BlowupError, match=r"positivity failed at t = 3\.5$"):
            _run(g, np.zeros(16), lambda gv: np.full_like(gv, -0.3), cfg,
                 to_f=lambda gv: 1.0 + gv, to_g=lambda gv: gv)


class TestPerturbation:
    def test_eps_guard(self):
        g = Grid(128)
        g0 = scaled_data(PARAMS, g, 0.5)
        with pytest.raises(ConfigError):
            evolve_perturbation(g0, PARAMS, EvolutionConfig(dt=1.0, t_final=5.0))

    def test_conservation(self, op256c):
        g = Grid(256)
        g0 = scaled_data(PARAMS, g, 1e-2)
        cfg = EvolutionConfig(dt=1.5, t_final=100.0, interp="cubic")
        traj = evolve_perturbation(g0, PARAMS, cfg, operator=op256c)
        dm, de = traj.conserved_drift()
        assert dm < 1e-12
        assert de < 1e-7

    def test_kernel_orthogonality_preserved(self, op256c):
        # the conservation functionals stay small relative to the data; the
        # residual injection is quadratic in eps (it comes from the
        # quadratic/cubic terms), so the linear-in-eps budget is probed at
        # moderate amplitude
        g = Grid(256)
        g0 = scaled_data(PARAMS, g, 3e-3)
        cfg = EvolutionConfig(dt=1.5, t_final=100.0, interp="cubic")
        traj = evolve_perturbation(g0, PARAMS, cfg, operator=op256c)
        fb = rj_field(PARAMS, g).values
        l2_0 = np.sqrt(g.weight) * np.linalg.norm(traj.states[0][1])
        for t, gv in traj.states[::5]:
            num = abs(g.weight * np.sum(fb * gv)) + abs(g.weight * np.sum(g.omega * fb * gv))
            assert num < 1e-6 * l2_0

    def test_linear_consistency_with_semigroup(self, op128):
        # at eps = 1e-6 the trajectory is the semigroup up to O(eps^2 t)
        g = Grid(128)
        g0 = scaled_data(PARAMS, g, 1e-6)
        cfg = EvolutionConfig(dt=0.5, t_final=10.0, record_every=4)
        traj = evolve_perturbation(g0, PARAMS, cfg, operator=op128)
        t_end, g_end = traj.states[-1]
        ref = semigroup_apply(op128, g0, t_end)
        err = np.max(np.abs(g_end - ref.values))
        assert err < 1e-3 * np.max(np.abs(ref.values))

    def test_decay_envelope_monotone(self, op256c):
        g = Grid(256)
        g0 = scaled_data(PARAMS, g, 1e-2)
        cfg = EvolutionConfig(dt=1.5, t_final=400.0, interp="cubic")
        traj = evolve_perturbation(g0, PARAMS, cfg, operator=op256c)
        # coarse relaxation sanity: later windows never exceed earlier ones
        w = traj.sup_w12
        thirds = np.array_split(w, 3)
        assert np.max(thirds[1]) <= np.max(thirds[0]) + 1e-14
        assert np.max(thirds[2]) <= np.max(thirds[1]) + 1e-14
        bn16, bn12 = b_norm_components(traj)
        assert np.all(np.isfinite(bn16)) and np.all(np.isfinite(bn12))

    def test_epsilon_threshold_probe(self, op256c):
        # the decay law holds for eps up to at least 1e-1 at this resolution
        g = Grid(256)
        slopes = {}
        for eps in (1e-3, 1e-2, 1e-1):
            cfg = EvolutionConfig(dt=1.5, t_final=300.0, interp="cubic")
            traj = evolve_perturbation(scaled_data(PARAMS, g, eps), PARAMS, cfg,
                                       operator=op256c, eps_max=0.1)
            rep = traj.decay_report("sup_w12", (30.0, 300.0))
            slopes[eps] = rep.exponent
        assert slopes[1e-3] < -0.4
        assert slopes[1e-2] < -0.4
        assert slopes[1e-1] < -0.3  # visible transient, still relaxing


class TestFitPowerLaw:
    def test_exact_power(self):
        ts = np.geomspace(1.0, 100.0, 30)
        series = [(t, t ** -0.6) for t in ts]
        slope, stderr = fit_power_law(series, (1.0, 100.0))
        assert slope == pytest.approx(-0.6, abs=1e-10)
        assert stderr < 1e-10

    def test_modulated_power(self):
        ts = np.geomspace(1.0, 100.0, 60)
        series = [(t, 2.0 * t ** -0.6 * (1.0 + 0.01 * np.sin(np.log(t)))) for t in ts]
        slope, _ = fit_power_law(series, (1.0, 100.0))
        assert slope == pytest.approx(-0.6, abs=0.02)

    def test_constant_series(self):
        series = [(t, 3.0) for t in np.geomspace(1.0, 50.0, 20)]
        slope, _ = fit_power_law(series, (1.0, 50.0))
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_guards(self):
        with pytest.raises(FitError):
            fit_power_law([(1.0, 1.0)] * 4, (0.5, 2.0))
        series = [(t, -1.0) for t in np.geomspace(1.0, 50.0, 20)]
        with pytest.raises(FitError):
            fit_power_law(series, (1.0, 50.0))
