import weakref
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import bincount_exchange_sum, dense_L, full_table, lagrange_gather
from phononlab import collision, dynamics, linearized
from phononlab.collision import ResonanceTable, collision_operator
from phononlab.dynamics import (MAX_STEPS, EvolutionConfig, PerturbationTables, _run,
                                evolve_nonlinear_f, evolve_perturbation)
from phononlab.equilibria import RjParams, rj_field
from phononlab.errors import BlowupError, ConfigError, FitError
from phononlab.fitting import fit_power_law
from phononlab.grid import Field, Grid
from phononlab.linearized import assemble, decay_initial_data, multiplier_a, semigroup_apply

PARAMS = RjParams(1.0, 1.0)


@pytest.fixture(scope="module")
def op128():
    return assemble(PARAMS, Grid(128))


@pytest.fixture(scope="module")
def op256c():
    return assemble(PARAMS, Grid(256), interp="cubic")


def scaled_data(params, grid, eps):
    g0 = decay_initial_data(params, grid)
    scale = eps / float(np.max(np.abs(g0.values) / grid.omega ** 0.5))
    return Field(grid, scale * g0.values)


# Full-matrix oracle: every (p0, p2) pair of the tensor rule, both triangles,
# with the p3 side read from the full table's own P3 and i3 stencil, and Q and N
# summed separately row by row.  PerturbationTables.nonlinear must match
# Q + N to rounding.

def full_tables(params, grid, interp="linear"):
    """Channel weights G0..G3 on the full (n x n) tensor rule."""
    tab = full_table(grid, interp)
    fb = params.value(grid.nodes)
    F0, F1, F2, F3 = fb[:, None], params.value(tab.P1), fb[None, :], params.value(tab.P3)
    W = tab.W
    return SimpleNamespace(tab=tab, grid=grid, inv_fb=1.0 / fb,
                           G0=W * F1 * F2 * F3, G1=W * F0 * F2 * F3,
                           G2=W * F0 * F1 * F3, G3=W * F0 * F1 * F2)


def full_gathers(full, g):
    return (g[:, None], lagrange_gather(g, full.tab.i1), g[None, :],
            lagrange_gather(g, full.tab.i3))


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


def table_data(n, even):
    """The tables of `random_data`: whole ones on it, and the half-table
    ones (`even`) on its even parts, the only data they serve."""
    return [(g + g[::-1]) / 2 for g in random_data(n)] if even else random_data(n)


class TestNonlinearKernel:
    # packed upper triangles: 48 and 100 fit in one block of 16384 entries,
    # 200 (19,900) and 256 (32,640) end in a ragged second block and 384
    # (73,536) in a ragged fifth; their half tables hold 576, 2,500,
    # 10,000, 16,384 (one whole block) and 36,864 entries (a ragged third)
    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("n", [48, 100, 200, 256, 384])
    def test_agrees_with_full_matrix(self, interp, n):
        grid = Grid(n)
        full = full_tables(PARAMS, grid, interp)
        for even in (False, True):
            tabs = PerturbationTables(PARAMS, grid, interp, even)
            assert tabs.tab.W.size == (n * n // 4 if even else n * (n - 1) // 2)
            assert np.all(tabs.nonlinear(np.zeros(n)) == 0.0)
            for g in table_data(n, even):
                want = full_quadratic(full, g) + full_cubic(full, g)
                got = tabs.nonlinear(g)
                bound = 1e-13 * np.max(np.abs(want))
                if even:
                    # the exact rule maps even g to an even Q + N, and the
                    # half table's is even by construction; the oracle's is
                    # not: it computes each mirror entry's geometry afresh,
                    # and its odd part (1.2e-13 of its maximum at n = 384 on
                    # the 1e3 data) is its own rounding, which the even part
                    # removes and the bound allows for
                    odd = (want - want[::-1]) / 2
                    want, bound = want - odd, bound + np.max(np.abs(odd))
                assert np.max(np.abs(got - want)) <= bound

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("n", [48, 100, 200, 256, 384])
    def test_mass_cancels(self, interp, n):
        # each pair adds to one row what it takes from the other, and on the
        # half table each reflected pair too
        grid = Grid(n)
        fb = PARAMS.value(grid.nodes)
        for even in (False, True):
            tabs = PerturbationTables(PARAMS, grid, interp, even)
            for g in table_data(n, even):
                r = fb * tabs.nonlinear(g)
                assert abs(np.sum(r)) <= 1e-15 * np.sum(np.abs(r))

    @pytest.mark.parametrize(("n", "block"), [(128, None), (256, None), (128, 1000)])
    def test_even_table_is_the_streamed_half_table(self, monkeypatch, n, block):
        # one definition of the half table: the even tables hold, bit for
        # bit, the blocks that the linearized assembly streams, also when
        # both are built in blocks of 1,000 entries (5 blocks at n = 128)
        if block is not None:
            monkeypatch.setattr(collision, "_TABLE_BLOCK", block)
        grid = Grid(n)
        def arrays(t):  # i, j, P1, P3, W, then each stencil's q and t
            return [getattr(t, name) for name in ("i", "j", "P1", "P3", "W")] + \
                [x for side in ("i1", "i3") for x in getattr(t, side)]

        tab = PerturbationTables(PARAMS, grid, "cubic", even=True).tab
        blocks = list(collision._packed_blocks(grid, "cubic"))
        assert len(blocks) == (5 if block else 1)
        for whole, *parts in zip(arrays(tab), *map(arrays, blocks)):
            assert np.array_equal(whole, np.concatenate(parts))

    @pytest.mark.parametrize("even", [False, True])
    def test_streamed_arrays_start_on_a_page(self, even):
        # every array the pass streams starts on a page boundary: the
        # table's nodes and stencils, the channel weights, and the rows of
        # the gathered values and of the fused integrand (n = 256: blocks
        # of 2^14 entries, whole or half table)
        n = 256
        tabs = PerturbationTables(PARAMS, Grid(n), "cubic", even)
        tabs.nonlinear(table_data(n, even)[0])
        tab = tabs.tab
        rows = [tab.i, tab.j, *tab.i1, *tab.i3, tabs.G0, tabs.G1, tabs.G2, tabs.G3,
                *tab._values, *tabs._buffers]
        assert all(r.ctypes.data % collision._PAGE == 0 for r in rows)

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    def test_block_size_independent(self, monkeypatch, interp):
        # n = 100: 4,950 entries, 38 blocks of 128 and a ragged one of 86;
        # its half table 2,500, 19 blocks of 128 and a ragged one of 68
        n = 100
        for even in (False, True):
            tabs = PerturbationTables(PARAMS, Grid(n), interp, even)
            for g in table_data(n, even):
                want = tabs.nonlinear(g)
                with monkeypatch.context() as m:
                    m.setattr(collision, "_EXCHANGE_BLOCK", 128)
                    got = tabs.nonlinear(g)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    def test_collision_map_block_size_independent(self, monkeypatch, interp):
        # C[f] on the whole table of n = 100, also in blocks of 128 that cut
        # its rows mid-run.  Row n - 1 holds no entries of the whole table:
        # the row sums over i add exactly 0 to it, so it keeps, bit for bit,
        # what the two-bincount scatter gives it
        n = 100
        grid = Grid(n)
        collide = collision.collision_map(grid, interp)
        tab = ResonanceTable(grid, interp)
        f = rj_field(PARAMS, grid).values * (1.0 + 0.1 * np.sin(3.0 * grid.nodes))
        want = collide(f)
        for block in (collision._EXCHANGE_BLOCK, 128):
            with monkeypatch.context() as m:
                m.setattr(collision, "_EXCHANGE_BLOCK", block)
                got = collide(f)
                ref = grid.weight * bincount_exchange_sum(
                    tab, f, lambda s, *f4: tab.W[s] * collision._bracket(*f4))
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            assert got[n - 1] == ref[n - 1]


class TestEvolutionConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EvolutionConfig(dt=-1.0, t_final=1.0)
        with pytest.raises(ConfigError):
            EvolutionConfig(dt=1.0, t_final=0.5)
        # the step bound compares t_final / dt as floats, before any int()
        EvolutionConfig(dt=0.5, t_final=0.5 * MAX_STEPS)
        for t_final in (0.5 * MAX_STEPS * (1.0 + 1e-15), 1e300):
            with pytest.raises(ConfigError, match="exceeds MAX_STEPS"):
                EvolutionConfig(dt=0.5, t_final=t_final)

    def test_holds_only_the_step_schedule(self):
        # the stencil belongs to the operator or to the call, not to the config
        assert [f.name for f in fields(EvolutionConfig)] == ["dt", "t_final"]

    def test_record_times(self):
        geo = EvolutionConfig(dt=0.5, t_final=100.0).record_times()
        assert len(geo) == 64
        assert geo[-1] == pytest.approx(100.0)

    def test_stability_guard(self, op128):
        g = Grid(128)
        g0 = scaled_data(PARAMS, g, 1e-3)
        cfg = EvolutionConfig(dt=50.0, t_final=100.0)
        with pytest.raises(ConfigError):
            evolve_perturbation(g0, cfg, operator=op128)


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
            lhs = dense_L(op) @ v + quadratic_term(Field(g, v), PARAMS).values \
                + cubic_term(Field(g, v), PARAMS).values
            rhs = collision_operator(Field(g, fb * (1.0 + v))).values / fb
            devs.append(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))
        assert devs[1] < 0.1
        assert devs[1] < devs[0]


class TestNonlinearF:
    def test_rj_stationary(self):
        g = Grid(128)
        f0 = rj_field(PARAMS, g)
        cfg = EvolutionConfig(dt=1.0, t_final=10.0)
        traj = evolve_nonlinear_f(f0, cfg, "cubic")
        drift = np.max(np.abs(traj.states[-1][1] - f0.values)) / np.max(f0.values)
        assert drift < 1e-4
        dm, de = traj.conserved_drift()
        assert dm < 1e-12 and de < 1e-6

    def test_perturbed_run_conserves_and_entropy_grows(self):
        g = Grid(128)
        fb = rj_field(PARAMS, g).values
        f0 = Field(g, fb * (1.0 + 0.05 * np.sin(2 * g.nodes)))
        cfg = EvolutionConfig(dt=1.0, t_final=10.0)
        traj = evolve_nonlinear_f(f0, cfg, "cubic")
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
            cfg = EvolutionConfig(dt=dt, t_final=4.0)
            traj = evolve_nonlinear_f(f0, cfg)
            outs.append(traj.states[-1][1])
        ref = outs[-1]
        e1 = np.max(np.abs(outs[0] - ref))
        e2 = np.max(np.abs(outs[1] - ref))
        assert e1 / e2 > 8.0  # fourth-order: ratio ~16 against a finer reference

    def test_positivity_blowup_guard(self):
        # data whose (mass, energy) cannot be matched skips the stiffness
        # guard; an unstable RK4 stage then drives the spectrum negative,
        # which must surface as BlowupError
        g = Grid(128)
        f0 = Field(g, 0.3 + g.omega)
        cfg = EvolutionConfig(dt=40.0, t_final=4000.0)
        with pytest.raises(BlowupError, match="mid-step"):
            evolve_nonlinear_f(f0, cfg)


class TestRunGuards:
    def test_positivity_checked_every_step(self):
        # f = 1 + g with dg/dt = -0.19 crosses zero at t = 5.26; the record
        # times 4.99 and 5.78 are taken at the steps t = 5 and 6, so the step
        # that lands at t = 5.5 records nothing and must still raise
        g = Grid(16)
        cfg = EvolutionConfig(dt=0.5, t_final=1e4)
        t_fail = 5.5
        rec = cfg.record_times()
        assert not np.any((rec > t_fail - cfg.dt) & (rec <= t_fail))
        with pytest.raises(BlowupError, match=r"positivity failed at t = 5\.5$"):
            _run(g, np.zeros(16), lambda gv: np.full_like(gv, -0.19), cfg,
                 to_f=lambda gv: 1.0 + gv, mass0=0.0, energy0=0.0)

    def test_sup_norm_checked_every_step(self):
        # f = g with dg/dt = 2 g grows by the RK4 factor q = 1 + 1 + 1/2 +
        # 1/6 + 1/24 per step of 0.5 and stays positive; the first step
        # whose sup exceeds BLOWUP_FACTOR times the initial one (q^6 = 394,
        # q^7 = 1,067 for 10^3) must raise
        g = Grid(16)
        cfg = EvolutionConfig(dt=0.5, t_final=10.0)
        q = 1.0 + 1.0 + 1.0 / 2.0 + 1.0 / 6.0 + 1.0 / 24.0
        steps = int(np.floor(np.log(dynamics.BLOWUP_FACTOR) / np.log(q))) + 1
        t_fail = steps * cfg.dt
        assert t_fail < cfg.t_final
        with pytest.raises(BlowupError,
                           match=rf"sup-norm left the trust region at t = {t_fail:.3g}$"):
            _run(g, np.ones(16), lambda gv: 2.0 * gv, cfg,
                 to_f=lambda gv: gv, mass0=0.0, energy0=0.0)


    @pytest.mark.parametrize(("dt", "t_final"), [(1e6 / 61, 1e6), (1.5, 1e3), (0.3, 7.0)])
    def test_last_record_at_t_final(self, dt, t_final):
        # a step's time is not a running sum of dt: 61 steps of 1e6 / 61
        # summed fall short of 1e6 by more than the record slack, so the
        # run recorded 36 states, the last at t = 950,819.67; and the last
        # time is t_final to the bit (the sum read 1000.0000000000117)
        cfg = EvolutionConfig(dt=dt, t_final=t_final)
        traj = _run(Grid(16), np.zeros(16), np.zeros_like, cfg,
                    to_f=lambda gv: 1.0 + gv, mass0=0.0, energy0=0.0)
        assert traj.times[-1] == traj.states[-1][0] == t_final
        assert np.all(np.diff(traj.times) > 0.0)


class TestTableOwnership:
    @staticmethod
    def track_tables(monkeypatch):
        """Weak references to every ResonanceTable built from now on, with
        the span of the half table each was built for (None for a whole
        table)."""
        built = []
        init = ResonanceTable.__init__

        def tracking_init(self, grid, interp="linear", span=None):
            init(self, grid, interp, span)
            built.append((weakref.ref(self), span))
        monkeypatch.setattr(ResonanceTable, "__init__", tracking_init)
        return built

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_no_table_outlives_its_caller(self, monkeypatch, workers):
        # every table, whole or streamed, is freed when the call that built
        # it returns; blocks of 1,000 entries put the build and the stream
        # on the pool
        monkeypatch.setenv("PHONON_THREADS", workers)
        monkeypatch.setattr(collision, "_TABLE_BLOCK", 1000)
        built = self.track_tables(monkeypatch)
        g = Grid(128)
        f0 = rj_field(PARAMS, g)
        cfg = EvolutionConfig(dt=1.0, t_final=3.0)
        calls = {"collision_operator": lambda: collision_operator(f0, "cubic"),
                 "assemble": lambda: assemble(PARAMS, g),
                 "multiplier_a": lambda: multiplier_a(PARAMS, g),
                 "evolve_nonlinear_f": lambda: evolve_nonlinear_f(f0, cfg, "cubic"),
                 "evolve_perturbation": lambda: evolve_perturbation(
                     scaled_data(PARAMS, g, 1e-2), cfg, assemble(PARAMS, g, "cubic"))}
        for name, call in calls.items():
            built.clear()
            call()
            assert built, name
            assert [span for ref, span in built if ref() is not None] == [], name

    @pytest.mark.parametrize("name", ["multiplier_a", "_weak_form_matrix"])
    def test_no_block_outlives_its_group(self, monkeypatch, name):
        # a streamed block is dropped before the next group is built: when
        # any block starts building, no block of an earlier group is alive
        monkeypatch.setenv("PHONON_THREADS", "2")
        monkeypatch.setattr(collision, "_TABLE_BLOCK", 1000)
        built = self.track_tables(monkeypatch)
        tracked, late = ResonanceTable.__init__, []

        def group(span):  # by the block's place in the half table
            return span[0] // (2 * collision._TABLE_BLOCK)

        def checking_init(self, grid, interp="linear", span=None):
            late.extend(e for ref, e in list(built)
                        if ref() is not None and group(e) < group(span))
            tracked(self, grid, interp, span)
        monkeypatch.setattr(ResonanceTable, "__init__", checking_init)
        g = Grid(128)  # 4,096 entries in the half table: 5 blocks in 3 groups
        {"multiplier_a": lambda: multiplier_a(PARAMS, g),
         "_weak_form_matrix": lambda: linearized._weak_form_matrix(PARAMS, g, "linear")}[name]()
        assert len(built) == 5
        assert late == []

    def test_nonlinear_f_builds_one_whole_table(self, monkeypatch):
        # one table serves every stage of the run, even after an earlier
        # C[f] on the same grid has come and gone
        g = Grid(128)
        f0 = rj_field(PARAMS, g)
        collision_operator(f0, "cubic")
        built = self.track_tables(monkeypatch)
        cfg = EvolutionConfig(dt=1.0, t_final=5.0)
        traj = evolve_nonlinear_f(f0, cfg, "cubic")
        assert traj.rhs_evals == 20
        assert sum(span is None for _, span in built) == 1


class TestPerturbation:
    def test_eps_guard(self, op128):
        g = Grid(128)
        g0 = scaled_data(PARAMS, g, 0.5)
        with pytest.raises(ConfigError):
            evolve_perturbation(g0, EvolutionConfig(dt=1.0, t_final=5.0), op128)

    def test_operator_mismatch_guard(self, op128):
        # the data's grid must be the operator's (the stencil is the operator's own)
        with pytest.raises(ConfigError, match="n = 64"):
            evolve_perturbation(scaled_data(PARAMS, Grid(64), 1e-3),
                                EvolutionConfig(dt=1.0, t_final=5.0), op128)

    def test_conservation(self, op256c):
        g = Grid(256)
        g0 = scaled_data(PARAMS, g, 1e-2)
        cfg = EvolutionConfig(dt=1.5, t_final=100.0)
        traj = evolve_perturbation(g0, cfg, operator=op256c)
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
        cfg = EvolutionConfig(dt=1.5, t_final=100.0)
        traj = evolve_perturbation(g0, cfg, operator=op256c)
        fb = rj_field(PARAMS, g).values
        l2_0 = np.sqrt(g.weight) * np.linalg.norm(traj.states[0][1])
        for t, gv in traj.states[::5]:
            num = abs(g.weight * np.sum(fb * gv)) + abs(g.weight * np.sum(g.omega * fb * gv))
            assert num < 1e-6 * l2_0

    def test_even_data_runs_on_the_mirror_class(self, monkeypatch):
        # n = 128 cubic: the decay data is even to rounding, so its run sums
        # the 4,096 entries of the half table; an odd bump of 1e-6 of its
        # sup sends the same data to the whole table of 8,128
        g = Grid(128)
        op = assemble(PARAMS, g, "cubic")
        g0 = scaled_data(PARAMS, g, 1e-2)
        cfg = EvolutionConfig(dt=1.0, t_final=20.0)
        traj = evolve_perturbation(g0, cfg, op)
        assert traj.rhs_table_entries == 4096
        bump = 1e-6 * np.max(np.abs(g0.values)) * np.sin(g.nodes)  # odd under p -> 2pi - p
        bumped = evolve_perturbation(Field(g, g0.values + bump),
                                     EvolutionConfig(dt=1.0, t_final=1.0), op)
        assert bumped.rhs_table_entries == 8128
        # forced onto the whole table, the run agrees to rounding
        monkeypatch.setattr(dynamics, "PerturbationTables",
                            lambda params, grid, interp, even: PerturbationTables(
                                params, grid, interp))
        whole = evolve_perturbation(g0, cfg, op)
        assert whole.rhs_table_entries == 8128
        assert [t for t, _ in whole.states] == [t for t, _ in traj.states]
        sup = np.max(np.abs(g0.values))
        for (_, a), (_, b) in zip(traj.states, whole.states):
            assert np.max(np.abs(a - b)) <= 1e-12 * sup

    def test_runs_without_the_dense_matrix(self, monkeypatch, op128):
        # L g is the block-wise product: no run forms the n x n matrix, on
        # the half table (even data) or on the whole table (an odd bump)
        def refuse(op):
            raise AssertionError("LinOperator.matrix read")
        monkeypatch.setattr(linearized.LinOperator, "matrix", property(refuse))
        g = Grid(128)
        g0 = scaled_data(PARAMS, g, 1e-2)
        bump = 1e-6 * np.max(np.abs(g0.values)) * np.sin(g.nodes)
        cfg = EvolutionConfig(dt=1.0, t_final=5.0)
        for data, entries in ((g0.values, 4096), (g0.values + bump, 8128)):
            traj = evolve_perturbation(Field(g, data), cfg, op128)
            assert traj.rhs_table_entries == entries and traj.rhs_evals == 20

    def test_linear_consistency_with_semigroup(self, op128):
        # at eps = 1e-6 the trajectory is the semigroup up to O(eps^2 t)
        g = Grid(128)
        g0 = scaled_data(PARAMS, g, 1e-6)
        cfg = EvolutionConfig(dt=0.5, t_final=10.0)
        traj = evolve_perturbation(g0, cfg, operator=op128)
        t_end, g_end = traj.states[-1]
        ref = semigroup_apply(op128, g0, [t_end])[0]
        err = np.max(np.abs(g_end - ref))
        assert err < 1e-3 * np.max(np.abs(ref))

    def test_decay_envelope_monotone(self, op256c):
        g = Grid(256)
        g0 = scaled_data(PARAMS, g, 1e-2)
        cfg = EvolutionConfig(dt=1.5, t_final=400.0)
        traj = evolve_perturbation(g0, cfg, operator=op256c)
        # coarse relaxation sanity: later windows never exceed earlier ones
        w = traj.sup_w12
        thirds = np.array_split(w, 3)
        assert np.max(thirds[1]) <= np.max(thirds[0]) + 1e-14
        assert np.max(thirds[2]) <= np.max(thirds[1]) + 1e-14

    def test_epsilon_threshold_probe(self, op256c):
        # the decay law holds for eps up to at least 1e-1 at this resolution
        g = Grid(256)
        slopes = {}
        for eps in (1e-3, 1e-2, 1e-1):
            cfg = EvolutionConfig(dt=1.5, t_final=300.0)
            traj = evolve_perturbation(scaled_data(PARAMS, g, eps), cfg,
                                       operator=op256c)
            rep = traj.decay_report((30.0, 300.0))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_window_is_fit_error(self, bad):
        # NaN and inf pass a bare positivity check; the fit returned NaN
        ts = np.geomspace(1.0, 50.0, 20)
        series = [(t, t ** -0.5) for t in ts]
        series[7] = (ts[7], bad)
        with pytest.raises(FitError, match="finite, positive"):
            fit_power_law(series, (1.0, 50.0))
        if bad == np.inf:  # an infinite time inside an unbounded window
            with pytest.raises(FitError, match="finite, positive"):
                fit_power_law([(t, 1.0) for t in ts] + [(bad, 1.0)], (1.0, bad))
