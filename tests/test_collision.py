import sys
import threading

import numpy as np
import pytest

from phononlab import collision
from phononlab.collision import (blowup_points, collision_operator,
                                 conserved_quantities, entropy,
                                 epsilon_family)
from phononlab.equilibria import RjParams, rj_field
from phononlab.errors import PositivityError, ResolutionError
from phononlab.grid import Field, Grid, constant_field, field_from_function, lp_norm
from phononlab.manifold import TWO_PI

RNG = np.random.default_rng(11)


def smooth_positive_field(grid, seed=0, amp=0.3):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=6)
    s = rng.normal(size=6)
    base = sum(c[k] * np.cos((k + 1) * grid.nodes) + s[k] * np.sin((k + 1) * grid.nodes)
               for k in range(6)) / 6.0
    return Field(grid, 1.0 + amp * base)


class TestCollisionOperator:
    def test_constant_is_stationary(self):
        C = collision_operator(constant_field(Grid(128), 2.5))
        assert lp_norm(C, np.inf) == 0.0

    def test_rj_stationarity_under_refinement(self):
        for beta, gamma in ((1.0, 1.0), (2.0, 0.5), (0.5, 3.0)):
            res = []
            for n in (128, 256, 512):
                f = rj_field(RjParams(beta, gamma), Grid(n))
                res.append(lp_norm(collision_operator(f), np.inf))
            assert res[0] > res[1] > res[2]
            assert res[2] < 1e-5

    def test_singular_rj_residual_away_from_edges(self):
        # f = 1/omega with the positivity floor; residual shrinks in the bulk
        sup = []
        for n in (128, 256):
            g = Grid(n)
            f = rj_field(RjParams(1.0, 0.0), g)
            C = collision_operator(f)
            bulk = (g.nodes > 0.5) & (g.nodes < TWO_PI - 0.5)
            sup.append(np.max(np.abs(C.values[bulk])))
        assert sup[1] < 0.5 * sup[0]

    def test_mass_conserved_to_rounding(self):
        g = Grid(256)
        f = smooth_positive_field(g, seed=3)
        C = collision_operator(f)
        m, e = conserved_quantities(C)
        scale = lp_norm(f, np.inf) ** 3
        assert abs(m) < 1e-13 * scale

    def test_energy_conservation_improves_with_resolution(self):
        drifts = []
        for n in (128, 256, 512):
            f = smooth_positive_field(Grid(n), seed=5)
            _, e = conserved_quantities(collision_operator(f))
            drifts.append(abs(e))
        assert drifts[2] < drifts[0]
        assert drifts[2] < 1e-5

    @pytest.mark.parametrize("interp", ["linear", "cubic"])
    @pytest.mark.parametrize("n", [256, 300])
    def test_row_blocks_equal_cached_table(self, monkeypatch, interp, n):
        # above TABLE_MAX_N the operator runs on collision_at: the same bits,
        # signed zeros included, for a positive field and for one with zeros
        # (whose zero rows take the support path), at any worker count and
        # with one block or many (7 rows each on the full path, ragged)
        g = Grid(n)
        for f in (smooth_positive_field(g, seed=2),
                  Field(g, np.maximum(0.0, np.sin(3.0 * g.nodes)))):
            monkeypatch.setattr(collision, "TABLE_MAX_N", 2048)
            full = collision_operator(f, interp, pos_floor=0.0).values.view(np.uint64)
            monkeypatch.setattr(collision, "TABLE_MAX_N", 0)
            for workers in (1, 2, 3):
                monkeypatch.setenv("PHONON_THREADS", str(workers))
                for block_values in (1 << 16, 7 * n):
                    monkeypatch.setattr(collision, "_BLOCK_VALUES", block_values)
                    blocked = collision_operator(f, interp, pos_floor=0.0).values
                    assert np.array_equal(blocked.view(np.uint64), full)

    def test_positivity_guard(self):
        with pytest.raises(PositivityError):
            collision_operator(constant_field(Grid(64), 1e-13))

    def test_weighted_boundedness(self):
        # ||w^-alpha C[f]||_inf <= C ||w^-alpha f||_inf^3 with stable constant
        for alpha in (-1.0, 0.0, 0.5):
            consts = []
            for n in (128, 256):
                g = Grid(n)
                prof = smooth_positive_field(g, seed=8).values
                f = Field(g, g.omega ** alpha * prof)
                C = collision_operator(f)
                num = np.max(g.omega ** (-alpha) * np.abs(C.values))
                den = np.max(g.omega ** (-alpha) * np.abs(f.values)) ** 3
                consts.append(num / den)
            assert consts[1] < 10.0
            assert 0.2 < consts[1] / consts[0] < 5.0

    def test_entropy_production_sign(self):
        # d/dt int log f = <C[f], 1/f> = (1/4) int (measure) prod(f) B^2 >= 0
        # by the four-fold exchange symmetry: entropy is nondecreasing
        for seed in range(5):
            g = Grid(256)
            f = smooth_positive_field(g, seed=seed)
            C = collision_operator(f)
            prod = g.weight * np.sum(C.values / f.values)
            assert prod > -1e-10


class TestDiagnostics:
    def test_conserved_quantities_closed_forms(self):
        g = Grid(512)
        m, e = conserved_quantities(constant_field(g, 1.0))
        assert m == pytest.approx(TWO_PI, abs=1e-12)
        assert e == pytest.approx(4.0, abs=1e-3)  # midpoint rule on |sin(p/2)|
        m2, e2 = conserved_quantities(field_from_function(g, lambda p: np.abs(np.sin(p / 2))))
        assert m2 == pytest.approx(4.0, abs=1e-3)
        assert e2 == pytest.approx(np.pi, abs=1e-3)

    def test_conserved_quantities_vs_brute_force(self):
        f = rj_field(RjParams(1.0, 1.0), Grid(1024))
        m, e = conserved_quantities(f)
        p = (np.arange(10 ** 6) + 0.5) * TWO_PI / 10 ** 6
        fb = 1.0 / (np.abs(np.sin(p / 2)) + 1.0)
        w = TWO_PI / 10 ** 6
        # the nodal rule carries its own O(n^-2) error; compare at that scale
        assert m == pytest.approx(w * np.sum(fb), abs=5e-6)
        assert e == pytest.approx(w * np.sum(np.abs(np.sin(p / 2)) * fb), abs=5e-6)

    def test_entropy(self):
        g = Grid(256)
        assert entropy(constant_field(g, 1.0)) == 0.0
        assert entropy(constant_field(g, np.e)) == pytest.approx(TWO_PI, abs=1e-12)
        with pytest.raises(PositivityError):
            entropy(constant_field(g, 0.0))


class TestBlowupFamily:
    def test_points_match_reference_digits(self):
        pts = blowup_points()
        assert pts.p0 == 2.0
        assert round(pts.p1, 3) == 1.184
        assert round(pts.p2, 3) == 4.733

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            epsilon_family(0.05, Grid(1024))
        with pytest.raises(ValueError):
            epsilon_family(0.5, Grid(1024))

    def test_uniform_lp_bound(self):
        # ||f_eps||_p stays bounded as eps -> 0
        p_exp = 2.0
        norms = []
        for k in (4, 5, 6, 7):
            eps = 2.0 ** (-k)
            n = int(2 ** np.ceil(np.log2(32.0 / eps ** 2)))
            f = epsilon_family(eps, Grid(n), p_exp)
            norms.append(lp_norm(f, p_exp))
        assert max(norms) < 2.0 * min(norms)
        assert max(norms) < 3.0

    def test_gridded_operator_on_family(self):
        # the generic gridded path at the coarsest eps: finite, spike negative
        # at the base point, and much larger there than the background
        eps = 2.0 ** (-4)
        n = 8192
        f = epsilon_family(eps, Grid(n), 2.0)
        C = collision_operator(f, pos_floor=0.0)
        g = Grid(n)
        spike = np.abs(g.nodes - 2.0 - 0.5 * eps ** 2) < 0.5 * eps ** 2
        far = (np.abs(g.nodes - 2.0) > 0.5) & (np.abs(g.nodes - 4.733) > 0.8) \
            & (np.abs(g.nodes - 1.184) > 0.5)
        assert np.max(np.abs(C.values[spike])) > 30.0 * np.max(np.abs(C.values[far]))


class TestMapBlocks:
    def test_one_worker_runs_inline(self, monkeypatch):
        monkeypatch.setenv("PHONON_THREADS", "1")
        seen = set()

        def square(b):
            seen.add(threading.get_ident())
            return b * b

        assert collision.map_blocks(square, range(10)) == [b * b for b in range(10)]
        assert seen == {threading.get_ident()}

    def test_exception_reaches_caller_unchanged(self, monkeypatch):
        monkeypatch.setenv("PHONON_THREADS", "3")
        err = ValueError("block 5")

        def fn(b):
            if b == 5:
                raise err
            return b

        with pytest.raises(ValueError) as info:
            collision.map_blocks(fn, range(10))
        assert info.value is err

    def test_disjoint_rows_under_contention(self, monkeypatch):
        # more workers than cores and a short switch interval: every block
        # must write its own rows, and results come back in block order
        monkeypatch.setenv("PHONON_THREADS", "8")
        out = np.zeros(4000)
        seen = set()
        result = {}

        def fill(b):
            seen.add(threading.get_ident())
            for k in range(10 * b, 10 * b + 10):
                out[k] = k
            return b

        def run():
            result["blocks"] = collision.map_blocks(fill, range(400))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t = threading.Thread(target=run)
            t.start()
            t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not t.is_alive()
        assert result["blocks"] == list(range(400))
        assert np.array_equal(out, np.arange(4000.0))
        assert t.ident not in seen
