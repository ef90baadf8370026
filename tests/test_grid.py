import numpy as np
import pytest

from phononlab.cli import _write_csv
from phononlab.errors import NonFiniteError, PositivityError
from phononlab.grid import Field, Grid, gather, interp_weights, lp_norm, weighted_sup
from phononlab.manifold import TWO_PI

RNG = np.random.default_rng(7)


class TestGrid:
    def test_nodes(self):
        g = Grid(32)
        assert g.nodes[0] == pytest.approx(np.pi / 32)
        assert g.weight == pytest.approx(TWO_PI / 32)
        assert np.all((g.nodes > 0) & (g.nodes < TWO_PI))

    def test_min_size(self):
        with pytest.raises(ValueError):
            Grid(8)


class TestField:
    def test_validation(self):
        g = Grid(16)
        with pytest.raises(NonFiniteError):
            Field(g, np.full(16, np.nan))
        with pytest.raises(ValueError):
            Field(g, np.ones(8))

    def test_positivity_floor(self):
        f = Field(Grid(16), np.full(16, 1e-13))
        with pytest.raises(PositivityError):
            f.require_positive()
        f.require_positive(floor=0.0)


class TestEvaluate:
    # off-grid values as every production caller reads them: the one gather
    # over an interp_weights stencil
    def test_exact_at_nodes(self):
        g = Grid(64)
        vals = RNG.normal(size=64)
        out = gather(vals, interp_weights(g, g.nodes))
        assert np.allclose(out, vals, atol=0, rtol=0)

    def test_constant(self):
        g = Grid(32)
        ps = RNG.uniform(0, TWO_PI, 100)
        assert np.allclose(gather(np.full(32, 3.7), interp_weights(g, ps)), 3.7, atol=1e-14)

    def test_sine_accuracy(self):
        g = Grid(256)
        p = np.array([1.2345])
        for order, tol in (("linear", 5e-4), ("cubic", 5e-8)):
            assert abs(gather(np.sin(g.nodes), interp_weights(g, p, order)) - np.sin(p)) < tol

    def test_periodic_wrap(self):
        g = Grid(64)
        vals = np.cos(g.nodes)
        ends = gather(vals, interp_weights(g, np.array([0.0, TWO_PI])))
        assert ends[0] == pytest.approx(ends[1], abs=1e-13)


class TestLpNorm:
    def test_constants(self):
        f = Field(Grid(64), np.full(64, 1.0))
        assert lp_norm(f, 2) == pytest.approx(np.sqrt(TWO_PI), abs=1e-13)
        assert lp_norm(f, np.inf) == 1.0

    def test_triangle_inequality(self):
        g = Grid(128)
        for _ in range(20):
            a = Field(g, RNG.normal(size=128))
            b = Field(g, RNG.normal(size=128))
            s = Field(g, a.values + b.values)
            for p in (1.0, 2.0, 3.5, np.inf):
                assert lp_norm(s, p) <= lp_norm(a, p) + lp_norm(b, p) + 1e-12

    def test_invalid_p(self):
        for p in (0.5, np.nan):  # NaN fails like any p below 1
            with pytest.raises(ValueError):
                lp_norm(Field(Grid(16), np.full(16, 1.0)), p)

    def test_weighted_sup(self):
        g = Grid(64)
        f = Field(g, np.full(g.n, 2.0))
        assert weighted_sup(f, 0.5) == pytest.approx(2.0 * np.max(g.omega ** 0.5))


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        g = Grid(32)
        f = Field(g, RNG.normal(size=32))
        path = tmp_path / "f.csv"
        _write_csv(path, ["p", "value"], zip(g.nodes, f.values))
        assert path.read_text().splitlines()[0] == "p,value"
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], g.nodes)
        assert np.array_equal(table[:, 1], f.values)
